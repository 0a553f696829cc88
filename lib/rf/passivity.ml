open Linalg

type verdict =
  | Passive
  | Feedthrough_violation of float
  | Violations of float list

(* Hamiltonian test level [1 + gamma_margin], and the relative size
   below which a Hamiltonian eigenvalue's real part counts as zero. *)
let gamma_margin = 1e-6
let tol = 1e-8

let check sys =
  let gamma = 1. +. gamma_margin in
  let open Statespace in
  let n = Descriptor.order sys in
  if n = 0 then begin
    let sd = Svd.norm2 sys.Descriptor.d in
    if sd >= gamma then Feedthrough_violation sd else Passive
  end
  else begin
    (* eliminate any algebraic part (MNA models, Loewner models with
       feedthrough encoded at infinity), then absorb the nonsingular E *)
    let sys = Descriptor.to_proper sys in
    let a, b =
      match Lu.factorize sys.Descriptor.e with
      | exception Lu.Singular _ ->
        invalid_arg "Passivity.check: E is singular after index reduction"
      | f -> (Lu.solve f sys.Descriptor.a, Lu.solve f sys.Descriptor.b)
    in
    let c = sys.Descriptor.c and d = sys.Descriptor.d in
    let sd = Svd.norm2 d in
    if sd >= gamma then Feedthrough_violation sd
    else begin
      (* bounded-real Hamiltonian at level gamma = 1 + margin, with H
         for conjugate transpose:
         R = gamma^2 I - D^H D  (positive definite since sigma_max D < gamma)
         F = A + B R^-1 D^H C
         M = [[F, B R^-1 B^H], [-C^H (I + D R^-1 D^H) C, -F^H]]
         Imaginary eigenvalues <=> sigma_max S(jw) crosses gamma.  The
         margin keeps models that merely touch 1 (lossless at some
         frequency, reflective at infinity) on the passive side. *)
      let m_in = Cmat.cols b in
      let p_out = Cmat.rows c in
      let r =
        Cmat.sub
          (Cmat.scale_float (gamma *. gamma) (Cmat.identity m_in))
          (Cmat.mul_cn d d)
      in
      let rinv = Lu.inverse r in
      let f = Cmat.add a (Cmat.mul b (Cmat.mul rinv (Cmat.mul_cn d c))) in
      let top_right = Cmat.mul b (Cmat.mul rinv (Cmat.ctranspose b)) in
      let middle =
        Cmat.add (Cmat.identity p_out)
          (Cmat.mul d (Cmat.mul rinv (Cmat.ctranspose d)))
      in
      let bottom_left =
        Cmat.neg (Cmat.mul_cn c (Cmat.mul middle c))
      in
      let ham =
        Cmat.blocks
          [ [ f; top_right ];
            [ bottom_left; Cmat.neg (Cmat.ctranspose f) ] ]
      in
      let eigs =
        if Cmat.max_imag ham = 0. then Eig.eigenvalues_real (Cmat.real_part ham)
        else Eig.eigenvalues ham
      in
      let scale =
        Array.fold_left (fun acc e -> Stdlib.max acc (Cx.abs e)) 1e-300 eigs
      in
      (* jw is an eigenvalue only if gamma is a singular value of S(jw):
         a candidate whose imaginary part is roundoff on a real (or
         off-axis) eigenvalue fails that test *)
      let confirmed f =
        Array.exists
          (fun sv -> abs_float (sv -. gamma) <= sqrt tol *. gamma)
          (Svd.values (Descriptor.eval_freq sys f))
      in
      let crossings =
        Array.to_list eigs
        |> List.filter_map (fun (e : Cx.t) ->
            if abs_float e.Cx.re <= tol *. scale && e.Cx.im > 0. then
              Some (e.Cx.im /. (2. *. Float.pi))
            else None)
        |> List.sort_uniq compare
        |> List.filter confirmed
      in
      match crossings with
      | [] -> Passive
      | list -> Violations list
    end
  end

let max_violation sys ~freqs =
  Array.fold_left
    (fun acc h -> Stdlib.max acc (Svd.norm2 h -. 1.))
    neg_infinity (Statespace.Descriptor.eval_grid sys freqs)
