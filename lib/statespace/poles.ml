open Linalg

(* Eigenvalues of modulus beyond [infinite_tol * max(1, |A| / |E|)]
   are modes at infinity. *)
let infinite_tol = 1e8

let finite_poles sys =
  let open Descriptor in
  let n = order sys in
  if n = 0 then [||]
  else begin
    (* Shift-and-invert: eigs of (s0 E - A)^{-1} E are 1/(s0 - pole);
       modes at infinity land at exactly 0 and are easy to filter.  A
       real shift away from the imaginary axis keeps the pencil regular
       for stable systems. *)
    let scale_a = Stdlib.max (Cmat.norm_fro sys.a) 1. in
    let scale_e = Stdlib.max (Cmat.norm_fro sys.e) 1e-300 in
    let s0 = Cx.of_float (scale_a /. scale_e) in
    let pencil = Cmat.sub (Cmat.scale s0 sys.e) sys.a in
    match Lu.factorize pencil with
    | exception Lu.Singular _ ->
      invalid_arg "Poles.finite_poles: pencil singular at the chosen shift"
    | f ->
      let m = Lu.solve f sys.e in
      let eigs =
        if Cmat.max_imag m = 0. then Eig.eigenvalues_real (Cmat.real_part m)
        else Eig.eigenvalues m
      in
      let poles = ref [] in
      Array.iter
        (fun mu ->
          (* pole = s0 - 1/mu; mu ~ 0 means a mode at infinity *)
          if Cx.abs mu > 1. /. (infinite_tol *. Cx.abs s0) then
            poles := Cx.sub s0 (Cx.inv mu) :: !poles)
        eigs;
      Array.of_list (List.rev !poles)
  end

let is_stable sys =
  let poles = finite_poles sys in
  Array.for_all (fun p -> Cx.re p < 0.) poles
