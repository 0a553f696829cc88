open Linalg
open Statespace

type mode = Pole_residue | Direct

type t = {
  mode : mode;
  poles : Cx.t array;
  cl : Cmat.t;  (* C V,             p x n *)
  br : Cmat.t;  (* V^{-1} E^{-1} B, n x m *)
  d : Cmat.t;   (* feedthrough of the compiled realization, p x m *)
  sys : Descriptor.t;  (* exact source realization (Direct mode, probes) *)
  form : Descriptor.hessenberg option;  (* Direct mode, real source *)
}

let mode t = t.mode
let order t = Descriptor.order t.sys
let inputs t = Descriptor.inputs t.sys
let outputs t = Descriptor.outputs t.sys
let poles t = t.poles

(* ------------------------------------------------------------------ *)
(* Pole-residue evaluation: H(s) = D + CL diag(1/(s - pole_k)) BR.
   One fused pass over the factors, O(n m p) with no allocation beyond
   the result. *)

let eval_pr t s =
  let n = Array.length t.poles in
  let p = Cmat.rows t.cl and m = Cmat.cols t.br in
  let res = Cmat.copy t.d in
  let rre = Cmat.unsafe_re res and rim = Cmat.unsafe_im res in
  let clre = Cmat.unsafe_re t.cl and clim = Cmat.unsafe_im t.cl in
  let brre = Cmat.unsafe_re t.br and brim = Cmat.unsafe_im t.br in
  for k = 0 to n - 1 do
    let w = Cx.inv (Cx.sub s t.poles.(k)) in
    for jc = 0 to m - 1 do
      let bre = brre.(k + (jc * n)) and bim = brim.(k + (jc * n)) in
      (* wb = w * BR(k, jc) *)
      let wbre = (w.Cx.re *. bre) -. (w.Cx.im *. bim) in
      let wbim = (w.Cx.re *. bim) +. (w.Cx.im *. bre) in
      let base = jc * p in
      for i = 0 to p - 1 do
        let cre = clre.(i + (k * p)) and cim = clim.(i + (k * p)) in
        rre.(base + i) <- rre.(base + i) +. (cre *. wbre) -. (cim *. wbim);
        rim.(base + i) <- rim.(base + i) +. (cre *. wbim) +. (cim *. wbre)
      done
    done
  done;
  res

(* Direct mode: one elimination on the stored Hessenberg-triangular
   form, or [Descriptor.eval] for a complex source or at a zero pivot. *)
let eval_direct t point s =
  match Option.bind point (fun point -> point s) with
  | Some g -> g
  | None -> Descriptor.eval t.sys s

let eval t s =
  match t.mode with
  | Pole_residue -> eval_pr t s
  | Direct -> eval_direct t (Option.map Descriptor.hessenberg_eval t.form) s

let eval_freq t f = eval t (Cx.jw (2. *. Float.pi *. f))

let eval_grid t freqs =
  match t.form with
  | Some form ->
    (* one scratch for the whole grid, so the points run in order *)
    let point = Some (Descriptor.hessenberg_eval form) in
    Array.map (fun f -> eval_direct t point (Cx.jw (2. *. Float.pi *. f))) freqs
  | None ->
    let n = Array.length freqs in
    let out = Array.make n t.d in
    (* each point writes its own slot: bit-identical at any domain count *)
    Parallel.parallel_for n (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i) <- eval_freq t freqs.(i)
        done);
    out

(* ------------------------------------------------------------------ *)
(* Compilation *)

let direct sys =
  { mode = Direct;
    poles = [||];
    cl = Cmat.create (Descriptor.outputs sys) 0;
    br = Cmat.create 0 (Descriptor.inputs sys);
    d = sys.Descriptor.d;
    sys;
    form = Descriptor.hessenberg sys }

(* Records why the pole-residue form was refused and what serves
   instead. *)
let fallback sys why =
  let t = direct sys in
  Diag.record ~site:"compiled.defective_fallback"
    (Printf.sprintf "%s; serving %s" why
       (if Option.is_some t.form then "the Hessenberg-triangular solve"
        else "per-point LU (complex realization)"));
  t

let try_diagonalize ~source realization =
  let fe = Lu.factorize realization.Descriptor.e in
  let einv_a = Lu.solve fe realization.Descriptor.a in
  let lam, v = Eig.eigen einv_a in
  let fv = Lu.factorize v in
  let br = Lu.solve fv (Lu.solve fe realization.Descriptor.b) in
  let cl = Cmat.mul realization.Descriptor.c v in
  { mode = Pole_residue; poles = lam; cl; br;
    d = realization.Descriptor.d; sys = source; form = None }

(* Deterministic probe grid spanning the pole band on the jw axis —
   the region serving requests actually hit. *)
let probe_points poles =
  let mags =
    Array.to_list poles
    |> List.filter_map (fun z ->
           let m = Cx.abs z in
           if Float.is_finite m && m > 0. then Some m else None)
  in
  let lo, hi =
    match mags with
    | [] -> (1., 1e9)
    | m :: rest ->
      List.fold_left (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
        (m, m) rest
  in
  let lo = Stdlib.max lo 1e-3 and hi = Stdlib.max (Stdlib.max hi 1.) lo in
  let k = 7 in
  Array.init k (fun i ->
      let frac = float_of_int i /. float_of_int (k - 1) in
      Cx.jw (lo *. ((hi /. lo) ** frac)))

(* Relative accuracy the pole-residue form must reach at every probe
   point to be kept.  Deliberately looser than machine precision: probes
   land on weakly-damped resonances where a diagonalized form genuinely
   loses accuracy in proportion to the eigenvector conditioning (a few
   digits for realistic Loewner realizations), while a defective pencil
   mis-evaluates by whole orders of magnitude.  [1e-5] separates the two
   cleanly and still sits below typical fit errors. *)
let tol = 1e-5

let accurate cand sys =
  Array.for_all
    (fun s ->
      let exact = Descriptor.eval sys s in
      let got = eval_pr cand s in
      Cmat.is_finite got
      && Cmat.norm_fro (Cmat.sub got exact)
         <= tol *. Stdlib.max (Cmat.norm_fro exact) 1e-30)
    (probe_points cand.poles)

let of_descriptor sys =
  if Descriptor.order sys = 0 then
    (* static network: pole-residue form with no poles *)
    { (direct sys) with mode = Pole_residue }
  else if Fault.armed "compiled.defective" then
    fallback sys "fault-injected defective pencil"
  else begin
    let attempt realization =
      match try_diagonalize ~source:sys realization with
      | cand when accurate cand sys -> Some cand
      | _ -> None
      | exception (Lu.Singular _ | Eig.No_convergence | Invalid_argument _) ->
        None
    in
    match attempt sys with
    | Some c -> c
    | None ->
      (* singular E: solve out the algebraic states, then retry (the
         validation still compares against the original realization) *)
      let proper =
        match Descriptor.to_proper sys with
        | p -> attempt p
        | exception Invalid_argument _ -> None
      in
      (match proper with
       | Some c -> c
       | None ->
         fallback sys
           (Printf.sprintf "pencil not diagonalizable to %.1e at order %d"
              tol (Descriptor.order sys)))
  end

let of_model model = of_descriptor (Mfti.Engine.Model.descriptor model)
