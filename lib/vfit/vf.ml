open Linalg
open Statespace

type entry_selection =
  | Diagonal
  | All
  | First of int

type options = {
  n_poles : int;
  iterations : int;
  selection : entry_selection;
}

let default_options =
  { n_poles = 20; iterations = 10; selection = Diagonal }

type model = {
  basis : Basis.t;        (* poles in normalized rad/s: s' = s / w_scale *)
  coeffs : Cmat.t array;
  d : Cmat.t;
  w_scale : float;        (* frequency normalization, rad/s *)
}

type diagnostics = {
  iterations_run : int;
  pole_history : Cx.t array array;
}

let validate samples =
  if Array.length samples = 0 then invalid_arg "Vf.fit: no samples";
  Array.iter
    (fun smp ->
      if smp.Sampling.freq <= 0. then
        invalid_arg "Vf.fit: frequencies must be positive")
    samples

let selected_entries selection ~p ~m =
  match selection with
  | Diagonal -> Array.init (Stdlib.min p m) (fun i -> (i, i))
  | All -> Array.init (p * m) (fun k -> (k / m, k mod m))
  | First q ->
    if q < 1 || q > p * m then invalid_arg "Vf.fit: bad First selection";
    Array.init q (fun k -> (k / m, k mod m))

(* Basis rows at every (normalized) sample point: k x n complex.  All
   fitting happens in normalized frequency s' = s / w_scale, the standard
   VF conditioning trick: poles, samples and basis entries stay O(1)
   even for multi-GHz bands. *)
let basis_rows basis ~w_scale samples =
  Array.map
    (fun smp ->
      Basis.row basis (Cx.jw (2. *. Float.pi *. smp.Sampling.freq /. w_scale)))
    samples

(* --- sigma (pole identification) step ------------------------------- *)

(* Relaxed vector fitting (Gustavsen 2006): the sigma function is
   sigma(s) = d~ + sum c~_n phi_n(s) with d~ a free unknown, and one
   extra equation keeps sum_k Re sigma(s_k) = k so the trivial
   sigma = 0 solution — the classic failure mode of non-relaxed VF on
   noisy data — is excluded.

   Per entry, build the realified block [A1 | A2] where A1 = [phi, 1]
   holds the entry-local unknowns (numerator coefficients) and
   A2 = [-h .* phi, -h] the shared sigma unknowns (c~, d~); the
   right-hand side is zero.  QR-eliminate the local block and return the
   trailing rows of the shared columns. *)
let entry_reduced_block rows h n =
  let k = Array.length rows in
  let cols = (2 * n) + 2 in
  let a = Cmat.zeros (2 * k) cols in
  for kk = 0 to k - 1 do
    let phi = rows.(kk) in
    let hv = h.(kk) in
    for nn = 0 to n - 1 do
      let p = phi.(nn) in
      Cmat.set a kk nn (Cx.of_float (Cx.re p));
      Cmat.set a (k + kk) nn (Cx.of_float (Cx.im p));
      let hp = Cx.mul hv p in
      Cmat.set a kk (n + 1 + nn) (Cx.of_float (-.Cx.re hp));
      Cmat.set a (k + kk) (n + 1 + nn) (Cx.of_float (-.Cx.im hp))
    done;
    Cmat.set a kk n Cx.one;  (* the d_e column: Re rows only *)
    (* the d~ column *)
    Cmat.set a kk ((2 * n) + 1) (Cx.of_float (-.Cx.re hv));
    Cmat.set a (k + kk) ((2 * n) + 1) (Cx.of_float (-.Cx.im hv))
  done;
  let f = Qr.factorize a in
  let r = Qr.r f in
  let rr = Cmat.rows r in
  let top = n + 1 in
  if rr <= top then None
  else
    Some
      (Cmat.sub_matrix r ~r:top ~c:top ~rows:(rr - top) ~cols:(n + 1))

let finite_matrix m =
  Array.for_all Float.is_finite (Cmat.unsafe_re m)
  && Array.for_all Float.is_finite (Cmat.unsafe_im m)

(* Least squares via truncated SVD.  VF systems routinely turn
   rank-deficient (clustered poles, over-parameterized fits); a plain QR
   solve then returns finite but wildly amplified coefficients, while the
   pseudoinverse gives the minimum-norm solution.  VF problem sizes are
   small enough that the SVD cost does not matter. *)
let robust_ls lhs rhs = Cmat.mul (Svd.pinv ~rtol:1e-11 lhs) rhs

(* Returns (c~, d~): the sigma coefficients and the relaxation constant. *)
let sigma_coefficients basis ~w_scale samples entries =
  let n = Basis.size basis in
  let k = Array.length samples in
  let rows = basis_rows basis ~w_scale samples in
  let blocks =
    Array.to_list entries
    |> List.filter_map (fun (i, jcol) ->
        let h =
          Array.map (fun smp -> Cmat.get smp.Sampling.s i jcol) samples
        in
        entry_reduced_block rows h n)
  in
  match blocks with
  | [] ->
    (* Over-parameterized: every entry's local unknowns absorb all of its
       equations, so the data says nothing about sigma.  The minimum-norm
       answer leaves the poles where they are. *)
    Logs.warn (fun l ->
        l "Vf: %d poles with too few samples: pole relocation is \
           information-free; keeping the current poles" n);
    (Array.make n 0., 1.)
  | blocks ->
    (* relaxation equation: w_r * (sum_k Re sigma(s_k)) = w_r * k,
       weighted to the RMS magnitude of the data rows *)
    let rms =
      let total = ref 0. and count = ref 0 in
      Array.iter
        (fun (i, jcol) ->
          Array.iter
            (fun smp ->
              total := !total +. Cx.abs2 (Cmat.get smp.Sampling.s i jcol);
              incr count)
            samples)
        entries;
      sqrt (!total /. float_of_int (Stdlib.max !count 1))
    in
    let w_r = rms /. float_of_int k in
    let relax = Cmat.zeros 1 (n + 1) in
    for nn = 0 to n - 1 do
      let acc = ref 0. in
      Array.iter (fun phi -> acc := !acc +. Cx.re phi.(nn)) rows;
      Cmat.set relax 0 nn (Cx.of_float (w_r *. !acc))
    done;
    Cmat.set relax 0 n (Cx.of_float (w_r *. float_of_int k));
    let stacked = List.fold_left Cmat.vcat relax blocks in
    let lhs = stacked in
    let rhs = Cmat.zeros (Cmat.rows stacked) 1 in
    (* the relaxation row ended up first *)
    Cmat.set rhs 0 0 (Cx.of_float (w_r *. float_of_int k));
    Logs.debug (fun l ->
        l "Vf sigma: lhs %dx%d finite=%b max=%.3e"
          (Cmat.rows lhs) (Cmat.cols lhs) (finite_matrix lhs)
          (Cmat.max_abs lhs));
    let x = robust_ls lhs rhs in
    let ctilde = Array.init n (fun i -> Cx.re (Cmat.get x i 0)) in
    let dtilde = Cx.re (Cmat.get x n 0) in
    (ctilde, dtilde)

(* A relocated pole landing on the imaginary axis sits on top of the
   sample points and makes the next basis matrix singular (infinite
   entries).  Clamp every pole to a minimum damping ratio. *)
let min_damping = 1e-6

let clamp_damping (basis : Basis.t) =
  let wscale =
    let ps = Basis.poles basis in
    if Array.length ps = 0 then 1.
    else
      Array.fold_left (fun acc p -> acc +. Cx.abs p) 0. ps
      /. float_of_int (Array.length ps)
  in
  let floor_for mag = -.(min_damping *. Stdlib.max mag (1e-3 *. wscale)) in
  { Basis.groups =
      Array.map
        (fun g ->
          match g with
          | Basis.Real a ->
            if a > floor_for (abs_float a) then Basis.Real (floor_for (abs_float a))
            else Basis.Real a
          | Basis.Pair p ->
            if Cx.re p > floor_for (Cx.abs p) then
              Basis.Pair (Cx.make (floor_for (Cx.abs p)) (Cx.im p))
            else Basis.Pair p)
        basis.Basis.groups }

let relocate basis (ctilde, dtilde) =
  (* zeros of sigma = d~ + sum c~ phi are eig(A - b (c~/d~)^T); guard a
     vanishing d~ (Gustavsen recommends re-solving, clamping is enough
     at our scales) *)
  let scale_sol =
    Array.fold_left (fun a x -> Stdlib.max a (abs_float x)) 1e-8 ctilde
  in
  let d_eff =
    if abs_float dtilde < 1e-8 *. scale_sol then
      (if dtilde < 0. then -1e-8 *. scale_sol else 1e-8 *. scale_sol)
    else dtilde
  in
  let sigma = Array.map (fun c -> c /. d_eff) ctilde in
  let m = Basis.relocation_matrix basis sigma in
  let eigs = Eig.eigenvalues_real m in
  let scale = Rmat.norm_fro m +. 1e-300 in
  let snapped =
    Array.map
      (fun (p : Cx.t) ->
        if abs_float p.Cx.im <= 1e-12 *. scale then Cx.make p.Cx.re 0. else p)
      eigs
  in
  let groups = ref [] in
  Array.iter
    (fun (p : Cx.t) ->
      if p.Cx.im > 0. then groups := Basis.Pair p :: !groups
      else if p.Cx.im = 0. then groups := Basis.Real p.Cx.re :: !groups)
    snapped;
  let basis' = { Basis.groups = Array.of_list (List.rev !groups) } in
  clamp_damping (Basis.enforce_stability basis')

(* --- residue identification ----------------------------------------- *)

let residue_matrices basis ~w_scale samples =
  let n = Basis.size basis in
  let k = Array.length samples in
  let p, m = Sampling.port_dims samples in
  let rows = basis_rows basis ~w_scale samples in
  let a = Cmat.zeros (2 * k) (n + 1) in
  for kk = 0 to k - 1 do
    let phi = rows.(kk) in
    for nn = 0 to n - 1 do
      Cmat.set a kk nn (Cx.of_float (Cx.re phi.(nn)));
      Cmat.set a (k + kk) nn (Cx.of_float (Cx.im phi.(nn)))
    done;
    Cmat.set a kk n Cx.one
  done;
  (* one multi-RHS solve for every entry *)
  let b = Cmat.zeros (2 * k) (p * m) in
  for i = 0 to p - 1 do
    for jcol = 0 to m - 1 do
      let col = (i * m) + jcol in
      for kk = 0 to k - 1 do
        let h = Cmat.get samples.(kk).Sampling.s i jcol in
        Cmat.set b kk col (Cx.of_float (Cx.re h));
        Cmat.set b (k + kk) col (Cx.of_float (Cx.im h))
      done
    done
  done;
  let x = robust_ls a b in
  let coeffs =
    Array.init n (fun nn ->
        Cmat.init p m (fun i jcol ->
            Cmat.get x nn ((i * m) + jcol)))
  in
  let d = Cmat.init p m (fun i jcol -> Cmat.get x n ((i * m) + jcol)) in
  (coeffs, d)

(* --- public API ------------------------------------------------------ *)

let fit ?(options = default_options) samples =
  validate samples;
  if options.n_poles < 1 then invalid_arg "Vf.fit: n_poles must be >= 1";
  if options.iterations < 0 then invalid_arg "Vf.fit: iterations must be >= 0";
  let p, m = Sampling.port_dims samples in
  let entries = selected_entries options.selection ~p ~m in
  let freqs = Array.map (fun s -> s.Sampling.freq) samples in
  let freq_lo = Array.fold_left Stdlib.min infinity freqs in
  let freq_hi = Array.fold_left Stdlib.max neg_infinity freqs in
  (* normalize so the band's upper edge sits at |s'| = 1 *)
  let w_scale = 2. *. Float.pi *. freq_hi in
  let basis =
    let two_pi = 2. *. Float.pi in
    ref (Basis.initial ~n:options.n_poles
           ~freq_lo:(freq_lo /. (freq_hi *. two_pi))
           ~freq_hi:(1. /. two_pi))
  in
  let physical_poles b = Array.map (Cx.scale w_scale) (Basis.poles b) in
  let history = ref [ physical_poles !basis ] in
  (* The per-entry elimination only constrains sigma when the entry-local
     unknowns (n+1) leave equations over: 2k > n + 1. *)
  let identifiable = 2 * Array.length samples > options.n_poles + 1 in
  if not identifiable then
    Logs.warn (fun k ->
        k "Vf: %d poles from %d samples is over-parameterized; skipping \
           pole relocation" options.n_poles (Array.length samples));
  if identifiable then begin
    let keep_going = ref true in
    let iter = ref 0 in
    while !keep_going && !iter < options.iterations do
      incr iter;
      let ctilde, dtilde = sigma_coefficients !basis ~w_scale samples entries in
      if Array.for_all Float.is_finite ctilde && Float.is_finite dtilde then begin
        basis := relocate !basis (ctilde, dtilde);
        Logs.debug (fun l ->
            l "Vf iter %d: d~=%.3e, pole magnitudes up to %.3e" !iter dtilde
              (Array.fold_left (fun a p -> Stdlib.max a (Cx.abs p)) 0.
                 (Basis.poles !basis)));
        history := physical_poles !basis :: !history
      end
      else begin
        (* ill-conditioned sigma solve: freeze the poles rather than
           propagate NaNs into the relocation eigenproblem *)
        Logs.warn (fun k ->
            k "Vf: non-finite sigma solution at iteration %d; stopping \
               pole relocation early" !iter);
        keep_going := false
      end
    done
  end;
  let coeffs, d = residue_matrices !basis ~w_scale samples in
  ( { basis = !basis; coeffs; d; w_scale },
    { iterations_run = options.iterations;
      pole_history = Array.of_list (List.rev !history) } )

let eval model s =
  let phi = Basis.row model.basis (Cx.scale (1. /. model.w_scale) s) in
  let acc = ref (Cmat.map (fun x -> x) model.d) in
  Array.iteri
    (fun nn f -> acc := Cmat.add !acc (Cmat.scale f model.coeffs.(nn)))
    phi;
  !acc

let eval_freq model f = eval model (Cx.jw (2. *. Float.pi *. f))

let order model = Basis.size model.basis

let poles model =
  Array.map (Cx.scale model.w_scale) (Basis.poles model.basis)

let to_descriptor model =
  let p, m = Cmat.dims model.d in
  let blocks = ref [] in
  (* (a_block, b_block, c_block) per group, all real *)
  let pos = ref 0 in
  Array.iter
    (fun g ->
      (match g with
       | Basis.Real a ->
         let ab = Cmat.scale_float a (Cmat.identity m) in
         let bb = Cmat.identity m in
         let cb = model.coeffs.(!pos) in
         blocks := (ab, bb, cb) :: !blocks;
         incr pos
       | Basis.Pair pole ->
         let alpha = Cx.re pole and beta = Cx.im pole in
         let ab = Cmat.zeros (2 * m) (2 * m) in
         for i = 0 to m - 1 do
           Cmat.set ab i i (Cx.of_float alpha);
           Cmat.set ab i (m + i) (Cx.of_float beta);
           Cmat.set ab (m + i) i (Cx.of_float (-.beta));
           Cmat.set ab (m + i) (m + i) (Cx.of_float alpha)
         done;
         let bb = Cmat.vcat (Cmat.scale_float 2. (Cmat.identity m)) (Cmat.zeros m m) in
         let cb = Cmat.hcat model.coeffs.(!pos) model.coeffs.(!pos + 1) in
         blocks := (ab, bb, cb) :: !blocks;
         pos := !pos + 2))
    model.basis.Basis.groups;
  let blocks = List.rev !blocks in
  (* the basis lives in normalized frequency: H(s) = H'(s / w);
     realization-wise A = w A', B = w B'. *)
  let a =
    Cmat.scale_float model.w_scale
      (Cmat.blkdiag (List.map (fun (ab, _, _) -> ab) blocks))
  in
  let b =
    Cmat.scale_float model.w_scale
      (match List.map (fun (_, bb, _) -> bb) blocks with
       | [] -> Cmat.zeros 0 m
       | first :: rest -> List.fold_left Cmat.vcat first rest)
  in
  let c =
    match List.map (fun (_, _, cb) -> cb) blocks with
    | [] -> Cmat.zeros p 0
    | first :: rest -> List.fold_left Cmat.hcat first rest
  in
  Descriptor.of_state_space ~a ~b ~c ~d:model.d

let err model samples =
  let errs =
    Array.map
      (fun smp ->
        let h = eval_freq model smp.Sampling.freq in
        let denom = Svd.norm2 smp.Sampling.s in
        let num = Svd.norm2 (Cmat.sub h smp.Sampling.s) in
        if denom = 0. then num else num /. denom)
      samples
  in
  let k = Array.length errs in
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. errs)
  /. sqrt (float_of_int k)

let fit_model ?options samples =
  let t0 = Unix.gettimeofday () in
  let diagnostics = Linalg.Diag.create () in
  let model, diag =
    Linalg.Diag.using diagnostics (fun () ->
        let model, diag = fit ?options samples in
        Linalg.Diag.record ~site:"vf"
          (Printf.sprintf "converged pole set after %d sigma iterations"
             diag.iterations_run);
        (model, diag))
  in
  let dt = Unix.gettimeofday () -. t0 in
  let stats =
    { Mfti.Engine.Model.selected_units = Array.length samples;
      total_units = Array.length samples;
      iterations = diag.iterations_run;
      history = [||] }
  in
  Mfti.Engine.Model.make ~stats ~diagnostics ~timings:[ ("fit", dt) ]
    ~rank:(order model) (to_descriptor model)
