open Linalg

type mode = Pencil of float option | Stacked
type rank_rule = Fixed of int | Tol of float | Gap

type result = {
  model : Statespace.Descriptor.t;
  rank : int;
  sigma : float array;
}

let default_rank_rule = Gap

(* Below this spectrum length a sketch cannot beat the exact path, so
   the reduce stays exact; above it the MFTI pencil is numerically
   low-rank (Lemma 3.3 bounds it by order + rank D) and the real
   randomized range finder turns the reduce-stage SVD into parallel
   real GEMMs. *)
let randomized_cutoff = 96

(* The [Tol tol] certificate: accept the sketch when it provably keeps
   the rank the rule would pick on the exact spectrum.  With B = Q^T A,
   E = A - QQ^T A and any r >= |E|_2,
   A^T A = B^T B + E^T E,
   and Weyl brackets every sigma_i in [s_i, sqrt (s_i^2 + r^2)] for
   i <= l (the sketch width) and bounds sigma_i <= r beyond it.  r is
   Rsvd's spectral bound: min (|E|_F, |E^T E|_F^(1/2)) with a roundoff
   margin, about 3x under the Frobenius residual on a flat noise tail,
   which is what lets the first (quarter-width) round prove the rank.
   So the exact threshold tol sigma_1 lies in
   [tol s_1, tol sqrt (s_1^2 + r^2)].  Rank [k] is certified when the
   bound is under the threshold, sigma_k+1's bracket lies below it
   and sigma_k's above.  [k] is the count above [tol s_1] on the
   sketch, or on [ranked] when given (Stacked mode's column side must
   reproduce the row side's count).  A sketch covering the whole
   spectrum is the exact factorization. *)
let tol_certificate ~tol ?ranked (r : Rsvd.t) =
  let s = r.Rsvd.sigma and res = r.Rsvd.spectral in
  let l = Array.length s in
  if r.Rsvd.sketch = r.Rsvd.total then Ok ()
  else begin
    let k = Svd.rank_of_values ~rtol:tol (Option.value ranked ~default:s) in
    let t_lo = tol *. s.(0) and t_hi = tol *. Float.hypot s.(0) res in
    let refuse fmt =
      Printf.ksprintf
        (fun why -> Error (Printf.sprintf "tol %g rank %d not certified: %s" tol k why))
        fmt
    in
    let straddles i =
      refuse "sigma_%d in [%.3g, %.3g] straddles tol*sigma_1 in [%.3g, %.3g]" i
        s.(i - 1) (Float.hypot s.(i - 1) res) t_lo t_hi
    in
    if not (res <= t_lo) then
      refuse "residual %.3g > tol*sigma_1 %.3g" res t_lo
    else if k >= l then refuse "rank fills the %d-column sketch" l
    else if not (Float.hypot s.(k) res <= t_lo) then straddles (k + 1)
    else if k > 0 && not (s.(k - 1) > t_hi) then straddles k
    else Ok ()
  end

(* The sketch certificate the rank rule needs ([ranked] as in
   {!tol_certificate}).  [Gap] and [Fixed] take Rsvd's own: the
   residual within [1e-10 |A|_F]. *)
let certificate ?ranked rule (r : Rsvd.t) =
  match rule with
  | Tol tol -> tol_certificate ~tol ?ranked r
  | Fixed _ | Gap ->
    if r.Rsvd.certified then Ok ()
    else Error (Printf.sprintf "residual %.3g not certified" r.Rsvd.residual)

(* [(sigma, v)] of one real side [a].  The sketch runs when its
   spectrum is at least [randomized_cutoff] long; otherwise, and
   whenever the rule's certificate refuses the sketch,
   {!Svd.right_real} factors [a] exactly and never forms the U the
   projection would discard.  Only [Tol] hands its certificate to
   Rsvd, which then stops growing the sketch at the first round the
   rule accepts; [Gap] and [Fixed] need Rsvd's own test, which the
   growth rule already applies.  Returns the factorization plus a
   certified bound on every singular value a truncated (randomized)
   spectrum cut off, for the gap rule. *)
let right_factor ?ranked rule a =
  let m, n = Rmat.dims a in
  if Stdlib.min m n < randomized_cutoff then (Svd.right_real a, None)
  else begin
    let certify = certificate ?ranked rule in
    let accept =
      match rule with
      | Tol _ -> Some (fun r -> Result.is_ok (certify r))
      | Fixed _ | Gap -> None
    in
    let r = Rsvd.decompose_adaptive ?accept a in
    match certify r with
    | Ok () -> ((r.Rsvd.sigma, r.Rsvd.v), Some r.Rsvd.residual)
    | Error why ->
      (* A sketch narrower than the spectrum with a finite residual
         stopped at its half-width cap: the spectrum is a noise floor.
         A poisoned residual is the degrade fault. *)
      let capped =
        if r.Rsvd.sketch < r.Rsvd.total && Float.is_finite r.Rsvd.residual
        then " capped at n/2,"
        else ""
      in
      Diag.record ~site:"svd.rsvd.fallback"
        (Printf.sprintf "sketch %d/%d%s %s; exact cascade" r.Rsvd.sketch
           r.Rsvd.total capped why);
      Diag.incr_retries ();
      (Svd.right_real a, None)
  end

let pick_rank ?tail_bound rule sigma =
  match rule with
  | Fixed r -> Stdlib.min r (Array.length sigma)
  | Tol tol -> Stdlib.max 1 (Svd.rank_of_values ~rtol:tol sigma)
  | Gap -> Stdlib.max 1 (Svd.rank_gap_of_values ?tail_bound sigma)

(* [|lambda.(0)|], the real stand-in for the paper's shift
   [lambda.(0)] (Lemma 3.4). *)
let default_shift (t : Loewner.t) =
  if Array.length t.Loewner.lambda = 0 then
    invalid_arg "Svd_reduce: empty pencil";
  Cx.abs t.Loewner.lambda.(0)

(* A pencil block as a real matrix; the realified pencil (Lemma 3.2)
   is exactly real, anything else is the caller's error. *)
let real_block name m =
  if not (Array.for_all (fun x -> x = 0.) m.Cmat.im) then
    invalid_arg
      (Printf.sprintf "Svd_reduce.reduce: %s is not real (realify the pencil)"
         name);
  Cmat.real_part m

let reduce ?(mode = Stacked) ?(rank_rule = default_rank_rule)
    (t : Loewner.t) =
  let ll = real_block "LL" t.Loewner.ll
  and sll = real_block "sLL" t.Loewner.sll
  and v = real_block "V" t.Loewner.v
  and w = real_block "W" t.Loewner.w in
  (* Both modes factor a row side and a column side.  Y is the left
     vectors of [LL sLL] (or of the shifted pencil), i.e. the right
     vectors of its transpose, the row side; X is the right vectors of
     the column side [LL; sLL] (or of the pencil itself). *)
  let row, col =
    match mode with
    | Stacked -> (Rmat.transpose (Rmat.hcat ll sll), Rmat.vcat ll sll)
    | Pencil x0 ->
      let x0 = match x0 with Some x -> x | None -> default_shift t in
      let p = Rmat.sub (Rmat.scale x0 ll) sll in
      (Rmat.transpose p, p)
  in
  let (sigma, y), tail_bound = right_factor rank_rule row in
  (* the row side's spectrum fixes the rank; the column side must
     certify the same count *)
  let (_, x), _ = right_factor ~ranked:sigma rank_rule col in
  let rank = pick_rank ?tail_bound rank_rule sigma in
  (* A truncated (randomized) factorization retains [sketch] columns
     per side; the projection can only keep directions present in
     both. *)
  let rank = Stdlib.min rank (Stdlib.min y.Rmat.cols x.Rmat.cols) in
  let nsig = Array.length sigma in
  (* Keeping directions whose singular value sits at the roundoff floor
     only injects noise into the projected realization; demote the rank
     past them regardless of how it was chosen (a [Fixed] request can
     overshoot the numerical rank of a degenerate pencil). *)
  let rank =
    if nsig = 0 || rank = 0 then rank
    else begin
      let floor = 1e-13 *. sigma.(0) in
      let r = ref (Stdlib.min rank nsig) in
      while !r > 1 && not (sigma.(!r - 1) > floor) do
        decr r
      done;
      if !r < rank then
        Diag.record ~site:"svd_reduce.rank_demotion"
          (Printf.sprintf
             "rank %d demoted to %d: trailing singular values at the \
              roundoff floor (sigma_max %.3g)"
             rank !r (if nsig > 0 then sigma.(0) else 0.));
      !r
    end
  in
  (* Pencil conditioning of the retained subspace and the sharpness of
     the cut, for the fit diagnostics. *)
  if rank > 0 && nsig > 0 then begin
    Diag.set_condition (sigma.(0) /. Stdlib.max sigma.(rank - 1) 1e-300);
    if rank < nsig then
      Diag.set_rank_gap
        (log10 (sigma.(rank - 1) /. Stdlib.max sigma.(rank) 1e-300))
  end;
  let first m = Rmat.sub_matrix m ~r:0 ~c:0 ~rows:m.Rmat.rows ~cols:rank in
  let yk = first y and xk = first x in
  let e = Rmat.neg (Rmat.mul_tn yk (Rmat.mul ll xk)) in
  let a = Rmat.neg (Rmat.mul_tn yk (Rmat.mul sll xk)) in
  let b = Rmat.mul_tn yk v and c = Rmat.mul w xk in
  let model =
    Statespace.Descriptor.create ~e:(Cmat.of_real e) ~a:(Cmat.of_real a)
      ~b:(Cmat.of_real b) ~c:(Cmat.of_real c)
      ~d:(Cmat.zeros c.Rmat.rows b.Rmat.cols)
  in
  { model; rank; sigma }

(* The realified pencil has the complex one's singular values (T is
   unitary) and is exactly real, so every factorization here runs on
   the real kernel. *)
let fig1_singular_values (t : Loewner.t) =
  let x0 = default_shift t in
  let t = Realify.apply t in
  let p = Cmat.sub (Cmat.scale_float x0 t.Loewner.ll) t.Loewner.sll in
  (Svd.values t.Loewner.ll, Svd.values t.Loewner.sll, Svd.values p)

let minimal_samples ~order ~rank_d ~inputs ~outputs =
  if order < 1 || rank_d < 0 || inputs < 1 || outputs < 1 then
    invalid_arg "Svd_reduce.minimal_samples: bad arguments";
  let cap = Stdlib.min inputs outputs in
  let k =
    int_of_float (Float.ceil (float_of_int (order + rank_d) /. float_of_int cap))
  in
  if k land 1 = 1 then k + 1 else Stdlib.max k 2
