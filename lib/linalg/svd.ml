type t = { u : Cmat.t; sigma : float array; v : Cmat.t }

let max_sweeps = 60
let conv_tol = 1e-15

(* Rotate columns p,q of a matrix with raw arrays (rows = len):
   new_p = c*col_p - (sr + j si)*col_q ; new_q = s*col_p + (cr + j ci)*col_q
   where the second column coefficients carry the phase. *)
let rotate re im len p q c s phr phi =
  (* coefficients: col_p' = c*col_p - s*e^{-j phase}*col_q
                   col_q' = s*col_p + c*e^{-j phase}*col_q
     with e^{-j phase} = phr - j phi  (phr,phi = cos,sin of phase) *)
  let poff = p * len and qoff = q * len in
  let er = phr and ei = -.phi in
  for i = 0 to len - 1 do
    let pr = re.(poff + i) and pi = im.(poff + i) in
    let qr = re.(qoff + i) and qi = im.(qoff + i) in
    (* eq = e^{-j phase} * col_q entry *)
    let eqr = (er *. qr) -. (ei *. qi) in
    let eqi = (er *. qi) +. (ei *. qr) in
    re.(poff + i) <- (c *. pr) -. (s *. eqr);
    im.(poff + i) <- (c *. pi) -. (s *. eqi);
    re.(qoff + i) <- (s *. pr) +. (c *. eqr);
    im.(qoff + i) <- (s *. pi) +. (c *. eqi)
  done

(* b_p^H b_q over raw column-major arrays. *)
let col_dot br bi m p q =
  let poff = p * m and qoff = q * m in
  let accr = ref 0. and acci = ref 0. in
  for i = 0 to m - 1 do
    let ar = br.(poff + i) and ai = -.bi.(poff + i) in
    let cr = br.(qoff + i) and ci = bi.(qoff + i) in
    accr := !accr +. (ar *. cr) -. (ai *. ci);
    acci := !acci +. (ar *. ci) +. (ai *. cr)
  done;
  (!accr, !acci)

(* One Jacobi step on column pair (p < q): Gram dot, rotation of b and
   v, exact analytic update of the cached squared norms.  Returns the
   relative off-diagonal seen. *)
let jacobi_pair br bi vr vi m nv norms p q =
  let app = norms.(p) and aqq = norms.(q) in
  if app > 0. && aqq > 0. then begin
    let dr, di = col_dot br bi m p q in
    let alpha = Stdlib.sqrt ((dr *. dr) +. (di *. di)) in
    let rel = alpha /. Stdlib.sqrt (app *. aqq) in
    if rel > conv_tol then begin
      (* phase of apq *)
      let phr = dr /. alpha and phi = di /. alpha in
      (* real symmetric 2x2 [[app, alpha], [alpha, aqq]] *)
      let theta = (aqq -. app) /. (2. *. alpha) in
      let tparam =
        let sign = if theta >= 0. then 1. else -1. in
        sign /. (abs_float theta +. Stdlib.sqrt (1. +. (theta *. theta)))
      in
      let c = 1. /. Stdlib.sqrt (1. +. (tparam *. tparam)) in
      let s = tparam *. c in
      rotate br bi m p q c s phr phi;
      rotate vr vi nv p q c s phr phi;
      (* rotated Gram diagonal: exact update of the two norms *)
      let cs2 = 2. *. c *. s *. alpha in
      let c2 = c *. c and s2 = s *. s in
      norms.(p) <- (c2 *. app) -. cs2 +. (s2 *. aqq);
      norms.(q) <- (s2 *. app) +. cs2 +. (c2 *. aqq)
    end;
    rel
  end
  else 0.

let col_norm2_direct br bi m jcol =
  let off = jcol * m in
  let acc = ref 0. in
  for i = 0 to m - 1 do
    acc := !acc +. (br.(off + i) *. br.(off + i)) +. (bi.(off + i) *. bi.(off + i))
  done;
  !acc

(* One-sided Jacobi on the columns of b (m x n, m >= 1), accumulating the
   rotations into v (n x n).  After convergence the columns of b are
   mutually orthogonal; their norms are the singular values.  Returns
   the worst relative off-diagonal seen in the last sweep (<= conv_tol
   when converged), so callers can grant more budget or report the
   achieved orthogonality instead of failing. *)
let jacobi_orthogonalize ?(sweeps = max_sweeps) b v =
  let m, n = Cmat.dims b in
  let br = Cmat.unsafe_re b and bi = Cmat.unsafe_im b in
  let vr = Cmat.unsafe_re v and vi = Cmat.unsafe_im v in
  let nv = Cmat.rows v in
  (* Column norms are cached and updated analytically after each rotation
     (the rotated 2x2 Gram diagonal), then refreshed at the start of every
     sweep to stop floating-point drift. *)
  let norms = Array.make n 0. in
  let refresh_norms () =
    for jcol = 0 to n - 1 do
      norms.(jcol) <- col_norm2_direct br bi m jcol
    done
  in
  (* One sweep visits every unordered column pair once, scheduled as
     the circle-method round-robin tournament: n' - 1 rounds of
     [n' / 2] disjoint pairs (a dummy player pads odd n).  Pairs within
     a round touch disjoint columns — and disjoint [norms] entries — so
     their dots and rotations run concurrently on the domain pool.
     The pairing schedule and the per-pair arithmetic are fixed
     independently of the chunk decomposition, so the factorization is
     bit-identical for any domain count. *)
  let sweep () =
    refresh_norms ();
    let worst = ref 0. in
    let n' = if n land 1 = 0 then n else n + 1 in
    let npairs = n' / 2 in
    let perm = Array.init n' (fun i -> i) in
    let round_rel = Array.make npairs 0. in
    let dc = Parallel.domain_count () in
    (* below this much work per round the pool handshake dominates;
       [chunk = npairs] makes the loop run inline in the caller *)
    let chunk =
      if m * npairs < 16384 then npairs
      else Stdlib.max 1 ((npairs + dc - 1) / dc)
    in
    for _round = 0 to n' - 2 do
      Parallel.parallel_for ~chunk npairs (fun lo hi ->
          for idx = lo to hi - 1 do
            let a = perm.(idx) and b = perm.(n' - 1 - idx) in
            round_rel.(idx) <-
              (if a < n && b < n then
                 jacobi_pair br bi vr vi m nv norms
                   (Stdlib.min a b) (Stdlib.max a b)
               else 0.)
          done);
      for idx = 0 to npairs - 1 do
        if round_rel.(idx) > !worst then worst := round_rel.(idx)
      done;
      (* advance the tournament: hold position 0, rotate the rest *)
      let last = perm.(n' - 1) in
      for i = n' - 1 downto 2 do
        perm.(i) <- perm.(i - 1)
      done;
      perm.(1) <- last
    done;
    !worst
  in
  let rec loop k acc =
    if k >= sweeps then acc
    else
      let worst = sweep () in
      if worst > conv_tol then loop (k + 1) worst else worst
  in
  loop 0 0.

(* Orthonormal completion: replace (near-)zero columns of u, in index
   order, with unit vectors orthogonal to all current columns. *)
let complete_columns u zero_cols =
  let m, _ = Cmat.dims u in
  List.iter
    (fun jcol ->
      (* Try canonical basis vectors until one survives orthogonalization. *)
      let rec try_basis e =
        if e >= m then ()  (* pathological; leave zero *)
        else begin
          let cand = Cmat.init m 1 (fun i _ -> if i = e then Cx.one else Cx.zero) in
          let cand = ref cand in
          for k = 0 to Cmat.cols u - 1 do
            if k <> jcol then begin
              let uk = Cmat.col u k in
              let coef = Cmat.vec_dot uk !cand in
              cand := Cmat.sub !cand (Cmat.scale coef uk)
            end
          done;
          let nrm = Cmat.vec_norm !cand in
          if nrm > 1e-8 then Cmat.set_col u jcol (Cmat.scale_float (1. /. nrm) !cand)
          else try_basis (e + 1)
        end
      in
      try_basis 0)
    zero_cols

let jacobi_tall ~want_u a =
  let m, n = Cmat.dims a in
  let b = ref (Cmat.copy a) in
  let v = Cmat.identity n in
  (* Convergence cascade: nominal sweep budget, then an extra budget,
     then a rescaled retry (extreme magnitudes can overflow the Gram
     dots), and finally report the achieved off-diagonal norm in the
     diagnostics instead of raising — the factorization is degraded
     but still usable.  The [svd.no_converge] fault collapses every
     budget to one sweep so the whole cascade is exercised. *)
  let forced = Fault.armed "svd.no_converge" in
  let budget base = if forced then 1 else base in
  let worst = jacobi_orthogonalize ~sweeps:(budget max_sweeps) !b v in
  let worst =
    if worst <= conv_tol then worst
    else begin
      Diag.record ~site:"svd.jacobi.extra_sweeps"
        (Printf.sprintf "off-diagonal %.3g after %d sweeps; extending budget"
           worst (budget max_sweeps));
      Diag.incr_retries ();
      jacobi_orthogonalize ~sweeps:(budget (max_sweeps / 2)) !b v
    end
  in
  let scale_back = ref 1. in
  let worst =
    if worst <= conv_tol then worst
    else begin
      let mx = Cmat.max_abs !b in
      let s = if mx > 0. && Float.is_finite mx then 1. /. mx else 1. in
      Diag.record ~site:"svd.jacobi.scaled_retry"
        (Printf.sprintf "off-diagonal %.3g; retrying at scale %.3g" worst s);
      Diag.incr_retries ();
      b := Cmat.scale_float s !b;
      scale_back := s;
      jacobi_orthogonalize ~sweeps:(budget (max_sweeps / 2)) !b v
    end
  in
  if worst > conv_tol then
    Diag.record ~site:"svd.jacobi.non_convergence"
      (Printf.sprintf "achieved off-diagonal %.3g (target %.3g); using as-is"
         worst conv_tol);
  let b = !b in
  (* Column norms are the singular values (at the working scale; the
     retry rescaling is undone on the final sigma only, so U columns
     are normalized by the norms actually present in [b]). *)
  let sig2 = Array.init n (fun jcol ->
      let c = Cmat.col b jcol in
      Cmat.vec_norm c)
  in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare sig2.(j) sig2.(i)) order;
  let sigma = Array.map (fun i -> sig2.(i)) order in
  let vs = Cmat.select_cols v order in
  let u =
    if not want_u then Cmat.create m 0
    else begin
      let bs = Cmat.select_cols b order in
      (* Normalize U columns; collect the ones we must complete. *)
      let u = Cmat.create m n in
      let smax = if n > 0 then sigma.(0) else 0. in
      let zero_cols = ref [] in
      for jcol = 0 to n - 1 do
        if sigma.(jcol) > 1e-100 && (smax = 0. || sigma.(jcol) > 1e-15 *. smax) then
          Cmat.set_col u jcol (Cmat.scale_float (1. /. sigma.(jcol)) (Cmat.col bs jcol))
        else zero_cols := jcol :: !zero_cols
      done;
      complete_columns u (List.rev !zero_cols);
      u
    end
  in
  let sigma =
    if !scale_back = 1. then sigma
    else Array.map (fun s -> s /. !scale_back) sigma
  in
  { u; sigma; v = vs }

(* ------------------------------------------------------------------ *)
(* Real Golub-Kahan SVD: Householder bidiagonalization, then
   implicit-shift QR on the bidiagonal.  O(m n^2) overall, roughly an
   order of magnitude faster than cyclic Jacobi at the pencil sizes the
   Loewner pipeline produces.  It serves exactly real tall input over
   32 columns; everything else goes to Jacobi. *)

exception No_convergence

(* Givens rotation [c s; -s c] [f; g] = [r; 0]. *)
let givens f g =
  if g = 0. then (1., 0., f)
  else if f = 0. then (0., 1., g)
  else begin
    let r = Float.hypot f g in
    let r = if f >= 0. then r else -.r in
    (f /. r, g /. r, r)
  end

(* One implicit-shift Golub-Kahan step on the window [lo..hi] of the
   real bidiagonal (d, e).  [rot_v k c s] rotates columns k, k+1 of V
   and [rot_u], when present, those of U.  The left rotations never
   feed back into d, e or v, so skipping u leaves them bit-identical. *)
let gk_step d e ~rot_u ~rot_v lo hi =
  (* Wilkinson shift from the trailing 2x2 of B^T B *)
  let dm = d.(hi - 1) and dn = d.(hi) and em = e.(hi - 1) in
  let el = if hi - 1 > lo then e.(hi - 2) else 0. in
  let a11 = (dm *. dm) +. (el *. el) in
  let a22 = (dn *. dn) +. (em *. em) in
  let a12 = dm *. em in
  let mu =
    if a12 = 0. then a22
    else begin
      let delta = (a11 -. a22) /. 2. in
      let sgn = if delta >= 0. then 1. else -1. in
      a22 -. (a12 *. a12 /. (delta +. (sgn *. Float.hypot delta a12)))
    end
  in
  let y0 = (d.(lo) *. d.(lo)) -. mu in
  let z0 = d.(lo) *. e.(lo) in
  let bulge = ref 0. in
  for k = lo to hi - 1 do
    let c, s, _ =
      if k = lo then givens y0 z0 else givens e.(k - 1) !bulge
    in
    if k > lo then e.(k - 1) <- (c *. e.(k - 1)) +. (s *. !bulge);
    (* right rotation on columns k, k+1 *)
    let dk = d.(k) and ek = e.(k) and dk1 = d.(k + 1) in
    d.(k) <- (c *. dk) +. (s *. ek);
    e.(k) <- (c *. ek) -. (s *. dk);
    let below = s *. dk1 in
    d.(k + 1) <- c *. dk1;
    rot_v k c s;
    (* left rotation on rows k, k+1 kills the subdiagonal bulge *)
    let c2, s2, r2 = givens d.(k) below in
    d.(k) <- r2;
    let ek' = e.(k) and dk1' = d.(k + 1) in
    e.(k) <- (c2 *. ek') +. (s2 *. dk1');
    d.(k + 1) <- (c2 *. dk1') -. (s2 *. ek');
    if k < hi - 1 then begin
      bulge := s2 *. e.(k + 1);
      e.(k + 1) <- c2 *. e.(k + 1)
    end;
    match rot_u with
    | Some rot_u -> rot_u k c2 s2
    | None -> ()
  done

let eps = 2.2e-16

(* Iterate the bidiagonal QR to convergence. *)
let bidiag_qr d e ~rot_u ~rot_v =
  let n = Array.length d in
  if n > 1 then begin
    let anorm =
      let acc = ref 0. in
      Array.iter (fun x -> acc := Stdlib.max !acc (abs_float x)) d;
      Array.iter (fun x -> acc := Stdlib.max !acc (abs_float x)) e;
      !acc
    in
    if anorm > 0. then begin
      (* exact zeros on the diagonal stall the chase; a sub-roundoff
         perturbation is invisible at working precision *)
      for k = 0 to n - 1 do
        if abs_float d.(k) <= eps *. eps *. anorm then
          d.(k) <- eps *. eps *. anorm
      done;
      (* the [svd.no_converge] fault collapses the iteration budget so
         the No_convergence path (and the Jacobi fallback above it) is
         exercised deterministically *)
      let budget = ref (if Fault.armed "svd.no_converge" then 1 else 60 * n) in
      let hi = ref (n - 1) in
      while !hi > 0 do
        for k = 0 to !hi - 1 do
          if abs_float e.(k) <= eps *. (abs_float d.(k) +. abs_float d.(k + 1))
          then e.(k) <- 0.
        done;
        if e.(!hi - 1) = 0. then decr hi
        else begin
          decr budget;
          if !budget <= 0 then raise No_convergence;
          let lo = ref (!hi - 1) in
          while !lo > 0 && e.(!lo - 1) <> 0. do
            decr lo
          done;
          gk_step d e ~rot_u ~rot_v !lo !hi
        end
      done
    end
  end

(* Real Householder bidiagonalization of a tall real [m x n] matrix
   (column-major [b], overwritten): the bidiagonal (d, e), the
   accumulated left factor U ([m x n], only with [want_u]) and right
   factor V ([n x n]), with a = U (bidiag d, e) V^T.  Without [want_u]
   the left reflectors are applied but never kept; d, e and V do not
   depend on them.  Reflectors are held as full zero-padded columns so
   every update runs in the vectorized {!Rmat} column kernels; the
   padding only touches rows and columns the later steps never read
   again. *)
let bidiagonalize_real ~want_u b m n =
  let d = Array.make n 0. and e = Array.make (Stdlib.max 0 (n - 1)) 0. in
  (* Reflector I - tau u u^T zeroing entries [k+1, len) of the
     [len]-vector read by [get], with u zero before [k] and 1 at [k]:
     returns (beta, tau, u), beta the surviving entry, or None when
     the tail is already zero. *)
  let reflector len k get =
    let tail = ref 0. in
    for i = k + 1 to len - 1 do
      tail := !tail +. (get i *. get i)
    done;
    if not (!tail > 0.) then None
    else begin
      let alpha = get k in
      let beta = -.Float.copy_sign (Float.hypot alpha (sqrt !tail)) alpha in
      let scale = 1. /. (alpha -. beta) in
      let u = Array.make len 0. in
      u.(k) <- 1.;
      for i = k + 1 to len - 1 do
        u.(i) <- get i *. scale
      done;
      Some (beta, (beta -. alpha) /. beta, u)
    end
  in
  let c = Array.make n 0. and s = Array.make m 0. in
  (* columns [j0, n) of the [rows]-row [x] less tau u (u^T x) *)
  let reflect_cols u tau x rows j0 =
    Rmat.dot_block u x c rows 1 0 1 j0 n;
    for j = j0 to n - 1 do
      c.(j) <- -.tau *. c.(j)
    done;
    Rmat.axpy_block u c x rows 1 0 1 j0 n
  in
  let left = Array.make n None and right = Array.make n None in
  for k = 0 to n - 1 do
    (* left: column k, rows k.. *)
    let koff = k * m in
    (match reflector m k (fun i -> b.(koff + i)) with
     | None -> d.(k) <- b.(koff + k)
     | Some (beta, tau, u) ->
       d.(k) <- beta;
       if want_u then left.(k) <- Some (tau, u);
       reflect_cols u tau b m (k + 1));
    (* right: row k, columns k+1.. *)
    if k < n - 1 then begin
      let at j = b.(k + (j * m)) in
      match if k < n - 2 then reflector n (k + 1) at else None with
      | None -> e.(k) <- at (k + 1)
      | Some (beta, tau, u) ->
        e.(k) <- beta;
        right.(k) <- Some (tau, u);
        (* columns k+1.. less tau (x u) u^T: s = x u, then rank one *)
        Array.fill s 0 m 0.;
        Rmat.axpy_block b u s m n (k + 1) n 0 1;
        for j = k + 1 to n - 1 do
          c.(j) <- -.tau *. u.(j)
        done;
        Rmat.axpy_block s c b m 1 0 1 (k + 1) n
    end
  done;
  (* a product of reflectors accumulated backwards from the first n
     columns of the identity; reflector k leaves columns before [j0 k]
     alone *)
  let accumulate rows refl j0 =
    let x = Array.make (rows * n) 0. in
    for i = 0 to n - 1 do
      x.(i + (i * rows)) <- 1.
    done;
    for k = n - 1 downto 0 do
      Option.iter (fun (tau, u) -> reflect_cols u tau x rows (j0 k)) refl.(k)
    done;
    x
  in
  let u = if want_u then Some (accumulate m left Fun.id) else None in
  (d, e, u, accumulate n right succ)

(* Rotate columns k, k+1 of the column-major [rows]-row [x]:
   col_k' = c col_k + s col_k+1 ; col_k+1' = c col_k+1 - s col_k. *)
let rotate_pair x rows k c s =
  let poff = k * rows and qoff = (k + 1) * rows in
  for i = 0 to rows - 1 do
    let p = x.(poff + i) and q = x.(qoff + i) in
    x.(poff + i) <- (c *. p) +. (s *. q);
    x.(qoff + i) <- (c *. q) -. (s *. p)
  done

let negate_col x rows k =
  for i = k * rows to ((k + 1) * rows) - 1 do
    x.(i) <- -.x.(i)
  done

(* The real SVD of a tall real [m x n] matrix (column-major [b],
   overwritten): sigma descending, U ([m x n]) with [want_u] and V.
   Without [want_u] U is never formed, and sigma and V are
   bit-identical to the [want_u] run.  Raises [No_convergence] when the
   bidiagonal QR exhausts its budget. *)
let gk_real ~want_u b m n =
  let d, e, u, v = bidiagonalize_real ~want_u b m n in
  (* make the bidiagonal nonnegative: diag(dl) B diag(dr) with sign
     flips of U's columns (dl) and V's (dr) *)
  let dr = ref 1. in
  for k = 0 to n - 1 do
    let dk = d.(k) *. !dr in
    d.(k) <- abs_float dk;
    if !dr < 0. then negate_col v n k;
    if dk < 0. then Option.iter (fun u -> negate_col u m k) u;
    if k < n - 1 then begin
      let g = if dk < 0. then -.e.(k) else e.(k) in
      e.(k) <- abs_float g;
      dr := if g < 0. then -1. else 1.
    end
  done;
  bidiag_qr d e
    ~rot_u:(Option.map (fun u -> rotate_pair u m) u)
    ~rot_v:(rotate_pair v n);
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare (abs_float d.(j)) (abs_float d.(i))) order;
  let pick x rows = Rmat.init rows n (fun i j -> x.(i + (order.(j) * rows))) in
  let u =
    Option.map
      (fun u ->
        Array.iteri (fun k dk -> if dk < 0. then negate_col u m k) d;
        pick u m)
      u
  in
  (Array.map (fun i -> abs_float d.(i)) order, u, pick v n)

(* Exactly real: every imaginary part is zero. *)
let is_real a = Array.for_all (fun x -> x = 0.) (Cmat.unsafe_im a)

(* Factor a tall (m >= n) matrix: the real kernel for exactly real
   input over 32 columns, Jacobi otherwise (it is competitive, and
   slightly more accurate on the smallest singular values, below ~32
   columns).  Without [want_u] the result's [u] has no columns, and
   [sigma] and [v] are bit-identical to the [want_u] run on every
   path, the Jacobi fallback included. *)
let decompose_tall ~want_u a =
  let m, n = Cmat.dims a in
  if n <= 32 || not (is_real a) then jacobi_tall ~want_u a
  else
    match gk_real ~want_u (Array.copy (Cmat.unsafe_re a)) m n with
    | sigma, u, v ->
      { u = (match u with Some u -> Cmat.of_real u | None -> Cmat.create m 0);
        sigma; v = Cmat.of_real v }
    | exception No_convergence ->
      (* the Jacobi cascade always terminates and reports its achieved
         orthogonality instead *)
      Diag.record ~site:"svd.gk.jacobi_fallback"
        "bidiagonal QR budget exhausted; one-sided Jacobi retry";
      Diag.incr_retries ();
      jacobi_tall ~want_u a

let decompose a =
  let m, n = Cmat.dims a in
  if m = 0 || n = 0 then { u = Cmat.create m 0; sigma = [||]; v = Cmat.create n 0 }
  else if m >= n then decompose_tall ~want_u:true a
  else begin
    (* A = (A^H)^H: svd(A^H) = U' S V'^H  =>  A = V' S U'^H *)
    let d = decompose_tall ~want_u:true (Cmat.ctranspose a) in
    { u = d.v; sigma = d.sigma; v = d.u }
  end

let right a =
  let m, n = Cmat.dims a in
  let d =
    if n > 0 && m >= n then decompose_tall ~want_u:false a
    else
      (* the right vectors of a wide matrix are the left vectors of
         its tall conjugate transpose, so that U is needed *)
      decompose a
  in
  (d.sigma, d.v)

let right_real a =
  let sigma, v = right (Cmat.of_real a) in
  (sigma, Cmat.real_part v)

let reconstruct d =
  let k = Array.length d.sigma in
  let us = Cmat.init (Cmat.rows d.u) k (fun i jcol ->
      Cx.scale d.sigma.(jcol) (Cmat.get d.u i jcol))
  in
  Cmat.mul us (Cmat.ctranspose d.v)

(* Rank rules over a bare (descending) spectrum.  The [tail_bound]
   variants are truncated-spectrum safe: a randomized factorization
   yields only the top [k] singular values plus a certified bound on
   everything it cut off (sigma_{k+1} <= tail_bound).  The bound
   stands in for the unseen tail so the same rules apply. *)

let rank_of_values ~rtol sigma =
  if Array.length sigma = 0 || sigma.(0) = 0. then 0
  else begin
    let thresh = rtol *. sigma.(0) in
    let count = ref 0 in
    Array.iter (fun s -> if s > thresh then incr count) sigma;
    !count
  end

let rank_gap_of_values ?(floor = 1e-13) ?tail_bound sigma =
  let n = Array.length sigma in
  if n = 0 || sigma.(0) = 0. then 0
  else begin
    let cutoff = floor *. sigma.(0) in
    (* Only consider gaps whose left edge is above the noise floor. *)
    let best = ref n and best_gap = ref 1.0 (* require at least 10x drop *) in
    for i = 0 to n - 2 do
      if sigma.(i) > cutoff then begin
        let lo = Stdlib.max sigma.(i + 1) (1e-300) in
        let gap = log10 (sigma.(i) /. lo) in
        if gap > !best_gap then begin
          best_gap := gap;
          best := i + 1
        end
      end
    done;
    (* Truncation boundary: the drop from the last retained value into
       the certified tail bound is itself a candidate gap, so a
       spectrum cut exactly at its cliff still reports the full
       retained count rather than falling through to the floor rule. *)
    let boundary_won = ref false in
    (match tail_bound with
     | Some tb when sigma.(n - 1) > cutoff ->
       let lo = Stdlib.max tb 1e-300 in
       let gap = log10 (sigma.(n - 1) /. lo) in
       if gap > !best_gap then begin
         best_gap := gap;
         best := n;
         boundary_won := true
       end
     | _ -> ());
    (* If everything below cutoff counts as zero and no explicit gap was
       found, fall back to the floor-based rank. *)
    if !best = n && not !boundary_won then begin
      let count = ref 0 in
      Array.iter (fun s -> if s > cutoff then incr count) sigma;
      !count
    end
    else !best
  end

let rank ~rtol d = rank_of_values ~rtol d.sigma

(* Singular values from the tall orientation, where {!right} forms no U;
   the same factorization {!decompose} runs, so sigma is bit-identical. *)
let values a =
  let a = if Cmat.rows a < Cmat.cols a then Cmat.ctranspose a else a in
  fst (right a)

let norm2 a =
  let sigma = values a in
  if Array.length sigma = 0 then 0. else sigma.(0)

let pinv ?(rtol = 1e-12) a =
  let d = decompose a in
  let k = Array.length d.sigma in
  if k = 0 then Cmat.create (Cmat.cols a) (Cmat.rows a)
  else begin
    let thresh = rtol *. d.sigma.(0) in
    let vs = Cmat.init (Cmat.rows d.v) k (fun i jcol ->
        if d.sigma.(jcol) > thresh then
          Cx.scale (1. /. d.sigma.(jcol)) (Cmat.get d.v i jcol)
        else Cx.zero)
    in
    Cmat.mul vs (Cmat.ctranspose d.u)
  end
