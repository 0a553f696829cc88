type t = {
  sigma : float array;
  v : Rmat.t;
  residual : float;
  spectral : float;
  certified : bool;
  sketch : int;
  total : int;
}

(* Certificate level [residual <= tol * |A|_F], and the seed of the
   sketch's random stream. *)
let tol = 1e-10
let seed = 0x5eed

(* Below this spectrum length the exact path is already fast and a
   sketch cannot win; matches the Jacobi cutoff in {!Svd}. *)
let small_cutoff = 32

(* Householder QR of a tall [m x n] real matrix: the thin orthonormal
   factor ([m x n]) and the [n x n] upper-triangular [R].  A column
   with nothing below its diagonal takes no reflector, so a
   rank-deficient input still yields orthonormal columns. *)
let householder (a : Rmat.t) =
  let m, n = Rmat.dims a in
  let w = Array.copy a.Rmat.data in
  let tau = Array.make n 0. in
  let v = Array.make m 0. and c = Array.make n 0. in
  (* x(:, j0..n) -= tau_k v (v^T x(:, j0..n)) in the vectorized column
     kernels, where v is reflector [k] as a full column: zero above
     row [k], 1 on it, and column [k] of [w] below it. *)
  let reflect k x j0 =
    Array.fill v 0 k 0.;
    v.(k) <- 1.;
    Array.blit w ((k * m) + k + 1) v (k + 1) (m - k - 1);
    Rmat.dot_block v x c m 1 0 1 j0 n;
    for j = j0 to n - 1 do
      c.(j) <- -.tau.(k) *. c.(j)
    done;
    Rmat.axpy_block v c x m 1 0 1 j0 n
  in
  for k = 0 to n - 1 do
    let off = k * m in
    let tail = ref 0. in
    for i = k + 1 to m - 1 do
      tail := !tail +. (w.(off + i) *. w.(off + i))
    done;
    if !tail > 0. then begin
      let alpha = w.(off + k) in
      let beta = -.Float.copy_sign (Float.hypot alpha (sqrt !tail)) alpha in
      let scale = 1. /. (alpha -. beta) in
      for i = k + 1 to m - 1 do
        w.(off + i) <- w.(off + i) *. scale
      done;
      tau.(k) <- (beta -. alpha) /. beta;
      w.(off + k) <- beta;
      reflect k w (k + 1)
    end
  done;
  let r = Rmat.init n n (fun i j -> if i <= j then w.(i + (j * m)) else 0.) in
  let q = Rmat.init m n (fun i j -> if i = j then 1. else 0.) in
  for k = n - 1 downto 0 do
    if tau.(k) <> 0. then reflect k q.Rmat.data k
  done;
  (q, r)

(* Real Cholesky [G = L L^T] of the sketch Gram matrix, with
   {!Chol.factorize}'s test: a pivot that is not positive and finite
   raises [Chol.Not_positive_definite]. *)
let cholesky (g : Rmat.t) =
  let n = g.Rmat.rows in
  let gd = g.Rmat.data in
  let l = Array.make (n * n) 0. in
  for j = 0 to n - 1 do
    let acc = ref gd.(j + (j * n)) in
    for k = 0 to j - 1 do
      acc := !acc -. (l.(j + (k * n)) *. l.(j + (k * n)))
    done;
    if !acc <= 0. || not (Float.is_finite !acc) then
      raise (Chol.Not_positive_definite j);
    let d = sqrt !acc in
    l.(j + (j * n)) <- d;
    for i = j + 1 to n - 1 do
      let s = ref gd.(i + (j * n)) in
      for k = 0 to j - 1 do
        s := !s -. (l.(i + (k * n)) *. l.(j + (k * n)))
      done;
      l.(i + (j * n)) <- !s /. d
    done
  done;
  l

(* One CholeskyQR pass: G = Y^T Y (parallel GEMM), L = chol(G), and
   Q = Y L^-T by a triangular solve over columns,
   Q(:,j) = (Y(:,j) - sum_{k<j} Q(:,k) L(j,k)) / L(j,j), whose
   updates run in the vectorized column kernel.  O(l^3) only on the
   sketch width. *)
let cholqr (y : Rmat.t) =
  let m, l = Rmat.dims y in
  let lo = cholesky (Rmat.mul_tn y y) in
  let q = Rmat.copy y in
  let qd = q.Rmat.data in
  (* coef.(k + j*l) = -L(j,k), the [axpy_block] coefficients of
     column j *)
  let coef = Array.init (l * l) (fun idx -> -.lo.((idx / l) + ((idx mod l) * l))) in
  for j = 0 to l - 1 do
    Rmat.axpy_block qd coef qd m l 0 j j (j + 1);
    let d = 1. /. lo.(j + (j * l)) in
    for i = j * m to ((j + 1) * m) - 1 do
      qd.(i) <- qd.(i) *. d
    done
  done;
  q

(* CholeskyQR2: two passes bring the orthogonality error from
   O(kappa^2 eps) down to machine precision, with the heavy work in
   parallel GEMMs.  Householder is the fallback when the Gram matrix
   loses positive definiteness. *)
let orthonormalize y =
  match cholqr (cholqr y) with
  | q -> q
  | exception Chol.Not_positive_definite _ ->
    Diag.record ~site:"svd.rsvd.cholqr_fallback"
      "sketch Gram matrix not PD; Householder orthonormalization";
    fst (householder y)

(* One subspace (power) iteration, with re-orthonormalization after
   every product, so small singular directions are not washed out. *)
let power_iterate a q =
  orthonormalize (Rmat.mul a (orthonormalize (Rmat.mul_tn a q)))

(* Project the columns of [y] against the orthonormal basis [q],
   twice (classical Gram-Schmidt needs the second pass for
   orthogonality at working precision). *)
let project_out q y =
  let y = Rmat.sub y (Rmat.mul q (Rmat.mul_tn q y)) in
  Rmat.sub y (Rmat.mul q (Rmat.mul_tn q y))

(* Certify the basis via the exact Frobenius identity
   |A - Q Q^T A|_F^2 = |A|_F^2 - |Q^T A|_F^2 (Q has orthonormal
   columns, so no error matrix is formed).  Returns B = Q^T A and the
   residual. *)
let certify ~norm_a a q =
  let b = Rmat.mul_tn q a in
  let norm_b = Rmat.norm_fro b in
  let res2 = (norm_a *. norm_a) -. (norm_b *. norm_b) in
  (* The difference of squares cancels catastrophically once the true
     residual drops below ~sqrt(eps) |A|: the computed [res2] is then
     rounding noise of either sign, and whether a tiny tail certifies
     would be a coin flip.  In that regime form the error matrix
     explicitly — one extra GEMM, no worse than one power-iteration
     product — so the residual is trustworthy down to machine
     precision. *)
  let residual =
    if res2 <= 1e-12 *. norm_a *. norm_a then
      Rmat.norm_fro (Rmat.sub a (Rmat.mul q b))
    else Stdlib.sqrt res2
  in
  (* The degrade fault poisons the certificate only: the factorization
     is returned untouched but can never certify, which drives the
     caller's fallback path deterministically. *)
  let residual =
    if Fault.armed "svd.rsvd.degrade" then Float.infinity else residual
  in
  (b, residual)

(* Unit roundoff. *)
let u = epsilon_float /. 2.

(* E = A - Q B in one pass: a copy of A accumulates Q (-B) in the
   column kernel, each column of E on its own, so the bits do not
   depend on the domain count. *)
let residual_matrix a q b =
  let m, n = Rmat.dims a and l = q.Rmat.cols in
  let e = Rmat.copy a in
  let neg_b = Array.map Float.neg b.Rmat.data in
  Parallel.parallel_for n (fun j0 j1 ->
      Rmat.axpy_block q.Rmat.data neg_b e.Rmat.data m l 0 l j0 j1);
  e

(* Columns of E per panel of the Gram matrix. *)
let gram_panel = 32

(* |E^T E|_F from the upper block triangle of the symmetric Gram
   matrix: each panel of [gram_panel] columns of E is dotted with the
   columns from its own first one onward, and an entry right of the
   panel's diagonal block stands for its mirror image too.  About 60%
   of the full product at n = 160.  The sum runs in a fixed order. *)
let gram_fro (e : Rmat.t) =
  let m, n = Rmat.dims e in
  let g = Array.make (n * n) 0. in
  let acc = ref 0. in
  let lo = ref 0 in
  while !lo < n do
    let ilo = !lo and ihi = Stdlib.min n (!lo + gram_panel) in
    Parallel.parallel_for (n - ilo) (fun j0 j1 ->
        Rmat.dot_block e.Rmat.data e.Rmat.data g m n ilo ihi (ilo + j0)
          (ilo + j1));
    for j = ilo to n - 1 do
      let w = if j < ihi then 1. else 2. in
      for i = ilo to ihi - 1 do
        let x = g.(i + (j * n)) in
        acc := !acc +. (w *. x *. x)
      done
    done;
    lo := ihi
  done;
  Stdlib.sqrt !acc

(* A certified bound on the spectral norm of the residual: with
   E = A - Q B formed explicitly, |E|_2^2 = |E^T E|_2 <= |E^T E|_F, so
   |E|_2 <= |E^T E|_F^(1/2), the Schatten-4 norm of E.  On a flat noise
   tail of width w that is about w^(1/4) times the tail level, where
   the Frobenius norm is w^(1/2) times it.

   Roundoff margin, for [a] m x n and [q] m x l.  Forming
   E' = fl (A - fl (Q B)) errs entrywise by at most
   gamma_(l+1) (|A| + |Q| |B|), so |E - E'|_F is below
   (l+1) u (|A|_F + sqrt l |B|_F) up to O(u^2), which the factor 2
   covers ([|B|_F <= |A|_F] for an orthonormal Q).  The Gram product of
   inner length m errs by at most gamma_m |E'|^T |E'|, at most
   m u |E'|_F^2 in Frobenius norm, and the norm of the n x n Gram
   matrix errs relatively by at most n^2 u; the factor 2 again covers
   the second-order terms.  Like the Frobenius residual, the bound
   takes Q as orthonormal (CholeskyQR2 leaves |Q^T Q - I| at O(u)) and
   the small SVD's values as exact. *)
let spectral_bound ~norm_a a q b =
  let m, n = Rmat.dims a and l = q.Rmat.cols in
  let e = residual_matrix a q b in
  let norm_e = Rmat.norm_fro e in
  let gram = gram_fro e in
  let gram_err = 2. *. float_of_int (n * n) *. u in
  let prod_err = 2. *. float_of_int m *. u in
  let form_err =
    2. *. float_of_int (l + 1) *. u *. (1. +. Stdlib.sqrt (float_of_int l))
    *. norm_a
  in
  Stdlib.sqrt ((gram *. (1. +. gram_err)) +. (prod_err *. norm_e *. norm_e))
  +. form_err

(* The small SVD of B ([l x n], l <= n) through its R factor:
   B^T = Q_b R, so B = R^T Q_b^T and a real SVD of the [l x l] R^T,
   R^T = U S W^T, gives B = U S (Q_b W)^T.  Householder, not
   CholeskyQR, keeps the small singular values the rank rules read.
   Returns sigma with B's right vectors Q_b W (the tall case) or its
   left vectors U (the wide case, whose sketch ran on A^T). *)
let small_svd ~right b =
  let qb, r = householder (Rmat.transpose b) in
  if right then
    let sigma, w = Svd.right_real (Rmat.transpose r) in
    (sigma, Rmat.mul qb w)
  else Svd.right_real r

let exact a =
  let m, n = Rmat.dims a in
  let k = Stdlib.min m n in
  let sigma, v = Svd.right_real a in
  { sigma; v; residual = 0.; spectral = 0.; certified = true; sketch = k;
    total = k }

(* The adaptive sketch doubles from [l] to [2l] only while [2l <= n/2].
   A wider sketch costs more than the exact SVD it is trying to avoid,
   and a spectrum that has not certified by half width is a noise
   floor, not a low-rank matrix: the caller's rank rule or its exact
   path answers it. *)
let capped ~l ~n = 2 * l > n / 2

(* Sketch the tall [at] ([m >= n]); [right] says whether the caller
   wants the right vectors of [at] itself, or of the wide [at^T]. *)
let sketch_tall ?accept ~right at =
  let n = at.Rmat.cols in
  let norm_a = Rmat.norm_fro at in
  let rng = Rng.create seed in
  (* A poisoned certificate can never certify; growing the sketch to
     full width would just burn time before the caller falls back, so
     return the first (degraded) round immediately. *)
  let degraded = Fault.armed "svd.rsvd.degrade" in
  let l0 = Stdlib.min n (Stdlib.max 16 (n / 4)) in
  let omega = Rmat.random rng n l0 in
  let q0 = power_iterate at (orthonormalize (Rmat.mul at omega)) in
  let finish q b ~residual ~spectral =
    let sigma, w = small_svd ~right b in
    { sigma; v = (if right then w else Rmat.mul q w); residual; spectral;
      certified = residual <= tol *. norm_a; sketch = q.Rmat.cols; total = n }
  in
  let rec grow q =
    let l = q.Rmat.cols in
    let b, residual = certify ~norm_a at q in
    let settled = residual <= tol *. norm_a || degraded in
    let last = settled || capped ~l ~n in
    match accept with
    | Some accept when not settled ->
      (* The caller's rule may be met by a round Rsvd's own test does
         not certify: that round pays the spectral bound and the small
         SVD, and is returned as soon as the rule accepts it. *)
      let spectral = Float.min residual (spectral_bound ~norm_a at q b) in
      let r = finish q b ~residual ~spectral in
      if last || accept r then r else grow (extend q)
    | _ ->
      (* only the returned round needs the SVD of B *)
      if last then finish q b ~residual ~spectral:residual
      else grow (extend q)
  (* Geometric growth, reusing the basis built so far: fresh sketch
     columns are power-iterated, projected against the existing Q
     (twice), and orthonormalized — never recomputed from scratch. *)
  and extend q =
    let omega = Rmat.random rng n q.Rmat.cols in
    let y = power_iterate at (orthonormalize (Rmat.mul at omega)) in
    Rmat.hcat q (orthonormalize (project_out q y))
  in
  grow q0

let decompose_adaptive ?accept a =
  let m, n = Rmat.dims a in
  if Stdlib.min m n <= small_cutoff || Rmat.norm_fro a = 0. then exact a
  else if m >= n then sketch_tall ?accept ~right:true a
  else sketch_tall ?accept ~right:false (Rmat.transpose a)
