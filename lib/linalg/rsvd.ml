type t = {
  sigma : float array;
  v : Rmat.t;
  residual : float;
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
  { sigma; v; residual = 0.; certified = true; sketch = k; total = k }

(* The adaptive sketch doubles from [l] to [2l] only while [2l <= n/2].
   A wider sketch costs more than the exact SVD it is trying to avoid,
   and a spectrum that has not certified by half width is a noise
   floor, not a low-rank matrix: the caller's rank rule or its exact
   path answers it. *)
let capped ~l ~n = 2 * l > n / 2

(* Sketch the tall [at] ([m >= n]); [right] says whether the caller
   wants the right vectors of [at] itself, or of the wide [at^T]. *)
let sketch_tall ~right at =
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
  let rec grow q =
    let l = q.Rmat.cols in
    let b, residual = certify ~norm_a at q in
    if residual <= tol *. norm_a || degraded || capped ~l ~n then begin
      (* only the returned round needs the SVD of B *)
      let sigma, w = small_svd ~right b in
      { sigma; v = (if right then w else Rmat.mul q w); residual;
        certified = residual <= tol *. norm_a; sketch = l; total = n }
    end
    else begin
      (* Geometric growth, reusing the basis built so far: fresh
         sketch columns are power-iterated, projected against the
         existing Q (twice), and orthonormalized — never recomputed
         from scratch. *)
      let omega = Rmat.random rng n l in
      let y = power_iterate at (orthonormalize (Rmat.mul at omega)) in
      let fresh = orthonormalize (project_out q y) in
      grow (Rmat.hcat q fresh)
    end
  in
  grow q0

let decompose_adaptive a =
  let m, n = Rmat.dims a in
  if Stdlib.min m n <= small_cutoff || Rmat.norm_fro a = 0. then exact a
  else if m >= n then sketch_tall ~right:true a
  else sketch_tall ~right:false (Rmat.transpose a)
