type t = {
  svd : Svd.t;
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

(* Inverse of a lower-triangular complex matrix by forward
   substitution, column by column.  O(l^3) on the sketch width only —
   never on the large dimension. *)
let tri_inv_lower l =
  let n = Cmat.rows l in
  let m = Cmat.create n n in
  for j = 0 to n - 1 do
    Cmat.set m j j (Cx.inv (Cmat.get l j j));
    for i = j + 1 to n - 1 do
      let acc = ref Cx.zero in
      for k = j to i - 1 do
        acc := Cx.add_mul !acc (Cmat.get l i k) (Cmat.get m k j)
      done;
      Cmat.set m i j (Cx.neg (Cx.div !acc (Cmat.get l i i)))
    done
  done;
  m

(* One CholeskyQR pass: G = Y* Y (parallel GEMM), L = chol(G),
   Q = Y L^-H (another parallel GEMM against the small triangular
   inverse).  Raises [Chol.Not_positive_definite] when Y is too
   ill-conditioned for the Gram matrix to stay PD at working
   precision. *)
let cholqr y =
  let g = Cmat.mul_cn y y in
  let l = Chol.factorize g in
  let linv = tri_inv_lower l in
  Cmat.mul y (Cmat.ctranspose linv)

(* CholeskyQR2: two passes bring the orthogonality error from
   O(kappa^2 eps) down to machine precision, with all the heavy work
   in parallel GEMMs — unlike the sequential Householder
   {!Qr.orthonormalize}, which would dominate the whole sketch cost at
   tall sizes.  Householder remains the fallback when the Gram matrix
   loses positive definiteness. *)
let orthonormalize y =
  match cholqr (cholqr y) with
  | q -> q
  | exception Chol.Not_positive_definite _ ->
    Diag.record ~site:"svd.rsvd.cholqr_fallback"
      "sketch Gram matrix not PD; Householder orthonormalization";
    Qr.orthonormalize y

(* One subspace (power) iteration per sketch round, with
   re-orthonormalization after every product, so small singular
   directions are not washed out. *)
let power_iterate a q =
  orthonormalize (Cmat.mul a (orthonormalize (Cmat.mul_cn a q)))

(* Project the columns of [y] against the orthonormal basis [q],
   twice (classical Gram-Schmidt needs the second pass for
   orthogonality at working precision). *)
let project_out q y =
  let y = Cmat.sub y (Cmat.mul q (Cmat.mul_cn q y)) in
  Cmat.sub y (Cmat.mul q (Cmat.mul_cn q y))

(* Certify the basis via the exact Frobenius identity
   |A - Q Q* A|_F^2 = |A|_F^2 - |Q* A|_F^2 (Q has orthonormal
   columns, so no error matrix is ever formed).  Returns B = Q* A
   and the residual. *)
let certify ~norm_a a q =
  let b = Cmat.mul_cn q a in
  let norm_b = Cmat.norm_fro b in
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
      Cmat.norm_fro (Cmat.sub a (Cmat.mul q b))
    else Stdlib.sqrt res2
  in
  (* The degrade fault poisons the certificate only: the factorization
     is returned untouched but can never certify, which drives the
     caller's fallback path deterministically. *)
  let residual =
    if Fault.armed "svd.rsvd.degrade" then Float.infinity else residual
  in
  (b, residual)

(* Finish: small dense SVD of B (sketch x n), lifting U back
   through Q. *)
let finish ~norm_a ~total q (b, residual) =
  let d = Svd.decompose b in
  {
    svd = { Svd.u = Cmat.mul q d.Svd.u; sigma = d.Svd.sigma; v = d.Svd.v };
    residual;
    certified = residual <= tol *. norm_a;
    sketch = Cmat.cols q;
    total;
  }

let exact a =
  let m, n = Cmat.dims a in
  let k = Stdlib.min m n in
  { svd = Svd.decompose a; residual = 0.; certified = true; sketch = k;
    total = k }

let transpose_result r =
  { r with svd = { r.svd with Svd.u = r.svd.Svd.v; v = r.svd.Svd.u } }

(* The adaptive sketch doubles from [l] to [2l] only while [2l <= n/2].
   A wider sketch costs more than the exact SVD it is trying to avoid
   (at 320 x 160 the 40- and 80-column rounds together cost about
   0.55x an exact {!Svd.right}, a 160-column round more than twice as
   much), and a spectrum that has not certified by half width is a
   noise floor, not a low-rank matrix: the caller's rank rule or its
   exact path answers it. *)
let capped ~l ~n = 2 * l > n / 2

let decompose_adaptive_tall a =
  let m, n = Cmat.dims a in
  assert (m >= n);
  if n <= small_cutoff then exact a
  else begin
    let norm_a = Cmat.norm_fro a in
    if norm_a = 0. then exact a
    else begin
      let rng = Rng.create seed in
      (* A poisoned certificate can never certify; growing the sketch
         to full width would just burn time before the caller falls
         back, so return the first (degraded) round immediately. *)
      let degraded = Fault.armed "svd.rsvd.degrade" in
      let l0 = Stdlib.min n (Stdlib.max 16 (n / 4)) in
      let omega = Cmat.random_real rng n l0 in
      let q0 = power_iterate a (orthonormalize (Cmat.mul a omega)) in
      let rec grow q =
        let l = Cmat.cols q in
        let ((_, residual) as cert) = certify ~norm_a a q in
        (* only the returned round needs the SVD of B *)
        if residual <= tol *. norm_a || degraded || capped ~l ~n then
          finish ~norm_a ~total:n q cert
        else begin
          (* Geometric growth, reusing the basis built so far: fresh
             sketch columns are power-iterated, projected against the
             existing Q (twice), and orthonormalized — never
             recomputed from scratch. *)
          let omega = Cmat.random_real rng n l in
          let y = power_iterate a (orthonormalize (Cmat.mul a omega)) in
          let fresh = orthonormalize (project_out q y) in
          grow (Cmat.hcat q fresh)
        end
      in
      grow q0
    end
  end

let decompose_adaptive a =
  let m, n = Cmat.dims a in
  if m = 0 || n = 0 then exact a
  else if m >= n then decompose_adaptive_tall a
  else transpose_result (decompose_adaptive_tall (Cmat.ctranspose a))
