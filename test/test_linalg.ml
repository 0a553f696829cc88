(* Tests for the dense linear-algebra substrate. *)

open Linalg

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %.1g)" msg expected actual tol

let check_small ?(tol = 1e-9) msg x =
  if abs_float x > tol then Alcotest.failf "%s: |%.3g| exceeds tol %.1g" msg x tol

let cx re im = Cx.make re im

(* ------------------------------------------------------------------ *)
(* Cx *)

let test_cx_arith () =
  let a = cx 1. 2. and b = cx 3. (-1.) in
  let sum = Cx.add a b in
  check_float "re(a+b)" 4. sum.Cx.re;
  check_float "im(a+b)" 1. sum.Cx.im;
  let prod = Cx.mul a b in
  (* (1+2j)(3-j) = 3 - j + 6j - 2j^2 = 5 + 5j *)
  check_float "re(a*b)" 5. prod.Cx.re;
  check_float "im(a*b)" 5. prod.Cx.im;
  let q = Cx.div prod b in
  check_float "re(a*b/b)" a.Cx.re q.Cx.re;
  check_float "im(a*b/b)" a.Cx.im q.Cx.im

let test_cx_abs_conj () =
  let a = cx 3. 4. in
  check_float "|3+4j|" 5. (Cx.abs a);
  check_float "|3+4j|^2" 25. (Cx.abs2 a);
  let c = Cx.conj a in
  check_float "conj im" (-4.) c.Cx.im;
  check_float "conj re" 3. c.Cx.re;
  Alcotest.(check bool) "equal tol" true (Cx.equal ~tol:1e-12 a (cx 3. 4.))

let test_cx_polar () =
  let z = Cx.polar 2. (Float.pi /. 2.) in
  check_close ~tol:1e-12 "polar re" 0. z.Cx.re;
  check_close ~tol:1e-12 "polar im" 2. z.Cx.im;
  check_close ~tol:1e-12 "arg" (Float.pi /. 2.) (Cx.arg z)

let test_cx_add_mul () =
  let acc = cx 1. 1. and a = cx 2. 3. and b = cx (-1.) 4. in
  let got = Cx.add_mul acc a b in
  let expect = Cx.add acc (Cx.mul a b) in
  check_float "add_mul re" expect.Cx.re got.Cx.re;
  check_float "add_mul im" expect.Cx.im got.Cx.im

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.uniform a) (Rng.uniform b)
  done

let test_rng_uniform_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let sum = ref 0. and sum2 = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sum2 := !sum2 +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  check_close ~tol:0.05 "gaussian mean" 0. mean;
  check_close ~tol:0.1 "gaussian var" 1. var

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let k = Rng.int rng 5 in
    Alcotest.(check bool) "bound" true (k >= 0 && k < 5);
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Rmat *)

let test_rmat_transpose () =
  let a = Rmat.of_rows [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] in
  let t = Rmat.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Rmat.dims t);
  check_float "t(2,1)" 6. (Rmat.get t 2 1);
  check_float "t(0,1)" 4. (Rmat.get t 0 1)

let test_rmat_blocks () =
  let a = Rmat.of_rows [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let b = Rmat.of_rows [ [ 5. ]; [ 6. ] ] in
  let h = Rmat.hcat a b in
  Alcotest.(check (pair int int)) "hcat dims" (2, 3) (Rmat.dims h);
  check_float "hcat entry" 6. (Rmat.get h 1 2);
  let v = Rmat.vcat a (Rmat.of_rows [ [ 7.; 8. ] ]) in
  Alcotest.(check (pair int int)) "vcat dims" (3, 2) (Rmat.dims v);
  check_float "vcat entry" 8. (Rmat.get v 2 1);
  let s = Rmat.sub_matrix h ~r:0 ~c:1 ~rows:2 ~cols:2 in
  check_float "sub entry" 4. (Rmat.get s 1 0)

let test_rmat_norms () =
  let a = Rmat.of_rows [ [ 3.; 0. ]; [ 0.; 4. ] ] in
  check_float "fro" 5. (Rmat.norm_fro a);
  check_float "max_abs" 4. (Rmat.max_abs a);
  check_float "trace" 7. (Rmat.trace a)

(* ------------------------------------------------------------------ *)
(* Cmat *)

let naive_mul a b =
  let m = Cmat.rows a and n = Cmat.cols b and kk = Cmat.cols a in
  Cmat.init m n (fun i jcol ->
      let acc = ref Cx.zero in
      for k = 0 to kk - 1 do
        acc := Cx.add_mul !acc (Cmat.get a i k) (Cmat.get b k jcol)
      done;
      !acc)

let test_cmat_mul () =
  let rng = Rng.create 17 in
  let a = Cmat.random rng 6 5 and b = Cmat.random rng 5 4 in
  let fast = Cmat.mul a b and slow = naive_mul a b in
  Alcotest.(check bool) "gemm matches naive" true (Cmat.equal ~tol:1e-12 fast slow)

let test_cmat_mul_cn () =
  let rng = Rng.create 18 in
  let a = Cmat.random rng 6 3 and b = Cmat.random rng 6 4 in
  let direct = Cmat.mul (Cmat.ctranspose a) b in
  let fused = Cmat.mul_cn a b in
  Alcotest.(check bool) "mul_cn = A* B" true (Cmat.equal ~tol:1e-12 direct fused)

let test_cmat_ctranspose () =
  let a = Cmat.of_rows [ [ cx 1. 2.; cx 3. 4. ] ] in
  let h = Cmat.ctranspose a in
  Alcotest.(check (pair int int)) "dims" (2, 1) (Cmat.dims h);
  let z = Cmat.get h 1 0 in
  check_float "conj re" 3. z.Cx.re;
  check_float "conj im" (-4.) z.Cx.im

let test_cmat_blocks () =
  let a = Cmat.identity 2 in
  let b = Cmat.zeros 2 1 in
  let c = Cmat.zeros 1 2 in
  let d = Cmat.scalar (cx 5. 0.) in
  let m = Cmat.blocks [ [ a; b ]; [ c; d ] ] in
  Alcotest.(check (pair int int)) "dims" (3, 3) (Cmat.dims m);
  check_float "corner" 5. (Cmat.get m 2 2).Cx.re;
  check_float "id part" 1. (Cmat.get m 1 1).Cx.re;
  let bd = Cmat.blkdiag [ a; d ] in
  Alcotest.(check (pair int int)) "blkdiag dims" (3, 3) (Cmat.dims bd);
  check_float "blkdiag corner" 5. (Cmat.get bd 2 2).Cx.re;
  check_float "blkdiag off" 0. (Cmat.get bd 0 2).Cx.re

let test_cmat_select () =
  let m = Cmat.init 4 4 (fun i jcol -> cx (float_of_int (10 * i + jcol)) 0.) in
  let r = Cmat.select_rows m [| 3; 1 |] in
  check_float "row sel" 31. (Cmat.get r 0 1).Cx.re;
  check_float "row sel2" 12. (Cmat.get r 1 2).Cx.re;
  let c = Cmat.select_cols m [| 2; 0 |] in
  check_float "col sel" 2. (Cmat.get c 0 0).Cx.re;
  check_float "col sel2" 30. (Cmat.get c 3 1).Cx.re

let test_cmat_real_round_trip () =
  let rng = Rng.create 23 in
  let r = Rmat.random rng 3 4 in
  let c = Cmat.of_real r in
  check_small "max_imag of real" (Cmat.max_imag c);
  Alcotest.(check bool) "round trip" true
    (Rmat.equal ~tol:0. r (Cmat.real_part c))

let test_cmat_norms () =
  let m = Cmat.of_rows [ [ cx 3. 4.; Cx.zero ]; [ Cx.zero; Cx.zero ] ] in
  check_float "fro" 5. (Cmat.norm_fro m);
  check_float "max_abs" 5. (Cmat.max_abs m);
  check_float "norm_one" 5. (Cmat.norm_one m);
  let v = Cmat.col_vector [| cx 1. 0.; cx 0. 2. |] in
  check_close ~tol:1e-12 "vec_norm" (sqrt 5.) (Cmat.vec_norm v);
  let w = Cmat.col_vector [| cx 0. 1.; cx 1. 0. |] in
  let d = Cmat.vec_dot v w in
  (* conj(1)*j + conj(2j)*1 = j - 2j = -j *)
  check_float "dot re" 0. d.Cx.re;
  check_float "dot im" (-1.) d.Cx.im

(* ------------------------------------------------------------------ *)
(* Lu *)

let test_lu_solve () =
  let rng = Rng.create 31 in
  let n = 25 in
  let a = Cmat.random rng n n in
  let x_true = Cmat.random rng n 3 in
  let b = Cmat.mul a x_true in
  let x = Lu.solve_mat a b in
  check_small ~tol:1e-8 "solve residual"
    (Cmat.norm_fro (Cmat.sub x x_true) /. Cmat.norm_fro x_true)

let test_lu_det () =
  (* det of a triangular-ish known matrix *)
  let a = Cmat.of_rows [ [ cx 2. 0.; cx 1. 0. ]; [ Cx.zero; cx 3. 0. ] ] in
  let d = Lu.det (Lu.factorize a) in
  check_float "det re" 6. d.Cx.re;
  check_float "det im" 0. d.Cx.im;
  (* complex determinant: [[j, 0],[0, j]] -> det = -1 *)
  let b = Cmat.of_rows [ [ Cx.j; Cx.zero ]; [ Cx.zero; Cx.j ] ] in
  let db = Lu.det (Lu.factorize b) in
  check_float "det j^2 re" (-1.) db.Cx.re;
  check_small "det j^2 im" db.Cx.im

let test_lu_inverse () =
  let rng = Rng.create 37 in
  let n = 15 in
  let a = Cmat.random rng n n in
  let ainv = Lu.inverse a in
  let id = Cmat.mul a ainv in
  check_small ~tol:1e-9 "A A^-1 = I" (Cmat.norm_fro (Cmat.sub id (Cmat.identity n)))

let test_lu_singular () =
  let a = Cmat.of_rows [ [ cx 1. 0.; cx 2. 0. ]; [ cx 2. 0.; cx 4. 0. ] ] in
  (match Lu.factorize a with
   | exception Lu.Singular _ -> ()
   | _ -> Alcotest.fail "expected Singular");
  check_float "rcond of singular" 0. (Lu.rcond_est a)

let test_lu_rcond () =
  let id = Cmat.identity 5 in
  check_close ~tol:1e-12 "rcond of identity" 1. (Lu.rcond_est id);
  (* a badly scaled diagonal matrix has rcond = min/max entry *)
  let d = Cmat.of_rows [ [ cx 1e6 0.; Cx.zero ]; [ Cx.zero; cx 1. 0. ] ] in
  check_close ~tol:1e-18 "rcond of scaled diag" 1e-6 (Lu.rcond_est d)

(* ------------------------------------------------------------------ *)
(* Qr *)

let test_qr_reconstruct () =
  let rng = Rng.create 41 in
  let a = Cmat.random rng 8 5 in
  let f = Qr.factorize a in
  let q = Qr.thin_q f and r = Qr.r f in
  let qr = Cmat.mul q r in
  check_small ~tol:1e-10 "QR = A" (Cmat.norm_fro (Cmat.sub qr a));
  let qhq = Cmat.mul_cn q q in
  check_small ~tol:1e-10 "Q*Q = I" (Cmat.norm_fro (Cmat.sub qhq (Cmat.identity 5)))

let test_qr_apply () =
  let rng = Rng.create 43 in
  let a = Cmat.random rng 7 7 in
  let f = Qr.factorize a in
  let b = Cmat.random rng 7 2 in
  let qb = Qr.apply_q f b in
  let back = Qr.apply_qh f qb in
  check_small ~tol:1e-10 "Q* Q b = b" (Cmat.norm_fro (Cmat.sub back b))

let test_qr_solve_ls_exact () =
  let rng = Rng.create 47 in
  let a = Cmat.random rng 6 6 in
  let x_true = Cmat.random rng 6 2 in
  let b = Cmat.mul a x_true in
  let x = Qr.solve_ls a b in
  check_small ~tol:1e-9 "square LS is exact"
    (Cmat.norm_fro (Cmat.sub x x_true) /. Cmat.norm_fro x_true)

let test_qr_solve_ls_overdetermined () =
  let rng = Rng.create 53 in
  let a = Cmat.random rng 20 4 in
  let b = Cmat.random rng 20 1 in
  let x = Qr.solve_ls a b in
  (* Normal equations: A*(Ax - b) = 0 *)
  let resid = Cmat.sub (Cmat.mul a x) b in
  check_small ~tol:1e-9 "normal equations" (Cmat.norm_fro (Cmat.mul_cn a resid))

let test_qr_orthonormalize () =
  let rng = Rng.create 59 in
  let a = Cmat.random rng 10 3 in
  let q = Qr.orthonormalize a in
  let qhq = Cmat.mul_cn q q in
  check_small ~tol:1e-10 "orthonormal" (Cmat.norm_fro (Cmat.sub qhq (Cmat.identity 3)));
  (* Span is preserved: a = q (q* a) *)
  let proj = Cmat.mul q (Cmat.mul_cn q a) in
  check_small ~tol:1e-9 "span preserved" (Cmat.norm_fro (Cmat.sub proj a))

(* ------------------------------------------------------------------ *)
(* Svd *)

let test_svd_diag () =
  let a = Cmat.of_rows
      [ [ cx 3. 0.; Cx.zero; Cx.zero ];
        [ Cx.zero; cx 5. 0.; Cx.zero ];
        [ Cx.zero; Cx.zero; cx 1. 0. ] ]
  in
  let d = Svd.decompose a in
  check_float "s0" 5. d.Svd.sigma.(0);
  check_float "s1" 3. d.Svd.sigma.(1);
  check_float "s2" 1. d.Svd.sigma.(2)

let test_svd_reconstruct () =
  let rng = Rng.create 61 in
  let a = Cmat.random rng 9 6 in
  let d = Svd.decompose a in
  check_small ~tol:1e-9 "USV* = A" (Cmat.norm_fro (Cmat.sub (Svd.reconstruct d) a));
  let uhu = Cmat.mul_cn d.Svd.u d.Svd.u in
  check_small ~tol:1e-10 "U*U = I" (Cmat.norm_fro (Cmat.sub uhu (Cmat.identity 6)));
  let vhv = Cmat.mul_cn d.Svd.v d.Svd.v in
  check_small ~tol:1e-10 "V*V = I" (Cmat.norm_fro (Cmat.sub vhv (Cmat.identity 6)))

let test_svd_wide () =
  let rng = Rng.create 67 in
  let a = Cmat.random rng 4 9 in
  let d = Svd.decompose a in
  check_small ~tol:1e-9 "wide USV* = A" (Cmat.norm_fro (Cmat.sub (Svd.reconstruct d) a));
  Alcotest.(check int) "wide k" 4 (Array.length d.Svd.sigma)

let test_svd_rank () =
  let rng = Rng.create 71 in
  (* rank-3 product of 8x3 and 3x8 *)
  let a = Cmat.mul (Cmat.random rng 8 3) (Cmat.random rng 3 8) in
  let d = Svd.decompose a in
  Alcotest.(check int) "rank" 3 (Svd.rank ~rtol:1e-10 d);
  Alcotest.(check int) "rank_gap" 3 (Svd.rank_gap d)

let test_svd_ordering () =
  let rng = Rng.create 73 in
  let d = Svd.decompose (Cmat.random rng 10 10) in
  for i = 0 to Array.length d.Svd.sigma - 2 do
    Alcotest.(check bool) "descending" true (d.Svd.sigma.(i) >= d.Svd.sigma.(i + 1))
  done

let test_svd_pinv () =
  let rng = Rng.create 79 in
  let a = Cmat.mul (Cmat.random rng 7 3) (Cmat.random rng 3 6) in
  let p = Svd.pinv a in
  (* Moore-Penrose: A P A = A and P A P = P *)
  check_small ~tol:1e-8 "A P A = A" (Cmat.norm_fro (Cmat.sub (Cmat.mul a (Cmat.mul p a)) a));
  check_small ~tol:1e-8 "P A P = P" (Cmat.norm_fro (Cmat.sub (Cmat.mul p (Cmat.mul a p)) p))

let test_svd_algorithms_agree () =
  let rng = Rng.create 91 in
  List.iter
    (fun (m, n) ->
      let a = Cmat.random rng m n in
      let dj = Svd.decompose ~algorithm:Svd.Jacobi a in
      let dg = Svd.decompose ~algorithm:Svd.Golub_kahan a in
      Array.iteri
        (fun i s ->
          check_small ~tol:1e-12 "sigma agreement"
            ((s -. dg.Svd.sigma.(i)) /. (1. +. s)))
        dj.Svd.sigma;
      check_small ~tol:1e-12 "gk reconstruction"
        (Cmat.norm_fro (Cmat.sub (Svd.reconstruct dg) a) /. (1. +. Cmat.norm_fro a)))
    [ (1, 1); (4, 3); (3, 4); (12, 12); (40, 25); (25, 40); (64, 64) ]

let test_svd_gk_graded_spectrum () =
  (* a steeply graded spectrum, the shape Loewner pencils produce *)
  let n = 40 in
  let rng = Rng.create 93 in
  let q1 = Qr.orthonormalize (Cmat.random rng n n) in
  let q2 = Qr.orthonormalize (Cmat.random rng n n) in
  let sig_true = Array.init n (fun i -> 10. ** (-.(float_of_int i) /. 2.)) in
  let s = Cmat.init n n (fun i jcol ->
      if i = jcol then Cx.of_float sig_true.(i) else Cx.zero)
  in
  let a = Cmat.mul q1 (Cmat.mul s (Cmat.ctranspose q2)) in
  let d = Svd.decompose ~algorithm:Svd.Golub_kahan a in
  Array.iteri
    (fun i s ->
      (* absolute accuracy at the eps * sigma_max level *)
      check_small ~tol:1e-14 "graded sigma" (s -. d.Svd.sigma.(i)))
    sig_true

let test_svd_norm2 () =
  let a = Cmat.of_rows [ [ cx 0. 7. ] ] in
  check_float "norm2 of scalar" 7. (Svd.norm2 a);
  let rng = Rng.create 83 in
  let q = Qr.orthonormalize (Cmat.random rng 6 6) in
  check_close ~tol:1e-10 "norm2 of unitary" 1. (Svd.norm2 q)

(* ------------------------------------------------------------------ *)
(* Eig *)

let contains_eig vs target tol =
  Array.exists (fun v -> Cx.abs (Cx.sub v target) < tol) vs

let test_eig_2x2 () =
  (* [[0, -1],[1, 0]] has eigenvalues +-j *)
  let a = Cmat.of_rows [ [ Cx.zero; cx (-1.) 0. ]; [ cx 1. 0.; Cx.zero ] ] in
  let vs = Eig.eigenvalues a in
  Alcotest.(check int) "count" 2 (Array.length vs);
  Alcotest.(check bool) "+j" true (contains_eig vs Cx.j 1e-10);
  Alcotest.(check bool) "-j" true (contains_eig vs (Cx.neg Cx.j) 1e-10)

let test_eig_triangular () =
  let a = Cmat.of_rows
      [ [ cx 2. 0.; cx 5. 1.; cx 0. 3. ];
        [ Cx.zero; cx (-1.) 2.; cx 4. 0. ];
        [ Cx.zero; Cx.zero; cx 0.5 (-3.) ] ]
  in
  let vs = Eig.eigenvalues a in
  Alcotest.(check bool) "2" true (contains_eig vs (cx 2. 0.) 1e-9);
  Alcotest.(check bool) "-1+2j" true (contains_eig vs (cx (-1.) 2.) 1e-9);
  Alcotest.(check bool) "0.5-3j" true (contains_eig vs (cx 0.5 (-3.)) 1e-9)

let test_eig_companion () =
  (* companion of p(x) = x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3) *)
  let a = Cmat.of_rows
      [ [ cx 6. 0.; cx (-11.) 0.; cx 6. 0. ];
        [ cx 1. 0.; Cx.zero; Cx.zero ];
        [ Cx.zero; cx 1. 0.; Cx.zero ] ]
  in
  let vs = Eig.eigenvalues a in
  Alcotest.(check bool) "root 1" true (contains_eig vs (cx 1. 0.) 1e-8);
  Alcotest.(check bool) "root 2" true (contains_eig vs (cx 2. 0.) 1e-8);
  Alcotest.(check bool) "root 3" true (contains_eig vs (cx 3. 0.) 1e-8)

let test_eig_trace_sum () =
  let rng = Rng.create 89 in
  let n = 20 in
  let a = Cmat.random rng n n in
  let vs = Eig.eigenvalues a in
  let sum = Array.fold_left Cx.add Cx.zero vs in
  let tr = Cmat.trace a in
  check_small ~tol:1e-8 "trace = sum eig" (Cx.abs (Cx.sub sum tr))

let test_eig_real_conjugate_pairs () =
  let rng = Rng.create 97 in
  let a = Rmat.random rng 12 12 in
  let vs = Eig.eigenvalues_real a in
  (* every eigenvalue with im > tol must have a conjugate partner *)
  Array.iter
    (fun v ->
      if abs_float v.Cx.im > 1e-8 then
        Alcotest.(check bool) "conjugate present" true
          (contains_eig vs (Cx.conj v) 1e-6))
    vs

let test_eig_similarity_invariance () =
  let rng = Rng.create 101 in
  let n = 8 in
  let a = Cmat.random rng n n in
  let t = Cmat.random rng n n in
  let b = Lu.solve_mat t (Cmat.mul a t) in
  (* b = T^{-1} (A T): similar to A *)
  let by_magnitude vs =
    let vs = Array.copy vs in
    Array.sort (fun x y -> compare (Cx.abs y) (Cx.abs x)) vs;
    vs
  in
  let va = by_magnitude (Eig.eigenvalues a) in
  let vb = by_magnitude (Eig.eigenvalues b) in
  Array.iteri
    (fun i v -> check_small ~tol:1e-6 "similar spectra" (Cx.abs (Cx.sub v vb.(i))))
    va

let test_eig_right_vectors () =
  let rng = Rng.create 131 in
  let a = Cmat.random rng 10 10 in
  let values, vectors = Eig.eigen a in
  let av = Cmat.mul a vectors in
  Array.iteri
    (fun i lambda ->
      let v = Cmat.col vectors i in
      let lhs = Cmat.col av i in
      let rhs = Cmat.scale lambda v in
      check_small ~tol:1e-7 "A v = lambda v"
        (Cmat.norm_fro (Cmat.sub lhs rhs) /. (1. +. Cx.abs lambda)))
    values

(* Greedy nearest matching of [a] onto [b]: the worst distance over
   the spectral radius of [b]. *)
let spectrum_mismatch a b =
  Alcotest.(check int) "same count" (Array.length b) (Array.length a);
  let used = Array.make (Array.length b) false in
  let radius = Array.fold_left (fun acc z -> Stdlib.max acc (Cx.abs z)) 0. b in
  let worst = ref 0. in
  Array.iter
    (fun z ->
      let best = ref (-1) and dist = ref infinity in
      Array.iteri
        (fun i w ->
          let d = Cx.abs (Cx.sub z w) in
          if (not used.(i)) && d < !dist then begin
            best := i;
            dist := d
          end)
        b;
      used.(!best) <- true;
      worst := Stdlib.max !worst !dist)
    a;
  if radius = 0. then !worst else !worst /. radius

(* the real kernel's structure: every non-real value has a bitwise
   conjugate partner *)
let check_exact_pairs what vs =
  Array.iter
    (fun v ->
      if v.Cx.im <> 0. then
        Alcotest.(check bool) (what ^ ": exact conjugate") true
          (Array.exists
             (fun w -> w.Cx.re = v.Cx.re && w.Cx.im = -.v.Cx.im)
             vs))
    vs

let check_kernels_agree what r =
  let real = Eig.eigenvalues_real r in
  check_exact_pairs what real;
  let d = spectrum_mismatch real (Eig.eigenvalues (Cmat.of_real r)) in
  if not (d <= 1e-10) then
    Alcotest.failf "%s: real and complex kernels differ by %.3g x radius"
      what d;
  real

let test_eig_real_kernel_random () =
  let rng = Rng.create 211 in
  List.iter
    (fun n ->
      ignore
        (check_kernels_agree (Printf.sprintf "random %d" n)
           (Rmat.random rng n n)))
    [ 1; 2; 3; 4; 5; 7; 10; 16; 25; 40; 64; 100; 150; 200 ]

let test_eig_real_kernel_special () =
  let one = check_kernels_agree "1x1" (Rmat.of_rows [ [ 3. ] ]) in
  Alcotest.(check bool) "1x1 exact" true (one = [| cx 3. 0. |]);
  let rot = check_kernels_agree "rotation" (Rmat.of_rows [ [ 0.; -1. ]; [ 1.; 0. ] ]) in
  Alcotest.(check bool) "rotation is +-j exactly" true
    (Array.mem (cx 0. 1.) rot && Array.mem (cx 0. (-1.)) rot);
  let zero = check_kernels_agree "zero" (Rmat.zeros 4 4) in
  Alcotest.(check bool) "zero" true (Array.for_all (fun v -> v = Cx.zero) zero);
  let jordan =
    check_kernels_agree "jordan"
      (Rmat.init 4 4 (fun i jcol ->
           if i = jcol then 2. else if jcol = i + 1 then 1. else 0.))
  in
  Alcotest.(check bool) "jordan block" true
    (Array.for_all (fun v -> v = cx 2. 0.) jordan);
  (* companion of (x - 1)(x + 2)(x - 0.5)(x^2 - 2x + 5) *)
  let poly =
    List.fold_left
      (fun p f ->
        (* multiply coefficient lists, highest power first *)
        let n = List.length p + List.length f - 1 in
        let a = Array.of_list p and b = Array.of_list f in
        List.init n (fun k ->
            let acc = ref 0. in
            Array.iteri
              (fun i x ->
                let jcol = k - i in
                if jcol >= 0 && jcol < Array.length b then
                  acc := !acc +. (x *. b.(jcol)))
              a;
            !acc))
      [ 1. ]
      [ [ 1.; -1. ]; [ 1.; 2. ]; [ 1.; -0.5 ]; [ 1.; -2.; 5. ] ]
  in
  let coeffs = Array.of_list (List.tl poly) in
  let deg = Array.length coeffs in
  let comp =
    check_kernels_agree "companion"
      (Rmat.init deg deg (fun i jcol ->
           if i = 0 then -.coeffs.(jcol)
           else if jcol = i - 1 then 1.
           else 0.))
  in
  List.iter
    (fun root ->
      Alcotest.(check bool) "companion root" true (contains_eig comp root 1e-9))
    [ cx 1. 0.; cx (-2.) 0.; cx 0.5 0.; cx 1. 2.; cx 1. (-2.) ];
  (* exact real +- pairs: Q diag(3, -3, 1, -1) Q^T *)
  let q = Qr.orthonormalize (Cmat.random_real (Rng.create 223) 4 4) in
  let q = Cmat.real_part q in
  let diag = [| 3.; -3.; 1.; -1. |] in
  let sym =
    Rmat.init 4 4 (fun i jcol ->
        let acc = ref 0. in
        for k = 0 to 3 do
          acc := !acc +. (Rmat.get q i k *. diag.(k) *. Rmat.get q jcol k)
        done;
        !acc)
  in
  (* non-finite input is a typed failure for both kernels, not a hang *)
  List.iter
    (fun bad ->
      let r =
        Rmat.init 5 5 (fun i jcol ->
            if i = 2 && jcol = 3 then bad else float_of_int (i + jcol))
      in
      (match Eig.eigenvalues_real r with
       | exception Eig.No_convergence -> ()
       | _ -> Alcotest.failf "real kernel accepted %g" bad);
      match Eig.eigenvalues (Cmat.of_real r) with
      | exception Eig.No_convergence -> ()
      | _ -> Alcotest.failf "complex kernel accepted %g" bad)
    [ nan; infinity ];
  let pm = check_kernels_agree "real +- pairs" sym in
  Alcotest.(check bool) "real values have Im exactly 0" true
    (Array.for_all (fun v -> v.Cx.im = 0.) pm);
  Array.iter
    (fun d ->
      Alcotest.(check bool) "+- pair value" true (contains_eig pm (cx d 0.) 1e-12))
    diag

let test_eig_hamiltonian_symmetry () =
  (* M = [[F, G], [K, -F^T]] with G, K symmetric: lambda and -conj lambda
     are both eigenvalues *)
  let rng = Rng.create 227 in
  let n = 12 in
  let f = Rmat.random rng n n in
  let x = Rmat.random rng n n and y = Rmat.random rng n n in
  let gram a sign =
    Rmat.init n n (fun i jcol ->
        let acc = ref 0. in
        for k = 0 to n - 1 do
          acc := !acc +. (Rmat.get a i k *. Rmat.get a jcol k)
        done;
        sign *. !acc)
  in
  let g = gram x 1. and k = gram y (-1.) in
  let m =
    Rmat.init (2 * n) (2 * n) (fun i jcol ->
        match (i < n, jcol < n) with
        | true, true -> Rmat.get f i jcol
        | true, false -> Rmat.get g i (jcol - n)
        | false, true -> Rmat.get k (i - n) jcol
        | false, false -> -.Rmat.get f (jcol - n) (i - n))
  in
  let vs = check_kernels_agree "hamiltonian" m in
  let mirrored = Array.map (fun v -> Cx.neg (Cx.conj v)) vs in
  let d = spectrum_mismatch mirrored vs in
  if not (d <= 1e-10) then
    Alcotest.failf "spectrum not +-conj symmetric: %.3g x radius" d

let test_eig_diag_large () =
  (* large diagonal + small perturbation: eigenvalues near diagonal *)
  let n = 30 in
  let rng = Rng.create 103 in
  let a = Cmat.init n n (fun i jcol ->
      if i = jcol then cx (float_of_int (i + 1)) 0.
      else Cx.scale 1e-8 (Rng.complex_gaussian rng))
  in
  let vs = Eig.eigenvalues a in
  for i = 1 to n do
    Alcotest.(check bool)
      (Printf.sprintf "eig near %d" i)
      true
      (contains_eig vs (cx (float_of_int i) 0.) 1e-5)
  done

(* ------------------------------------------------------------------ *)
(* Lyapunov *)

let stable_random rng n =
  let g = Cmat.random rng n n in
  Cmat.sub g (Cmat.scale_float (Svd.norm2 g +. 0.5) (Cmat.identity n))

let test_lyapunov_solve () =
  let rng = Rng.create 117 in
  let a = stable_random rng 12 in
  let b = Cmat.random rng 12 3 in
  let q = Cmat.mul b (Cmat.ctranspose b) in
  let x = Lyapunov.solve ~a ~q in
  check_small ~tol:1e-8 "residual"
    (Lyapunov.residual ~a ~q x /. (1. +. Cmat.norm_fro q))

let test_lyapunov_hermitian_psd () =
  (* the Gramian of a stable system is Hermitian positive semidefinite *)
  let rng = Rng.create 119 in
  let a = stable_random rng 9 in
  let b = Cmat.random rng 9 2 in
  let x = Lyapunov.solve ~a ~q:(Cmat.mul b (Cmat.ctranspose b)) in
  check_small ~tol:1e-9 "hermitian"
    (Cmat.norm_fro (Cmat.sub x (Cmat.ctranspose x)));
  let d = Svd.decompose x in
  (* eigenvalues = singular values for Hermitian PSD; all real >= 0 means
     x v = sigma v with positive inner product; verify via quadratic form *)
  let v = Cmat.random rng 9 1 in
  let quad = Cmat.vec_dot v (Cmat.mul x v) in
  Alcotest.(check bool) "psd quadratic form" true (Cx.re quad >= -1e-9);
  Alcotest.(check bool) "nonzero" true (d.Svd.sigma.(0) > 0.)

let test_lyapunov_known_scalar () =
  (* a x + x a + q = 0 with a = -2, q = 8 -> x = 2 *)
  let x =
    Lyapunov.solve ~a:(Cmat.scalar (cx (-2.) 0.)) ~q:(Cmat.scalar (cx 8. 0.))
  in
  check_close ~tol:1e-12 "scalar solution" 2. (Cmat.get x 0 0).Cx.re

let test_lyapunov_unstable_rejected () =
  let a = Cmat.identity 3 in
  match Lyapunov.solve ~a ~q:(Cmat.identity 3) with
  | exception Lyapunov.Not_stable -> ()
  | _ -> Alcotest.fail "unstable A accepted"

(* ------------------------------------------------------------------ *)
(* Chol *)

let spd_random rng n =
  let g = Cmat.random rng n n in
  Cmat.add (Cmat.mul g (Cmat.ctranspose g)) (Cmat.identity n)

let test_chol_factorize () =
  let rng = Rng.create 121 in
  let a = spd_random rng 10 in
  let l = Chol.factorize a in
  check_small ~tol:1e-9 "L L* = A"
    (Cmat.norm_fro (Cmat.sub (Cmat.mul l (Cmat.ctranspose l)) a)
     /. Cmat.norm_fro a);
  (* strictly upper part of L is zero *)
  for i = 0 to 9 do
    for jcol = i + 1 to 9 do
      check_small "upper zero" (Cx.abs (Cmat.get l i jcol))
    done
  done

let test_chol_solve () =
  let rng = Rng.create 123 in
  let a = spd_random rng 8 in
  let x_true = Cmat.random rng 8 2 in
  let b = Cmat.mul a x_true in
  let x = Chol.solve (Chol.factorize a) b in
  check_small ~tol:1e-9 "solve"
    (Cmat.norm_fro (Cmat.sub x x_true) /. Cmat.norm_fro x_true)

let test_chol_indefinite () =
  let a = Cmat.of_rows [ [ cx 1. 0.; cx 2. 0. ]; [ cx 2. 0.; cx 1. 0. ] ] in
  Alcotest.(check bool) "indefinite rejected" false (Chol.is_positive_definite a);
  let rng = Rng.create 127 in
  Alcotest.(check bool) "spd accepted" true
    (Chol.is_positive_definite (spd_random rng 5))

(* ------------------------------------------------------------------ *)
(* Sylvester *)

let test_sylvester_solve () =
  let rng = Rng.create 107 in
  let mu = Array.init 4 (fun i -> cx (float_of_int i) 1.) in
  let lambda = Array.init 5 (fun i -> cx (float_of_int i) (-1.)) in
  let f = Cmat.random rng 4 5 in
  let x = Sylvester.solve_diag ~mu ~lambda f in
  check_small ~tol:1e-12 "residual" (Sylvester.residual ~mu ~lambda x f)

let test_sylvester_singular () =
  let mu = [| cx 1. 0. |] and lambda = [| cx 1. 0. |] in
  let f = Cmat.identity 1 in
  Alcotest.check_raises "singular rejected"
    (Invalid_argument "Sylvester.solve_diag: lambda_j = mu_i makes the equation singular")
    (fun () -> ignore (Sylvester.solve_diag ~mu ~lambda f))

(* ------------------------------------------------------------------ *)
(* Rank rules over bare spectra (truncated-spectrum safe variants) *)

let test_rank_of_values () =
  Alcotest.(check int) "empty" 0 (Svd.rank_of_values ~rtol:1e-10 [||]);
  Alcotest.(check int) "zero spectrum" 0 (Svd.rank_of_values ~rtol:1e-10 [| 0. |]);
  Alcotest.(check int) "counts above rtol * sigma0" 2
    (Svd.rank_of_values ~rtol:1e-6 [| 1.0; 1e-3; 1e-9 |])

let test_rank_gap_boundary () =
  (* Spectrum truncated exactly at its cliff: no internal drop clears
     the 10x threshold, so without a tail bound the rule falls back to
     the floor count; with the certified bound the drop from the last
     retained value into the tail is itself a candidate gap and the
     full retained count is reported. *)
  let sigma = [| 100.; 50.; 49.5 |] in
  Alcotest.(check int) "no bound: floor count" 3
    (Svd.rank_gap_of_values sigma);
  Alcotest.(check int) "bound below cliff: boundary gap wins" 3
    (Svd.rank_gap_of_values ~tail_bound:1e-8 sigma)

let test_rank_gap_internal_wins () =
  (* A genuine interior cliff must still beat a shallow boundary drop. *)
  let sigma = [| 100.; 1e-6; 5e-7 |] in
  Alcotest.(check int) "no bound" 1 (Svd.rank_gap_of_values sigma);
  Alcotest.(check int) "shallow boundary loses" 1
    (Svd.rank_gap_of_values ~tail_bound:1e-7 sigma)

let test_rank_gap_boundary_below_floor () =
  (* A last retained value already under the noise floor is not a
     boundary candidate; the floor count decides. *)
  Alcotest.(check int) "tail candidate below floor ignored" 1
    (Svd.rank_gap_of_values ~floor:0.5 ~tail_bound:1e-30 [| 1.0; 0.2 |])

let test_rank_gap_matches_untruncated () =
  (* Truncating a spectrum at a genuine cliff and supplying the first
     cut value as the tail bound must reproduce the full-spectrum
     decision. *)
  let full = [| 10.; 9.; 8.5; 1e-9; 1e-10 |] in
  let trunc = Array.sub full 0 3 in
  Alcotest.(check int) "full" 3 (Svd.rank_gap_of_values full);
  Alcotest.(check int) "truncated + bound" 3
    (Svd.rank_gap_of_values ~tail_bound:full.(3) trunc)

(* ------------------------------------------------------------------ *)
(* One-sided SVD: [Svd.right] skips U but must not move a bit of sigma
   or V, on every path [decompose] can take. *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* (label, algorithm, shape): GK above 32 columns, the Jacobi path at
   or below it, tall and wide *)
let right_cases =
  [ ("tall auto (gk)", Svd.Auto, (72, 48));
    ("wide auto (gk)", Svd.Auto, (40, 66));
    ("tall auto (<= 32 cols, jacobi)", Svd.Auto, (45, 20));
    ("wide auto (<= 32 rows, jacobi)", Svd.Auto, (12, 30));
    ("square golub_kahan", Svd.Golub_kahan, (40, 40));
    ("tall jacobi", Svd.Jacobi, (50, 36)) ]

let check_right_matches ~what algorithm a =
  let d = Svd.decompose ~algorithm a in
  let sigma, v = Svd.right ~algorithm a in
  Alcotest.(check bool) (what ^ ": sigma bit-identical") true (same_bits sigma d.Svd.sigma);
  Alcotest.(check bool) (what ^ ": v bit-identical") true (Cmat.equal ~tol:0. v d.Svd.v)

let test_svd_right_matches_decompose () =
  let rng = Rng.create 61 in
  List.iter
    (fun (what, algorithm, (m, n)) ->
      check_right_matches ~what algorithm (Cmat.random rng m n))
    right_cases

let test_svd_right_no_converge_fault () =
  (* the fault collapses the GK budget, so [Auto] and [Golub_kahan]
     take the Jacobi fallback; the Jacobi cascade itself runs on
     one-sweep budgets *)
  let rng = Rng.create 62 in
  let a = Cmat.random rng 64 40 in
  Fault.with_spec "svd.no_converge" (fun () ->
      let (), diag =
        Diag.with_collector (fun () ->
            check_right_matches ~what:"auto under fault" Svd.Auto a)
      in
      Alcotest.(check bool) "gk fell back to jacobi" true
        (Diag.recorded diag "svd.gk.jacobi_fallback");
      check_right_matches ~what:"golub_kahan under fault" Svd.Golub_kahan a)

let test_svd_right_domain_invariant () =
  (* sequential and pooled runs of [right] both equal the pooled
     [decompose] *)
  let rng = Rng.create 63 in
  List.iter
    (fun (what, algorithm, (m, n)) ->
      let a = Cmat.random rng m n in
      let d = Svd.decompose ~algorithm a in
      List.iter
        (fun (how, run) ->
          let sigma, v = run (fun () -> Svd.right ~algorithm a) in
          Alcotest.(check bool) (what ^ " " ^ how ^ ": sigma") true
            (same_bits sigma d.Svd.sigma);
          Alcotest.(check bool) (what ^ " " ^ how ^ ": v") true
            (Cmat.equal ~tol:0. v d.Svd.v))
        [ ("sequential", Parallel.with_sequential); ("pool", fun f -> f ()) ])
    right_cases

let test_svd_right_real () =
  (* the real Golub-Kahan (tall, > 32 columns) matches the complex
     factorization of the same matrix: equal spectra, and each right
     vector equal up to sign; other shapes and the no_converge fault
     take the complex path itself *)
  let rng = Rng.create 65 in
  let graded n =
    (* an upper-triangular R with a graded spectrum, the sketch's case *)
    Rmat.init n n (fun i j ->
        if i > j then 0. else (0.7 ** float_of_int j) *. Rng.gaussian rng)
  in
  List.iter
    (fun (what, a) ->
      let sigma, v = Svd.right_real a in
      let csigma, cv = Svd.right (Cmat.of_real a) in
      let _, n = Rmat.dims a in
      Alcotest.(check (pair int int)) (what ^ ": v dims")
        (n, Array.length csigma) (Rmat.dims v);
      Array.iteri
        (fun i s ->
          if not (abs_float (s -. csigma.(i)) <= 1e-13 *. csigma.(0)) then
            Alcotest.failf "%s: sigma_%d %.17g vs %.17g" what i s csigma.(i))
        sigma;
      let cv = Cmat.real_part cv in
      for j = 0 to Array.length sigma - 1 do
        let dot = ref 0. in
        for i = 0 to n - 1 do
          dot := !dot +. (Rmat.get v i j *. Rmat.get cv i j)
        done;
        if not (abs_float (abs_float !dot -. 1.) <= 1e-8) then
          Alcotest.failf "%s: v_%d differs (|dot| = %.17g)" what j !dot
      done)
    [ ("tall", Rmat.random rng 72 48); ("square", Rmat.random rng 40 40);
      ("graded triangular", graded 80); ("small", Rmat.random rng 45 20);
      ("wide", Rmat.random rng 40 66) ];
  let a = Rmat.random rng 60 40 in
  let sigma, v =
    Fault.with_spec "svd.no_converge" (fun () -> Svd.right_real a)
  in
  let csigma, cv =
    Fault.with_spec "svd.no_converge" (fun () -> Svd.right (Cmat.of_real a))
  in
  Alcotest.(check bool) "no_converge: complex path (bit)" true
    (same_bits sigma csigma && Rmat.equal ~tol:0. v (Cmat.real_part cv))

let test_svd_values_match_decompose () =
  let rng = Rng.create 64 in
  List.iter
    (fun (m, n) ->
      let a = Cmat.random rng m n in
      let d = Svd.decompose a in
      Alcotest.(check bool) (Printf.sprintf "%dx%d values" m n) true
        (same_bits (Svd.values a) d.Svd.sigma);
      Alcotest.(check bool) (Printf.sprintf "%dx%d norm2" m n) true
        (same_bits [| Svd.norm2 a |] [| d.Svd.sigma.(0) |]))
    [ (1, 1); (6, 4); (4, 6); (30, 30); (70, 40); (40, 70) ]

(* ------------------------------------------------------------------ *)
(* Randomized range-finder SVD *)

(* Exactly low-rank real test matrix: the sketch captures the whole
   range, so the certificate must reach machine precision with a
   sketch far narrower than the spectrum. *)
let low_rank_matrix seed m n r =
  let rng = Rng.create seed in
  Rmat.mul (Rmat.random rng m r) (Rmat.random rng r n)

(* |A - A V V^T|_F: what the returned right vectors miss of A *)
let projection_error a (r : Rsvd.t) =
  let v = r.Rsvd.v in
  Rmat.norm_fro (Rmat.sub a (Rmat.mul (Rmat.mul a v) (Rmat.transpose v)))

let test_rsvd_certified_bound () =
  let a = low_rank_matrix 31 80 48 8 in
  let r = Rsvd.decompose_adaptive a in
  Alcotest.(check bool) "certified" true r.Rsvd.certified;
  Alcotest.(check bool) "sketch narrower than spectrum" true
    (r.Rsvd.sketch < 48);
  Alcotest.(check bool) "projection within certificate" true
    (projection_error a r <= r.Rsvd.residual +. (1e-9 *. Rmat.norm_fro a))

let test_rsvd_adaptive () =
  let a = low_rank_matrix 32 90 60 12 in
  let r = Rsvd.decompose_adaptive a in
  Alcotest.(check bool) "certified" true r.Rsvd.certified;
  Alcotest.(check bool) "sketch narrower than spectrum" true
    (r.Rsvd.sketch < 60);
  Alcotest.(check bool) "projection within certificate" true
    (projection_error a r <= r.Rsvd.residual +. (1e-9 *. Rmat.norm_fro a));
  (* The certified tail bound plugged into the gap rule recovers the
     true numerical rank. *)
  Alcotest.(check int) "rank via tail bound" 12
    (Svd.rank_gap_of_values ~tail_bound:r.Rsvd.residual r.Rsvd.sigma)

let same_rsvd what (r1 : Rsvd.t) (r2 : Rsvd.t) =
  Alcotest.(check bool) (what ^ ": sigma bit-identical") true
    (r1.Rsvd.sigma = r2.Rsvd.sigma);
  Alcotest.(check bool) (what ^ ": v bit-identical") true
    (Rmat.equal ~tol:0. r1.Rsvd.v r2.Rsvd.v);
  Alcotest.(check (float 0.)) (what ^ ": residual bit-identical")
    r1.Rsvd.residual r2.Rsvd.residual

let test_rsvd_deterministic () =
  let a = low_rank_matrix 5 64 40 6 in
  same_rsvd "rerun" (Rsvd.decompose_adaptive a) (Rsvd.decompose_adaptive a)

let test_rsvd_domain_invariant () =
  (* Sketch, power iteration and CholeskyQR2 are all GEMM-shaped, and
     GEMM output is chunking-invariant, so the factorization is
     bit-identical under any pool size. *)
  let a = low_rank_matrix 9 72 44 7 in
  let before = Parallel.domain_count () in
  let at domains =
    Parallel.set_domain_count domains;
    Fun.protect
      ~finally:(fun () -> Parallel.set_domain_count before)
      (fun () -> Rsvd.decompose_adaptive a)
  in
  same_rsvd "1 vs 4 domains" (at 1) (at 4)

let test_rsvd_wide () =
  let a = low_rank_matrix 13 40 90 5 in
  let r = Rsvd.decompose_adaptive a in
  Alcotest.(check bool) "certified" true r.Rsvd.certified;
  Alcotest.(check (pair int int)) "v dims" (90, r.Rsvd.sketch) (Rmat.dims r.Rsvd.v);
  check_small ~tol:1e-9 "wide projection"
    (projection_error a r /. (1. +. Rmat.norm_fro a))

let test_rsvd_small_exact () =
  (* Below the sketch cutoff the exact path answers directly with a
     zero-residual certificate. *)
  let rng = Rng.create 17 in
  let a = Rmat.random rng 20 10 in
  let r = Rsvd.decompose_adaptive a in
  Alcotest.(check bool) "certified" true r.Rsvd.certified;
  Alcotest.(check (float 0.)) "residual" 0. r.Rsvd.residual;
  let d = Svd.decompose (Cmat.of_real a) in
  Array.iteri
    (fun i s -> check_float (Printf.sprintf "sigma %d" i) s r.Rsvd.sigma.(i))
    d.Svd.sigma;
  (* a zero matrix past the cutoff takes the exact path too *)
  let z = Rsvd.decompose_adaptive (Rmat.zeros 64 40) in
  Alcotest.(check bool) "zero: certified" true z.Rsvd.certified;
  Alcotest.(check (float 0.)) "zero: sigma_1" 0. z.Rsvd.sigma.(0);
  Alcotest.(check (pair int int)) "zero: v dims" (40, 40) (Rmat.dims z.Rsvd.v)

let test_rsvd_degrade_fault () =
  (* The degrade fault poisons the certificate only: the factorization
     itself stays intact but can never certify. *)
  let a = low_rank_matrix 31 80 48 8 in
  Fault.with_spec "svd.rsvd.degrade" (fun () ->
      let r = Rsvd.decompose_adaptive a in
      Alcotest.(check bool) "uncertified" false r.Rsvd.certified;
      Alcotest.(check bool) "residual poisoned" true
        (r.Rsvd.residual = Float.infinity);
      check_small ~tol:1e-9 "factorization intact"
        (projection_error a r /. (1. +. Rmat.norm_fro a)))

let test_rsvd_cholqr_fallback () =
  (* A rank-1 matrix makes the 16-column sketch rank 1, so its Gram
     matrix is singular: CholeskyQR stops at a non-positive pivot and
     Householder orthonormalizes instead. *)
  let a = low_rank_matrix 41 64 40 1 in
  let r, diag = Diag.with_collector (fun () -> Rsvd.decompose_adaptive a) in
  Alcotest.(check bool) "fallback recorded" true
    (Diag.recorded diag "svd.rsvd.cholqr_fallback");
  Alcotest.(check bool) "certified" true r.Rsvd.certified;
  Alcotest.(check bool) "projection within certificate" true
    (projection_error a r <= r.Rsvd.residual +. (1e-9 *. Rmat.norm_fro a))

let test_rsvd_weyl () =
  (* A graded spectrum the sketch cannot capture at half width: B = Q^T A
     interlaces A, and A^T A = B^T B + E^T E with |E|_2 <= residual, so
     every sketched sigma_i lies in [sigma_i - residual, sigma_i]. *)
  let m = 120 and n = 100 in
  let rng = Rng.create 43 in
  let u = Qr.orthonormalize (Cmat.random_real rng m n) in
  let v = Qr.orthonormalize (Cmat.random_real rng n n) in
  let sigma = Array.init n (fun i -> 0.8 ** float_of_int i) in
  let us = Cmat.init m n (fun i j -> Cx.scale sigma.(j) (Cmat.get u i j)) in
  let a = Cmat.real_part (Cmat.mul us (Cmat.ctranspose v)) in
  let exact = Svd.values (Cmat.of_real a) in
  let r = Rsvd.decompose_adaptive a in
  Alcotest.(check bool) "not certified" false r.Rsvd.certified;
  let slack = 1e-12 *. exact.(0) in
  Array.iteri
    (fun i s ->
      if not (s <= exact.(i) +. slack && s >= exact.(i) -. r.Rsvd.residual -. slack)
      then
        Alcotest.failf "sigma_%d = %.17g outside [%.17g, %.17g]" (i + 1) s
          (exact.(i) -. r.Rsvd.residual) exact.(i))
    r.Rsvd.sigma

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let small_dim = QCheck.Gen.int_range 1 8

let gen_cmat =
  QCheck.Gen.(
    small_dim >>= fun m ->
    small_dim >>= fun n ->
    int_bound 1_000_000 >|= fun seed ->
    let rng = Rng.create seed in
    Cmat.random rng m n)

let arb_cmat =
  QCheck.make gen_cmat
    ~print:(fun m -> Format.asprintf "%dx%d matrix@.%a" (Cmat.rows m) (Cmat.cols m) Cmat.pp m)

let gen_square =
  QCheck.Gen.(
    int_range 1 10 >>= fun n ->
    int_bound 1_000_000 >|= fun seed ->
    let rng = Rng.create seed in
    Cmat.random rng n n)

let arb_square =
  QCheck.make gen_square
    ~print:(fun m -> Format.asprintf "%dx%d matrix@.%a" (Cmat.rows m) (Cmat.cols m) Cmat.pp m)

let prop_ctranspose_involution =
  QCheck.Test.make ~name:"ctranspose involution" ~count:50 arb_cmat (fun a ->
      Cmat.equal ~tol:0. (Cmat.ctranspose (Cmat.ctranspose a)) a)

let prop_mul_ctranspose =
  QCheck.Test.make ~name:"(AB)* = B* A*" ~count:50
    QCheck.(pair arb_square arb_square)
    (fun (a, b) ->
      QCheck.assume (Cmat.cols a = Cmat.rows b);
      let lhs = Cmat.ctranspose (Cmat.mul a b) in
      let rhs = Cmat.mul (Cmat.ctranspose b) (Cmat.ctranspose a) in
      Cmat.equal ~tol:1e-10 lhs rhs)

let prop_fro_triangle =
  QCheck.Test.make ~name:"Frobenius triangle inequality" ~count:50
    QCheck.(pair arb_square arb_square)
    (fun (a, b) ->
      QCheck.assume (Cmat.dims a = Cmat.dims b);
      Cmat.norm_fro (Cmat.add a b) <= Cmat.norm_fro a +. Cmat.norm_fro b +. 1e-12)

let prop_lu_solve =
  QCheck.Test.make ~name:"LU solve residual" ~count:40 arb_square (fun a ->
      match Lu.factorize a with
      | exception Lu.Singular _ -> true
      | f ->
        if Lu.rcond_est a < 1e-8 then true
        else begin
          let n = Cmat.rows a in
          let rng = Rng.create 1 in
          let b = Cmat.random rng n 1 in
          let x = Lu.solve f b in
          let resid = Cmat.norm_fro (Cmat.sub (Cmat.mul a x) b) in
          resid <= 1e-7 *. (Cmat.norm_fro a *. Cmat.norm_fro x +. Cmat.norm_fro b)
        end)

let prop_svd_reconstruct =
  QCheck.Test.make ~name:"SVD reconstruction" ~count:40 arb_cmat (fun a ->
      let d = Svd.decompose a in
      Cmat.norm_fro (Cmat.sub (Svd.reconstruct d) a) <= 1e-9 *. (1. +. Cmat.norm_fro a))

let prop_svd_norm_bound =
  QCheck.Test.make ~name:"sigma_max bounds Frobenius" ~count:40 arb_cmat (fun a ->
      let d = Svd.decompose a in
      let k = Array.length d.Svd.sigma in
      if k = 0 then true
      else
        d.Svd.sigma.(0) <= Cmat.norm_fro a +. 1e-12
        && Cmat.norm_fro a <= (sqrt (float_of_int k) *. d.Svd.sigma.(0)) +. 1e-12)

let prop_eig_det =
  QCheck.Test.make ~name:"product of eigenvalues = det" ~count:30 arb_square (fun a ->
      match Lu.factorize a with
      | exception Lu.Singular _ -> true
      | f ->
        let det = Lu.det f in
        let vs = Eig.eigenvalues a in
        let prod = Array.fold_left Cx.mul Cx.one vs in
        Cx.abs (Cx.sub det prod) <= 1e-6 *. (1. +. Cx.abs det))

let prop_qr_preserves_norm =
  QCheck.Test.make ~name:"Q preserves norms" ~count:40 arb_square (fun a ->
      let f = Qr.factorize a in
      let rng = Rng.create 2 in
      let b = Cmat.random rng (Cmat.rows a) 1 in
      let qb = Qr.apply_q f b in
      abs_float (Cmat.norm_fro qb -. Cmat.norm_fro b) <= 1e-9 *. (1. +. Cmat.norm_fro b))

(* Larger low-rank matrices so the sketch path (spectrum > 32) actually
   engages, unlike [arb_cmat]'s tiny shapes. *)
let arb_low_rank =
  QCheck.make
    QCheck.Gen.(
      int_range 40 70 >>= fun m ->
      int_range 36 48 >>= fun n ->
      int_range 1 10 >>= fun r ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Rng.create seed in
      Rmat.mul (Rmat.random rng m r) (Rmat.random rng r n))
    ~print:(fun m ->
      let rows, cols = Rmat.dims m in
      Format.asprintf "%dx%d matrix@.%a" rows cols Rmat.pp m)

let prop_rsvd_certificate =
  QCheck.Test.make ~name:"rsvd certificate bounds reconstruction" ~count:15
    arb_low_rank (fun a ->
      let r = Rsvd.decompose_adaptive a in
      r.Rsvd.certified
      && projection_error a r <= r.Rsvd.residual +. (1e-8 *. (1. +. Rmat.norm_fro a)))

(* Low-rank-plus-noise matrices, tall: rank 1-10 with a Gaussian noise
   floor 1e-4..1e-2 of the signal, and a sketch that either stops on
   its first round or grows to its cap. *)
let arb_noisy_low_rank =
  QCheck.make
    QCheck.Gen.(
      int_range 60 110 >>= fun m ->
      int_range 36 (m - 10) >>= fun n ->
      int_range 1 10 >>= fun r ->
      oneofl [ 1e-4; 1e-3; 1e-2 ] >>= fun level ->
      bool >>= fun first ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Rng.create seed in
      let signal = Rmat.mul (Rmat.random rng m r) (Rmat.random rng r n) in
      let noise = Rmat.random rng m n in
      let scale =
        level *. Rmat.norm_fro signal /. Stdlib.max (Rmat.norm_fro noise) 1e-300
      in
      (Rmat.add signal (Rmat.scale scale noise), first))
    ~print:(fun (a, first) ->
      let rows, cols = Rmat.dims a in
      Format.asprintf "%dx%d matrix (stop on first round: %b)@.%a" rows cols
        first Rmat.pp a)

(* |E|_2 <= spectral <= residual for E = A - Q Q^T A.  A wide input is
   sketched through its transpose, and its returned vectors Q U_b span
   Q, so E = A^T - V V^T A^T is formed from them exactly; the tall
   input runs the same sketch of the same matrix and must report the
   same bounds.  The slack covers the test's own forming of E. *)
let prop_rsvd_spectral_bound =
  QCheck.Test.make ~name:"rsvd spectral bound brackets |E|_2" ~count:20
    arb_noisy_low_rank (fun (a, first) ->
      let accept _ = first in
      let tall = Rsvd.decompose_adaptive ~accept a in
      let wide = Rsvd.decompose_adaptive ~accept (Rmat.transpose a) in
      let v = wide.Rsvd.v in
      let e = Rmat.sub a (Rmat.mul v (Rmat.mul_tn v a)) in
      let norm_e = (fst (Svd.right_real e)).(0) in
      let slack = 1e-12 *. Rmat.norm_fro a in
      tall.Rsvd.spectral = wide.Rsvd.spectral
      && tall.Rsvd.residual = wide.Rsvd.residual
      && norm_e <= wide.Rsvd.spectral +. slack
      && wide.Rsvd.spectral <= wide.Rsvd.residual)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ctranspose_involution; prop_mul_ctranspose; prop_fro_triangle;
      prop_lu_solve; prop_svd_reconstruct; prop_svd_norm_bound; prop_eig_det;
      prop_qr_preserves_norm; prop_rsvd_certificate;
      prop_rsvd_spectral_bound ]

let () =
  Alcotest.run "linalg"
    [ ("cx",
       [ Alcotest.test_case "arithmetic" `Quick test_cx_arith;
         Alcotest.test_case "abs and conj" `Quick test_cx_abs_conj;
         Alcotest.test_case "polar" `Quick test_cx_polar;
         Alcotest.test_case "add_mul" `Quick test_cx_add_mul ]);
      ("rng",
       [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
         Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
         Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
         Alcotest.test_case "int bounds" `Quick test_rng_int_bounds ]);
      ("rmat",
       [ Alcotest.test_case "transpose" `Quick test_rmat_transpose;
         Alcotest.test_case "blocks" `Quick test_rmat_blocks;
         Alcotest.test_case "norms" `Quick test_rmat_norms ]);
      ("cmat",
       [ Alcotest.test_case "mul" `Quick test_cmat_mul;
         Alcotest.test_case "mul_cn" `Quick test_cmat_mul_cn;
         Alcotest.test_case "ctranspose" `Quick test_cmat_ctranspose;
         Alcotest.test_case "blocks" `Quick test_cmat_blocks;
         Alcotest.test_case "select" `Quick test_cmat_select;
         Alcotest.test_case "real round trip" `Quick test_cmat_real_round_trip;
         Alcotest.test_case "norms" `Quick test_cmat_norms ]);
      ("lu",
       [ Alcotest.test_case "solve" `Quick test_lu_solve;
         Alcotest.test_case "det" `Quick test_lu_det;
         Alcotest.test_case "inverse" `Quick test_lu_inverse;
         Alcotest.test_case "singular" `Quick test_lu_singular;
         Alcotest.test_case "rcond" `Quick test_lu_rcond ]);
      ("qr",
       [ Alcotest.test_case "reconstruct" `Quick test_qr_reconstruct;
         Alcotest.test_case "apply" `Quick test_qr_apply;
         Alcotest.test_case "solve exact" `Quick test_qr_solve_ls_exact;
         Alcotest.test_case "solve overdetermined" `Quick test_qr_solve_ls_overdetermined;
         Alcotest.test_case "orthonormalize" `Quick test_qr_orthonormalize ]);
      ("svd",
       [ Alcotest.test_case "diagonal" `Quick test_svd_diag;
         Alcotest.test_case "reconstruct" `Quick test_svd_reconstruct;
         Alcotest.test_case "wide" `Quick test_svd_wide;
         Alcotest.test_case "rank" `Quick test_svd_rank;
         Alcotest.test_case "ordering" `Quick test_svd_ordering;
         Alcotest.test_case "pinv" `Quick test_svd_pinv;
         Alcotest.test_case "algorithms agree" `Quick test_svd_algorithms_agree;
         Alcotest.test_case "gk graded spectrum" `Quick test_svd_gk_graded_spectrum;
         Alcotest.test_case "norm2" `Quick test_svd_norm2 ]);
      ("svd right",
       [ Alcotest.test_case "matches decompose (bit)" `Quick
           test_svd_right_matches_decompose;
         Alcotest.test_case "no_converge fault (bit)" `Quick
           test_svd_right_no_converge_fault;
         Alcotest.test_case "sequential = pool (bit)" `Quick
           test_svd_right_domain_invariant;
         Alcotest.test_case "values and norm2 (bit)" `Quick
           test_svd_values_match_decompose;
         Alcotest.test_case "real Golub-Kahan = complex" `Quick
           test_svd_right_real ]);
      ("rank rules",
       [ Alcotest.test_case "rank_of_values" `Quick test_rank_of_values;
         Alcotest.test_case "gap at truncation boundary" `Quick
           test_rank_gap_boundary;
         Alcotest.test_case "interior gap beats boundary" `Quick
           test_rank_gap_internal_wins;
         Alcotest.test_case "boundary below floor" `Quick
           test_rank_gap_boundary_below_floor;
         Alcotest.test_case "truncated matches full spectrum" `Quick
           test_rank_gap_matches_untruncated ]);
      ("rsvd",
       [ Alcotest.test_case "certified bound" `Quick test_rsvd_certified_bound;
         Alcotest.test_case "adaptive" `Quick test_rsvd_adaptive;
         Alcotest.test_case "deterministic under seed" `Quick
           test_rsvd_deterministic;
         Alcotest.test_case "domain-invariant (bit)" `Quick
           test_rsvd_domain_invariant;
         Alcotest.test_case "wide" `Quick test_rsvd_wide;
         Alcotest.test_case "small falls back to exact" `Quick
           test_rsvd_small_exact;
         Alcotest.test_case "degrade fault poisons certificate" `Quick
           test_rsvd_degrade_fault;
         Alcotest.test_case "Gram not PD: Householder fallback" `Quick
           test_rsvd_cholqr_fallback;
         Alcotest.test_case "sketched sigma within Weyl bounds" `Quick
           test_rsvd_weyl ]);
      ("eig",
       [ Alcotest.test_case "2x2 rotation" `Quick test_eig_2x2;
         Alcotest.test_case "triangular" `Quick test_eig_triangular;
         Alcotest.test_case "companion" `Quick test_eig_companion;
         Alcotest.test_case "trace = sum" `Quick test_eig_trace_sum;
         Alcotest.test_case "real conjugate pairs" `Quick test_eig_real_conjugate_pairs;
         Alcotest.test_case "similarity invariance" `Quick test_eig_similarity_invariance;
         Alcotest.test_case "right vectors" `Quick test_eig_right_vectors;
         Alcotest.test_case "diagonal dominant" `Quick test_eig_diag_large;
         Alcotest.test_case "real kernel: random" `Quick
           test_eig_real_kernel_random;
         Alcotest.test_case "real kernel: special cases" `Quick
           test_eig_real_kernel_special;
         Alcotest.test_case "real kernel: hamiltonian symmetry" `Quick
           test_eig_hamiltonian_symmetry ]);
      ("lyapunov",
       [ Alcotest.test_case "solve" `Quick test_lyapunov_solve;
         Alcotest.test_case "hermitian psd" `Quick test_lyapunov_hermitian_psd;
         Alcotest.test_case "known scalar" `Quick test_lyapunov_known_scalar;
         Alcotest.test_case "unstable rejected" `Quick test_lyapunov_unstable_rejected ]);
      ("chol",
       [ Alcotest.test_case "factorize" `Quick test_chol_factorize;
         Alcotest.test_case "solve" `Quick test_chol_solve;
         Alcotest.test_case "indefinite" `Quick test_chol_indefinite ]);
      ("sylvester",
       [ Alcotest.test_case "solve" `Quick test_sylvester_solve;
         Alcotest.test_case "singular" `Quick test_sylvester_singular ]);
      ("properties", props) ]
