(* Tests for the sparse subsystem: Scsr assembly/kernels, AMD/RCM
   orderings, Slu factorization, and their agreement with the dense
   reference path on random MNA matrices. *)

open Linalg
open Sparse
module Mna = Rf.Mna
module Pdn = Rf.Pdn
module Netlist = Rf.Netlist

let check_close ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %.1g)" msg expected
      actual tol

let check_small ?(tol = 1e-9) msg x =
  if abs_float x > tol then
    Alcotest.failf "%s: |%.3g| exceeds tol %.1g" msg x tol

let cx re im = Cx.make re im

let random_sparse rng n density =
  let b = Scsr.create ~rows:n ~cols:n () in
  for i = 0 to n - 1 do
    (* guaranteed nonzero diagonal keeps the matrix comfortably regular *)
    Scsr.add b i i (Cx.add (cx 3. 0.) (Rng.complex_gaussian rng));
    for _ = 1 to density do
      Scsr.add b i (Rng.int rng n) (Rng.complex_gaussian rng)
    done
  done;
  Scsr.compress b

(* ------------------------------------------------------------------ *)
(* Scsr *)

let test_round_trip () =
  let rng = Rng.create 211 in
  let d = Cmat.random rng 7 5 in
  let sp = Scsr.of_dense d in
  Alcotest.(check bool) "dense round trip" true
    (Cmat.equal ~tol:0. (Scsr.to_dense sp) d);
  Alcotest.(check int) "nnz" 35 (Scsr.nnz sp)

let test_duplicates_accumulate () =
  let b = Scsr.create ~rows:2 ~cols:2 () in
  Scsr.add b 0 0 (cx 1. 0.);
  Scsr.add b 0 0 (cx 2. 0.);
  Scsr.add b 1 0 (cx 5. 0.);
  Alcotest.(check int) "pending triplets" 3 (Scsr.pending b);
  let sp = Scsr.compress b in
  Alcotest.(check int) "merged nnz" 2 (Scsr.nnz sp);
  check_close "accumulated" 3. (Cmat.get (Scsr.to_dense sp) 0 0).Cx.re

let test_mul_vec () =
  let rng = Rng.create 213 in
  let d = Cmat.random rng 6 6 in
  let sp = Scsr.of_dense d in
  let x = Cmat.random rng 6 1 in
  let y1 = Scsr.mul_vec sp x and y2 = Cmat.mul d x in
  check_small ~tol:1e-12 "mul_vec" (Cmat.norm_fro (Cmat.sub y1 y2))

let test_mul_mat_wide () =
  (* k >= 4 takes the column-split path; check it against dense *)
  let rng = Rng.create 229 in
  let sp = random_sparse rng 40 3 in
  let d = Scsr.to_dense sp in
  let x = Cmat.random rng 40 7 in
  let y1 = Scsr.mul_mat sp x and y2 = Cmat.mul d x in
  check_small ~tol:1e-11 "mul_mat"
    (Cmat.norm_fro (Cmat.sub y1 y2) /. (1. +. Cmat.norm_fro y2))

let test_scale_add () =
  let rng = Rng.create 215 in
  let a = Cmat.random rng 5 5 and b = Cmat.random rng 5 5 in
  let alpha = cx 2. 1. and beta = cx 0. (-3.) in
  let s = Scsr.scale_add ~alpha (Scsr.of_dense a) ~beta (Scsr.of_dense b) in
  let expected = Cmat.add (Cmat.scale alpha a) (Cmat.scale beta b) in
  check_small ~tol:1e-12 "alpha A + beta B"
    (Cmat.norm_fro (Cmat.sub (Scsr.to_dense s) expected))

let test_scale_add_pattern_union () =
  (* cancellation must not change the pattern: the frequency sweep
     computes the ordering on one (alpha, beta) pair and reuses it *)
  let b1 = Scsr.create ~rows:2 ~cols:2 () in
  Scsr.add b1 0 0 Cx.one;
  Scsr.add b1 0 1 Cx.one;
  let a = Scsr.compress b1 in
  let b2 = Scsr.create ~rows:2 ~cols:2 () in
  Scsr.add b2 0 1 Cx.one;
  Scsr.add b2 1 1 Cx.one;
  let b = Scsr.compress b2 in
  let s = Scsr.scale_add ~alpha:Cx.one a ~beta:(cx (-1.) 0.) b in
  (* the (0,1) entries cancel exactly but the slot must survive *)
  Alcotest.(check int) "union pattern" 3 (Scsr.nnz s)

let test_scale_add_into () =
  (* the sweep rewrites one pencil's values in place: the same bits as
     a fresh scale_add, and a foreign pattern is refused *)
  let rng = Rng.create 233 in
  let a = random_sparse rng 15 2 and b = random_sparse rng 15 3 in
  let alpha = cx 0. 2.5e3 and beta = Cx.one in
  let dst = Scsr.scale_add ~alpha:(cx 0. 7.) a ~beta b in
  Scsr.scale_add_into dst ~alpha a ~beta b;
  let fresh = Scsr.scale_add ~alpha a ~beta b in
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check bool) "values bit-identical" true
    (bits dst.Scsr.re = bits fresh.Scsr.re
     && bits dst.Scsr.im = bits fresh.Scsr.im);
  Alcotest.(check bool) "pattern kept" true
    (dst.Scsr.rowptr = fresh.Scsr.rowptr
     && dst.Scsr.colind = fresh.Scsr.colind);
  Alcotest.check_raises "foreign pattern"
    (Invalid_argument
       "Scsr.scale_add_into: pattern is not the operands' union")
    (fun () ->
      Scsr.scale_add_into (Scsr.scale_add ~alpha a ~beta a) ~alpha a ~beta b)

let test_transpose () =
  let rng = Rng.create 231 in
  let sp = random_sparse rng 12 2 in
  let d = Scsr.to_dense sp in
  Alcotest.(check bool) "transpose" true
    (Cmat.equal ~tol:0. (Scsr.to_dense (Scsr.transpose sp)) (Cmat.transpose d))

let test_permute () =
  let rng = Rng.create 227 in
  let d = Cmat.random rng 6 6 in
  let sp = Scsr.of_dense d in
  let perm = [| 3; 1; 5; 0; 2; 4 |] in
  let pd = Scsr.to_dense (Scsr.permute sp ~perm) in
  for i = 0 to 5 do
    for jcol = 0 to 5 do
      check_small ~tol:0. "permuted entry"
        (Cx.abs (Cx.sub (Cmat.get pd i jcol) (Cmat.get d perm.(i) perm.(jcol))))
    done
  done;
  match Scsr.permute sp ~perm:[| 0; 0; 1; 2; 3; 4 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-permutation accepted"

(* ------------------------------------------------------------------ *)
(* Slu *)

let factorize_ok ?ordering ?perm ?diagonal sp =
  match Slu.factorize ?ordering ?perm ?diagonal sp with
  | Ok f -> f
  | Error e -> Alcotest.failf "factorize failed: %s" (Mfti_error.to_string e)

let test_lu_matches_dense () =
  let rng = Rng.create 217 in
  List.iter
    (fun (n, density) ->
      let sp = random_sparse rng n density in
      let d = Scsr.to_dense sp in
      let f = factorize_ok sp in
      let b = Cmat.random rng n 3 in
      let xs = Slu.solve f b in
      let xd = Lu.solve_mat d b in
      check_small ~tol:1e-7 "sparse = dense solve"
        (Cmat.norm_fro (Cmat.sub xs xd) /. (1. +. Cmat.norm_fro xd));
      let resid = Cmat.sub (Cmat.mul d xs) b in
      check_small ~tol:1e-8 "residual"
        (Cmat.norm_fro resid /. (1. +. Cmat.norm_fro b)))
    [ (5, 2); (20, 3); (60, 4); (120, 3) ]

let test_lu_permuted_identity () =
  (* a permutation matrix exercises the pivoting bookkeeping *)
  let n = 8 in
  let b = Scsr.create ~rows:n ~cols:n () in
  for i = 0 to n - 1 do
    Scsr.add b ((i + 3) mod n) i Cx.one
  done;
  let sp = Scsr.compress b in
  let f = factorize_ok sp in
  let rng = Rng.create 219 in
  let rhs = Cmat.random rng n 1 in
  let x = Slu.solve f rhs in
  let resid = Cmat.sub (Scsr.mul_vec sp x) rhs in
  check_small ~tol:1e-12 "permutation solve" (Cmat.norm_fro resid)

let test_lu_singular_typed () =
  let b = Scsr.create ~rows:3 ~cols:3 () in
  Scsr.add b 0 0 Cx.one;
  Scsr.add b 1 1 Cx.one;
  (* column 2 empty -> structurally singular *)
  let sp = Scsr.compress b in
  match Slu.factorize sp with
  | Error (Mfti_error.Numerical_breakdown { context; _ }) ->
    Alcotest.(check string) "context" "sparse.lu" context
  | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
  | Ok _ -> Alcotest.fail "singular accepted"

let test_lu_bad_perm_typed () =
  let rng = Rng.create 233 in
  let sp = random_sparse rng 6 2 in
  match Slu.factorize ~perm:[| 0; 0; 1; 2; 3; 4 |] sp with
  | Error (Mfti_error.Validation _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
  | Ok _ -> Alcotest.fail "bad permutation accepted"

let test_lu_fill_reported () =
  let rng = Rng.create 221 in
  let sp = random_sparse rng 30 2 in
  let f = factorize_ok sp in
  Alcotest.(check bool) "fill >= nnz" true (Slu.fill f >= Scsr.nnz sp)

(* ------------------------------------------------------------------ *)
(* Slu.refactor *)

let refactor_ok base sp =
  match Slu.refactor base sp with
  | Ok f -> f
  | Error e -> Alcotest.failf "refactor failed: %s" (Mfti_error.to_string e)

let rel_diff a b =
  Cmat.norm_fro (Cmat.sub a b) /. Float.max (Cmat.norm_fro b) 1e-300

let same_bits a b =
  let bits = Array.map Int64.bits_of_float in
  Cmat.dims a = Cmat.dims b
  && bits (Cmat.unsafe_re a) = bits (Cmat.unsafe_re b)
  && bits (Cmat.unsafe_im a) = bits (Cmat.unsafe_im b)

let test_refactor_sweep () =
  (* the Krylov use: one AMD order and one full LU at the first
     frequency, then numeric-only refactorizations down the sweep, each
     the base of the next *)
  let circuit =
    Pdn.build { Pdn.default_spec with nx = 8; ny = 8; ports = 3; decaps = 4 }
  in
  let g, c, b, _ = Mna.sparse_system circuit in
  let perm = Ordering.amd (Scsr.scale_add ~alpha:Cx.one c ~beta:Cx.one g) in
  let pencil f =
    Scsr.scale_add ~alpha:(Cx.jw (2. *. Float.pi *. f)) c ~beta:Cx.one g
  in
  let freqs = Statespace.Sampling.logspace 1e5 1e9 17 in
  let base0 = factorize_ok ~perm (pencil freqs.(0)) in
  Alcotest.(check bool) "refactoring the base matrix reproduces it" true
    (same_bits
       (Slu.solve (refactor_ok base0 (pencil freqs.(0))) b)
       (Slu.solve base0 b));
  let base = ref base0 in
  Array.iter
    (fun f ->
      let a = pencil f in
      let r = refactor_ok !base a in
      base := r;
      check_small ~tol:1e-12
        (Printf.sprintf "refactor = factorize at %.3g Hz" f)
        (rel_diff (Slu.solve r b) (Slu.solve (factorize_ok ~perm a) b)))
    freqs

let test_refactor_fallback () =
  (* alpha C + G with C = e0 e0^T: at alpha = 3 column 0 pivots on its
     entry 2 over 0.5; at alpha = 1 that entry cancels to an explicit
     zero, so the reused pivot vanishes *)
  let of_entries entries =
    let b = Scsr.create ~rows:2 ~cols:2 () in
    List.iter (fun (i, j, x) -> Scsr.add_real b i j x) entries;
    Scsr.compress b
  in
  let c = of_entries [ (0, 0, 1.) ] in
  let g = of_entries [ (0, 0, -1.); (0, 1, 1.); (1, 0, 0.5); (1, 1, 1.) ] in
  let pencil alpha =
    Scsr.scale_add ~alpha:(Cx.of_float alpha) c ~beta:Cx.one g
  in
  let base = factorize_ok ~ordering:`Natural (pencil 3.) in
  let a = pencil 1. in
  let r, d = Diag.with_collector (fun () -> refactor_ok base a) in
  Alcotest.(check bool) "fallback recorded" true
    (Diag.recorded d "sparse.refactor_fallback");
  let rhs = Cmat.of_rows [ [ cx 1. 0. ]; [ cx 2. (-1.) ] ] in
  Alcotest.(check bool) "fallback = factorize" true
    (same_bits (Slu.solve r rhs)
       (Slu.solve (factorize_ok ~ordering:`Natural a) rhs));
  check_small ~tol:1e-15 "residual"
    (Cmat.norm_fro (Cmat.sub (Scsr.mul_vec a (Slu.solve r rhs)) rhs));
  match Slu.refactor base (of_entries [ (0, 0, 1.); (1, 1, 1.) ]) with
  | Error (Mfti_error.Validation _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
  | Ok _ -> Alcotest.fail "foreign pattern accepted"

let test_refactor_fault () =
  let rng = Rng.create 257 in
  let sp = random_sparse rng 12 2 in
  let base = factorize_ok sp in
  Fault.with_spec "sparse.singular_pivot" (fun () ->
    match Slu.refactor base sp with
    | Error (Mfti_error.Numerical_breakdown { context = "sparse.lu"; _ }) -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
    | Ok _ -> Alcotest.fail "armed fault did not fire")

(* A 12x12 plane's shifted pencils on one AMD order, as the Krylov
   sweep builds them. *)
let plane_pencils ?(plane_rl = false) () =
  let circuit =
    Pdn.build
      { Pdn.default_spec with
        nx = 12; ny = 12; ports = 3; decaps = 4; plane_rl }
  in
  let g, c, b, _ = Mna.sparse_system circuit in
  let perm = Ordering.amd (Scsr.scale_add ~alpha:Cx.one c ~beta:Cx.one g) in
  let pencil f =
    Scsr.scale_add ~alpha:(Cx.jw (2. *. Float.pi *. f)) c ~beta:Cx.one g
  in
  (perm, pencil, b)

(* The allocating sweep: factorize at the first frequency, then
   refactor each next one on the previous factor; every solve. *)
let refactor_chain ~perm ~diagonal pencil b freqs =
  let base = ref None in
  List.map
    (fun f ->
      let a = pencil f in
      let fac =
        match !base with
        | None -> factorize_ok ~perm ~diagonal a
        | Some fac -> refactor_ok fac a
      in
      base := Some fac;
      Slu.solve fac b)
    freqs

let test_refactor_fallback_bits () =
  (* a fallback reuses its base's column view and pivot rule and sizes
     its buffers to the base's fill: the factor must still be a fresh
     factorize's, whether its own fill is smaller (the resistive plane
     stepping up the band: trimmed) or larger (the RL plane stepping
     down under threshold pivoting: grown) *)
  List.iter
    (fun (plane_rl, diagonal, f0, f1, grows) ->
      let perm, pencil, b = plane_pencils ~plane_rl () in
      let base = factorize_ok ~perm ~diagonal (pencil f0) in
      let a = pencil f1 in
      let r, d = Diag.with_collector (fun () -> refactor_ok base a) in
      let at what = Printf.sprintf "%s (%.0e -> %.0e Hz)" what f0 f1 in
      Alcotest.(check bool) (at "the step falls back") true
        (Diag.recorded d "sparse.refactor_fallback");
      let fresh = factorize_ok ~perm ~diagonal a in
      Alcotest.(check int) (at "same fill") (Slu.fill fresh) (Slu.fill r);
      Alcotest.(check bool) (at "fill moved as expected") grows
        (Slu.fill r > Slu.fill base);
      Alcotest.(check bool) (at "fallback = factorize (bits)") true
        (same_bits (Slu.solve r b) (Slu.solve fresh b));
      (* and it is the same base for the next step *)
      let a' = pencil (3. *. f1) in
      Alcotest.(check bool) (at "next refactor (bits)") true
        (same_bits
           (Slu.solve (refactor_ok r a') b)
           (Slu.solve (refactor_ok fresh a') b)))
    [ (false, 0., 1e5, 1e10, false); (true, 1e-2, 1e6, 1e4, true) ]

let test_sweep_matches_chain () =
  (* the sweep is factorize, then refactor on the previous factor, in
     reused buffers: every solve and every fallback event as the
     allocating chain's, up across the band and back down, under
     partial pivoting (the Krylov shift chain) and threshold pivoting
     (its probe lane) *)
  let perm, pencil, b = plane_pencils () in
  let freqs = [ 1e4; 1e6; 1e10; 5e9; 2e8; 1e5; 3e7 ] in
  let chain diagonal () = refactor_chain ~perm ~diagonal pencil b freqs in
  let swept diagonal () =
    let a = pencil (List.hd freqs) in
    let sw = Slu.sweep ~perm ~diagonal ~nrhs:(Cmat.cols b) a in
    List.map
      (fun f ->
        match Slu.sweep_solve sw (pencil f) b with
        | Ok x -> Cmat.copy x
        | Error e -> Alcotest.failf "sweep: %s" (Mfti_error.to_string e))
      freqs
  in
  List.iter
    (fun diagonal ->
      let xs, d1 = Diag.with_collector (chain diagonal) in
      let ys, d2 = Diag.with_collector (swept diagonal) in
      let at what = Printf.sprintf "%s (diagonal %g)" what diagonal in
      Alcotest.(check bool) (at "a fallback happened") true
        (Diag.recorded d1 "sparse.refactor_fallback");
      Alcotest.(check bool) (at "same events") true
        (Diag.events d1 = Diag.events d2);
      List.iteri
        (fun i (x, y) ->
          Alcotest.(check bool) (at (Printf.sprintf "step %d bit-identical" i))
            true (same_bits x y))
        (List.combine xs ys))
    [ 0.; 1e-2 ];
  (* typed errors: a foreign pattern, the armed fault *)
  let sw = Slu.sweep ~perm ~nrhs:(Cmat.cols b) (pencil 1e6) in
  let g, _, _, _ =
    Mna.sparse_system
      (Pdn.build
         { Pdn.default_spec with nx = 12; ny = 12; ports = 3; decaps = 4 })
  in
  (match Slu.sweep_solve sw g b with
   | Error (Mfti_error.Validation _) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
   | Ok _ -> Alcotest.fail "foreign pattern accepted");
  Fault.with_spec "sparse.singular_pivot" (fun () ->
    match Slu.sweep_solve sw (pencil 1e6) b with
    | Error (Mfti_error.Numerical_breakdown { context = "sparse.lu"; _ }) -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
    | Ok _ -> Alcotest.fail "armed fault did not fire")

let test_threshold_pivoting () =
  (* the Krylov probe sweep on a 16x16 RL plane: stepping down
     1e4-1e10 Hz from a full factorization at the top.  Partial pivoting
     there picks pivots (with ~3x the ordered diagonal's fill) that
     stop being safe lower down; the 1e-2 threshold keeps the ordered
     diagonal and steps down with no fallback, to the same solutions *)
  let g, c, b, _ =
    Mna.sparse_system
      (Pdn.build
         { Pdn.default_spec with nx = 16; ny = 16; ports = 3; decaps = 4 })
  in
  let perm = Ordering.amd (Scsr.scale_add ~alpha:Cx.one c ~beta:Cx.one g) in
  let pencil f =
    Scsr.scale_add ~alpha:(Cx.jw (2. *. Float.pi *. f)) c ~beta:Cx.one g
  in
  let probes =
    (* the bin centres of 1e4-1e10 Hz, highest first *)
    List.init 9 (fun i ->
        1e4 *. (1e6 ** ((17. -. (2. *. float_of_int i)) /. 18.)))
  in
  let down diagonal =
    Diag.with_collector (fun () ->
      refactor_chain ~perm ~diagonal pencil b probes)
  in
  let partial, dp = down 0. and threshold, dt = down 1e-2 in
  Alcotest.(check bool) "partial pivoting falls back" true
    (Diag.recorded dp "sparse.refactor_fallback");
  Alcotest.(check int) "threshold pivoting does not" 0 (Diag.fallback_count dt);
  List.iter2
    (fun x y -> check_small ~tol:1e-9 "same solution" (rel_diff y x))
    partial threshold;
  Alcotest.check_raises "threshold out of range"
    (Invalid_argument "Slu: diagonal threshold must be in [0, 1]")
    (fun () -> ignore (Slu.factorize ~perm ~diagonal:1.5 (pencil 1e6)))

(* ------------------------------------------------------------------ *)
(* Orderings *)

let grid_laplacian rng nx =
  let n = nx * nx in
  let b = Scsr.create ~rows:n ~cols:n () in
  let node i j = (i * nx) + j in
  for i = 0 to nx - 1 do
    for j = 0 to nx - 1 do
      Scsr.add b (node i j) (node i j)
        (Cx.add (cx 4. 0.) (Rng.complex_gaussian rng));
      if i + 1 < nx then begin
        Scsr.add b (node i j) (node (i + 1) j) (cx (-1.) 0.);
        Scsr.add b (node (i + 1) j) (node i j) (cx (-1.) 0.)
      end;
      if j + 1 < nx then begin
        Scsr.add b (node i j) (node i (j + 1)) (cx (-1.) 0.);
        Scsr.add b (node i (j + 1)) (node i j) (cx (-1.) 0.)
      end
    done
  done;
  Scsr.compress b

let check_permutation n perm =
  Alcotest.(check int) "perm length" n (Array.length perm);
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then Alcotest.fail "not a permutation";
      seen.(i) <- true)
    perm

let test_orderings_correct_and_helpful () =
  (* all orderings solve the same system; the fill-reducing ones should
     beat natural order convincingly on a 2-D grid *)
  let nx = 15 in
  let n = nx * nx in
  let rng = Rng.create 223 in
  let sp = grid_laplacian rng nx in
  check_permutation n (Ordering.amd sp);
  check_permutation n (Ordering.rcm sp);
  let rhs = Cmat.random rng n 1 in
  let f_nat = factorize_ok ~ordering:`Natural sp in
  let f_rcm = factorize_ok ~ordering:`Rcm sp in
  let f_amd = factorize_ok ~ordering:`Amd sp in
  let x_nat = Slu.solve f_nat rhs in
  List.iter
    (fun (name, f) ->
      let x = Slu.solve f rhs in
      check_small ~tol:1e-9
        (name ^ " same solution")
        (Cmat.norm_fro (Cmat.sub x_nat x) /. (1. +. Cmat.norm_fro x_nat));
      let resid = Cmat.sub (Scsr.mul_vec sp x) rhs in
      check_small ~tol:1e-9 (name ^ " residual") (Cmat.norm_fro resid))
    [ ("rcm", f_rcm); ("amd", f_amd) ];
  let fn = Slu.fill f_nat and fr = Slu.fill f_rcm and fa = Slu.fill f_amd in
  Alcotest.(check bool)
    (Printf.sprintf "amd fill beats natural (nat %d, rcm %d, amd %d)" fn fr fa)
    true
    (fa < fn);
  Alcotest.(check bool) "amd fill competitive with rcm" true (fa <= 2 * fr)

let test_amd_disconnected_and_dense_rows () =
  (* components, an isolated node, and a hub row: the quotient-graph
     bookkeeping has to survive all of them *)
  let n = 12 in
  let b = Scsr.create ~rows:n ~cols:n () in
  for i = 0 to n - 1 do
    Scsr.add b i i (cx 5. 0.)
  done;
  (* chain on 0..4, clique on 6..8, hub 9 touching everything but 5 *)
  for i = 0 to 3 do
    Scsr.add b i (i + 1) Cx.one;
    Scsr.add b (i + 1) i Cx.one
  done;
  for i = 6 to 8 do
    for j = 6 to 8 do
      if i <> j then Scsr.add b i j Cx.one
    done
  done;
  for j = 0 to n - 1 do
    if j <> 5 && j <> 9 then begin
      Scsr.add b 9 j Cx.one;
      Scsr.add b j 9 Cx.one
    end
  done;
  let sp = Scsr.compress b in
  check_permutation n (Ordering.amd sp);
  let f = factorize_ok ~ordering:`Amd sp in
  let rng = Rng.create 235 in
  let rhs = Cmat.random rng n 2 in
  let x = Slu.solve f rhs in
  let resid = Cmat.sub (Scsr.to_dense sp |> fun d -> Cmat.mul d x) rhs in
  check_small ~tol:1e-10 "residual" (Cmat.norm_fro resid)

let test_amd_random_matrices () =
  let rng = Rng.create 237 in
  for trial = 0 to 19 do
    let n = 2 + Rng.int rng 40 in
    let sp = random_sparse rng n (1 + (trial mod 4)) in
    check_permutation n (Ordering.amd sp)
  done

(* ------------------------------------------------------------------ *)
(* fault sites *)

let test_fault_singular_pivot () =
  let rng = Rng.create 239 in
  let sp = random_sparse rng 10 2 in
  Fault.with_spec "sparse.singular_pivot" (fun () ->
    match Slu.factorize sp with
    | Error (Mfti_error.Numerical_breakdown { context = "sparse.lu"; _ }) -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
    | Ok _ -> Alcotest.fail "armed fault did not fire")

let test_fault_ordering_degrade () =
  let rng = Rng.create 241 in
  let sp = grid_laplacian rng 8 in
  let n = Scsr.rows sp in
  Fault.with_spec "sparse.ordering_degrade" (fun () ->
    let (), d = Diag.with_collector (fun () ->
      let perm = Ordering.amd sp in
      Alcotest.(check bool) "degraded to natural" true
        (perm = Array.init n (fun i -> i)))
    in
    Alcotest.(check bool) "degrade recorded" true
      (Diag.recorded d "sparse.ordering_degrade"));
  (* factorization still succeeds through the degraded ordering *)
  Fault.with_spec "sparse.ordering_degrade" (fun () ->
    let f = factorize_ok ~ordering:`Amd sp in
    let rng = Rng.create 243 in
    let rhs = Cmat.random rng n 1 in
    let resid = Cmat.sub (Scsr.mul_vec sp (Slu.solve f rhs)) rhs in
    check_small ~tol:1e-9 "residual" (Cmat.norm_fro resid))

(* ------------------------------------------------------------------ *)
(* sparse-vs-dense agreement on random MNA matrices, across port
   counts and pool sizes (the issue's property test) *)

let random_mna rng ~ports =
  let nodes = 12 + Rng.int rng 10 in
  let c = ref (Mna.create ~nodes) in
  let nodef () = Rng.int rng nodes in
  for _ = 1 to 3 * nodes do
    let a = nodef () in
    let b = (a + 1 + Rng.int rng (nodes - 1)) mod nodes in
    let pick = Rng.int rng 4 in
    let v () = 0.1 +. Rng.uniform rng in
    c :=
      Mna.add !c
        (if pick = 0 then Mna.Resistor { a; b; ohms = v () }
         else if pick = 1 then Mna.Capacitor { a; b; farads = 1e-9 *. v () }
         else if pick = 2 then Mna.Inductor { a; b; henries = 1e-9 *. v () }
         else
           Mna.Rl_branch { a; b; ohms = v (); henries = 1e-9 *. v () })
  done;
  (* ground ties keep the MNA pencil regular at dc *)
  for k = 0 to nodes - 2 do
    if k mod 3 = 0 then
      c := Mna.add !c (Mna.Resistor { a = k + 1; b = 0; ohms = 50. })
  done;
  for p = 1 to ports do
    let _, c' = Mna.add_port !c ~plus:(1 + ((p * 3) mod (nodes - 1))) ~minus:0 in
    c := c'
  done;
  !c

let agreement_property ~pool () =
  let saved = Parallel.domain_count () in
  Parallel.set_domain_count pool;
  Fun.protect
    ~finally:(fun () -> Parallel.set_domain_count saved)
    (fun () ->
      let rng = Rng.create (1009 * pool) in
      List.iter
        (fun ports ->
          for _trial = 0 to 2 do
            let circuit = random_mna rng ~ports in
            let g, c, b, l = Mna.sparse_system circuit in
            let n = Mna.num_states circuit in
            Alcotest.(check int) "dims" n (Scsr.rows g);
            let gd = Scsr.to_dense g and cd = Scsr.to_dense c in
            (* matvec agreement to 1e-12 *)
            let x = Cmat.random rng n (1 + (ports mod 3)) in
            let ys = Scsr.mul_mat g x and yd = Cmat.mul gd x in
            check_small ~tol:1e-12 "matvec"
              (Cmat.norm_fro (Cmat.sub ys yd) /. (1. +. Cmat.norm_fro yd));
            (* solve agreement to 1e-12 at a generic frequency *)
            let s = Cx.jw (2. *. Float.pi *. 1e9) in
            let m = Scsr.scale_add ~alpha:s c ~beta:Cx.one g in
            let md = Cmat.add (Cmat.scale s cd) gd in
            let f = factorize_ok m in
            let xs = Slu.solve f b in
            let xd = Lu.solve_mat md b in
            check_small ~tol:1e-12 "solve"
              (Cmat.norm_fro (Cmat.sub xs xd) /. (1. +. Cmat.norm_fro xd));
            ignore l
          done)
        [ 1; 2; 4 ])

let test_agreement_pool1 () = agreement_property ~pool:1 ()
let test_agreement_pool4 () = agreement_property ~pool:4 ()

let test_matvec_pool_invariant () =
  (* bit-identical results at pool sizes 1 and 4 *)
  let rng = Rng.create 251 in
  let sp = random_sparse rng 200 4 in
  let x = Cmat.random rng 200 6 in
  let saved = Parallel.domain_count () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_domain_count saved)
    (fun () ->
      Parallel.set_domain_count 1;
      let y1 = Scsr.mul_mat sp x in
      Parallel.set_domain_count 4;
      let y4 = Scsr.mul_mat sp x in
      Alcotest.(check bool) "bit identical" true
        (Cmat.equal ~tol:0. y1 y4))

(* ------------------------------------------------------------------ *)
(* netlist round trip *)

let test_netlist_round_trip () =
  let spec = { Pdn.default_spec with nx = 3; ny = 3; ports = 2; decaps = 1 } in
  let circuit = Pdn.build spec in
  let path = Filename.temp_file "mfti_netlist" ".ckt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Netlist.save path circuit;
      let loaded =
        match Netlist.load path with
        | Ok c -> c
        | Error e -> Alcotest.failf "load: %s" (Mfti_error.to_string e)
      in
      Alcotest.(check int) "nodes" (Mna.num_nodes circuit)
        (Mna.num_nodes loaded);
      Alcotest.(check int) "ports" (Mna.num_ports circuit)
        (Mna.num_ports loaded);
      Alcotest.(check int) "states" (Mna.num_states circuit)
        (Mna.num_states loaded);
      let freqs = [| 1e6; 1e8; 1e9 |] in
      let a = Mna.impedance circuit freqs and b = Mna.impedance loaded freqs in
      Array.iteri
        (fun i sa ->
          check_small ~tol:1e-12 "same response"
            (Cmat.norm_fro
               (Cmat.sub sa.Statespace.Sampling.s
                  b.(i).Statespace.Sampling.s)))
        a)

let test_netlist_parse_errors () =
  let write content =
    let path = Filename.temp_file "mfti_netlist" ".ckt" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  let expect_parse content =
    let path = write content in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        match Netlist.load path with
        | Error (Mfti_error.Parse { line; _ }) -> line
        | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
        | Ok _ -> Alcotest.fail "malformed netlist accepted")
  in
  (* element before nodes *)
  ignore (expect_parse "R 0 1 10\n");
  (* negative value, with the right line number *)
  Alcotest.(check (option int)) "line number" (Some 3)
    (expect_parse "nodes 3\nR 0 1 10\nC 1 2 -1e-12\nP 1 0\n");
  (* unknown directive *)
  ignore (expect_parse "nodes 2\nQ 0 1 3\n");
  (* no ports *)
  ignore (expect_parse "nodes 2\nR 0 1 10\n")

(* ------------------------------------------------------------------ *)
(* sparse vs dense MNA assembly agreement (migrated from test_rf) *)

let test_mna_sparse_matches_dense () =
  let spec = { Pdn.default_spec with nx = 4; ny = 4; ports = 3; decaps = 2 } in
  let circuit = Pdn.build spec in
  let freqs = [| 1e6; 1e8; 2e9 |] in
  let dense = Mna.impedance circuit freqs in
  let sparse = Mna.impedance_sparse circuit freqs in
  Array.iteri
    (fun i sd ->
      check_small ~tol:1e-9 "impedance agreement"
        (Cmat.norm_fro
           (Cmat.sub sd.Statespace.Sampling.s sparse.(i).Statespace.Sampling.s)
         /. (1. +. Cmat.norm_fro sd.Statespace.Sampling.s)))
    dense

(* ------------------------------------------------------------------ *)
(* Krylov pre-reduction *)

module Krylov = Mfti.Krylov
module Engine = Mfti.Engine

let small_grid_spec =
  { Pdn.default_spec with nx = 5; ny = 5; ports = 2; decaps = 3 }

let krylov_test_options =
  { Krylov.default_options with
    f_lo = 1e5;
    f_hi = 1e9;
    shifts = 6;
    tol = 1e-9;
    holdout = 7 }

let test_krylov_reduce_accuracy () =
  let circuit = Pdn.build small_grid_spec in
  let sys = Krylov.of_mna circuit in
  let kr =
    match Krylov.reduce ~options:krylov_test_options sys with
    | Ok kr -> kr
    | Error e -> Alcotest.failf "reduce: %s" (Mfti_error.to_string e)
  in
  Alcotest.(check bool) "nontrivial order" true (kr.Krylov.order > 0);
  Alcotest.(check bool) "reduced below full" true
    (kr.Krylov.order <= Mna.num_states circuit);
  Alcotest.(check bool) "history recorded" true
    (Array.length kr.Krylov.history > 0);
  Alcotest.(check bool) "factorizations counted" true
    (kr.Krylov.factorizations >= krylov_test_options.Krylov.shifts);
  (* fresh frequencies: neither shifts nor hold-out probes *)
  let freqs = [| 3.3e5; 4.7e6; 8.9e7; 6.1e8 |] in
  let exact = Mna.impedance circuit freqs in
  Array.iter
    (fun sample ->
      let f = sample.Statespace.Sampling.freq in
      let approx = Engine.Model.eval_freq kr.Krylov.model f in
      let rel =
        Cmat.norm_fro (Cmat.sub approx sample.Statespace.Sampling.s)
        /. Cmat.norm_fro sample.Statespace.Sampling.s
      in
      check_small ~tol:1e-4
        (Printf.sprintf "reduced model matches at %.3g Hz" f)
        rel)
    exact

(* [Krylov.reduce] at a pool size, with the Diag events it recorded. *)
let reduce_at ?(options = krylov_test_options) domains sys =
  let saved = Parallel.domain_count () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_domain_count saved)
    (fun () ->
      Parallel.set_domain_count domains;
      Diag.with_collector (fun () -> Krylov.reduce ~options sys))

(* The lanes of the first round must not show in anything the
   reduction returns or records: the model, the history, the shifts,
   the factorization count and the event list, at 1, 2 and 4 domains. *)
let check_domain_invariant ?options sys =
  let run domains =
    match reduce_at ?options domains sys with
    | Ok kr, d -> (kr, Diag.events d)
    | Error e, _ -> Alcotest.failf "reduce: %s" (Mfti_error.to_string e)
  in
  let floats a = Array.map Int64.bits_of_float a in
  let kr1, ev1 = run 1 in
  (* one factorization per shift solved in the chain and one per probe
     in the probe lane (no probe is an initial shift here) *)
  let holdout =
    (Option.value ~default:krylov_test_options options).Krylov.holdout
  in
  Alcotest.(check int) "factorizations = shifts + probes"
    (Array.length kr1.Krylov.shift_freqs + holdout)
    kr1.Krylov.factorizations;
  List.iter
    (fun domains ->
      let kr, ev = run domains in
      let d1 = Engine.Model.descriptor kr1.Krylov.model in
      let d = Engine.Model.descriptor kr.Krylov.model in
      let at name = Printf.sprintf "%s at %d domains" name domains in
      List.iter
        (fun (name, m1, m) ->
          Alcotest.(check bool) (at (name ^ " bit-identical")) true
            (same_bits m1 m))
        Statespace.Descriptor.
          [ ("E", d1.e, d.e); ("A", d1.a, d.a); ("B", d1.b, d.b);
            ("C", d1.c, d.c); ("D", d1.d, d.d) ];
      Alcotest.(check bool) (at "history") true
        (floats kr1.Krylov.history = floats kr.Krylov.history);
      Alcotest.(check bool) (at "shift_freqs") true
        (floats kr1.Krylov.shift_freqs = floats kr.Krylov.shift_freqs);
      Alcotest.(check int) (at "factorizations") kr1.Krylov.factorizations
        kr.Krylov.factorizations;
      Alcotest.(check bool) (at "Diag events") true (ev1 = ev))
    [ 2; 4 ];
  kr1

let test_krylov_domain_invariant () =
  ignore (check_domain_invariant (Krylov.of_mna (Pdn.build small_grid_spec)))

let test_krylov_adaptive_invariant () =
  (* a tolerance the first round cannot meet: adaptive rounds run on
     the shift chain after the lanes joined, from the probes' samples *)
  let options = { krylov_test_options with tol = 1e-15 } in
  let kr =
    check_domain_invariant ~options
      (Krylov.of_mna (Pdn.build small_grid_spec))
  in
  Alcotest.(check bool) "an adaptive round ran" true
    (Array.length kr.Krylov.history >= 2);
  Alcotest.(check bool) "it added shifts" true
    (Array.length kr.Krylov.shift_freqs > krylov_test_options.Krylov.shifts)

let test_krylov_singular_typed () =
  (* both lanes fail on the armed pivot fault; the shift chain's error
     is the one returned, at any pool size *)
  let sys = Krylov.of_mna (Pdn.build small_grid_spec) in
  let failure domains =
    Fault.with_spec "sparse.singular_pivot" (fun () ->
      match reduce_at domains sys with
      | ( Error
            (Mfti_error.Numerical_breakdown { context = "sparse.lu"; _ } as e),
          d ) ->
        (e, Diag.events d)
      | Error e, _ -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
      | Ok _, _ -> Alcotest.fail "armed fault did not fire")
  in
  let e1, ev1 = failure 1 and e4, ev4 = failure 4 in
  Alcotest.(check string) "same error at 1 and 4 domains"
    (Mfti_error.to_string e1) (Mfti_error.to_string e4);
  Alcotest.(check bool) "same events" true (ev1 = ev4)

let test_krylov_interpolates_shifts () =
  (* the projection space holds (sigma C + G)^-1 B for every shift, so
     the reduced model reproduces H there *)
  let circuit = Pdn.build small_grid_spec in
  let kr =
    match
      Krylov.reduce ~options:krylov_test_options (Krylov.of_mna circuit)
    with
    | Ok kr -> kr
    | Error e -> Alcotest.failf "reduce: %s" (Mfti_error.to_string e)
  in
  Array.iter
    (fun (sample : Statespace.Sampling.sample) ->
      let f = sample.Statespace.Sampling.freq in
      check_small ~tol:1e-8
        (Printf.sprintf "reduced model interpolates at %.4g Hz" f)
        (rel_diff (Engine.Model.eval_freq kr.Krylov.model f)
           sample.Statespace.Sampling.s))
    (Mna.impedance_sparse circuit kr.Krylov.shift_freqs)

let test_krylov_vs_dense_mfti () =
  (* acceptance: krylov+mfti hold-out accuracy within 10x of a dense
     MFTI fit of the same small grid *)
  let z0 = 50. in
  let fit_freqs = Statespace.Sampling.logspace 1e5 1e9 64 in
  let holdout_freqs =
    Array.init 16 (fun i -> 1.23e5 *. (1.71 ** float_of_int i))
  in
  let dense_fit = Pdn.scattering small_grid_spec ~z0 fit_freqs in
  let holdout = Pdn.scattering small_grid_spec ~z0 holdout_freqs in
  let dense_model =
    match Engine.fit_result ~strategy:Engine.Direct dense_fit with
    | Ok fit -> Engine.Model.of_fit fit
    | Error e -> Alcotest.failf "dense fit: %s" (Mfti_error.to_string e)
  in
  let options = { krylov_test_options with z0 = Some z0 } in
  let krylov_model, _ =
    match Krylov.fit_mfti ~options (Krylov.of_mna (Pdn.build small_grid_spec))
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "krylov+mfti: %s" (Mfti_error.to_string e)
  in
  let dense_err = Engine.Model.err dense_model holdout in
  let krylov_err = Engine.Model.err krylov_model holdout in
  if krylov_err > Float.max (10. *. dense_err) 1e-8 then
    Alcotest.failf "krylov+mfti err %.3g exceeds 10x dense err %.3g"
      krylov_err dense_err

let test_krylov_validation () =
  let sys = Krylov.of_mna (Pdn.build small_grid_spec) in
  let expect_validation name r =
    match r with
    | Error (Mfti_error.Validation _) -> ()
    | Error e ->
      Alcotest.failf "%s: wrong error %s" name (Mfti_error.to_string e)
    | Ok _ -> Alcotest.failf "%s: unexpectedly succeeded" name
  in
  expect_validation "inverted band"
    (Krylov.reduce
       ~options:{ Krylov.default_options with f_lo = 1e9; f_hi = 1e5 }
       sys);
  expect_validation "too few shifts"
    (Krylov.reduce ~options:{ Krylov.default_options with shifts = 1 } sys);
  expect_validation "bad z0"
    (Krylov.reduce ~options:{ Krylov.default_options with z0 = Some 0. } sys);
  expect_validation "mismatched ports"
    (Krylov.reduce { sys with b = Cmat.zeros 3 2 });
  expect_validation "complex ports"
    (Krylov.reduce { sys with b = Cmat.scale (cx 0. 1.) sys.Krylov.b })

let () =
  Alcotest.run "sparse"
    [ ("scsr",
       [ Alcotest.test_case "round trip" `Quick test_round_trip;
         Alcotest.test_case "duplicates" `Quick test_duplicates_accumulate;
         Alcotest.test_case "mul_vec" `Quick test_mul_vec;
         Alcotest.test_case "mul_mat wide" `Quick test_mul_mat_wide;
         Alcotest.test_case "scale_add" `Quick test_scale_add;
         Alcotest.test_case "scale_add pattern union" `Quick
           test_scale_add_pattern_union;
         Alcotest.test_case "transpose" `Quick test_transpose;
         Alcotest.test_case "permute" `Quick test_permute;
         Alcotest.test_case "scale_add_into" `Quick test_scale_add_into ]);
      ("slu",
       [ Alcotest.test_case "matches dense" `Quick test_lu_matches_dense;
         Alcotest.test_case "permutation matrix" `Quick
           test_lu_permuted_identity;
         Alcotest.test_case "singular typed" `Quick test_lu_singular_typed;
         Alcotest.test_case "bad perm typed" `Quick test_lu_bad_perm_typed;
         Alcotest.test_case "fill reported" `Quick test_lu_fill_reported;
         Alcotest.test_case "refactor sweep" `Quick test_refactor_sweep;
         Alcotest.test_case "refactor fallback" `Quick test_refactor_fallback;
         Alcotest.test_case "refactor fault typed" `Quick
           test_refactor_fault;
         Alcotest.test_case "fallback = factorize (bits)" `Quick
           test_refactor_fallback_bits;
         Alcotest.test_case "sweep = refactor chain (bits)" `Quick
           test_sweep_matches_chain;
         Alcotest.test_case "threshold pivoting steps down an RL band" `Quick
           test_threshold_pivoting ]);
      ("ordering",
       [ Alcotest.test_case "correct and helpful" `Quick
           test_orderings_correct_and_helpful;
         Alcotest.test_case "amd odd graphs" `Quick
           test_amd_disconnected_and_dense_rows;
         Alcotest.test_case "amd random" `Quick test_amd_random_matrices ]);
      ("faults",
       [ Alcotest.test_case "singular pivot" `Quick test_fault_singular_pivot;
         Alcotest.test_case "ordering degrade" `Quick
           test_fault_ordering_degrade ]);
      ("agreement",
       [ Alcotest.test_case "mna pool 1" `Quick test_agreement_pool1;
         Alcotest.test_case "mna pool 4" `Quick test_agreement_pool4;
         Alcotest.test_case "pool invariant" `Quick test_matvec_pool_invariant;
         Alcotest.test_case "mna sparse = dense" `Quick
           test_mna_sparse_matches_dense ]);
      ("netlist",
       [ Alcotest.test_case "round trip" `Quick test_netlist_round_trip;
         Alcotest.test_case "parse errors" `Quick test_netlist_parse_errors ]);
      ("krylov",
       [ Alcotest.test_case "reduce accuracy" `Quick
           test_krylov_reduce_accuracy;
         Alcotest.test_case "within 10x of dense mfti" `Quick
           test_krylov_vs_dense_mfti;
         Alcotest.test_case "validation" `Quick test_krylov_validation;
         Alcotest.test_case "1 = 4 domains (bit)" `Quick
           test_krylov_domain_invariant;
         Alcotest.test_case "interpolates at shifts" `Quick
           test_krylov_interpolates_shifts;
         Alcotest.test_case "adaptive rounds 1 = 2 = 4 domains (bit)" `Quick
           test_krylov_adaptive_invariant;
         Alcotest.test_case "singular pivot typed at 1 and 4 domains" `Quick
           test_krylov_singular_typed ])
    ]
