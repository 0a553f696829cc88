(* Determinism and correctness of the multicore kernel layer: every
   parallel kernel must agree with its forced-sequential run
   ([Parallel.with_sequential], the [MFTI_DOMAINS=1] behaviour)
   bit-for-bit or within 1e-12 relative Frobenius, across edge shapes
   (empty, 1x1, non-square, below/above the blocking threshold). *)

open Linalg
open Statespace
open Mfti

let () = Parallel.set_domain_count 4

let rng = Rng.create 90210

let rel_fro a b =
  let d = Cmat.norm_fro (Cmat.sub a b) in
  let s = Cmat.norm_fro a in
  if s > 0. then d /. s else d

let check_close msg x tol =
  if not (x <= tol) then Alcotest.failf "%s: %.3g exceeds %.1g" msg x tol

(* ------------------------------------------------------------------ *)
(* Parallel primitives *)

let test_parallel_for_covers () =
  List.iter
    (fun n ->
      let hits = Array.make (Stdlib.max n 1) 0 in
      Parallel.parallel_for n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      for i = 0 to n - 1 do
        if hits.(i) <> 1 then
          Alcotest.failf "n=%d: index %d visited %d times" n i hits.(i)
      done)
    [ 0; 1; 2; 7; 64; 1000 ];
  (* explicit chunk sizes, including chunk > n *)
  List.iter
    (fun chunk ->
      let hits = Array.make 37 0 in
      Parallel.parallel_for ~chunk 37 (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Array.iteri
        (fun i h ->
          if h <> 1 then Alcotest.failf "chunk=%d: index %d hit %d" chunk i h)
        hits)
    [ 1; 2; 5; 36; 37; 100 ]

let test_parallel_for_reduce () =
  let n = 1234 in
  let expect = n * (n - 1) / 2 in
  let got =
    Parallel.parallel_for_reduce ~neutral:0 ~combine:( + ) n (fun lo hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + i
        done;
        !s)
  in
  Alcotest.(check int) "sum 0..n-1" expect got;
  (* floating-point fold must not depend on the domain count *)
  let f lo hi =
    let s = ref 0. in
    for i = lo to hi - 1 do
      s := !s +. (1. /. float_of_int (i + 1))
    done;
    !s
  in
  let par =
    Parallel.parallel_for_reduce ~neutral:0. ~combine:( +. ) 4099 f
  in
  let seq =
    Parallel.with_sequential (fun () ->
        Parallel.parallel_for_reduce ~neutral:0. ~combine:( +. ) 4099 f)
  in
  Alcotest.(check (float 0.)) "harmonic sum bit-identical" seq par;
  Alcotest.(check (float 0.)) "empty range" 0.
    (Parallel.parallel_for_reduce ~neutral:0. ~combine:( +. ) 0 f)

let test_parallel_for_exception () =
  match
    Parallel.parallel_for 1000 (fun lo hi ->
        for i = lo to hi - 1 do
          if i = 777 then failwith "boom"
        done)
  with
  | () -> Alcotest.fail "expected exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg

let test_parallel_for_result_typed () =
  (* worker exceptions surface as typed errors, and the pool stays
     usable afterwards (no deadlock, no poisoned worker state) *)
  (match
     Parallel.parallel_for_result ~context:"test" 500 (fun lo hi ->
         for i = lo to hi - 1 do
           if i = 123 then invalid_arg "bad shape"
         done)
   with
   | Error (Mfti_error.Validation { context; _ }) ->
     Alcotest.(check string) "context" "test" context
   | Error e ->
     Alcotest.failf "expected Validation, got %s" (Mfti_error.to_string e)
   | Ok () -> Alcotest.fail "expected the worker exception to surface");
  (match
     Parallel.parallel_for_result ~context:"test" 500 (fun _ _ ->
         raise (Fault.Injected "synthetic"))
   with
   | Error (Mfti_error.Fault_injected { site }) ->
     Alcotest.(check string) "site" "synthetic" site
   | Error e ->
     Alcotest.failf "expected Fault_injected, got %s" (Mfti_error.to_string e)
   | Ok () -> Alcotest.fail "expected the injected fault to surface");
  let hits = Array.make 500 0 in
  (match
     Parallel.parallel_for_result ~context:"test" 500 (fun lo hi ->
         for i = lo to hi - 1 do
           hits.(i) <- hits.(i) + 1
         done)
   with
   | Ok () -> ()
   | Error e ->
     Alcotest.failf "pool unusable after failure: %s" (Mfti_error.to_string e));
  Array.iteri
    (fun i h -> if h <> 1 then Alcotest.failf "index %d hit %d times" i h)
    hits

let test_nested_parallel_for () =
  (* nested loops must run inline rather than deadlock on the pool *)
  let acc = Array.make 64 0 in
  Parallel.parallel_for 8 (fun lo hi ->
      for i = lo to hi - 1 do
        Parallel.parallel_for 8 (fun lo2 hi2 ->
            for j = lo2 to hi2 - 1 do
              acc.((i * 8) + j) <- acc.((i * 8) + j) + 1
            done)
      done);
  Array.iteri
    (fun k h -> if h <> 1 then Alcotest.failf "slot %d hit %d times" k h)
    acc

(* ------------------------------------------------------------------ *)
(* Blocked GEMM vs sequential and vs the scalar reference *)

(* (rows a, cols a, cols b): empty, degenerate, small-path, boundary,
   blocked-path and non-square shapes *)
let gemm_shapes =
  [ (0, 0, 0); (0, 5, 3); (4, 0, 6); (1, 1, 1); (3, 4, 2); (8, 8, 8);
    (32, 32, 32); (33, 32, 31); (40, 40, 40); (97, 61, 43); (64, 128, 96);
    (120, 120, 120) ]

let test_mul_matches_sequential () =
  List.iter
    (fun (m, k, n) ->
      let a = Cmat.random rng m k and b = Cmat.random rng k n in
      let seq = Parallel.with_sequential (fun () -> Cmat.mul a b) in
      let par = Cmat.mul a b in
      Alcotest.(check bool)
        (Printf.sprintf "mul %dx%dx%d bit-identical" m k n)
        true
        (Cmat.equal ~tol:0. seq par))
    gemm_shapes

let test_mul_matches_reference () =
  List.iter
    (fun (m, k, n) ->
      let a = Cmat.random rng m k and b = Cmat.random rng k n in
      check_close
        (Printf.sprintf "mul %dx%dx%d vs reference" m k n)
        (rel_fro (Cmat.mul_reference a b) (Cmat.mul a b))
        1e-12)
    gemm_shapes

let test_mul_cn_matches () =
  List.iter
    (fun (k, m, n) ->
      let a = Cmat.random rng k m and b = Cmat.random rng k n in
      let seq = Parallel.with_sequential (fun () -> Cmat.mul_cn a b) in
      let par = Cmat.mul_cn a b in
      Alcotest.(check bool)
        (Printf.sprintf "mul_cn %dx%dx%d bit-identical" k m n)
        true
        (Cmat.equal ~tol:0. seq par);
      check_close
        (Printf.sprintf "mul_cn %dx%dx%d vs reference" k m n)
        (rel_fro (Cmat.mul_cn_reference a b) par)
        1e-12)
    gemm_shapes

let test_axpy_equal_fastpaths () =
  let x = Cmat.random rng 23 17 and y = Cmat.random rng 23 17 in
  let alpha = { Cx.re = 0.25; im = -1.5 } in
  let fused = Cmat.axpy alpha x y in
  let composed = Cmat.add (Cmat.scale alpha x) y in
  Alcotest.(check bool) "axpy = scale-then-add" true
    (Cmat.equal ~tol:0. fused composed);
  Alcotest.(check bool) "equal early-exit mismatch" false
    (Cmat.equal ~tol:1e-9 fused (Cmat.scale_float 2. fused));
  Alcotest.(check bool) "equal on itself" true (Cmat.equal ~tol:0. fused fused)

(* ------------------------------------------------------------------ *)
(* Jacobi SVD: tournament sweeps vs forced-sequential (the matrices
   are complex, so every shape takes Jacobi) *)

let test_svd_jacobi_deterministic () =
  List.iter
    (fun (m, n) ->
      let a = Cmat.random rng m n in
      let seq = Parallel.with_sequential (fun () -> Svd.decompose a) in
      let par = Svd.decompose a in
      Array.iteri
        (fun i s ->
          if s <> par.Svd.sigma.(i) then
            Alcotest.failf "%dx%d: sigma %d differs" m n i)
        seq.Svd.sigma;
      Alcotest.(check bool) "U bit-identical" true
        (Cmat.equal ~tol:0. seq.Svd.u par.Svd.u);
      Alcotest.(check bool) "V bit-identical" true
        (Cmat.equal ~tol:0. seq.Svd.v par.Svd.v);
      check_close
        (Printf.sprintf "recon %dx%d" m n)
        (rel_fro a (Svd.reconstruct par))
        1e-12)
    [ (1, 1); (8, 5); (24, 16); (120, 96) ]

(* ------------------------------------------------------------------ *)
(* Loewner assembly: aggregated-product build vs sequential, plus the
   eq. (13) Sylvester invariants at seed tolerance *)

let loewner_fixture ports nsamples =
  let sys =
    Random_sys.generate
      { Random_sys.order = 3 * ports; ports; rank_d = Stdlib.max 1 (ports / 2);
        freq_lo = 100.; freq_hi = 1e5; damping = 0.08; seed = 77 }
  in
  let samples = Sampling.sample_system sys (Sampling.logspace 100. 1e5 nsamples) in
  Tangential.build samples

let test_loewner_deterministic () =
  List.iter
    (fun (ports, nsamples) ->
      let data = loewner_fixture ports nsamples in
      let seq = Parallel.with_sequential (fun () -> Loewner.build data) in
      let par = Loewner.build data in
      Alcotest.(check bool) "LL bit-identical" true
        (Cmat.equal ~tol:0. seq.Loewner.ll par.Loewner.ll);
      Alcotest.(check bool) "sLL bit-identical" true
        (Cmat.equal ~tol:0. seq.Loewner.sll par.Loewner.sll))
    [ (2, 4); (3, 6); (8, 32) ]

let test_loewner_sylvester_residuals () =
  let data = loewner_fixture 8 32 in
  let p = Loewner.build data in
  let r1, r2 = Loewner.sylvester_residuals p in
  let scale = Cmat.norm_fro p.Loewner.sll +. 1. in
  check_close "Sylvester (13) for LL" (r1 /. scale) 1e-10;
  check_close "Sylvester (13) for sLL" (r2 /. scale) 1e-10;
  let ll2 = Loewner.ll_via_sylvester p in
  check_close "LL = Sylvester solve"
    (rel_fro p.Loewner.ll ll2)
    1e-9

let test_loewner_coincident_raises () =
  let data = loewner_fixture 2 4 in
  (* collide one left point with one right point *)
  let lam = data.Tangential.right.(0).Tangential.lambda in
  let bad_left =
    Array.mapi
      (fun i (lb : Tangential.left_block) ->
        if i = 0 then { lb with Tangential.mu = lam } else lb)
      data.Tangential.left
  in
  let bad = { data with Tangential.left = bad_left } in
  Alcotest.check_raises "coincident points"
    (Invalid_argument "Loewner.build: coincident left and right points")
    (fun () -> ignore (Loewner.build bad))

(* ------------------------------------------------------------------ *)
(* Frequency sweep *)

let test_sample_system_deterministic () =
  let sys =
    Random_sys.generate
      { Random_sys.order = 20; ports = 3; rank_d = 2; freq_lo = 10.;
        freq_hi = 1e6; damping = 0.05; seed = 13 }
  in
  List.iter
    (fun nfreq ->
      let freqs = Array.init nfreq (fun i -> 10. *. (1.9 ** float_of_int i)) in
      let seq =
        Parallel.with_sequential (fun () -> Sampling.sample_system sys freqs)
      in
      let par = Sampling.sample_system sys freqs in
      Alcotest.(check int) "length" (Array.length seq) (Array.length par);
      Array.iteri
        (fun i (s : Sampling.sample) ->
          Alcotest.(check (float 0.)) "freq" s.Sampling.freq
            par.(i).Sampling.freq;
          Alcotest.(check bool)
            (Printf.sprintf "sample %d bit-identical" i)
            true
            (Cmat.equal ~tol:0. s.Sampling.s par.(i).Sampling.s))
        seq)
    [ 0; 1; 7; 33 ]

(* ------------------------------------------------------------------ *)

(* Two domains submitting at once: each runs 2,000 loops over its own
   64 entries while the other's jobs are in flight.  With one shared
   job slot, the second submission would overwrite the first's range
   and task mid-job; a submission that finds the pool busy must run
   inline instead, so every entry of every run is right. *)
let test_concurrent_submitters () =
  let submitter id () =
    let a = Array.make 64 (-1) in
    let wrong = ref 0 in
    for run = 1 to 2000 do
      Parallel.parallel_for 64 (fun lo hi ->
          for i = lo to hi - 1 do
            a.(i) <- (id * 1_000_000) + (run * 64) + i
          done);
      Array.iteri
        (fun i x -> if x <> (id * 1_000_000) + (run * 64) + i then incr wrong)
        a
    done;
    !wrong
  in
  let other = Domain.spawn (submitter 2) in
  let mine = submitter 1 () in
  let theirs = Domain.join other in
  Alcotest.(check (pair int int)) "wrong entries (main, spawned)" (0, 0)
    (mine, theirs)

let () =
  Alcotest.run "parallel"
    [ ( "primitives",
        [ Alcotest.test_case "parallel_for covers ranges" `Quick
            test_parallel_for_covers;
          Alcotest.test_case "parallel_for_reduce" `Quick
            test_parallel_for_reduce;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_for_exception;
          Alcotest.test_case "typed errors + pool reuse" `Quick
            test_parallel_for_result_typed;
          Alcotest.test_case "nested loops inline" `Quick
            test_nested_parallel_for;
          Alcotest.test_case "concurrent submitters run inline" `Quick
            test_concurrent_submitters ] );
      ( "gemm",
        [ Alcotest.test_case "mul = sequential (bit)" `Quick
            test_mul_matches_sequential;
          Alcotest.test_case "mul = reference (1e-12)" `Quick
            test_mul_matches_reference;
          Alcotest.test_case "mul_cn = sequential + reference" `Quick
            test_mul_cn_matches;
          Alcotest.test_case "axpy fused / equal early-exit" `Quick
            test_axpy_equal_fastpaths ] );
      ( "svd",
        [ Alcotest.test_case "Jacobi tournament = sequential" `Quick
            test_svd_jacobi_deterministic ] );
      ( "loewner",
        [ Alcotest.test_case "build = sequential (bit)" `Quick
            test_loewner_deterministic;
          Alcotest.test_case "Sylvester residuals (eq. 13)" `Quick
            test_loewner_sylvester_residuals;
          Alcotest.test_case "coincident points raise" `Quick
            test_loewner_coincident_raises ] );
      ( "sweep",
        [ Alcotest.test_case "sample_system = sequential" `Quick
            test_sample_system_deterministic ] ) ]
