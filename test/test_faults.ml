(* Fault-injection harness: every armed MFTI_FAULT site must produce
   either a typed [Mfti_error.t] or a degraded-but-valid model with the
   degradation recorded in the diagnostics — never an uncaught
   exception, never a hang.  Scenarios cover the parse, linear-algebra,
   recursion and domain-pool layers, plus property-style fuzzing of the
   parser and the fitting entry points. *)

open Linalg
open Statespace
open Mfti

let rng = Rng.create 5150

let test_spec =
  { Random_sys.order = 12; ports = 3; rank_d = 3; freq_lo = 100.;
    freq_hi = 1e5; damping = 0.08; seed = 42 }

let test_system = Random_sys.generate test_spec
let samples k = Sampling.sample_system test_system (Sampling.logspace 100. 1e5 k)

(* paper Algorithm 2 at its defaults *)
let fit_recursive ?(options = Engine.default_recursive_options) smps =
  Engine.fit_result ~options
    ~strategy:(Engine.Recursive Engine.Incremental) smps

let finite_model model smps =
  let e = Metrics.err model smps in
  Float.is_finite e

(* ------------------------------------------------------------------ *)
(* Parse layer: touchstone.corrupt *)

let touchstone_text =
  Rf.Touchstone.print
    { Rf.Touchstone.parameter = Rf.Touchstone.S; z0 = 50.;
      samples = Sampling.sample_system test_system (Sampling.logspace 1e3 1e4 8) }

let test_touchstone_corrupt_strict () =
  Fault.with_spec "touchstone.corrupt" (fun () ->
      match Rf.Touchstone.parse_result ~nports:3 touchstone_text with
      | Error (Mfti_error.Parse { line = Some _; _ }) -> ()
      | Error e ->
        Alcotest.failf "expected Parse error, got %s" (Mfti_error.to_string e)
      | Ok _ -> Alcotest.fail "strict parse accepted injected garbage")

let test_touchstone_corrupt_lenient () =
  Fault.with_spec "touchstone.corrupt" (fun () ->
      let r, diag =
        Diag.with_collector (fun () ->
            Rf.Touchstone.parse_result ~policy:Rf.Touchstone.Lenient ~nports:3
              touchstone_text)
      in
      match r with
      | Ok t ->
        Alcotest.(check int) "all clean records recovered" 8
          (Array.length t.Rf.Touchstone.samples);
        Alcotest.(check bool) "recovery recorded" true
          (Diag.recorded diag "touchstone.lenient")
      | Error e ->
        Alcotest.failf "lenient parse failed: %s" (Mfti_error.to_string e))

(* ------------------------------------------------------------------ *)
(* Input layer: sample.corrupt *)

let test_sample_corrupt () =
  Fault.with_spec "sample.corrupt" (fun () ->
      (match Engine.fit_result (samples 6) with
       | Error (Mfti_error.Validation _) -> ()
       | Error e ->
         Alcotest.failf "expected Validation, got %s" (Mfti_error.to_string e)
       | Ok _ -> Alcotest.fail "algorithm 1 fitted NaN-poisoned samples");
      match fit_recursive (samples 12) with
      | Error (Mfti_error.Validation _) -> ()
      | Error e ->
        Alcotest.failf "expected Validation, got %s" (Mfti_error.to_string e)
      | Ok _ -> Alcotest.fail "algorithm 2 fitted NaN-poisoned samples")

(* ------------------------------------------------------------------ *)
(* Linear algebra: loewner.poison, svd.no_converge, lu.singular *)

let test_loewner_poison () =
  Fault.with_spec "loewner.poison" (fun () ->
      match Engine.fit_result (samples 6) with
      | Error (Mfti_error.Numerical_breakdown _) -> ()
      | Error e ->
        Alcotest.failf "expected Numerical_breakdown, got %s"
          (Mfti_error.to_string e)
      | Ok _ -> Alcotest.fail "fit succeeded on a NaN-poisoned pencil")

let test_svd_no_converge_degrades () =
  Fault.with_spec "svd.no_converge" (fun () ->
      match Engine.fit_result (samples 6) with
      | Error e ->
        Alcotest.failf "cascade must not fail the fit: %s"
          (Mfti_error.to_string e)
      | Ok r ->
        Alcotest.(check bool) "fallbacks recorded" true
          (Diag.fallback_count r.Engine.diagnostics > 0);
        Alcotest.(check bool) "retries counted" true
          (r.Engine.diagnostics.Diag.retries > 0);
        Alcotest.(check bool) "model still evaluable" true
          (finite_model r.Engine.model (samples 6)))

let test_svd_gk_fallback () =
  Fault.with_spec "svd.no_converge" (fun () ->
      (* exactly real and over 32 columns: the real kernel *)
      let a = Cmat.of_real (Rmat.random rng 40 40) in
      let r, diag =
        Diag.with_collector (fun () -> Svd.decompose a)
      in
      Alcotest.(check bool) "GK fell back to Jacobi" true
        (Diag.recorded diag "svd.gk.jacobi_fallback");
      Alcotest.(check bool) "singular values finite" true
        (Array.for_all Float.is_finite r.Svd.sigma))

let test_rsvd_degrade_fallback () =
  (* Poisoning the randomized certificate must never fail the fit: the
     reduce stage records the fallback, reruns the exact cascade, and
     lands on exactly the rank the kept sketch chose.  64 samples at 3
     ports make a 96-wide pencil, so the size rule sketches it. *)
  let smps = samples 64 in
  let sketch = Engine.fit smps in
  let dim = Cmat.cols sketch.Engine.loewner.Loewner.ll in
  Alcotest.(check bool) "pencil reaches the sketch cutoff" true (dim >= 96);
  Alcotest.(check bool) "sketch kept" true
    (Array.length sketch.Engine.sigma < dim
     && not (Diag.recorded sketch.Engine.diagnostics "svd.rsvd.fallback"));
  Fault.with_spec "svd.rsvd.degrade" (fun () ->
      match Engine.fit_result smps with
      | Error e ->
        Alcotest.failf "degraded certificate must not fail the fit: %s"
          (Mfti_error.to_string e)
      | Ok r ->
        Alcotest.(check bool) "fallback recorded" true
          (Diag.recorded r.Engine.diagnostics "svd.rsvd.fallback");
        Alcotest.(check bool) "retries counted" true
          (r.Engine.diagnostics.Diag.retries > 0);
        Alcotest.(check int) "exact spectrum" dim (Array.length r.Engine.sigma);
        Alcotest.(check int) "rank matches the kept sketch"
          sketch.Engine.rank r.Engine.rank;
        Alcotest.(check bool) "model still evaluable" true
          (finite_model r.Engine.model smps))

let test_lu_singular_qr_fallback () =
  Fault.with_spec "lu.singular" (fun () ->
      let a = Cmat.random rng 12 12 and b = Cmat.random rng 12 3 in
      let x, diag = Diag.with_collector (fun () -> Lu.solve_robust a b) in
      Alcotest.(check bool) "QR fallback recorded" true
        (Diag.recorded diag "lu.qr_fallback");
      let resid = Cmat.norm_fro (Cmat.sub (Cmat.mul a x) b) in
      if not (resid /. Cmat.norm_fro b < 1e-8) then
        Alcotest.failf "QR fallback residual too large: %.3g" resid);
  (* model evaluation goes through solve_robust, so a whole fit + sweep
     must survive the injected pivot failure too *)
  Fault.with_spec "lu.singular" (fun () ->
      match Engine.fit_result (samples 6) with
      | Error e ->
        Alcotest.failf "fit must survive LU breakdown: %s"
          (Mfti_error.to_string e)
      | Ok r ->
        Alcotest.(check bool) "model evaluable via QR path" true
          (finite_model r.Engine.model (samples 6)))

(* ------------------------------------------------------------------ *)
(* Domain pool: pool.worker *)

let test_pool_worker () =
  (* sample generation also routes through the pool, so build the
     fixture before arming the fault *)
  let smps = samples 6 in
  Fault.with_spec "pool.worker" (fun () ->
      (match Parallel.parallel_for_result ~context:"faults" 100 (fun _ _ -> ())
       with
       | Error (Mfti_error.Fault_injected { site }) ->
         Alcotest.(check string) "site" "pool.worker" site
       | Error e ->
         Alcotest.failf "expected Fault_injected, got %s"
           (Mfti_error.to_string e)
       | Ok () -> Alcotest.fail "armed pool.worker completed normally");
      (* a fit routed through the pool surfaces the same typed error *)
      match Engine.fit_result smps with
      | Error (Mfti_error.Fault_injected _) -> ()
      | Error e ->
        Alcotest.failf "expected Fault_injected, got %s"
          (Mfti_error.to_string e)
      | Ok _ -> Alcotest.fail "fit succeeded with a failing pool worker");
  (* the pool must be reusable after a worker fault: no deadlock, no
     poisoned state *)
  let sum = ref (Atomic.make 0) in
  Parallel.parallel_for 1000 (fun lo hi ->
      for i = lo to hi - 1 do
        ignore (Atomic.fetch_and_add !sum i)
      done);
  Alcotest.(check int) "pool healthy after fault" (1000 * 999 / 2)
    (Atomic.get !sum);
  match Engine.fit_result smps with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "fit after pool fault failed: %s" (Mfti_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Recursion: algorithm2.diverge *)

let test_algorithm2_diverge () =
  Fault.with_spec "algorithm2.diverge" (fun () ->
      let options = { Engine.default_recursive_options with batch = 1 } in
      match fit_recursive ~options (samples 12) with
      | Error e ->
        Alcotest.failf "divergence guard must not fail the fit: %s"
          (Mfti_error.to_string e)
      | Ok r ->
        Alcotest.(check bool) "divergence guard recorded" true
          (Diag.recorded r.Engine.diagnostics "algorithm2.divergence");
        Alcotest.(check bool) "best-so-far model evaluable" true
          (finite_model r.Engine.model (samples 12)))

(* ------------------------------------------------------------------ *)
(* Diagnostics are populated on clean runs too *)

let test_diagnostics_clean_fit () =
  (match Engine.fit_result (samples 8) with
   | Error e -> Alcotest.failf "clean fit failed: %s" (Mfti_error.to_string e)
   | Ok r ->
     let d = r.Engine.diagnostics in
     Alcotest.(check bool) "wall time measured" true (d.Diag.wall_time > 0.);
     Alcotest.(check bool) "condition estimated" true
       (match d.Diag.condition with Some c -> Float.is_finite c && c >= 1. | None -> false));
  let noisy = Rf.Noise.add_relative ~seed:7 ~level:1e-4 (samples 16) in
  match fit_recursive noisy with
  | Error e -> Alcotest.failf "noisy fit failed: %s" (Mfti_error.to_string e)
  | Ok r ->
    let d = r.Engine.diagnostics in
    Alcotest.(check bool) "wall time measured" true (d.Diag.wall_time > 0.);
    Alcotest.(check bool) "condition estimated" true
      (d.Diag.condition <> None)

(* ------------------------------------------------------------------ *)
(* Property-style fuzzing: corrupted inputs through the full pipeline
   must yield a typed error or a valid model, never an exception. *)

let typed_or_valid pp f =
  match f () with
  | Ok m -> pp m
  | Error (_ : Mfti_error.t) -> true
  | exception e ->
    Printf.eprintf "uncaught exception: %s\n" (Printexc.to_string e);
    false

let fuzz_touchstone =
  QCheck.Test.make ~count:200 ~name:"fuzz: corrupted Touchstone text"
    QCheck.(triple small_nat small_nat printable_string)
    (fun (cut, pos, garbage) ->
      (* splice garbage into (a possibly truncated copy of) a valid
         file at an arbitrary offset *)
      let base = touchstone_text in
      let len = String.length base in
      let keep = len - (cut mod (len / 2)) in
      let base = String.sub base 0 keep in
      let pos = pos mod (String.length base + 1) in
      let text =
        String.sub base 0 pos ^ garbage
        ^ String.sub base pos (String.length base - pos)
      in
      typed_or_valid
        (fun (t : Rf.Touchstone.t) -> Array.length t.Rf.Touchstone.samples > 0)
        (fun () ->
          Rf.Touchstone.parse_result ~policy:Rf.Touchstone.Lenient ~nports:3
            text))

let fuzz_poisoned_fit =
  QCheck.Test.make ~count:50 ~name:"fuzz: NaN-poisoned samples through fits"
    QCheck.(triple (int_bound 5) (int_bound 2) (int_bound 2))
    (fun (k, i, j) ->
      let smps = Array.map (fun (s : Sampling.sample) ->
          { s with Sampling.s = Cmat.copy s.Sampling.s }) (samples 6)
      in
      Cmat.set smps.(k).Sampling.s i j (Cx.make Float.nan 0.);
      typed_or_valid
        (fun (r : Engine.fit) -> finite_model r.Engine.model smps)
        (fun () -> Engine.fit_result smps))

let fuzz_bad_frequencies =
  QCheck.Test.make ~count:50 ~name:"fuzz: corrupted frequency grids"
    QCheck.(pair (int_bound 5) (oneofl [ Float.nan; Float.infinity; 0.; -1. ]))
    (fun (k, bad) ->
      let smps = Array.map (fun (s : Sampling.sample) -> s) (samples 6) in
      smps.(k) <- { smps.(k) with Sampling.freq = bad };
      typed_or_valid
        (fun (r : Engine.fit) -> finite_model r.Engine.model smps)
        (fun () -> fit_recursive smps))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [ ( "parse",
        [ Alcotest.test_case "touchstone.corrupt strict -> typed error" `Quick
            test_touchstone_corrupt_strict;
          Alcotest.test_case "touchstone.corrupt lenient -> recovers" `Quick
            test_touchstone_corrupt_lenient ] );
      ( "input",
        [ Alcotest.test_case "sample.corrupt -> Validation" `Quick
            test_sample_corrupt ] );
      ( "linalg",
        [ Alcotest.test_case "loewner.poison -> Numerical_breakdown" `Quick
            test_loewner_poison;
          Alcotest.test_case "svd.no_converge -> degraded model" `Quick
            test_svd_no_converge_degrades;
          Alcotest.test_case "svd.no_converge -> GK falls back to Jacobi"
            `Quick test_svd_gk_fallback;
          Alcotest.test_case "svd.rsvd.degrade -> exact-cascade fallback"
            `Quick test_rsvd_degrade_fallback;
          Alcotest.test_case "lu.singular -> QR fallback" `Quick
            test_lu_singular_qr_fallback ] );
      ( "pool",
        [ Alcotest.test_case "pool.worker -> typed error, pool reusable"
            `Quick test_pool_worker ] );
      ( "recursion",
        [ Alcotest.test_case "algorithm2.diverge -> best-so-far model" `Quick
            test_algorithm2_diverge ] );
      ( "diagnostics",
        [ Alcotest.test_case "populated on clean and noisy fits" `Quick
            test_diagnostics_clean_fit ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ fuzz_touchstone; fuzz_poisoned_fit; fuzz_bad_frequencies ] ) ]
