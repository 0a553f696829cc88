(* Tests for the certification pipeline: stability + passivity checks,
   perturbative repair, typed refusals, fault-site determinism, the
   engine's certify stage, version-2 artifacts (with version-1
   backward compatibility) and the serving layer's admission policy. *)

open Linalg
open Statespace
open Mfti

let cx re im = Cx.make re im

let check_close ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let fail_error what e = Alcotest.failf "%s: %s" what (Mfti_error.to_string e)

let same_float what x y =
  if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) then
    Alcotest.failf "%s: %h <> %h" what x y

(* ------------------------------------------------------------------ *)
(* Fixtures *)

(* S(s) = g/(s+1): passive for g <= 1, worst margin g - 1 at DC *)
let siso_gain g =
  Descriptor.of_state_space
    ~a:(Cmat.scalar (cx (-1.) 0.)) ~b:(Cmat.scalar Cx.one)
    ~c:(Cmat.scalar (cx g 0.)) ~d:(Cmat.scalar Cx.zero)

let passive_sys = siso_gain 0.5
(* worst sampled margin 0.05 at DC: curable with one contraction *)
let mild_violator = siso_gain 1.05
(* worst margin 1.0 at DC: far beyond the default repair limit 0.25 *)
let incurable = siso_gain 2.0

(* pole at +0.7 (not +1: that lands exactly on the shift the pole
   solver picks for a unit-norm pencil); reflection sends it to -0.7
   and the transfer stays small *)
let unstable_sys =
  Descriptor.of_state_space
    ~a:(Cmat.scalar (cx 0.7 0.)) ~b:(Cmat.scalar Cx.one)
    ~c:(Cmat.scalar (cx 0.5 0.)) ~d:(Cmat.scalar Cx.zero)

(* the violation band of the siso fixtures lives below ~0.05 Hz *)
let low_freqs = Sampling.logspace 1e-3 1e1 40

let run_ok ?options what sys =
  match Certify.run ?options ~freqs:low_freqs sys with
  | Ok r -> r
  | Error e -> fail_error what e

let cert_of what = function
  | _, Some c -> c
  | _, None -> Alcotest.failf "%s: no certificate" what

(* noisy scattering fit of a small PDN — the Table-1 regime the
   pipeline exists for *)
let pdn_spec seed =
  { Rf.Pdn.default_spec with nx = 3; ny = 3; ports = 2; decaps = 2; seed }

let noisy_fit seed =
  let truth = Rf.Pdn.scattering_model (pdn_spec seed) ~z0:50. in
  let grid = Sampling.linspace 1e6 2e9 60 in
  let clean = Sampling.sample_system truth grid in
  (Rf.Noise.add_relative ~seed ~level:1e-3 clean, clean)

let fit_options certify =
  { Engine.default_options with
    rank_rule = Svd_reduce.Tol 3e-3;
    certify }

(* ------------------------------------------------------------------ *)
(* Certify.run modes *)

let test_certify_off () =
  match Certify.run ~options:{ Certify.default_options with mode = Certify.Off }
          ~freqs:low_freqs mild_violator with
  | Ok (sys, None) ->
    Alcotest.(check bool) "model untouched" true (sys == mild_violator)
  | Ok (_, Some _) -> Alcotest.fail "Off mode produced a certificate"
  | Error e -> fail_error "off" e

let test_certify_check_records_without_modifying () =
  let options = { Certify.default_options with mode = Certify.Check } in
  let sys, c = run_ok ~options "check" mild_violator in
  let c = cert_of "check" (sys, Some (Option.get c)) in
  Alcotest.(check bool) "model untouched" true (sys == mild_violator);
  Alcotest.(check bool) "stable recorded" true c.Certify.Certificate.stable;
  Alcotest.(check bool) "defect recorded" false c.Certify.Certificate.passive;
  Alcotest.(check bool) "not passed" false (Certify.Certificate.passed c);
  Alcotest.(check int) "no repairs" 0 c.Certify.Certificate.repair_iterations;
  check_close ~tol:1e-3 "worst margin is the DC excess" 0.05
    c.Certify.Certificate.worst_margin;
  same_float "pre = post when untouched" c.Certify.Certificate.worst_margin
    c.Certify.Certificate.pre_margin;
  same_float "untouched fit delta" 0. c.Certify.Certificate.fit_delta;
  (* an incurable model is still only recorded, never refused *)
  let _, c2 = run_ok ~options "check incurable" incurable in
  let c2 = Option.get c2 in
  Alcotest.(check bool) "incurable recorded" false
    (Certify.Certificate.passed c2);
  check_close ~tol:1e-2 "incurable margin" 1.0 c2.Certify.Certificate.worst_margin

let test_certify_repairs_mild_violation () =
  let repaired, c = run_ok "repair" mild_violator in
  let c = cert_of "repair" (repaired, c) in
  Alcotest.(check bool) "passed" true (Certify.Certificate.passed c);
  Alcotest.(check int) "no pole flips" 0 c.Certify.Certificate.flipped;
  Alcotest.(check bool) "at least one repair" true
    (c.Certify.Certificate.repair_iterations >= 1);
  check_close ~tol:1e-3 "pre-repair margin" 0.05
    c.Certify.Certificate.pre_margin;
  Alcotest.(check bool) "post-repair margin within tolerance" true
    (c.Certify.Certificate.worst_margin <= 1e-6);
  Alcotest.(check bool) "repair cost recorded" true
    (c.Certify.Certificate.fit_delta > 0.);
  (* independent verdicts on the repaired realization *)
  (match Rf.Passivity.check repaired with
   | Rf.Passivity.Passive -> ()
   | _ -> Alcotest.fail "repaired model fails an independent check");
  Alcotest.(check bool) "sampled margin gone" true
    (Rf.Passivity.max_violation repaired ~freqs:low_freqs <= 1e-6)

let test_certify_clean_model_bit_identical () =
  let sys, c = run_ok "clean" passive_sys in
  let c = cert_of "clean" (sys, c) in
  Alcotest.(check bool) "same realization" true (sys == passive_sys);
  Alcotest.(check bool) "passed" true (Certify.Certificate.passed c);
  Alcotest.(check int) "no repairs" 0 c.Certify.Certificate.repair_iterations;
  same_float "no fit delta" 0. c.Certify.Certificate.fit_delta

let test_certify_reflects_unstable () =
  let repaired, c = run_ok "unstable" unstable_sys in
  let c = cert_of "unstable" (repaired, c) in
  Alcotest.(check bool) "stable now" true (Poles.is_stable repaired);
  Alcotest.(check bool) "passed" true (Certify.Certificate.passed c);
  Alcotest.(check int) "one flip" 1 c.Certify.Certificate.flipped;
  Alcotest.(check bool) "reflection cost recorded" true
    (c.Certify.Certificate.fit_delta > 0.)

let test_certify_incurable_refusal () =
  match Certify.run ~freqs:low_freqs incurable with
  | Error (Mfti_error.Numerical_breakdown nb) ->
    Alcotest.(check string) "context" "certify" nb.context;
    (match nb.condition with
     | Some m -> Alcotest.(check bool) "margin reported" true (m > 0.25)
     | None -> Alcotest.fail "margin missing from the refusal")
  | Error e -> Alcotest.failf "wrong error class: %s" (Mfti_error.to_string e)
  | Ok _ -> Alcotest.fail "incurable model certified"

let test_certify_passivity_opt_out () =
  (* Y/Z-parameter data: bounded-realness is not the gate *)
  let options = { Certify.default_options with check_passivity = false } in
  let sys, c = run_ok ~options "opt-out" incurable in
  let c = cert_of "opt-out" (sys, c) in
  Alcotest.(check bool) "model untouched" true (sys == incurable);
  Alcotest.(check bool) "vacuously passed" true (Certify.Certificate.passed c);
  Alcotest.(check bool) "margin unknown" true
    (Float.is_nan c.Certify.Certificate.worst_margin)

(* ------------------------------------------------------------------ *)
(* Fault sites *)

let test_fault_unstable () =
  (* repair: the post-reflection re-check fails -> typed breakdown *)
  (match Fault.with_spec "certify.unstable"
           (fun () -> Certify.run ~freqs:low_freqs passive_sys) with
   | Error (Mfti_error.Numerical_breakdown nb) ->
     Alcotest.(check string) "context" "certify" nb.context
   | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
   | Ok _ -> Alcotest.fail "forced-unstable model certified");
  (* check mode only records the defect *)
  let options = { Certify.default_options with mode = Certify.Check } in
  let c =
    Fault.with_spec "certify.unstable" (fun () ->
        cert_of "fault check" (run_ok ~options "fault check" passive_sys))
  in
  Alcotest.(check bool) "stable = false" false c.Certify.Certificate.stable;
  Alcotest.(check bool) "not passed" false (Certify.Certificate.passed c)

let test_fault_passivity_violation () =
  match Fault.with_spec "certify.passivity_violation"
          (fun () -> Certify.run ~freqs:low_freqs passive_sys) with
  | Error (Mfti_error.Numerical_breakdown nb) ->
    Alcotest.(check string) "context" "certify" nb.context
  | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
  | Ok _ -> Alcotest.fail "poisoned margin certified"

let test_fault_repair_stall () =
  match Fault.with_spec "certify.repair_stall"
          (fun () -> Certify.run ~freqs:low_freqs passive_sys) with
  | Error (Mfti_error.Non_convergence nc) ->
    Alcotest.(check string) "context" "certify" nc.context;
    Alcotest.(check int) "retry budget exhausted" 8 nc.iterations
  | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
  | Ok _ -> Alcotest.fail "stalled repair loop certified"

(* ------------------------------------------------------------------ *)
(* Engine integration *)

let test_engine_certify_stage () =
  let noisy, clean = noisy_fit 12 in
  let fit =
    match Engine.fit_result ~options:(fit_options Certify.Repair) noisy with
    | Ok f -> f
    | Error e -> fail_error "engine fit" e
  in
  let c =
    match fit.Engine.certificate with
    | Some c -> c
    | None -> Alcotest.fail "certify stage produced no certificate"
  in
  Alcotest.(check bool) "certified" true (Certify.Certificate.passed c);
  Alcotest.(check bool) "certify stage timed" true
    (List.mem_assoc "certify" fit.Engine.timings);
  (* the certified model still fits the clean data *)
  let m = Engine.Model.of_fit fit in
  Alcotest.(check bool) "certificate carried by the model" true
    (Engine.Model.certificate m <> None);
  Alcotest.(check bool) "fit survives certification" true
    (Engine.Model.err m clean < 0.05);
  (* Off skips the stage *)
  match Engine.fit_result ~options:(fit_options Certify.Off) noisy with
  | Ok f -> Alcotest.(check bool) "no certificate" true (f.Engine.certificate = None)
  | Error e -> fail_error "engine fit (off)" e

let test_engine_staged_certify () =
  let noisy, _ = noisy_fit 41 in
  let dataset = Dataset.of_samples noisy in
  let st =
    match Engine.ingest ~options:(fit_options Certify.Check) dataset with
    | Ok st -> st
    | Error e -> fail_error "ingest" e
  in
  (match Engine.certify st with
   | Ok () -> ()
   | Error e -> fail_error "certify (runs earlier stages)" e);
  Alcotest.(check bool) "stage is Certified" true
    (Engine.stage st = Engine.Certified);
  let m = match Engine.model st with Ok m -> m | Error e -> fail_error "model" e in
  Alcotest.(check bool) "model carries the certificate" true
    (Engine.Model.certificate m <> None)

(* ------------------------------------------------------------------ *)
(* Artifacts: version 2 round trip, version 1 backward compatibility *)

let model_with_cert () =
  let repaired, c = run_ok "artifact fixture" mild_violator in
  Engine.Model.make ?certificate:c ~rank:(Descriptor.order repaired) repaired

let same_cert what (a : Certify.Certificate.t) (b : Certify.Certificate.t) =
  Alcotest.(check bool) (what ^ " stable") a.stable b.stable;
  Alcotest.(check bool) (what ^ " passive") a.passive b.passive;
  Alcotest.(check int) (what ^ " flipped") a.flipped b.flipped;
  Alcotest.(check int) (what ^ " repairs") a.repair_iterations
    b.repair_iterations;
  same_float (what ^ " worst margin") a.worst_margin b.worst_margin;
  same_float (what ^ " pre margin") a.pre_margin b.pre_margin;
  same_float (what ^ " fit delta") a.fit_delta b.fit_delta

let test_artifact_v2_round_trip () =
  let m = model_with_cert () in
  let art = Serve.Artifact.v ~name:"certified" ~fit_err:1e-3 ~created:1.7e9 m in
  let s = Serve.Artifact.to_string art in
  let got =
    match Serve.Artifact.of_string s with
    | Ok a -> a
    | Error e -> fail_error "decode v2" e
  in
  same_cert "round trip"
    (Option.get (Engine.Model.certificate art.Serve.Artifact.model))
    (Option.get (Engine.Model.certificate got.Serve.Artifact.model));
  (* deterministic: re-encoding reproduces the bytes *)
  Alcotest.(check bool) "bitwise stable" true
    (String.equal s (Serve.Artifact.to_string got));
  (* NaN margins (passivity skipped) must round-trip too *)
  let options = { Certify.default_options with check_passivity = false } in
  let sys, c = run_ok ~options "nan fixture" passive_sys in
  let m2 = Engine.Model.make ?certificate:c ~rank:1 sys in
  let s2 = Serve.Artifact.to_string (Serve.Artifact.v ~created:1.7e9 m2) in
  (match Serve.Artifact.of_string s2 with
   | Ok a ->
     let c2 = Option.get (Engine.Model.certificate a.Serve.Artifact.model) in
     Alcotest.(check bool) "NaN margin round-trips" true
       (Float.is_nan c2.Certify.Certificate.worst_margin)
   | Error e -> fail_error "decode NaN cert" e)

(* the artifact checksum, reimplemented so the test can forge a valid
   version-1 file: CRC-32 (IEEE 802.3), reflected, poly 0xEDB88320 *)
let crc32 s =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let test_artifact_v1_backcompat () =
  (* an uncertified v2 body is the v1 body plus one zero flag byte:
     strip it, patch the version field to 1, re-checksum — exactly the
     bytes a version-1 writer would have produced *)
  let m = Engine.Model.make ~rank:1 passive_sys in
  let v2 = Serve.Artifact.to_string (Serve.Artifact.v ~name:"legacy" ~created:1.6e9 m) in
  let n = String.length v2 in
  same_float "fixture is uncertified" 0.
    (float_of_int (Char.code v2.[n - 5]));
  let body = String.sub v2 0 (n - 5) in
  let body = Bytes.of_string body in
  Bytes.set_int32_le body 8 1l;  (* version u32 follows the 8-byte magic *)
  let body = Bytes.to_string body in
  let crc = Bytes.create 4 in
  Bytes.set_int32_le crc 0 (crc32 body);
  let v1 = body ^ Bytes.to_string crc in
  (match Serve.Artifact.of_string v1 with
   | Ok a ->
     Alcotest.(check string) "name" "legacy" a.Serve.Artifact.name;
     Alcotest.(check bool) "uncertified" true
       (Engine.Model.certificate a.Serve.Artifact.model = None);
     Alcotest.(check int) "order" 1
       (Descriptor.order (Engine.Model.descriptor a.Serve.Artifact.model))
   | Error e -> fail_error "decode v1" e);
  (* a truncated v1 (cert flag missing without the version patch) is
     rejected, not half-loaded *)
  let crc_bad = Bytes.create 4 in
  Bytes.set_int32_le crc_bad 0 (crc32 (String.sub v2 0 (n - 5)));
  match Serve.Artifact.of_string (String.sub v2 0 (n - 5) ^ Bytes.to_string crc_bad) with
  | Error (Mfti_error.Parse _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Mfti_error.to_string e)
  | Ok _ -> Alcotest.fail "v2 without a cert flag accepted"

(* ------------------------------------------------------------------ *)
(* Serve admission policy *)

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mfti_certify_test_%d_%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let j_mem k = function
  | Serve.Sjson.Obj kvs ->
    (try List.assoc k kvs
     with Not_found -> Alcotest.failf "missing member %S" k)
  | _ -> Alcotest.failf "not an object looking for %S" k

let j_bool k j =
  match j_mem k j with
  | Serve.Sjson.Bool b -> b
  | _ -> Alcotest.failf "%S is not a bool" k

let j_num k j =
  match j_mem k j with
  | Serve.Sjson.Num x -> x
  | _ -> Alcotest.failf "%S is not a number" k

let j_str k j =
  match j_mem k j with
  | Serve.Sjson.Str s -> s
  | _ -> Alcotest.failf "%S is not a string" k

let admission_root =
  lazy
    (let dir = fresh_dir () in
     let save id m =
       Serve.Artifact.save
         (Filename.concat dir (id ^ ".mfti"))
         (Serve.Artifact.v ~name:id ~created:1.7e9 m)
     in
     save "certified" (model_with_cert ());
     save "plain" (Engine.Model.make ~rank:1 passive_sys);
     let options = { Certify.default_options with mode = Certify.Check } in
     let _, c = run_ok ~options "failed fixture" incurable in
     save "failed" (Engine.Model.make ?certificate:c ~rank:1 incurable);
     dir)

let request srv line =
  let text, _ = Serve.Server.handle_line srv line in
  Serve.Sjson.parse text

let info_req id = Printf.sprintf {|{"op":"model-info","model":%S}|} id

let test_admission_strict () =
  let srv =
    Serve.Server.create ~admission:Serve.Server.Strict
      ~root:(Lazy.force admission_root) ()
  in
  let j = request srv (info_req "certified") in
  Alcotest.(check bool) "certified admitted" true (j_bool "ok" j);
  let cert = j_mem "certificate" j in
  Alcotest.(check bool) "certificate published" true (j_bool "passed" cert);
  Alcotest.(check bool) "margin published" true
    (j_num "worst_margin" cert <= 1e-6);
  List.iter
    (fun id ->
      let j = request srv (info_req id) in
      Alcotest.(check bool) (id ^ " refused") false (j_bool "ok" j);
      Alcotest.(check string) (id ^ " typed") "validation"
        (j_str "kind" (j_mem "error" j)))
    [ "plain"; "failed" ];
  let stats = request srv {|{"op":"stats"}|} in
  let adm = j_mem "admission" stats in
  Alcotest.(check string) "policy" "strict" (j_str "policy" adm);
  check_close ~tol:0. "refused count" 2. (j_num "refused" adm);
  check_close ~tol:0. "warned count" 0. (j_num "warned" adm)

let test_admission_warn_and_open () =
  let root = Lazy.force admission_root in
  let warn = Serve.Server.create ~root () in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " served under warn") true
        (j_bool "ok" (request warn (info_req id))))
    [ "certified"; "plain"; "failed" ];
  let adm = j_mem "admission" (request warn {|{"op":"stats"}|}) in
  Alcotest.(check string) "default policy" "warn" (j_str "policy" adm);
  check_close ~tol:0. "warned" 2. (j_num "warned" adm);
  check_close ~tol:0. "refused" 0. (j_num "refused" adm);
  let opened =
    Serve.Server.create ~admission:Serve.Server.Open ~root ()
  in
  Alcotest.(check bool) "open serves everything" true
    (j_bool "ok" (request opened (info_req "plain")));
  let adm = j_mem "admission" (request opened {|{"op":"stats"}|}) in
  check_close ~tol:0. "open counts nothing" 0.
    (j_num "warned" adm +. j_num "refused" adm);
  (* uncertified models publish a null certificate *)
  match j_mem "certificate" (request opened (info_req "plain")) with
  | Serve.Sjson.Null -> ()
  | _ -> Alcotest.fail "uncertified model published a certificate"

(* ------------------------------------------------------------------ *)
(* Property: the noisy regime always ends certified or typed *)

let test_noisy_fits_certified_or_refused () =
  let certified = ref 0 in
  List.iter
    (fun seed ->
      let noisy, _ = noisy_fit seed in
      match Engine.fit_result ~options:(fit_options Certify.Repair) noisy with
      | Ok f ->
        let c =
          match f.Engine.certificate with
          | Some c -> c
          | None -> Alcotest.failf "seed %d: certified fit has no evidence" seed
        in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d passes" seed) true
          (Certify.Certificate.passed c);
        (* the certificate is honest: an independent Hamiltonian check
           agrees *)
        (match Rf.Passivity.check f.Engine.model with
         | Rf.Passivity.Passive -> ()
         | _ -> Alcotest.failf "seed %d: certificate disagrees with check" seed);
        incr certified
      | Error (Mfti_error.Numerical_breakdown _)
      | Error (Mfti_error.Non_convergence _) -> ()  (* typed refusal: fine *)
      | Error e -> Alcotest.failf "seed %d: wrong refusal class: %s" seed
                     (Mfti_error.to_string e))
    [ 1; 2; 3; 5; 8 ];
  (* the regime is curable in practice: most seeds must certify *)
  Alcotest.(check bool) "majority certified" true (!certified >= 3)

(* ------------------------------------------------------------------ *)
(* The exactly-real path: Hessenberg sweep and the crossing rule *)

(* the reduce-plane device: a 64x64 resistive plane, 8 ports, 16 decaps,
   Krylov-reduced over 1e5-1e9 Hz to an exactly real order-92 model
   with sigma_max D = 1 *)
let plane_model =
  lazy
    (let spec =
       { Rf.Pdn.default_spec with
         nx = 64; ny = 64; ports = 8; decaps = 16; plane_rl = false; seed = 7 }
     in
     let options =
       { Krylov.default_options with
         f_lo = 1e5; f_hi = 1e9; shifts = 8; max_order = 240; tol = 1e-6;
         z0 = Some 50. }
     in
     match Krylov.reduce ~options (Krylov.of_mna (Rf.Pdn.build spec)) with
     | Ok kr -> Engine.Model.descriptor kr.Krylov.model
     | Error e -> fail_error "plane reduce" e)

let plane_freqs = Sampling.logspace 1e5 1e9 64

let check_sweep_agrees what sys freqs =
  let grid = Descriptor.eval_grid sys freqs in
  Array.iteri
    (fun i f ->
      let h = Descriptor.eval_freq sys f in
      let rel = Cmat.norm_fro (Cmat.sub grid.(i) h) /. Cmat.norm_fro h in
      if not (rel <= 1e-10) then
        Alcotest.failf "%s: sweep and eval_freq differ by %.3g at %g Hz" what
          rel f)
    freqs

let test_sweep_agrees_with_eval () =
  let freqs = Array.append [| 0. |] low_freqs in
  List.iter
    (fun (what, sys) -> check_sweep_agrees what sys freqs)
    [ ("passive", passive_sys); ("mild", mild_violator);
      ("incurable", incurable); ("unstable", unstable_sys) ];
  List.iter
    (fun seed ->
      let noisy, _ = noisy_fit seed in
      match Engine.fit_result ~options:(fit_options Certify.Off) noisy with
      | Ok f ->
        check_sweep_agrees (Printf.sprintf "fit %d" seed) f.Engine.model
          (Array.append [| 0. |]
             (Array.map (fun s -> s.Sampling.freq) noisy))
      | Error e -> fail_error "fit" e)
    [ 12; 41 ];
  check_sweep_agrees "plane" (Lazy.force plane_model)
    (Array.append [| 0.; 1e3 |] plane_freqs)

let test_sweep_singular_point () =
  (* poles at +-jw0 on the axis: s I - A is exactly singular at f0, so
     the sweep's elimination meets a zero pivot and hands the point to
     eval_freq, whose LU takes the column-pivoted QR fallback *)
  let f0 = 3. in
  let w0 = 2. *. Float.pi *. f0 in
  let sys =
    Descriptor.of_state_space
      ~a:(Cmat.of_rows [ [ Cx.zero; cx (-.w0) 0. ]; [ cx w0 0.; Cx.zero ] ])
      ~b:(Cmat.identity 2) ~c:(Cmat.identity 2) ~d:(Cmat.zeros 2 2)
  in
  let grid, diag = Diag.with_collector (fun () -> Descriptor.eval_grid sys [| 1.; f0 |]) in
  let direct, _ = Diag.with_collector (fun () -> Descriptor.eval_freq sys f0) in
  Alcotest.(check bool) "QR fallback recorded" true
    (Diag.recorded diag "lu.qr_fallback");
  Alcotest.(check bool) "today's fallback answer" true
    (Cmat.equal ~tol:0. direct grid.(1));
  check_sweep_agrees "regular point" sys [| 1. |];
  (* the lu.singular fault keeps every point on the per-point LU path *)
  let _, faulted =
    Fault.with_spec "lu.singular" (fun () ->
        Diag.with_collector (fun () -> Descriptor.eval_grid sys [| 1. |]))
  in
  Alcotest.(check bool) "fault reaches the per-point LU" true
    (Diag.recorded faulted "lu.qr_fallback")

let test_plane_certified_in_check_mode () =
  (* the Hamiltonian of this model is scaled 1.9e14 (R = gamma^2 I - D^T D
     ~ 2e-6 I) and has a real eigenvalue pair near +-7.8e5; a complex QR
     returns it with Im ~ 0.04, which used to count as a crossing at
     0.0069 Hz although sigma_max S - 1 ~ -2.3e-4 there *)
  let sys = Lazy.force plane_model in
  Alcotest.(check int) "order" 92 (Descriptor.order sys);
  (* a complex-typed copy runs the complex kernel, which still returns
     the pair off the real axis: the singular-value confirmation must
     reject it there too *)
  let complex_typed =
    let a = Cmat.copy sys.Descriptor.a in
    let a00 = Cmat.get a 0 0 in
    Cmat.set a 0 0 (cx a00.Cx.re (1e-30 *. abs_float a00.Cx.re));
    Descriptor.create ~e:sys.Descriptor.e ~a ~b:sys.Descriptor.b
      ~c:sys.Descriptor.c ~d:sys.Descriptor.d
  in
  List.iter
    (fun (what, s) ->
      match Rf.Passivity.check s with
      | Rf.Passivity.Passive -> ()
      | Rf.Passivity.Violations fs ->
        Alcotest.failf "%s: spurious crossings at %s Hz" what
          (String.concat ", " (List.map (Printf.sprintf "%.3g") fs))
      | Rf.Passivity.Feedthrough_violation s ->
        Alcotest.failf "%s: feedthrough %g" what s)
    [ ("real", sys); ("complex-typed", complex_typed) ];
  let options = { Certify.default_options with mode = Certify.Check } in
  match Certify.run ~options ~freqs:plane_freqs sys with
  | Ok (_, Some c) ->
    Alcotest.(check bool) "certified" true (Certify.Certificate.passed c);
    Alcotest.(check bool) "stable" true c.Certify.Certificate.stable
  | Ok (_, None) -> Alcotest.fail "no certificate"
  | Error e -> fail_error "check" e

let test_rl_plane_certified_in_check_mode () =
  (* `gen pdn --grid 16x16 --ports 8 --netlist`: RL plane segments, so
     the MNA pencil has inductive branch rows.  Stamped in PRIMA's sign
     convention (C = diag(Cn, L) and G + G^T both semidefinite), the
     congruence-projected model keeps every pole in the left half
     plane; with the branch rows negated it had real right-half-plane
     poles and failed the certificate as unstable. *)
  let spec =
    { Rf.Pdn.default_spec with
      nx = 16; ny = 16; ports = 8; decaps = 4; plane_rl = true; seed = 0 }
  in
  let options =
    { Krylov.default_options with
      f_lo = 1e5; f_hi = 1e9; shifts = 8; max_order = 240; tol = 1e-6;
      z0 = Some 50. }
  in
  let kr =
    match Krylov.reduce ~options (Krylov.of_mna (Rf.Pdn.build spec)) with
    | Ok kr -> kr
    | Error e -> fail_error "rl plane reduce" e
  in
  let certify = { Certify.default_options with mode = Certify.Check } in
  match Engine.Model.certify ~options:certify ~freqs:plane_freqs kr.Krylov.model with
  | Error e -> fail_error "check" e
  | Ok m ->
    (match Engine.Model.certificate m with
     | None -> Alcotest.fail "no certificate"
     | Some c ->
       Alcotest.(check bool) "stable" true c.Certify.Certificate.stable;
       Alcotest.(check bool) "certified" true (Certify.Certificate.passed c))

let test_complex_hamiltonian_confirms_crossings () =
  (* a complex-typed copy of a violator takes the complex kernel, and
     the singular-value confirmation keeps its true crossing *)
  let sys = siso_gain 2.0 in
  let nudged =
    Descriptor.create ~e:sys.Descriptor.e ~a:(Cmat.scalar (cx (-1.) 1e-12))
      ~b:sys.Descriptor.b ~c:sys.Descriptor.c ~d:sys.Descriptor.d
  in
  List.iter
    (fun s ->
      match Rf.Passivity.check s with
      | Rf.Passivity.Violations [ f ] ->
        check_close ~tol:1e-5 "crossing" (sqrt 3. /. (2. *. Float.pi)) f
      | _ -> Alcotest.fail "true crossing lost")
    [ sys; nudged ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "certify"
    [ ("modes",
       [ Alcotest.test_case "off" `Quick test_certify_off;
         Alcotest.test_case "check records without modifying" `Quick
           test_certify_check_records_without_modifying;
         Alcotest.test_case "repairs mild violation" `Quick
           test_certify_repairs_mild_violation;
         Alcotest.test_case "clean model bit-identical" `Quick
           test_certify_clean_model_bit_identical;
         Alcotest.test_case "reflects unstable poles" `Quick
           test_certify_reflects_unstable;
         Alcotest.test_case "incurable refusal" `Quick
           test_certify_incurable_refusal;
         Alcotest.test_case "passivity opt-out" `Quick
           test_certify_passivity_opt_out ]);
      ("faults",
       [ Alcotest.test_case "certify.unstable" `Quick test_fault_unstable;
         Alcotest.test_case "certify.passivity_violation" `Quick
           test_fault_passivity_violation;
         Alcotest.test_case "certify.repair_stall" `Quick
           test_fault_repair_stall ]);
      ("engine",
       [ Alcotest.test_case "certify stage" `Quick test_engine_certify_stage;
         Alcotest.test_case "staged pipeline" `Quick
           test_engine_staged_certify ]);
      ("artifact",
       [ Alcotest.test_case "v2 round trip" `Quick test_artifact_v2_round_trip;
         Alcotest.test_case "v1 backward compatibility" `Quick
           test_artifact_v1_backcompat ]);
      ("admission",
       [ Alcotest.test_case "strict" `Quick test_admission_strict;
         Alcotest.test_case "warn and open" `Quick
           test_admission_warn_and_open ]);
      ("property",
       [ Alcotest.test_case "noisy fits certified or refused" `Quick
         test_noisy_fits_certified_or_refused ]);
      ("real path",
       [ Alcotest.test_case "sweep agrees with eval_freq" `Quick
           test_sweep_agrees_with_eval;
         Alcotest.test_case "sweep singular point" `Quick
           test_sweep_singular_point;
         Alcotest.test_case "plane certified in check mode" `Quick
           test_plane_certified_in_check_mode;
         Alcotest.test_case "rl plane krylov model certified" `Quick
           test_rl_plane_certified_in_check_mode;
         Alcotest.test_case "complex hamiltonian keeps crossings" `Quick
           test_complex_hamiltonian_confirms_crossings ]) ]
