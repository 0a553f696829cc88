(* Streaming fit sessions: bit-identity of [Session.finalize] against
   the one-shot batch fit, stage invalidation on append, atomic batch
   vetting, the session fault sites, and adaptive frequency
   suggestion. *)

open Linalg
open Statespace
open Mfti

let spec ports seed =
  { Random_sys.order = 10; ports; rank_d = ports; freq_lo = 100.;
    freq_hi = 1e5; damping = 0.1; seed }

let samples ~ports ~seed k =
  let sys = Random_sys.generate (spec ports seed) in
  Sampling.sample_system sys (Sampling.logspace 100. 1e5 k)

let check_cmat msg a b =
  if not (Cmat.equal ~tol:0. a b) then Alcotest.failf "%s: matrices differ" msg

let check_descriptor msg (a : Descriptor.t) (b : Descriptor.t) =
  check_cmat (msg ^ " E") a.Descriptor.e b.Descriptor.e;
  check_cmat (msg ^ " A") a.Descriptor.a b.Descriptor.a;
  check_cmat (msg ^ " B") a.Descriptor.b b.Descriptor.b;
  check_cmat (msg ^ " C") a.Descriptor.c b.Descriptor.c;
  check_cmat (msg ^ " D") a.Descriptor.d b.Descriptor.d

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.fail (Mfti_error.to_string e)

(* Chop [smps] into batches of the cyclic sizes in [pattern]. *)
let chunks pattern smps =
  let n = Array.length smps in
  let out = ref [] and i = ref 0 and pi = ref 0 in
  while !i < n do
    let len = Stdlib.min pattern.(!pi mod Array.length pattern) (n - !i) in
    out := Array.sub smps !i len :: !out;
    i := !i + len;
    pi := !pi + 1
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Bit-identity: streamed appends + finalize == one-shot Direct fit *)

(* The acceptance property: over port counts and sample-pool sizes,
   any batch chunking of the stream finalizes to the bit-exact model
   of the batch path — matrices, rank and singular values alike. *)
let test_finalize_bit_identity () =
  List.iter
    (fun (ports, pool, pattern, seed) ->
      let smps = samples ~ports ~seed pool in
      let options = Engine.default_options in
      let batch_fit =
        Engine.run_exn ~options ~strategy:Engine.Direct
          (Dataset.of_samples smps)
      in
      let sess = ok (Engine.Session.open_ ~options ~inputs:ports
                       ~outputs:ports ()) in
      List.iter
        (fun b -> ignore (ok (Engine.Session.append sess b)))
        (chunks pattern smps);
      let m = ok (Engine.Session.finalize sess) in
      let msg = Printf.sprintf "ports %d pool %d" ports pool in
      check_descriptor msg (Engine.Model.descriptor m)
        batch_fit.Engine.model;
      Alcotest.(check int) (msg ^ " rank") batch_fit.Engine.rank
        (Engine.Model.rank m);
      Alcotest.(check (array (float 0.))) (msg ^ " sigma")
        batch_fit.Engine.sigma (Engine.Model.sigma m))
    [ (2, 8, [| 1 |], 3);          (* one sample at a time *)
      (2, 12, [| 3; 1; 2 |], 5);   (* ragged batches splitting pairs *)
      (4, 12, [| 5; 7 |], 7);
      (4, 16, [| 16 |], 9);        (* one shot through the session *)
      (8, 12, [| 2 |], 11);
      (8, 16, [| 7; 3; 6 |], 13) ]

(* Same property with interleaved refits (model queries between
   appends must not perturb the final bits) and across domain counts. *)
let test_finalize_bit_identity_refits () =
  let ports = 4 and pool = 12 in
  let smps = samples ~ports ~seed:17 pool in
  let options = { Engine.default_options with certify = Certify.Check } in
  let batch_fit =
    Engine.run_exn ~options ~strategy:Engine.Direct (Dataset.of_samples smps)
  in
  List.iter
    (fun ndom ->
      Parallel.set_domain_count ndom;
      Fun.protect ~finally:(fun () -> Parallel.set_domain_count 1)
        (fun () ->
          let sess = ok (Engine.Session.open_ ~options ~inputs:ports
                           ~outputs:ports ()) in
          List.iter
            (fun b ->
              ignore (ok (Engine.Session.append sess b));
              (* refit between every batch: downstream stages rerun *)
              ignore (ok (Engine.Session.model sess)))
            (chunks [| 4 |] smps);
          let m = ok (Engine.Session.finalize sess) in
          let msg = Printf.sprintf "domains %d" ndom in
          check_descriptor msg (Engine.Model.descriptor m)
            batch_fit.Engine.model;
          (match Engine.Model.certificate m with
           | Some _ -> ()
           | None -> Alcotest.fail (msg ^ ": finalize lost the certificate"))))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Invalidation tracking *)

let test_append_invalidation () =
  let smps = samples ~ports:2 ~seed:23 12 in
  let sess = ok (Engine.Session.open_ ~inputs:2 ~outputs:2 ()) in
  Alcotest.(check bool) "starts Ingested" true
    (Engine.Session.stage sess = Engine.Ingested);
  let inv = ok (Engine.Session.append sess (Array.sub smps 0 6)) in
  Alcotest.(check bool) "first append invalidates nothing" true (inv = []);
  Alcotest.(check bool) "assembled after first pair" true
    (Engine.Session.stage sess = Engine.Assembled);
  ignore (ok (Engine.Session.model sess));
  Alcotest.(check bool) "reduced after model" true
    (Engine.Session.stage sess = Engine.Reduced);
  let c1 = Engine.Session.counters sess in
  Alcotest.(check int) "one refit" 1 c1.Engine.Session.refits;
  (* an append drops exactly the downstream caches *)
  let inv = ok (Engine.Session.append sess (Array.sub smps 6 4)) in
  Alcotest.(check bool) "append invalidates reduce + realify" true
    (inv = [ Engine.Reduced; Engine.Realified ]);
  Alcotest.(check bool) "back to assembled" true
    (Engine.Session.stage sess = Engine.Assembled);
  Alcotest.(check bool) "invalidated is recorded" true
    (Engine.Session.invalidated sess = [ Engine.Reduced; Engine.Realified ]);
  (* hold-out appends never invalidate *)
  ignore (ok (Engine.Session.model sess));
  let inv = ok (Engine.Session.append ~holdout:true sess
                  (Array.sub smps 10 2)) in
  Alcotest.(check bool) "holdout append invalidates nothing" true (inv = []);
  Alcotest.(check bool) "still reduced" true
    (Engine.Session.stage sess = Engine.Reduced);
  let c2 = Engine.Session.counters sess in
  Alcotest.(check int) "two refits" 2 c2.Engine.Session.refits;
  Alcotest.(check int) "ten fit samples" 10 c2.Engine.Session.appended;
  Alcotest.(check int) "two held out" 2 c2.Engine.Session.held_out;
  let err = ok (Engine.Session.holdout_err sess) in
  (match err with
   | Some e -> Alcotest.(check bool) "holdout err finite" true
                 (Float.is_finite e)
   | None -> Alcotest.fail "holdout err missing")

(* ------------------------------------------------------------------ *)
(* Pending slot and batch atomicity *)

let test_pending_and_atomicity () =
  let smps = samples ~ports:2 ~seed:29 9 in
  let sess = ok (Engine.Session.open_ ~inputs:2 ~outputs:2 ()) in
  ignore (ok (Engine.Session.append sess (Array.sub smps 0 5)));
  Alcotest.(check bool) "odd count leaves a pending sample" true
    (Engine.Session.pending sess);
  Alcotest.(check int) "only completed pairs count" 4
    (Engine.Session.size sess);
  ignore (ok (Engine.Session.append sess (Array.sub smps 5 1)));
  Alcotest.(check bool) "partner clears the pending slot" false
    (Engine.Session.pending sess);
  Alcotest.(check int) "pair completed" 6 (Engine.Session.size sess);
  (* a batch with one bad sample is refused whole: nothing changes *)
  let bad = [| smps.(6); smps.(0) |] in   (* duplicate frequency *)
  (match Engine.Session.append sess bad with
   | Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "duplicate frequency accepted");
  Alcotest.(check int) "refused batch left the session untouched" 6
    (Engine.Session.size sess);
  Alcotest.(check bool) "no pending from refused batch" false
    (Engine.Session.pending sess);
  (* dimension mismatch *)
  let wrong = samples ~ports:3 ~seed:31 2 in
  (match Engine.Session.append sess wrong with
   | Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "3x3 sample accepted into a 2x2 session");
  (* finalize drops an unpaired trailing sample, like trim_even *)
  ignore (ok (Engine.Session.append sess (Array.sub smps 6 1)));
  Alcotest.(check bool) "pending again" true (Engine.Session.pending sess);
  let m = ok (Engine.Session.finalize sess) in
  let batch =
    Engine.run_exn ~strategy:Engine.Direct
      (Dataset.of_samples (Array.sub smps 0 6))
  in
  check_descriptor "pending dropped at finalize"
    (Engine.Model.descriptor m) batch.Engine.model

let test_open_validation () =
  (match Engine.Session.open_ ~inputs:0 ~outputs:2 () with
   | Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "inputs 0 accepted");
  (match Engine.Session.open_
           ~options:{ Engine.default_options with
                      weight = Tangential.Per_sample [| 1 |] }
           ~inputs:2 ~outputs:2 () with
   | Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "Per_sample weight accepted");
  match Engine.Session.open_
          ~options:{ Engine.default_options with
                     weight = Tangential.Uniform 5 }
          ~inputs:2 ~outputs:2 () with
  | Error (Mfti_error.Validation _) -> ()
  | _ -> Alcotest.fail "width 5 accepted for 2x2"

(* ------------------------------------------------------------------ *)
(* Lifecycle and fault sites *)

let test_lifecycle_and_faults () =
  let smps = samples ~ports:2 ~seed:37 8 in
  let sess = ok (Engine.Session.open_ ~inputs:2 ~outputs:2 ()) in
  (* empty finalize is a typed error *)
  (match Engine.Session.finalize sess with
   | Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "empty finalize accepted");
  ignore (ok (Engine.Session.append sess smps));
  (* forced stale append: the TTL-race path, deterministic *)
  Fault.with_spec "session.stale_append" (fun () ->
      match Engine.Session.append sess [| smps.(0) |] with
      | Error (Mfti_error.Validation { context = "session"; message }) ->
        Alcotest.(check bool) "stale message names the fault" true
          (String.length message > 0)
      | _ -> Alcotest.fail "stale append not refused");
  (* forced finalize race *)
  Fault.with_spec "session.finalize_race" (fun () ->
      match Engine.Session.finalize sess with
      | Error (Mfti_error.Validation { context = "session"; _ }) -> ()
      | _ -> Alcotest.fail "finalize race not refused");
  (* the fault paths left the session usable *)
  ignore (ok (Engine.Session.finalize sess));
  Alcotest.(check bool) "finalized" true (Engine.Session.finalized sess);
  (* post-finalize appends and re-finalizes are typed errors *)
  (match Engine.Session.append sess [| smps.(0) |] with
   | Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "append after finalize accepted");
  match Engine.Session.finalize sess with
  | Error (Mfti_error.Validation _) -> ()
  | _ -> Alcotest.fail "double finalize accepted"

(* ------------------------------------------------------------------ *)
(* Adaptive suggestion *)

let test_adaptive_suggest () =
  let smps = samples ~ports:2 ~seed:41 16 in
  let opts = { Adaptive.default_options with count = 4 } in
  let s1 = ok (Adaptive.suggest ~options:opts smps) in
  let s2 = ok (Adaptive.suggest ~options:opts smps) in
  Alcotest.(check bool) "deterministic" true (s1 = s2);
  Alcotest.(check bool) "returns suggestions" true (List.length s1 > 0);
  Alcotest.(check bool) "at most count" true (List.length s1 <= 4);
  List.iter
    (fun (s : Adaptive.score) ->
      Alcotest.(check bool) "in band" true (s.Adaptive.freq >= 100.
                                            && s.Adaptive.freq <= 1e5);
      Alcotest.(check bool) "score finite" true
        (Float.is_finite s.Adaptive.score && s.Adaptive.score >= 0.);
      (* no suggestion lands on an existing sample *)
      Array.iter
        (fun smp ->
          Alcotest.(check bool) "clear of samples" true
            (Float.abs (log10 s.Adaptive.freq -. log10 smp.Sampling.freq)
             >= 0.02))
        smps)
    s1;
  (* suggestions are spaced apart *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool) "mutual spacing" true
              (Float.abs (log10 a.Adaptive.freq -. log10 b.Adaptive.freq)
               >= 0.02))
        s1)
    s1;
  (* ranking is best-first *)
  let rec descending = function
    | a :: (b :: _ as rest) ->
      (a : Adaptive.score).Adaptive.score >= b.Adaptive.score
      && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "best first" true (descending s1);
  (* too few samples is a typed error *)
  (match Adaptive.suggest (Array.sub smps 0 6) with
   | Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "6 samples accepted");
  (* explicit candidate grids are honored *)
  let cands = [| 333.; 4444.; 55555. |] in
  let s3 = ok (Adaptive.suggest ~options:opts ~candidates:cands smps) in
  List.iter
    (fun (s : Adaptive.score) ->
      Alcotest.(check bool) "from the explicit grid" true
        (Array.exists (fun c -> c = s.Adaptive.freq) cands))
    s3

(* Suggestions must concentrate where the data leaves the response
   unconstrained: sample densely everywhere except one decade and the
   top pick should land inside the hole. *)
let test_adaptive_targets_gap () =
  (* all of the system's dynamics live inside the unsampled decade *)
  let sys =
    Random_sys.generate
      { Random_sys.order = 10; ports = 2; rank_d = 2; freq_lo = 2e3;
        freq_hi = 8e3; damping = 0.1; seed = 43 }
  in
  let freqs =
    Array.append (Sampling.logspace 100. 1e3 10)
      (Sampling.logspace 1.1e4 1e5 10)
  in
  let smps = Sampling.sample_system sys freqs in
  let sugg =
    ok (Adaptive.suggest
          ~options:{ Adaptive.default_options with count = 1 }
          ~candidates:(Sampling.logspace 100. 1e5 96)
          smps)
  in
  match sugg with
  | top :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "top suggestion %g inside the gap" top.Adaptive.freq)
      true
      (top.Adaptive.freq > 1e3 && top.Adaptive.freq < 1.1e4)
  | [] -> Alcotest.fail "no suggestion"

(* Adaptive selection must reach a hold-out accuracy with at most 0.6x
   the samples of a log-uniform scan.  The 2-port corner of the PDN
   plane has decap anti-resonances in the tens of MHz and plane modes
   near a GHz: the uniform scan spends its points on the smooth shelf
   and plateaus near 3e-4 until ~34 samples resolve the last mode,
   while the adaptive loop clears 2e-5 about as soon as its surrogates
   agree.  Both arms stream into sessions against the exact PDN
   oracle, judged on one 101-point log-spaced hold-out grid. *)
let test_adaptive_sample_ratio () =
  let spec = { Rf.Pdn.default_spec with ports = 2; decaps = 3; seed = 7 } in
  let f_lo = 1e6 and f_hi = 2e9 in
  let target = 2e-5 and step = 2 and seed_n = 8 and cap = 96 in
  let options =
    { Engine.default_options with
      rank_rule = Svd_reduce.Tol 1e-9; certify = Certify.Off }
  in
  let oracle freqs = Rf.Pdn.scattering spec ~z0:50. freqs in
  let holdout = oracle (Sampling.logspace f_lo f_hi 101) in
  let open_session () =
    let sess = ok (Engine.Session.open_ ~options ~inputs:2 ~outputs:2 ()) in
    ignore (ok (Engine.Session.append ~holdout:true sess holdout));
    sess
  in
  let append sess freqs = ignore (ok (Engine.Session.append sess (oracle freqs))) in
  let holdout_err sess =
    match ok (Engine.Session.holdout_err sess) with
    | Some e -> e
    | None -> Alcotest.fail "hold-out error unavailable"
  in
  (* uniform: a fresh log-spaced session per count *)
  let rec uniform n =
    if n > cap then Alcotest.failf "uniform arm missed %g by %d samples" target cap;
    let sess = open_session () in
    append sess (Sampling.logspace f_lo f_hi n);
    if holdout_err sess <= target then n else uniform (n + step)
  in
  (* adaptive: one live session, suggest -> measure -> append; an odd
     round is padded from the band's log midpoint *)
  let sess = open_session () in
  append sess (Sampling.logspace f_lo f_hi seed_n);
  let rec adaptive () =
    let n = Engine.Session.size sess in
    if holdout_err sess <= target then n
    else if n + step > cap then
      Alcotest.failf "adaptive arm missed %g by %d samples" target cap
    else begin
      let freqs =
        List.map
          (fun s -> s.Adaptive.freq)
          (ok (Adaptive.suggest
                 ~options:{ Adaptive.surrogate = options; count = step }
                 (Engine.Session.fit_samples sess)))
      in
      if freqs = [] then Alcotest.failf "no adaptive suggestions at %d samples" n;
      let freqs =
        if List.length freqs land 1 = 0 then freqs
        else freqs @ [ Float.sqrt (f_lo *. f_hi) ]
      in
      append sess (Array.of_list freqs);
      adaptive ()
    end
  in
  let uniform_n = uniform seed_n and adaptive_n = adaptive () in
  let ratio = float_of_int adaptive_n /. float_of_int uniform_n in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive/uniform = %d/%d = %.2f <= 0.6" adaptive_n
       uniform_n ratio)
    true (ratio <= 0.6)

let () =
  Alcotest.run "session"
    [ ( "bit-identity",
        [ Alcotest.test_case "finalize = batch fit (bit)" `Quick
            test_finalize_bit_identity;
          Alcotest.test_case "with interleaved refits + domains (bit)" `Quick
            test_finalize_bit_identity_refits ] );
      ( "lifecycle",
        [ Alcotest.test_case "append invalidation" `Quick
            test_append_invalidation;
          Alcotest.test_case "pending slot + atomic batches" `Quick
            test_pending_and_atomicity;
          Alcotest.test_case "open validation" `Quick test_open_validation;
          Alcotest.test_case "faults + finalize lifecycle" `Quick
            test_lifecycle_and_faults ] );
      ( "adaptive",
        [ Alcotest.test_case "suggest invariants" `Quick
            test_adaptive_suggest;
          Alcotest.test_case "targets the unsampled gap" `Quick
            test_adaptive_targets_gap;
          Alcotest.test_case "adaptive/uniform sample ratio <= 0.6" `Quick
            test_adaptive_sample_ratio ] ) ]
