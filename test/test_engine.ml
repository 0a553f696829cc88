(* Tests for the staged fitting engine: incremental Loewner assembly
   (bit-identical to batch builds under any schedule), strategy
   equivalence, resumable stages, datasets, and the unified model. *)

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

let check_cx_array msg a b =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      let y = b.(i) in
      if not (Float.equal x.Cx.re y.Cx.re && Float.equal x.Cx.im y.Cx.im) then
        Alcotest.failf "%s: entry %d differs" msg i)
    a

let check_pencil msg (p : Loewner.t) (q : Loewner.t) =
  check_cmat (msg ^ " ll") p.Loewner.ll q.Loewner.ll;
  check_cmat (msg ^ " sll") p.Loewner.sll q.Loewner.sll;
  check_cmat (msg ^ " w") p.Loewner.w q.Loewner.w;
  check_cmat (msg ^ " v") p.Loewner.v q.Loewner.v;
  check_cmat (msg ^ " r") p.Loewner.r q.Loewner.r;
  check_cmat (msg ^ " l") p.Loewner.l q.Loewner.l;
  check_cx_array (msg ^ " lambda") p.Loewner.lambda q.Loewner.lambda;
  check_cx_array (msg ^ " mu") p.Loewner.mu q.Loewner.mu;
  Alcotest.(check (array int)) (msg ^ " right sizes")
    p.Loewner.right_sizes q.Loewner.right_sizes;
  Alcotest.(check (array int)) (msg ^ " left sizes")
    p.Loewner.left_sizes q.Loewner.left_sizes

let truncated (data : Tangential.t) n =
  { data with
    Tangential.right = Array.sub data.Tangential.right 0 n;
    left = Array.sub data.Tangential.left 0 n }

(* ------------------------------------------------------------------ *)
(* Incremental builder *)

(* The load-bearing property: a builder extended one block at a time is
   bit-identical to a fresh [Loewner.build] of the same prefix, after
   EVERY append — across port counts and weights.  Tiny initial
   capacities force the growable storage through several regrows. *)
let test_builder_matches_build () =
  List.iter
    (fun (ports, weight, seed) ->
      let smps = samples ~ports ~seed 8 in
      let data = Tangential.build ~weight smps in
      let nblocks = Array.length data.Tangential.right in
      let b =
        Loewner.builder ~right_capacity:1 ~left_capacity:1
          ~inputs:data.Tangential.inputs ~outputs:data.Tangential.outputs ()
      in
      for i = 0 to nblocks - 1 do
        Loewner.append b data.Tangential.right.(i) data.Tangential.left.(i);
        let fresh = Loewner.build (truncated data (i + 1)) in
        check_pencil
          (Printf.sprintf "ports %d prefix %d" ports (i + 1))
          (Loewner.snapshot b) fresh
      done)
    [ (1, Tangential.Full, 1); (2, Tangential.Uniform 1, 2);
      (2, Tangential.Full, 3); (3, Tangential.Uniform 2, 4);
      (3, Tangential.Full, 5) ]

(* Interleaving freedom: right and left blocks may arrive in ANY
   relative order (each side's own order fixed), in any chunking, and
   the snapshot still matches the batch build bitwise — entries are
   filled the moment both their row and column data exist, by a
   per-entry pure formula.  Property-tested over schedules and domain
   counts. *)
let builder_interleaving_prop =
  let schedule ~pattern nblocks =
    (* [pattern.(i mod len)] rights, then one left, cycling; leftovers
       flushed at the end — a deterministic family of skewed orders *)
    let order = ref [] and nr = ref 0 and nl = ref 0 and pi = ref 0 in
    while !nr < nblocks || !nl < nblocks do
      let burst = pattern.(!pi mod Array.length pattern) in
      for _ = 1 to burst do
        if !nr < nblocks then begin
          order := `R !nr :: !order;
          incr nr
        end
      done;
      if !nl < Stdlib.min nblocks !nr then begin
        order := `L !nl :: !order;
        incr nl
      end
      else if !nr >= nblocks && !nl < nblocks then begin
        order := `L !nl :: !order;
        incr nl
      end;
      incr pi
    done;
    List.rev !order
  in
  QCheck.Test.make ~count:24
    ~name:"interleaved appends are bit-identical to the batch build"
    QCheck.(triple (int_range 1 3) (int_range 2 5) (int_range 0 1000))
    (fun (ports, npairs, seed) ->
        let smps = samples ~ports ~seed (2 * npairs) in
        let data = Tangential.build smps in
        let fresh = Loewner.build data in
        let nblocks = Array.length data.Tangential.right in
        let patterns =
          [ [| 1 |]; [| nblocks |]; [| 2; 1 |]; [| 1; 3 |];
            [| (seed mod 3) + 1; 1 |] ]
        in
        List.for_all
          (fun pattern ->
            List.for_all
              (fun ndom ->
                Parallel.set_domain_count ndom;
                Fun.protect
                  ~finally:(fun () -> Parallel.set_domain_count 1)
                  (fun () ->
                    let b =
                      Loewner.builder ~right_capacity:1 ~left_capacity:1
                        ~inputs:data.Tangential.inputs
                        ~outputs:data.Tangential.outputs ()
                    in
                    List.iter
                      (function
                        | `R i ->
                          Loewner.append_right b data.Tangential.right.(i)
                        | `L i ->
                          Loewner.append_left b data.Tangential.left.(i))
                      (schedule ~pattern nblocks);
                    check_pencil
                      (Printf.sprintf "ports %d pairs %d" ports npairs)
                      (Loewner.snapshot b) fresh;
                    true))
              [ 1; 4 ])
          patterns)

(* All lefts before any right: the append_right fill path does all the
   work against a fully populated row side. *)
let test_builder_lefts_first () =
  let smps = samples ~ports:3 ~seed:19 8 in
  let data = Tangential.build smps in
  let b =
    Loewner.builder ~inputs:data.Tangential.inputs
      ~outputs:data.Tangential.outputs ()
  in
  Array.iter (Loewner.append_left b) data.Tangential.left;
  Array.iter (Loewner.append_right b) data.Tangential.right;
  check_pencil "lefts first" (Loewner.snapshot b) (Loewner.build data)

(* Chunking across domains cannot change any bit of the fill. *)
let test_builder_domain_invariance () =
  let smps = samples ~ports:3 ~seed:7 10 in
  let data = Tangential.build smps in
  let build_with n =
    Parallel.set_domain_count n;
    Fun.protect ~finally:(fun () -> Parallel.set_domain_count 1) (fun () ->
        let b = Loewner.of_tangential data in
        Loewner.snapshot b)
  in
  let seq = Parallel.with_sequential (fun () -> Loewner.build data) in
  check_pencil "domains 4 vs sequential" (build_with 4) seq;
  check_pencil "domains 2 vs sequential" (build_with 2) seq

(* The ["loewner.poison"] fault must hit both assembly paths the same
   way: a NaN at entry (0,0) of LL, everything else untouched. *)
let test_builder_fault_parity () =
  let smps = samples ~ports:2 ~seed:11 6 in
  let data = Tangential.build smps in
  let clean = Loewner.build data in
  let batch, incr =
    Fault.with_spec "loewner.poison" (fun () ->
        (Loewner.build data, Loewner.snapshot (Loewner.of_tangential data)))
  in
  List.iter
    (fun (name, (p : Loewner.t)) ->
      Alcotest.(check bool) (name ^ " poisoned at (0,0)") true
        (Float.is_nan (Cmat.get p.Loewner.ll 0 0).Cx.re);
      (match Loewner.check_finite p with
       | Error (Mfti_error.Numerical_breakdown _) -> ()
       | _ -> Alcotest.fail (name ^ ": poison not detected"));
      (* repair the poisoned entry; the rest must match the clean build *)
      Cmat.set p.Loewner.ll 0 0 (Cmat.get clean.Loewner.ll 0 0);
      check_pencil (name ^ " repaired") p clean)
    [ ("batch", batch); ("incremental", incr) ]

(* ------------------------------------------------------------------ *)
(* Strategy equivalence *)

let check_float_array msg a b =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      let y = b.(i) in
      if not (Float.is_nan x && Float.is_nan y) && not (Float.equal x y) then
        Alcotest.failf "%s: entry %d differs (%.17g vs %.17g)" msg i x y)
    a

let check_fit_identical msg (a : Engine.fit) (b : Engine.fit) =
  let da = a.Engine.model and db = b.Engine.model in
  check_cmat (msg ^ " E") da.Descriptor.e db.Descriptor.e;
  check_cmat (msg ^ " A") da.Descriptor.a db.Descriptor.a;
  check_cmat (msg ^ " B") da.Descriptor.b db.Descriptor.b;
  check_cmat (msg ^ " C") da.Descriptor.c db.Descriptor.c;
  check_cmat (msg ^ " D") da.Descriptor.d db.Descriptor.d;
  Alcotest.(check int) (msg ^ " rank") a.Engine.rank b.Engine.rank;
  Alcotest.(check int) (msg ^ " iterations") a.Engine.iterations
    b.Engine.iterations;
  Alcotest.(check int) (msg ^ " selected") a.Engine.selected_units
    b.Engine.selected_units;
  check_float_array (msg ^ " history") a.Engine.history b.Engine.history;
  check_float_array (msg ^ " sigma") a.Engine.sigma b.Engine.sigma

(* Incremental Algorithm 2 must produce bit-identical models to the
   batch path, for exact and probed residual scoring. *)
let test_incremental_matches_batch () =
  let smps = samples ~ports:3 ~seed:21 16 in
  List.iter
    (fun probe ->
      let options =
        { Engine.default_recursive_options with
          batch = 2; threshold = 1e-8; max_iterations = 6; probe }
      in
      let run asm =
        Engine.fit ~options ~strategy:(Engine.Recursive asm) smps
      in
      let b = run Engine.Batch and i = run Engine.Incremental in
      Alcotest.(check bool) "took several iterations" true
        (b.Engine.iterations > 1);
      check_fit_identical
        (match probe with None -> "exact" | Some _ -> "probed")
        b i)
    [ None; Some 3 ]

(* ------------------------------------------------------------------ *)
(* Staged pipeline *)

let test_stages_resume () =
  let smps = samples ~ports:2 ~seed:41 8 in
  let dataset = Dataset.of_samples smps in
  let st =
    match Engine.ingest dataset with
    | Ok st -> st
    | Error e -> Alcotest.failf "ingest: %s" (Mfti_error.to_string e)
  in
  Alcotest.(check bool) "ingested" true (Engine.stage st = Engine.Ingested);
  (match Engine.assemble st with
   | Ok () -> ()
   | Error e -> Alcotest.failf "assemble: %s" (Mfti_error.to_string e));
  Alcotest.(check bool) "assembled" true (Engine.stage st = Engine.Assembled);
  Alcotest.(check bool) "pencil available" true (Engine.pencil st <> None);
  (match Engine.realify st with
   | Ok () -> ()
   | Error e -> Alcotest.failf "realify: %s" (Mfti_error.to_string e));
  Alcotest.(check bool) "realified" true (Engine.stage st = Engine.Realified);
  (match Engine.reduce st with
   | Ok () -> ()
   | Error e -> Alcotest.failf "reduce: %s" (Mfti_error.to_string e));
  Alcotest.(check bool) "reduced" true (Engine.stage st = Engine.Reduced);
  let m =
    match Engine.model st with
    | Ok m -> m
    | Error e -> Alcotest.failf "model: %s" (Mfti_error.to_string e)
  in
  (* a second reduce is a no-op: same reduction object *)
  (match Engine.reduce st with
   | Ok () -> ()
   | Error e -> Alcotest.failf "re-reduce: %s" (Mfti_error.to_string e));
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " timed") true
        (List.mem_assoc stage (Engine.timings st)))
    [ "ingest"; "assemble"; "realify"; "reduce" ];
  (* the staged result equals the one-shot driver *)
  let oneshot = Engine.run_exn dataset in
  check_cmat "staged = one-shot A"
    (Engine.Model.descriptor m).Descriptor.a oneshot.Engine.model.Descriptor.a;
  Alcotest.(check bool) "model evaluates" true
    (Cmat.is_finite (Engine.Model.eval_freq m 1e3))

(* A recursion that fails part-way caches nothing: the state stays at
   the stage it had before the reduce, and a retry without the fault
   gives the one-shot recursive fit. *)
let test_stages_failed_recursion () =
  let smps = samples ~ports:3 ~seed:21 16 in
  let dataset = Dataset.of_samples smps in
  let options =
    { Engine.default_recursive_options with
      batch = 2; threshold = 1e-8; max_iterations = 6 }
  in
  List.iter
    (fun (asm, name, before) ->
      let strategy = Engine.Recursive asm in
      let st =
        match Engine.ingest ~options ~strategy dataset with
        | Ok st -> st
        | Error e -> Alcotest.failf "ingest: %s" (Mfti_error.to_string e)
      in
      (match Engine.assemble st with
       | Ok () -> ()
       | Error e -> Alcotest.failf "assemble: %s" (Mfti_error.to_string e));
      (match Fault.with_spec "pool.worker" (fun () -> Engine.reduce st) with
       | Error _ -> ()
       | Ok () -> Alcotest.failf "%s: reduce under pool.worker succeeded" name);
      Alcotest.(check bool) (name ^ " stage unchanged") true
        (Engine.stage st = before);
      Alcotest.(check bool) (name ^ " no reduction") true
        (Engine.reduction st = None);
      let m =
        match Engine.model st with
        | Ok m -> m
        | Error e -> Alcotest.failf "model: %s" (Mfti_error.to_string e)
      in
      let oneshot = Engine.fit ~options ~strategy smps in
      check_cmat (name ^ " retry = one-shot A")
        (Engine.Model.descriptor m).Descriptor.a oneshot.Engine.model.Descriptor.a;
      match Engine.Model.stats m with
      | Some s ->
        Alcotest.(check int) (name ^ " iterations") oneshot.Engine.iterations
          s.Engine.Model.iterations;
        Alcotest.(check int) (name ^ " selected") oneshot.Engine.selected_units
          s.Engine.Model.selected_units
      | None -> Alcotest.failf "%s: stats missing" name)
    [ (Engine.Incremental, "incremental", Engine.Ingested);
      (Engine.Batch, "batch", Engine.Assembled) ]

let test_engine_validation () =
  let smps = samples ~ports:2 ~seed:51 6 in
  (match Engine.fit_result
           ~options:{ Engine.default_recursive_options with batch = 0 }
           ~strategy:(Engine.Recursive Engine.Incremental) smps with
   | Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "batch = 0 accepted");
  (match Engine.fit_result
           ~options:{ Engine.default_options with probe = Some 0 } smps with
   | Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "probe = 0 accepted");
  (* a rank rule outside its domain is refused at ingest and at session
     open, before any SVD runs — not a silent order-1 model *)
  List.iter
    (fun (label, rank_rule) ->
      let options = { Engine.default_options with rank_rule } in
      List.iter
        (fun strategy ->
          match Engine.fit_result ~options ~strategy smps with
          | Error (Mfti_error.Validation _) -> ()
          | _ -> Alcotest.failf "fit accepted %s" label)
        [ Engine.Direct; Engine.Vector; Engine.Recursive Engine.Incremental ];
      match Engine.Session.open_ ~options ~inputs:2 ~outputs:2 () with
      | Error (Mfti_error.Validation _) -> ()
      | _ -> Alcotest.failf "session accepted %s" label)
    [ ("Tol nan", Svd_reduce.Tol Float.nan);
      ("Tol inf", Svd_reduce.Tol Float.infinity);
      ("Tol 1.5", Svd_reduce.Tol 1.5);
      ("Tol 0", Svd_reduce.Tol 0.);
      ("Fixed 0", Svd_reduce.Fixed 0) ]

(* ------------------------------------------------------------------ *)
(* Dataset *)

let test_dataset_partition () =
  let smps = samples ~ports:2 ~seed:61 12 in
  let d =
    match Dataset.partition ~every:3 (Dataset.of_samples smps) with
    | Ok d -> d
    | Error e -> Alcotest.fail (Mfti_error.to_string e)
  in
  Alcotest.(check int) "fit size" 8 (Dataset.size d);
  Alcotest.(check int) "holdout size" 4 (Dataset.holdout_size d);
  (* held-out samples are exactly positions 2, 5, 8, 11 *)
  Array.iteri
    (fun i h ->
      let expect = smps.((3 * i) + 2) in
      Alcotest.(check (float 0.)) "holdout freq" expect.Sampling.freq
        h.Sampling.freq;
      check_cmat "holdout matrix" expect.Sampling.s h.Sampling.s)
    (Dataset.holdout_samples d);
  (* hold-out drives the error metric *)
  let fitted = Engine.run_exn d in
  let err_holdout =
    Metrics.err fitted.Engine.model (Dataset.holdout_samples d)
  in
  let m = Engine.Model.of_fit fitted in
  Alcotest.(check (float 0.)) "Dataset.err scores the holdout" err_holdout
    (Dataset.err (Engine.Model.descriptor m) d)

(* [every <= 1] must be a typed validation error, not a silent
   acceptance or an untyped exception. *)
let test_dataset_partition_invalid () =
  let smps = samples ~ports:2 ~seed:61 8 in
  let d = Dataset.of_samples smps in
  List.iter
    (fun every ->
      match Dataset.partition ~every d with
      | Error (Mfti_error.Validation { context = "dataset"; _ }) -> ()
      | Ok _ ->
        Alcotest.failf "partition ~every:%d accepted" every
      | Error e ->
        Alcotest.failf "partition ~every:%d: wrong error %s" every
          (Mfti_error.to_string e))
    [ 1; 0; -3 ]

let test_dataset_of_system () =
  let sys = Random_sys.generate (spec 2 71) in
  let d =
    Dataset.of_system sys (Sampling.logspace 100. 1e5 10)
      ~holdout_freqs:(Sampling.logspace 150. 0.9e5 5)
  in
  Alcotest.(check int) "fit" 10 (Dataset.size d);
  Alcotest.(check int) "holdout" 5 (Dataset.holdout_size d);
  Alcotest.(check bool) "validates" true (Dataset.validate d = Ok ())

(* ------------------------------------------------------------------ *)
(* Vector-fitting model wrapper *)

(* ------------------------------------------------------------------ *)
(* Reduce backends *)

(* The rank decision — and the retained spectrum behind it — must not
   depend on whether the reduce stage kept the randomized sketch or ran
   the exact SVD, nor on the pool size it ran under.  Every pencil here
   is 96 wide, so the size rule sketches it; the ["svd.rsvd.degrade"]
   fault refuses the sketch and gives the exact reference.  The sketch
   certifies a 1e-10 |A|_F truncation, so retained values are compared
   at 1e-8 relative rather than bit-exactly. *)
let test_backend_rank_invariance () =
  List.iter
    (fun (ports, k) ->
      let smps = samples ~ports ~seed:3 k in
      let run domains =
        Parallel.set_domain_count domains;
        Fun.protect
          ~finally:(fun () -> Parallel.set_domain_count 1)
          (fun () -> Engine.fit smps)
      in
      let exact = Fault.with_spec "svd.rsvd.degrade" (fun () -> run 1) in
      let dim = Cmat.cols exact.Engine.loewner.Loewner.ll in
      Alcotest.(check int)
        (Printf.sprintf "%d ports: exact spectrum" ports)
        dim (Array.length exact.Engine.sigma);
      List.iter
        (fun (domains, degraded, label) ->
          let f =
            if degraded then
              Fault.with_spec "svd.rsvd.degrade" (fun () -> run domains)
            else run domains
          in
          if not degraded && Array.length f.Engine.sigma >= dim then
            Alcotest.failf "%d ports: %s did not keep the sketch" ports label;
          Alcotest.(check int)
            (Printf.sprintf "%d ports: %s rank" ports label)
            exact.Engine.rank f.Engine.rank;
          for i = 0 to exact.Engine.rank - 1 do
            let s0 = exact.Engine.sigma.(i) and s1 = f.Engine.sigma.(i) in
            if abs_float (s0 -. s1) > 1e-8 *. (1. +. s0) then
              Alcotest.failf "%d ports: %s sigma %d differs (%g vs %g)" ports
                label i s0 s1
          done)
        [ (4, true, "exact@4dom");
          (1, false, "rsvd@1dom");
          (4, false, "rsvd@4dom") ])
    [ (2, 96); (4, 48); (8, 24) ]

let test_vf_fit_model () =
  let sys = Random_sys.generate (spec 2 81) in
  let smps = Sampling.sample_system sys (Sampling.logspace 100. 1e5 40) in
  let m =
    Vfit.Vf.fit_model
      ~options:{ Vfit.Vf.default_options with n_poles = 12 } smps
  in
  Alcotest.(check int) "rank = pole count" 12 (Engine.Model.rank m);
  Alcotest.(check bool) "err finite" true
    (Float.is_finite (Engine.Model.err m smps));
  Alcotest.(check bool) "fit timed" true
    (List.mem_assoc "fit" (Engine.Model.timings m));
  (match Engine.Model.stats m with
   | Some s -> Alcotest.(check bool) "iterations ran" true (s.Engine.Model.iterations >= 1)
   | None -> Alcotest.fail "stats missing");
  Alcotest.(check bool) "vf site recorded" true
    (Diag.recorded (Engine.Model.diagnostics m) "vf")

let () =
  Alcotest.run "engine"
    [ ( "builder",
        [ QCheck_alcotest.to_alcotest builder_interleaving_prop;
          Alcotest.test_case "lefts before rights (bit)" `Quick
            test_builder_lefts_first;
          Alcotest.test_case "incremental = fresh build (bit)" `Quick
            test_builder_matches_build;
          Alcotest.test_case "domain-count invariant (bit)" `Quick
            test_builder_domain_invariance;
          Alcotest.test_case "loewner.poison parity" `Quick
            test_builder_fault_parity ] );
      ( "strategies",
        [ Alcotest.test_case "incremental = batch recursion (bit)" `Quick
            test_incremental_matches_batch ] );
      ( "stages",
        [ Alcotest.test_case "resume through stages" `Quick test_stages_resume;
          Alcotest.test_case "failed recursion caches nothing" `Quick
            test_stages_failed_recursion;
          Alcotest.test_case "option validation" `Quick
            test_engine_validation ] );
      ( "dataset",
        [ Alcotest.test_case "partition" `Quick test_dataset_partition;
          Alcotest.test_case "partition rejects every <= 1" `Quick
            test_dataset_partition_invalid;
          Alcotest.test_case "of_system" `Quick test_dataset_of_system ] );
      ( "reduce backends",
        [ Alcotest.test_case "rank invariant across backends and pools"
            `Quick test_backend_rank_invariance ] );
      ( "vf",
        [ Alcotest.test_case "fit_model wraps vector fitting" `Quick
            test_vf_fit_model ] ) ]
