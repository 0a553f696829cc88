(* The offline workloads: in-process jobs making the library calls of
   `mfti engine ... --pack`, back to back for the measured window.

   fit-touchstone  each job reads a noisy (1e-3) 4-port 40-point .s4p
                   of one fixed board over 1 MHz - 1 GHz, fits it with
                   the Direct engine (rank tolerance 3e-3, certify
                   Repair) and packs the artifact.  The reduce stage
                   takes nearly all of a job: on noisy data the
                   randomized SVD fails its certificate and the exact
                   SVD runs again.  No serving, no sparse work.
   reduce-plane    each job loads a fixed 64x64 resistive plane netlist
                   (8 ports, 16 decaps), runs the Krylov reduction with
                   the CLI defaults (1e5 - 1e9 Hz, z0 = 50), checks the
                   certificate and packs.  Sparse factorization and the
                   basis dominate; no dense SVD, no serving.

   Both devices are fixed so a job's work does not change with the
   seed; the seed draws the measurement noise of each input file (fit)
   and the hold-out frequencies (plane).  Traced runs time each stage
   of every job in its own span; the plane run then replays the AMD
   ordering and one sparse factorization and solve per shift. *)

open Statespace

let span tr ~rid name f = Probe.Trace.span tr ~rid name f

let diag_count d site =
  List.length (List.filter (fun e -> e.Linalg.Diag.site = site) (Linalg.Diag.events d))

type 'a window = {
  jobs : (float * ('a, Linalg.Mfti_error.t) result) list;
      (* latency (s) and outcome per job, oldest first *)
  elapsed : float;
  first_rss : float;    (* peak RSS (MiB) once set-up and one job ran *)
}

(* Runs [job j] back to back until the window closes (one job in a
   smoke run).  Each job starts from a fully collected heap, as in a
   fresh `mfti engine` process; the collection is not timed, so the
   elapsed time is the sum of the job latencies.  Peak memory is read
   after the first job: what one CLI invocation needs. *)
let jobs_for_window (ctx : Run.ctx) job =
  let rec go j elapsed first_rss acc =
    let finished = if ctx.smoke then j >= 1 else j > 0 && elapsed >= ctx.seconds in
    if finished then { jobs = List.rev acc; elapsed; first_rss }
    else begin
      Gc.full_major ();
      let outcome, dt =
        Probe.timed (fun () ->
            match job j with
            | v -> Ok v
            | exception Linalg.Mfti_error.Error e -> Error e)
      in
      let first_rss = if j = 0 then Probe.peak_rss_mb "self" else first_rss in
      go (j + 1) (elapsed +. dt) first_rss ((dt, outcome) :: acc)
    end
  in
  go 0 0. 0. []

let interleaved rng ~lo ~hi n =
  Array.init n (fun i ->
      lo *. Float.pow (hi /. lo)
              ((float_of_int i +. 0.25 +. (0.5 *. Random.State.float rng 1.))
               /. float_of_int n))

let artifact_path ctx j = Filename.concat ctx.Run.dir (Printf.sprintf "job%d.mfti" j)

(* Reloads every finished job's artifact (checksum included) and
   applies [check] to its model, which returns an error measure and
   whether it passes.  Returns the measures and the failed-job count:
   refused jobs, unloadable artifacts and failed checks. *)
let verify ctx (w : _ window) check =
  let results =
    List.mapi
      (fun j (_, outcome) ->
        match outcome with
        | Error _ -> None
        | Ok _ ->
          (match Serve.Artifact.load (artifact_path ctx j) with
           | Ok art -> Some (check art.Serve.Artifact.model)
           | Error _ -> Some (nan, false)))
      w.jobs
  in
  ( List.filter_map (Option.map fst) results,
    List.length (List.filter (function Some (_, true) -> false | _ -> true) results) )

let summary ctx ~setup_s (w : _ window) ~failed =
  let attempted = List.length w.jobs in
  let lat = List.map (fun (dt, _) -> Run.ms dt) w.jobs in
  [ ("setup_s", setup_s, "s");
    ("latency_p10_ms", Probe.percentile 10. lat, "ms");
    ("throughput_rps", Probe.ratio (float_of_int attempted) w.elapsed, "1/s");
    ("latency_p50_ms", Probe.median lat, "ms");
    ("peak_rss_mb", w.first_rss, "MiB");
    ("fail_share", Probe.ratio (float_of_int failed) (float_of_int attempted), "ratio");
    ("ops_attempted", float_of_int attempted, "count");
    ("ops_failed", float_of_int failed, "count") ]
  @
  match ctx.Run.trace with
  | None -> []
  | Some tr -> [ ("trace.coverage", Probe.median (Probe.Trace.coverage tr "job"), "ratio") ]

(* ------------------------------------------------------------------ *)
(* fit-touchstone *)

let fit_board =
  { Rf.Pdn.default_spec with ports = 4; decaps = 2; nx = 3; ny = 3; seed = 7 }

let fit_band = (1e6, 1e9)
let fit_points = 40
let input_files = 8

let write_touchstone path samples =
  Rf.Touchstone.write_file path
    { Rf.Touchstone.parameter = Rf.Touchstone.S; z0 = 50.; samples }

let fit_setup (ctx : Run.ctx) dir =
  let lo, hi = fit_band in
  let clean = Rf.Pdn.scattering fit_board ~z0:50. (Sampling.logspace lo hi fit_points) in
  let inputs =
    Array.init input_files (fun j ->
        let path = Filename.concat dir (Printf.sprintf "noisy%d.s4p" j) in
        write_touchstone path
          (Rf.Noise.add_relative ~seed:((ctx.seed * 1000) + j) ~level:1e-3 clean);
        path)
  in
  let holdout = Filename.concat dir "holdout.s4p" in
  let rng = Random.State.make [| ctx.seed; 33 |] in
  write_touchstone holdout
    (Rf.Pdn.scattering fit_board ~z0:50. (interleaved rng ~lo ~hi 33));
  (inputs, holdout)

let fit_options =
  { Mfti.Engine.default_options with
    rank_rule = Mfti.Svd_reduce.Tol 3e-3;
    certify = Mfti.Certify.Repair }

(* `mfti engine FILE --strategy direct --rank-tol 3e-3 --certify repair
   --pack OUT`, one stage call at a time. *)
let fit_job ctx tr ~input j =
  let rid = string_of_int j in
  let span name f = span tr ~rid name f in
  span "job" @@ fun () ->
  let data = span "touchstone.read" (fun () -> Run.ok (Rf.Touchstone.read_file_result input)) in
  let dataset =
    Mfti.Dataset.trim_even (Mfti.Dataset.of_samples data.Rf.Touchstone.samples)
  in
  let st =
    span "engine.ingest" (fun () ->
        Run.ok (Mfti.Engine.ingest ~options:fit_options ~strategy:Mfti.Engine.Direct dataset))
  in
  span "loewner.assemble" (fun () -> Run.ok (Mfti.Engine.assemble st));
  span "engine.realify" (fun () -> Run.ok (Mfti.Engine.realify st));
  span "svd_reduce.reduce" (fun () -> Run.ok (Mfti.Engine.reduce st));
  span "certify.repair" (fun () -> Run.ok (Mfti.Engine.certify st));
  let model = span "engine.model" (fun () -> Run.ok (Mfti.Engine.model st)) in
  let art =
    Serve.Artifact.v ~name:(Filename.basename input)
      ~fit_err:(Mfti.Engine.Model.err model (Mfti.Dataset.fit_samples dataset))
      model
  in
  span "artifact.save" (fun () -> Serve.Artifact.save (artifact_path ctx j) art);
  (st, art)

let fit_touchstone (ctx : Run.ctx) =
  let (inputs, holdout), setup_s =
    Run.repeated_setup ctx ~setup:(fit_setup ctx) ~discard:ignore
  in
  let w =
    jobs_for_window ctx (fun j -> fit_job ctx ctx.trace ~input:inputs.(j mod input_files) j)
  in
  let holdout_samples =
    (Run.ok (Rf.Touchstone.read_file_result holdout)).Rf.Touchstone.samples
  in
  (* a passed certificate, and the clean hold-out sweep within 10% *)
  let holdout_errs, failed =
    verify ctx w (fun m ->
        let err = Mfti.Engine.Model.err m holdout_samples in
        let passed =
          match Mfti.Engine.Model.certificate m with
          | Some c -> Mfti.Certify.Certificate.passed c
          | None -> false
        in
        (err, passed && err < 0.1))
  in
  let layers =
    match ctx.trace with
    | None -> []
    | Some tr ->
      let stage name = Probe.median (Probe.Trace.durations tr name) in
      let fits = List.filter_map (function _, Ok v -> Some v | _, Error _ -> None) w.jobs in
      (* encoding alone, outside the job spans *)
      List.iteri
        (fun j (_, art) ->
          span (Some tr) ~rid:(string_of_int j) "artifact.encode" (fun () ->
              ignore (Serve.Artifact.to_string art)))
        fits;
      let per_job f = Probe.median (List.map (fun (st, art) -> float_of_int (f st art)) fits) in
      let diag st = Mfti.Engine.diagnostics st in
      [ ("touchstone.read_s", stage "touchstone.read", "s");
        ("engine.ingest_s", stage "engine.ingest", "s");
        ("loewner.assemble_s", stage "loewner.assemble", "s");
        ("engine.realify_s", stage "engine.realify", "s");
        ("svd_reduce.reduce_s", stage "svd_reduce.reduce", "s");
        ("certify.repair_s", stage "certify.repair", "s");
        ("artifact.encode_s", stage "artifact.encode", "s");
        ( "svd_reduce.rsvd_fallbacks",
          per_job (fun st _ -> diag_count (diag st) "svd.rsvd.fallback"),
          "count" );
        ("svd_reduce.retries", per_job (fun st _ -> (diag st).Linalg.Diag.retries), "count");
        ( "svd_reduce.pencil_dim",
          per_job (fun st _ ->
              match Mfti.Engine.pencil st with
              | Some l -> Linalg.Cmat.rows l.Mfti.Loewner.ll
              | None -> 0),
          "count" );
        ( "svd_reduce.rank",
          per_job (fun st _ ->
              match Mfti.Engine.reduction st with
              | Some r -> r.Mfti.Svd_reduce.rank
              | None -> 0),
          "count" );
        ( "certify.repair_iterations",
          per_job (fun _ art ->
              match Mfti.Engine.Model.certificate art.Serve.Artifact.model with
              | Some c -> c.Mfti.Certify.Certificate.repair_iterations
              | None -> 0),
          "count" ) ]
  in
  { Run.metrics =
      summary ctx ~setup_s w ~failed
      @ [ ("fit_holdout_err", Probe.median holdout_errs, "ratio") ]
      @ layers;
    attempted = List.length w.jobs;
    failed;
    settings =
      [ ("workload", "fit-touchstone");
        ( "jobs",
          Printf.sprintf
            "in-process, 1 thread: %d jobs in %.3f s over %d noisy 4-port %d-point \
             files, Direct engine, rank tol 3e-3, certify repair"
            (List.length w.jobs) w.elapsed input_files fit_points ) ] }

(* ------------------------------------------------------------------ *)
(* reduce-plane *)

let plane_band = (1e5, 1e9)

let plane_spec ~smoke =
  let side = if smoke then 24 else 64 in
  { Rf.Pdn.default_spec with
    nx = side; ny = side; ports = 8; decaps = 16; plane_rl = false; seed = 7 }

let krylov_options =
  let f_lo, f_hi = plane_band in
  { Mfti.Krylov.default_options with f_lo; f_hi; shifts = 8; max_order = 240;
    tol = 1e-6; z0 = Some 50. }

let plane_setup (ctx : Run.ctx) dir =
  let path = Filename.concat dir "plane.ckt" in
  Rf.Netlist.save path (Rf.Pdn.build (plane_spec ~smoke:ctx.smoke));
  path

type plane_job = {
  sys : Mfti.Krylov.system;
  kr : Mfti.Krylov.reduction;
  deflations : int;
}

(* `mfti engine FILE --strategy krylov --f-lo 1e5 --f-hi 1e9 --certify
   check --pack OUT`. *)
let plane_job ctx tr ~netlist j =
  let rid = string_of_int j in
  let span name f = span tr ~rid name f in
  span "job" @@ fun () ->
  let circuit = span "netlist.load" (fun () -> Run.ok (Rf.Netlist.load netlist)) in
  let sys = span "mna.sparse_system" (fun () -> Mfti.Krylov.of_mna circuit) in
  let kr, diag =
    Linalg.Diag.with_collector (fun () ->
        span "krylov.reduce" (fun () -> Run.ok (Mfti.Krylov.reduce ~options:krylov_options sys)))
  in
  let lo, hi = plane_band in
  let model =
    span "certify.check" (fun () ->
        Run.ok
          (Mfti.Engine.Model.certify
             ~options:{ Mfti.Certify.default_options with mode = Mfti.Certify.Check }
             ~freqs:(Sampling.logspace lo hi 64) kr.Mfti.Krylov.model))
  in
  let h = kr.Mfti.Krylov.history in
  let fit_err = if Array.length h > 0 then h.(Array.length h - 1) else nan in
  span "artifact.save" (fun () ->
      Serve.Artifact.save (artifact_path ctx j)
        (Serve.Artifact.v ~name:"plane" ~fit_err model));
  { sys; kr; deflations = diag_count diag "krylov.deflation" }

let reduce_plane (ctx : Run.ctx) =
  let netlist, setup_s = Run.repeated_setup ctx ~setup:(plane_setup ctx) ~discard:ignore in
  let w = jobs_for_window ctx (fun j -> plane_job ctx ctx.trace ~netlist j) in
  (* the packed models against exact sparse S-parameters at 8 seeded
     frequencies between the shifts *)
  let lo, hi = plane_band in
  let freqs = interleaved (Random.State.make [| ctx.seed; 8 |]) ~lo ~hi 8 in
  let exact =
    Rf.Sparams.map_samples (Rf.Sparams.z_to_s ~z0:50.)
      (Rf.Mna.impedance_sparse (Run.ok (Rf.Netlist.load netlist)) freqs)
  in
  let holdout_errs, failed =
    verify ctx w (fun m ->
        let err =
          Array.fold_left
            (fun worst (s : Sampling.sample) ->
              let h = Mfti.Engine.Model.eval_freq m s.Sampling.freq in
              Float.max worst
                (Linalg.Cmat.norm_fro (Linalg.Cmat.sub h s.Sampling.s)
                 /. Float.max (Linalg.Cmat.norm_fro s.Sampling.s) 1e-300))
            0. exact
        in
        (err, err <= 1e-6))
  in
  let done_ = List.filter_map (function _, Ok v -> Some v | _, Error _ -> None) w.jobs in
  let layers =
    match (ctx.trace, List.rev done_) with
    | Some tr, last :: _ ->
      let stage name = Probe.median (Probe.Trace.durations tr name) in
      let per_job f = Probe.median (List.map f done_) in
      let reported key j = List.assoc_opt key j.kr.Mfti.Krylov.timings |> Option.value ~default:0. in
      (* replay the sparse kernels the reduction ran, at its shifts *)
      let { Mfti.Krylov.g; c; b; _ } = last.sys in
      let perm =
        span (Some tr) ~rid:"replay" "ordering.amd" (fun () ->
            Sparse.Ordering.amd (Sparse.Scsr.scale_add ~alpha:Linalg.Cx.one c ~beta:Linalg.Cx.one g))
      in
      let fills =
        Array.to_list
          (Array.map
             (fun f ->
               let pencil =
                 Sparse.Scsr.scale_add ~alpha:(Linalg.Cx.jw (2. *. Float.pi *. f)) c
                   ~beta:Linalg.Cx.one g
               in
               let fac =
                 span (Some tr) ~rid:"replay" "slu.factorize" (fun () ->
                     Run.ok (Sparse.Slu.factorize ~perm pencil))
               in
               ignore (span (Some tr) ~rid:"replay" "slu.solve" (fun () -> Sparse.Slu.solve fac b));
               float_of_int (Sparse.Slu.fill fac))
             last.kr.Mfti.Krylov.shift_freqs)
      in
      let factor_s = Probe.mean (Probe.Trace.durations tr "slu.factorize") in
      let solve_s = Probe.mean (Probe.Trace.durations tr "slu.solve") in
      let amd_s = stage "ordering.amd" in
      let reduce_s = stage "krylov.reduce" in
      let factorizations = per_job (fun j -> float_of_int j.kr.Mfti.Krylov.factorizations) in
      [ ("netlist.load_s", stage "netlist.load", "s");
        ("mna.sparse_system_s", stage "mna.sparse_system", "s");
        ("krylov.reduce_s", reduce_s, "s");
        ("ordering.amd_s", amd_s, "s");
        ("slu.factor_s", factor_s, "s");
        ("slu.fill", Probe.mean fills, "count");
        ("slu.solve_s", solve_s, "s");
        ("krylov.factorizations", factorizations, "count");
        ("krylov.order", per_job (fun j -> float_of_int j.kr.Mfti.Krylov.order), "count");
        ("krylov.deflations", per_job (fun j -> float_of_int j.deflations), "count");
        ( "krylov.other_s",
          reduce_s -. amd_s -. (factorizations *. (factor_s +. solve_s)),
          "s" );
        ("krylov.reported.factor_s", per_job (reported "factor"), "s");
        ("krylov.reported.basis_s", per_job (reported "basis"), "s") ]
    | _ -> []
  in
  let side = (plane_spec ~smoke:ctx.smoke).Rf.Pdn.nx in
  { Run.metrics =
      summary ctx ~setup_s w ~failed
      @ [ ("reduce_holdout_err", Probe.median holdout_errs, "ratio") ]
      @ layers;
    attempted = List.length w.jobs;
    failed;
    settings =
      [ ("workload", "reduce-plane");
        ( "jobs",
          Printf.sprintf
            "in-process, 1 thread: %d jobs in %.3f s on a %dx%d resistive plane \
             (8 ports, 16 decaps), Krylov 1e5-1e9 Hz, z0 50, certify check"
            (List.length w.jobs) w.elapsed side side ) ] }
