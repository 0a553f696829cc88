(* mfti: command-line macromodeling tool.

   Subcommands:
     fit      fit a Touchstone file with MFTI / VFTI / recursive MFTI
     engine   drive the staged fitting engine, printing per-stage timings
     gen      generate a synthetic workload (PDN or RLC ladder) as Touchstone
     compare  run every algorithm on a Touchstone file and print a table
     info     summarize a Touchstone file
     pack     fit and write a binary model artifact (.mfti)
     inspect  print a packed artifact's metadata (checksum-verified)
     serve    answer eval-grid queries over stdio or a Unix socket
     fit-stream  stream a Touchstone file into a server-resident fit
                 session in batches and finalize into the model store

   Examples:
     mfti gen pdn --ports 8 --out board.s8p
     mfti fit board.s8p --algorithm mfti --width 2
     mfti pack board.s8p --out models/board.mfti
     mfti serve --root models *)

open Statespace
open Mfti
open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared arguments *)

let touchstone_arg =
  let doc = "Touchstone (.sNp) file with sampled network parameters." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let width_arg =
  let doc = "Tangential block width t (0 = full: t = port count)." in
  Arg.(value & opt int 0 & info [ "width"; "t" ] ~docv:"T" ~doc)

let rank_tol_arg =
  let doc =
    "Relative singular-value cutoff for the model order, in (0, 1) \
     (0 = automatic gap detection, for noise-free data)."
  in
  Arg.(value & opt float 0. & info [ "rank-tol" ] ~docv:"TOL" ~doc)

let seed_arg =
  let doc = "Random seed (directions, placement, noise)." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let flo_arg =
  let doc = "Lowest frequency (Hz)." in
  Arg.(value & opt float 1e6 & info [ "f-lo" ] ~docv:"HZ" ~doc)

let fhi_arg =
  let doc = "Highest frequency (Hz)." in
  Arg.(value & opt float 3e9 & info [ "f-hi" ] ~docv:"HZ" ~doc)

let validation ~context message =
  Linalg.Mfti_error.raise_error
    (Linalg.Mfti_error.Validation { context; message })

let is_netlist path = Filename.check_suffix path ".ckt"

(* Refuse an artifact destination whose directory cannot take the file
   before any stage runs, with the text {!Serve.Artifact.save} gives
   when it cannot open the file. *)
let check_destination out =
  let dir = Filename.dirname out in
  let refuse err =
    validation ~context:"artifact"
      (Printf.sprintf "cannot write %s: %s" out (Unix.error_message err))
  in
  match Unix.stat dir with
  | exception Unix.Unix_error (err, _, _) -> refuse err
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    (try Unix.access dir [ Unix.W_OK; Unix.X_OK ]
     with Unix.Unix_error (err, _, _) -> refuse err)
  | _ -> refuse Unix.ENOTDIR

let policy_arg =
  let lenient =
    let doc =
      "Best-effort recovery of dirty Touchstone input: lines with \
       unparseable tokens, truncated trailing records, non-finite values \
       and duplicate frequency points are dropped (reported on stderr) \
       instead of rejecting the file."
    in
    (Rf.Touchstone.Lenient, Arg.info [ "lenient" ] ~doc)
  in
  let strict =
    let doc = "Reject dirty Touchstone input with a parse error (default)." in
    (Rf.Touchstone.Strict, Arg.info [ "strict" ] ~doc)
  in
  Arg.(value & vflag Rf.Touchstone.Strict [ lenient; strict ])

(* Errors anywhere below surface as [Mfti_error.Error]; this is the one
   place they are rendered and mapped to a sysexits-style process exit
   code (64 usage, 65 data, 70 numerical). *)
let guarded f =
  match f () with
  | code -> code
  | exception Linalg.Mfti_error.Error e ->
    Printf.eprintf "mfti: %s\n" (Linalg.Mfti_error.to_string e);
    Linalg.Mfti_error.exit_code e
  | exception Rf.Touchstone.Parse_error msg ->
    Printf.eprintf "mfti: parse error: %s\n" msg;
    65

let certify_name = function
  | Certify.Off -> "off"
  | Certify.Check -> "check"
  | Certify.Repair -> "repair"

(* [certify] is the command's --certify mode.  Passivity is bounded-
   realness, an S-parameter property: checking Y or Z data against it
   would fail, or contract, a passive network. *)
let load ?(policy = Rf.Touchstone.Strict) ?(certify = Certify.Off) path =
  let data =
    match Rf.Touchstone.read_file_result ~policy path with
    | Ok data -> data
    | Error e -> Linalg.Mfti_error.raise_error e
  in
  if data.Rf.Touchstone.parameter <> Rf.Touchstone.S then begin
    let parameter =
      match data.Rf.Touchstone.parameter with
      | Rf.Touchstone.Y -> "Y" | Rf.Touchstone.Z -> "Z" | Rf.Touchstone.S -> "S"
    in
    if certify <> Certify.Off then
      validation ~context:"certify"
        (Printf.sprintf
           "--certify %s needs S-parameter data (passivity is an \
            S-parameter property), but %s holds %s-parameter data; use \
            --certify off"
           (certify_name certify) path parameter);
    Printf.eprintf "note: treating %s data as generic frequency response\n"
      parameter
  end;
  data

let print_diagnostics diag =
  Printf.eprintf "diagnostics: %s\n%!" (Linalg.Diag.summary diag)

let weight_of_width w = if w = 0 then Tangential.Full else Tangential.Uniform w

let rank_rule_of_tol tol =
  if tol = 0. then Svd_reduce.Gap else Svd_reduce.Tol tol

let certify_arg =
  let m =
    Arg.enum
      [ ("repair", Certify.Repair); ("check", Certify.Check);
        ("off", Certify.Off) ]
  in
  let doc =
    "Certify the fitted model: $(b,repair) enforces stability and \
     passivity (pole reflection + perturbative contraction; incurable \
     models are refused with a typed error), $(b,check) records the \
     stability/passivity verdict without modifying the model, $(b,off) \
     skips certification.  A bare $(b,--certify) means $(b,repair).  \
     Passivity is an S-parameter property, so $(b,check) and \
     $(b,repair) refuse Y- and Z-parameter input."
  in
  Arg.(value & opt ~vopt:Certify.Repair m Certify.Off
       & info [ "certify" ] ~docv:"MODE" ~doc)

let print_certificate = function
  | None -> ()
  | Some c -> Printf.printf "certificate: %s\n" (Certify.Certificate.to_string c)

let sample_freqs samples = Array.map (fun s -> s.Sampling.freq) samples

(* ------------------------------------------------------------------ *)
(* fit *)

let algorithm_arg =
  let alg =
    Arg.enum
      [ ("mfti", `Mfti); ("vfti", `Vfti); ("mfti2", `Mfti2); ("vf", `Vf) ]
  in
  let doc = "Fitting algorithm: $(b,mfti) (Algorithm 1), $(b,vfti) \
             (vector-format baseline), $(b,mfti2) (recursive Algorithm 2), \
             or $(b,vf) (vector fitting)." in
  Arg.(value & opt alg `Mfti & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc)

let poles_arg =
  let doc = "Pole count for vector fitting." in
  Arg.(value & opt int 50 & info [ "poles" ] ~docv:"N" ~doc)

let save_model_arg =
  let doc = "Write the fitted state-space model to this file              (mfti-descriptor-v1 text format; reload with              Statespace.Descriptor.load)." in
  Arg.(value & opt (some string) None & info [ "save-model" ] ~docv:"FILE" ~doc)

let plot_arg =
  let doc = "Write an SVG of the per-frequency relative fit error." in
  Arg.(value & opt (some string) None & info [ "plot" ] ~docv:"FILE" ~doc)

let symmetrize_arg =
  let doc = "Symmetrize the data ((S + S^T)/2) before fitting — noise              reduction for reciprocal devices." in
  Arg.(value & flag & info [ "symmetrize" ] ~doc)

(* The three Loewner paths of `fit` and `pack` are strategies over the
   same engine: display name, strategy and options. *)
let loewner_setup ~width ~rank_tol ~seed ~certify alg =
  let rank_rule = rank_rule_of_tol rank_tol in
  let directions = Direction.Orthonormal seed in
  let base = { Engine.default_options with rank_rule; directions; certify } in
  match alg with
  | `Mfti ->
    ("MFTI", Engine.Direct,
     { base with weight = weight_of_width width })
  | `Vfti -> ("VFTI", Engine.Vector, base)
  | `Mfti2 ->
    ( "MFTI-2", Engine.Recursive Engine.Incremental,
      { base with
        weight = Tangential.Uniform (if width = 0 then 2 else width) } )

let run_fit path policy algorithm width rank_tol seed poles save_model plot
    symmetrize certify_mode =
  guarded @@ fun () ->
  let load_diag = Linalg.Diag.create () in
  let data =
    Linalg.Diag.using load_diag (fun () ->
        load ~policy ~certify:certify_mode path)
  in
  List.iter
    (fun (ev : Linalg.Diag.event) ->
      Printf.eprintf "input recovery [%s]: %s\n" ev.Linalg.Diag.site
        ev.Linalg.Diag.detail)
    (Linalg.Diag.events load_diag);
  let samples = Tangential.trim_even data.Rf.Touchstone.samples in
  let samples = if symmetrize then Sampling.symmetrize samples else samples in
  let describe name model rank =
    Printf.printf "%s\n" (Metrics.report ~name model samples);
    Printf.printf "retained order: %d; stable: %b; real: %b\n" rank
      (Poles.is_stable model) (Descriptor.is_real model);
    if data.Rf.Touchstone.parameter = Rf.Touchstone.S then
      match Rf.Passivity.check model with
      | Rf.Passivity.Passive -> Printf.printf "passivity: passive\n"
      | Rf.Passivity.Feedthrough_violation sd ->
        Printf.printf "passivity: VIOLATED at infinite frequency (sigma D = %.4f)\n" sd
      | Rf.Passivity.Violations fs ->
        Printf.printf "passivity: sigma_max(S) crosses 1 at %d frequencies (first %.4g Hz)\n"
          (List.length fs) (List.hd fs)
      | exception Invalid_argument msg ->
        Printf.printf "passivity: not checkable (%s)\n" msg
  in
  let post_process name model =
    (match save_model with
     | None -> ()
     | Some file ->
       Descriptor.save file model;
       Printf.printf "saved model -> %s\n" file);
    match plot with
    | None -> ()
    | Some file ->
      let errs = Metrics.err_vector model samples in
      let points =
        Array.mapi (fun i e -> (samples.(i).Sampling.freq, e)) errs
      in
      Plot.Svg.write_file file
        ~title:(name ^ " fit: per-frequency relative error")
        ~xlabel:"frequency (Hz)" ~ylabel:"|H - S| / |S|"
        ~xaxis:Plot.Svg.Log ~yaxis:Plot.Svg.Log
        [ { Plot.Svg.label = name; points } ];
      Printf.printf "wrote error plot -> %s\n" file
  in
  (match algorithm with
   | `Vf ->
     let options = { Vfit.Vf.default_options with n_poles = poles } in
     let model, _ = Vfit.Vf.fit ~options samples in
     Printf.printf "VF: order %d, ERR %.3e\n" (Vfit.Vf.order model)
       (Vfit.Vf.err model samples);
     let d = Vfit.Vf.to_descriptor model in
     let d =
       match certify_mode with
       | Certify.Off -> d
       | mode ->
         (match
            Certify.run ~options:{ Certify.default_options with mode }
              ~freqs:(sample_freqs samples) d
          with
          | Ok (d, cert) ->
            print_certificate cert;
            d
          | Error e -> Linalg.Mfti_error.raise_error e)
     in
     post_process "VF" d
   | (`Mfti | `Vfti | `Mfti2) as alg ->
     let name, strategy, options =
       loewner_setup ~width ~rank_tol ~seed ~certify:certify_mode alg
     in
     let r = Engine.fit ~options ~strategy samples in
     (match alg with
      | `Mfti2 ->
        Printf.printf "recursive MFTI: used %d/%d units in %d iterations\n"
          r.Engine.selected_units r.Engine.total_units r.Engine.iterations
      | `Mfti | `Vfti -> ());
     describe name r.Engine.model r.Engine.rank;
     print_certificate r.Engine.certificate;
     print_diagnostics r.Engine.diagnostics;
     post_process name r.Engine.model);
  0

let fit_cmd =
  let info = Cmd.info "fit" ~doc:"Fit a macromodel to sampled data." in
  Cmd.v info
    Term.(const run_fit $ touchstone_arg $ policy_arg $ algorithm_arg
          $ width_arg $ rank_tol_arg $ seed_arg $ poles_arg $ save_model_arg
          $ plot_arg $ symmetrize_arg $ certify_arg)

(* ------------------------------------------------------------------ *)
(* engine: drive the staged pipeline explicitly, with per-stage timing *)

let engine_input_arg =
  let doc =
    "Input: Touchstone (.sNp) sampled data for the dense strategies, or \
     an MNA netlist (.ckt, from $(b,mfti gen --netlist)) for the sparse \
     krylov strategies."
  in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let strategy_arg =
  let s =
    Arg.enum
      [ ("direct", `Direct); ("vector", `Vector);
        ("incremental", `Incremental); ("batch", `Batch);
        ("krylov", `Krylov); ("krylov+mfti", `KrylovMfti) ]
  in
  let doc =
    "Engine strategy: $(b,direct) (Algorithm 1), $(b,vector) (VFTI), \
     $(b,incremental) (recursive Algorithm 2 with incremental Loewner \
     assembly), $(b,batch) (recursive over the full pencil), \
     $(b,krylov) (sparse tangential rational Krylov pre-reduction of an \
     MNA netlist) or $(b,krylov+mfti) (Krylov pre-reduction, then the \
     direct MFTI engine on samples of the reduced model)."
  in
  Arg.(value & opt s `Incremental & info [ "strategy" ] ~docv:"STRAT" ~doc)

let shifts_arg =
  let doc =
    "Initial log-spaced interpolation shifts for the krylov strategies."
  in
  Arg.(value & opt int 8 & info [ "shifts" ] ~docv:"N" ~doc)

let krylov_order_arg =
  let doc = "Hard cap on the Krylov-reduced order." in
  Arg.(value & opt int 240 & info [ "krylov-order" ] ~docv:"N" ~doc)

let krylov_tol_arg =
  let doc =
    "Hold-out relative-error target for the adaptive shift rounds."
  in
  Arg.(value & opt float 1e-6 & info [ "krylov-tol" ] ~docv:"TOL" ~doc)

let z0_arg =
  let doc =
    "Reference impedance (ohms) for the Z-to-S conversion of a reduced \
     netlist model."
  in
  Arg.(value & opt float 50. & info [ "z0" ] ~docv:"OHMS" ~doc)

let engine_pack_arg =
  let doc = "Also write the final model as a packed artifact (.mfti)." in
  Arg.(value & opt (some string) None & info [ "pack" ] ~docv:"FILE" ~doc)

let pack_artifact ~path ~fit_err ~out model =
  let name = Filename.remove_extension (Filename.basename path) in
  let artifact = Serve.Artifact.v ~name ~fit_err model in
  Serve.Artifact.save out artifact;
  Printf.printf "packed %s -> %s (order %d, %dx%d ports)\n" name out
    (Engine.Model.order model) (Engine.Model.outputs model)
    (Engine.Model.inputs model)

let batch_arg =
  let doc = "Units moved into the active set per recursion iteration." in
  Arg.(value & opt int 8 & info [ "batch" ] ~docv:"K0" ~doc)

let threshold_arg =
  let doc = "Mean relative held-out residual target for the recursion." in
  Arg.(value & opt float 1e-3 & info [ "threshold" ] ~docv:"TH" ~doc)

let max_iterations_arg =
  let doc = "Recursion iteration cap." in
  Arg.(value & opt int 64 & info [ "max-iterations" ] ~docv:"N" ~doc)

let probe_arg =
  let doc =
    "Score at most this many held-out units per iteration (0 = all)."
  in
  Arg.(value & opt int 0 & info [ "probe" ] ~docv:"N" ~doc)

let holdout_arg =
  let doc =
    "Hold out every Nth sample for error reporting (0 = fit and report \
     on all samples)."
  in
  Arg.(value & opt int 0 & info [ "holdout-every" ] ~docv:"N" ~doc)

(* krylov / krylov+mfti: sparse MNA netlist in, Engine.Model out — the
   certify / pack / serve stages downstream are strategy-blind. *)
let run_engine_krylov ~path ~strategy ~width ~rank_tol ~seed ~certify_mode
    ~flo ~fhi ~shifts ~krylov_order ~krylov_tol ~z0 ~pack_out =
  let ok = function
    | Ok x -> x
    | Error e -> Linalg.Mfti_error.raise_error e
  in
  if not (is_netlist path) then
    validation ~context:"engine"
      (Printf.sprintf
         "strategy krylov reduces a sparse MNA netlist but %s is not a \
          .ckt file; generate one with `mfti gen pdn --grid RxC \
          --netlist FILE`" path);
  let circuit = ok (Rf.Netlist.load path) in
  Printf.printf "netlist: %d nodes, %d states, %d ports\n%!"
    (Rf.Mna.num_nodes circuit) (Rf.Mna.num_states circuit)
    (Rf.Mna.num_ports circuit);
  let sys = Krylov.of_mna circuit in
  let koptions =
    { Krylov.default_options with
      f_lo = flo; f_hi = fhi; shifts; max_order = krylov_order;
      tol = krylov_tol; z0 = Some z0 }
  in
  let diag = Linalg.Diag.create () in
  let model, kr =
    Linalg.Diag.using diag (fun () ->
        match strategy with
        | `Krylov ->
          let kr = ok (Krylov.reduce ~options:koptions sys) in
          let m =
            match certify_mode with
            | Certify.Off -> kr.Krylov.model
            | mode ->
              ok
                (Engine.Model.certify
                   ~options:{ Certify.default_options with mode }
                   ~freqs:(Sampling.logspace flo fhi 64) kr.Krylov.model)
          in
          (m, kr)
        | `KrylovMfti ->
          let fit_options =
            { Engine.default_options with
              weight =
                (if width = 0 then Tangential.Full
                 else Tangential.Uniform width);
              rank_rule = rank_rule_of_tol rank_tol;
              directions = Direction.Orthonormal seed;
              certify = certify_mode }
          in
          ok (Krylov.fit_mfti ~options:koptions ~fit_options sys))
  in
  List.iter
    (fun (stage, dt) -> Printf.printf "krylov %-9s %9.4f s\n" stage dt)
    kr.Krylov.timings;
  Printf.printf "krylov: order %d from %d shifts, %d factorizations\n"
    kr.Krylov.order
    (Array.length kr.Krylov.shift_freqs)
    kr.Krylov.factorizations;
  Array.iteri
    (fun i e -> Printf.printf "round %d: hold-out err %.3e\n" (i + 1) e)
    kr.Krylov.history;
  (match strategy with
   | `KrylovMfti ->
     List.iter
       (fun (stage, dt) -> Printf.printf "stage %-9s %9.4f s\n" stage dt)
       (Engine.Model.timings model)
   | `Krylov -> ());
  Printf.printf "retained order: %d; stable: %b; real: %b\n"
    (Engine.Model.rank model) (Engine.Model.stable model)
    (Engine.Model.is_real model);
  print_certificate (Engine.Model.certificate model);
  print_diagnostics diag;
  (match pack_out with
   | None -> ()
   | Some out ->
     let h = kr.Krylov.history in
     let fit_err =
       if Array.length h > 0 then h.(Array.length h - 1) else Float.nan
     in
     pack_artifact ~path ~fit_err ~out model);
  0

let run_engine path policy strategy width rank_tol seed batch threshold
    max_iterations probe holdout_every certify_mode flo fhi
    shifts krylov_order krylov_tol z0 pack_out =
  guarded @@ fun () ->
  Option.iter check_destination pack_out;
  match strategy with
  | (`Krylov | `KrylovMfti) as strategy ->
    run_engine_krylov ~path ~strategy ~width ~rank_tol ~seed ~certify_mode
      ~flo ~fhi ~shifts ~krylov_order ~krylov_tol ~z0 ~pack_out
  | (`Direct | `Vector | `Incremental | `Batch) as strategy ->
  if is_netlist path then
    validation ~context:"engine"
      "netlist (.ckt) input needs --strategy krylov or krylov+mfti; the \
       dense strategies fit sampled Touchstone data";
  let data = load ~policy ~certify:certify_mode path in
  let dataset = Dataset.of_samples data.Rf.Touchstone.samples in
  let dataset =
    if holdout_every > 0 then
      match Dataset.partition ~every:holdout_every dataset with
      | Ok d -> d
      | Error e -> Linalg.Mfti_error.raise_error e
    else dataset
  in
  let dataset = Dataset.trim_even dataset in
  let samples = Dataset.fit_samples dataset in
  let strategy =
    match strategy with
    | `Direct -> Engine.Direct
    | `Vector -> Engine.Vector
    | `Incremental -> Engine.Recursive Engine.Incremental
    | `Batch -> Engine.Recursive Engine.Batch
  in
  let base =
    match strategy with
    | Engine.Recursive _ -> Engine.default_recursive_options
    | Engine.Direct | Engine.Vector -> Engine.default_options
  in
  let options =
    { base with
      weight =
        (match strategy with
         | Engine.Recursive _ ->
           Tangential.Uniform (if width = 0 then 2 else width)
         | Engine.Direct | Engine.Vector -> weight_of_width width);
      rank_rule = rank_rule_of_tol rank_tol;
      directions = Direction.Orthonormal seed;
      batch; threshold; max_iterations;
      probe = (if probe > 0 then Some probe else None);
      certify = certify_mode }
  in
  let ok = function
    | Ok x -> x
    | Error e -> Linalg.Mfti_error.raise_error e
  in
  let st = ok (Engine.ingest ~options ~strategy dataset) in
  ok (Engine.assemble st);
  ok (Engine.realify st);
  ok (Engine.reduce st);
  ok (Engine.certify st);
  let m = ok (Engine.model st) in
  List.iter
    (fun (stage, dt) -> Printf.printf "stage %-9s %9.4f s\n" stage dt)
    (Engine.Model.timings m);
  (match Engine.Model.stats m with
   | Some s when s.Engine.Model.iterations > 0 ->
     Printf.printf "units: %d/%d in %d iterations\n"
       s.Engine.Model.selected_units s.Engine.Model.total_units
       s.Engine.Model.iterations
   | _ -> ());
  let report_samples =
    if Dataset.holdout_size dataset > 0 then Dataset.holdout_samples dataset
    else samples
  in
  Printf.printf "%s\n"
    (Engine.Model.report ~name:"engine" m report_samples);
  Printf.printf "retained order: %d; stable: %b; real: %b\n"
    (Engine.Model.rank m) (Engine.Model.stable m) (Engine.Model.is_real m);
  print_certificate (Engine.Model.certificate m);
  print_diagnostics (Engine.Model.diagnostics m);
  (match pack_out with
   | None -> ()
   | Some out ->
     pack_artifact ~path ~fit_err:(Engine.Model.err m report_samples) ~out m);
  0

let engine_cmd =
  let info =
    Cmd.info "engine"
      ~doc:"Run the staged fitting engine with per-stage timings."
  in
  Cmd.v info
    Term.(const run_engine $ engine_input_arg $ policy_arg $ strategy_arg
          $ width_arg $ rank_tol_arg $ seed_arg $ batch_arg $ threshold_arg
          $ max_iterations_arg $ probe_arg $ holdout_arg $ certify_arg
          $ flo_arg $ fhi_arg $ shifts_arg $ krylov_order_arg
          $ krylov_tol_arg $ z0_arg $ engine_pack_arg)

(* ------------------------------------------------------------------ *)
(* gen *)

let kind_arg =
  let kind = Arg.enum [ ("pdn", `Pdn); ("ladder", `Ladder) ] in
  let doc = "Workload kind: $(b,pdn) (power distribution network) or \
             $(b,ladder) (RLC transmission line)." in
  Arg.(required & pos 0 (some kind) None & info [] ~docv:"KIND" ~doc)

let out_arg =
  let doc = "Output Touchstone file (port count must match extension)." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let ports_arg =
  let doc = "Number of ports for the PDN." in
  Arg.(value & opt int 4 & info [ "ports" ] ~docv:"P" ~doc)

let points_arg =
  let doc = "Number of frequency points." in
  Arg.(value & opt int 100 & info [ "points"; "n" ] ~docv:"N" ~doc)

let noise_arg =
  let doc = "Relative measurement-noise level (e.g. 0.001 = -60 dB)." in
  Arg.(value & opt float 0. & info [ "noise" ] ~docv:"LEVEL" ~doc)

let grid_arg =
  let doc =
    "PDN plane grid as $(b,ROWSxCOLS) (e.g. $(b,316x316) for a \
     ~100k-node plane).  Planes beyond 2500 nodes use resistive \
     segments so the MNA order stays at the node count."
  in
  Arg.(value & opt (some string) None & info [ "grid" ] ~docv:"RxC" ~doc)

let nodes_arg =
  let doc =
    "Approximate PDN node budget; expands to the smallest square grid \
     with at least this many nodes."
  in
  Arg.(value & opt (some int) None & info [ "nodes" ] ~docv:"N" ~doc)

let decaps_arg =
  let doc =
    "Decoupling capacitors placed on the plane (default: half the port \
     count, at least 2)."
  in
  Arg.(value & opt (some int) None & info [ "decaps" ] ~docv:"D" ~doc)

let netlist_arg =
  let doc =
    "Write the PDN as an MNA netlist (.ckt) instead of (or in addition \
     to) sampling it; feed the file to \
     $(b,mfti engine --strategy krylov)."
  in
  Arg.(value & opt (some string) None & info [ "netlist" ] ~docv:"FILE" ~doc)

let parse_grid s =
  let fail () =
    validation ~context:"gen"
      (Printf.sprintf
         "--grid %s: expected ROWSxCOLS with both sides >= 2 (e.g. 64x64)"
         s)
  in
  match String.split_on_char 'x' (String.lowercase_ascii s) with
  | [ rows; cols ] ->
    (match
       (int_of_string_opt (String.trim rows),
        int_of_string_opt (String.trim cols))
     with
     | Some r, Some c when r >= 2 && c >= 2 -> (r, c)
     | Some _, Some _ -> fail ()
     | _ -> fail ())
  | _ -> fail ()

let write_workload ~out ~noise ~seed samples =
  let samples =
    if noise > 0. then Rf.Noise.add_relative ~seed ~level:noise samples
    else samples
  in
  let expected = Rf.Touchstone.ports_of_filename out in
  let actual, _ = Sampling.port_dims samples in
  if expected <> actual then
    validation ~context:"gen"
      (Printf.sprintf "workload has %d ports but %s implies %d" actual out
         expected);
  Rf.Touchstone.write_file out
    { Rf.Touchstone.parameter = Rf.Touchstone.S; z0 = 50.; samples }
    ~comment:"generated by mfti gen";
  Printf.printf "wrote %d samples, %d ports -> %s\n" (Array.length samples)
    actual out

let run_gen kind out ports points flo fhi noise seed grid nodes decaps
    netlist =
  guarded @@ fun () ->
  if out = None && netlist = None then
    validation ~context:"gen" "nothing to write: pass --out and/or --netlist";
  if ports <= 0 then
    validation ~context:"gen"
      (Printf.sprintf "--ports %d: need at least one port" ports);
  if out <> None && points <= 0 then
    validation ~context:"gen"
      (Printf.sprintf "--points %d: need at least one frequency point"
         points);
  (match nodes with
   | Some n when n <= 0 ->
     validation ~context:"gen"
       (Printf.sprintf "--nodes %d: the node budget must be positive" n)
   | _ -> ());
  (match decaps with
   | Some d when d < 0 ->
     validation ~context:"gen"
       (Printf.sprintf "--decaps %d: the decap count cannot be negative" d)
   | _ -> ());
  let dims =
    match (grid, nodes) with
    | Some _, Some _ ->
      validation ~context:"gen"
        "--grid and --nodes are two ways to size the same plane; pass one"
    | Some g, None -> Some (parse_grid g)
    | None, Some n ->
      let side =
        Stdlib.max 2 (int_of_float (ceil (sqrt (float_of_int n))))
      in
      Some (side, side)
    | None, None -> None
  in
  match kind with
  | `Ladder ->
    if dims <> None || netlist <> None then
      validation ~context:"gen"
        "--grid/--nodes/--netlist size a PDN plane; use `gen pdn`";
    let out = Option.get out in
    let freqs = Sampling.logspace flo fhi points in
    write_workload ~out ~noise ~seed
      (Rf.Ladder.scattering Rf.Ladder.default_spec ~z0:50. freqs);
    0
  | `Pdn ->
    let nx, ny =
      match dims with
      | Some (rows, cols) -> (cols, rows)
      | None ->
        let side =
          Stdlib.max 3
            (int_of_float (ceil (sqrt (float_of_int (2 * ports)))))
        in
        (side, side)
    in
    let node_count = nx * ny in
    let decaps =
      match decaps with Some d -> d | None -> Stdlib.max 2 (ports / 2)
    in
    if ports + decaps > node_count then
      validation ~context:"gen"
        (Printf.sprintf
           "%d ports + %d decaps need distinct grid nodes but the %dx%d \
            plane only has %d"
           ports decaps ny nx node_count);
    let spec =
      { Rf.Pdn.default_spec with
        nx; ny; ports; decaps; plane_rl = node_count <= 2500; seed }
    in
    (match netlist with
     | None -> ()
     | Some file ->
       let circuit = Rf.Pdn.build spec in
       Rf.Netlist.save file circuit;
       Printf.printf "wrote netlist: %d nodes, %d states, %d ports -> %s\n"
         (Rf.Mna.num_nodes circuit) (Rf.Mna.num_states circuit)
         (Rf.Mna.num_ports circuit) file);
    (match out with
     | None -> ()
     | Some out ->
       let freqs = Sampling.logspace flo fhi points in
       let samples =
         if node_count > 600 then
           Rf.Pdn.scattering_sparse spec ~z0:50. freqs
         else Rf.Pdn.scattering spec ~z0:50. freqs
       in
       write_workload ~out ~noise ~seed samples);
    0

let gen_cmd =
  let info =
    Cmd.info "gen"
      ~doc:
        "Generate a synthetic workload as Touchstone samples and/or an \
         MNA netlist."
  in
  Cmd.v info
    Term.(const run_gen $ kind_arg $ out_arg $ ports_arg $ points_arg
          $ flo_arg $ fhi_arg $ noise_arg $ seed_arg $ grid_arg $ nodes_arg
          $ decaps_arg $ netlist_arg)

(* ------------------------------------------------------------------ *)
(* compare *)

let run_compare path rank_tol seed =
  guarded @@ fun () ->
  let data = load path in
  let samples = Tangential.trim_even data.Rf.Touchstone.samples in
  let rank_rule = rank_rule_of_tol rank_tol in
  let directions = Direction.Orthonormal seed in
  Printf.printf "%-22s %8s %10s %12s\n" "algorithm" "order" "time(s)" "ERR";
  let row name f =
    let t0 = Sys.time () in
    let order, err = f () in
    Printf.printf "%-22s %8d %10.3f %12.3e\n%!" name order (Sys.time () -. t0) err
  in
  let engine name strategy base =
    row name (fun () ->
        let options = { base with Engine.rank_rule; directions } in
        let r = Engine.fit ~options ~strategy samples in
        (r.Engine.rank, Metrics.err r.Engine.model samples))
  in
  engine "VFTI" Engine.Vector Engine.default_options;
  engine "MFTI-1 (t=2)" Engine.Direct
    { Engine.default_options with weight = Tangential.Uniform 2 };
  engine "MFTI-1 (full)" Engine.Direct Engine.default_options;
  engine "MFTI-2 (recursive)" (Engine.Recursive Engine.Incremental)
    Engine.default_recursive_options;
  row "VF (n=50)" (fun () ->
      let model, _ =
        Vfit.Vf.fit ~options:{ Vfit.Vf.default_options with n_poles = 50 } samples
      in
      (Vfit.Vf.order model, Vfit.Vf.err model samples));
  0

let compare_cmd =
  let info = Cmd.info "compare" ~doc:"Run every algorithm and tabulate." in
  Cmd.v info Term.(const run_compare $ touchstone_arg $ rank_tol_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* info *)

let run_info path =
  guarded @@ fun () ->
  let data = load path in
  let samples = data.Rf.Touchstone.samples in
  let p, m = Sampling.port_dims samples in
  let k = Array.length samples in
  Printf.printf "%s: %d samples, %dx%d matrices, z0 = %g ohm\n" path k p m
    data.Rf.Touchstone.z0;
  Printf.printf "band: %.4g Hz .. %.4g Hz\n" samples.(0).Sampling.freq
    samples.(k - 1).Sampling.freq;
  Printf.printf "max singular value over samples: %.6f %s\n"
    (Rf.Sparams.max_singular_value samples)
    (if Rf.Sparams.max_singular_value samples <= 1. +. 1e-9 then "(passive)"
     else "(NOT passive)");
  0

let info_cmd =
  let info = Cmd.info "info" ~doc:"Summarize a Touchstone file." in
  Cmd.v info Term.(const run_info $ touchstone_arg)

(* ------------------------------------------------------------------ *)
(* pack: fit and persist a binary model artifact *)

let pack_out_arg =
  let doc = "Output artifact file (.mfti)." in
  Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let pack_name_arg =
  let doc = "Artifact name recorded in the header (default: input file)." in
  Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)

(* Fit with the same algorithm switch as `fit`, returning the unified
   model wrapper plus the samples it was fitted on. *)
let fit_to_model ~algorithm ~width ~rank_tol ~seed ~poles ~certify samples =
  match algorithm with
  | `Vf ->
    let m =
      Vfit.Vf.fit_model
        ~options:{ Vfit.Vf.default_options with n_poles = poles } samples
    in
    (match certify with
     | Certify.Off -> m
     | mode ->
       (match
          Engine.Model.certify
            ~options:{ Certify.default_options with mode }
            ~freqs:(sample_freqs samples) m
        with
        | Ok m -> m
        | Error e -> Linalg.Mfti_error.raise_error e))
  | (`Mfti | `Vfti | `Mfti2) as alg ->
    let _, strategy, options =
      loewner_setup ~width ~rank_tol ~seed ~certify alg
    in
    Engine.Model.of_fit (Engine.fit ~options ~strategy samples)

let run_pack path policy algorithm width rank_tol seed poles out name
    certify =
  guarded @@ fun () ->
  check_destination out;
  let data = load ~policy ~certify path in
  let samples = Tangential.trim_even data.Rf.Touchstone.samples in
  let model =
    fit_to_model ~algorithm ~width ~rank_tol ~seed ~poles ~certify samples
  in
  let fit_err = Engine.Model.err model samples in
  let name = match name with Some n -> n | None -> Filename.basename path in
  let artifact = Serve.Artifact.v ~name ~fit_err model in
  Serve.Artifact.save out artifact;
  let bytes = (Unix.stat out).Unix.st_size in
  Printf.printf "packed %s -> %s (order %d, %dx%d ports, ERR %.3e, %d bytes)\n"
    name out (Engine.Model.order model) (Engine.Model.outputs model)
    (Engine.Model.inputs model) fit_err bytes;
  print_certificate (Engine.Model.certificate model);
  0

let pack_cmd =
  let info =
    Cmd.info "pack"
      ~doc:"Fit a macromodel and write a binary artifact (.mfti)."
  in
  Cmd.v info
    Term.(const run_pack $ touchstone_arg $ policy_arg $ algorithm_arg
          $ width_arg $ rank_tol_arg $ seed_arg $ poles_arg $ pack_out_arg
          $ pack_name_arg $ certify_arg)

(* ------------------------------------------------------------------ *)
(* inspect: decode an artifact header (checksum-verified by load) *)

let artifact_arg =
  let doc = "Packed model artifact (.mfti)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"ARTIFACT" ~doc)

let run_inspect path =
  guarded @@ fun () ->
  let art = Serve.Artifact.load_exn path in
  let m = art.Serve.Artifact.model in
  Printf.printf "artifact: %s (format v%d, checksum ok)\n" path
    Serve.Artifact.format_version;
  Printf.printf "name: %s\n" art.Serve.Artifact.name;
  (* a NaN/inf timestamp must print as "unknown", not feed Unix.gmtime *)
  Printf.printf "created: %s\n"
    (let c = art.Serve.Artifact.created in
     if Float.is_finite c && c >= 0. then
       let tm = Unix.gmtime c in
       Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ"
         (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
         tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
     else "unknown");
  Printf.printf "order %d, %d outputs x %d inputs, rank %d\n"
    (Engine.Model.order m) (Engine.Model.outputs m) (Engine.Model.inputs m)
    (Engine.Model.rank m);
  Printf.printf "fit error: %s\n"
    (let e = art.Serve.Artifact.fit_err in
     if Float.is_nan e then "unknown" else Printf.sprintf "%.3e" e);
  Printf.printf "singular values kept: %d\n"
    (Array.length (Engine.Model.sigma m));
  (match Engine.Model.stats m with
   | Some s ->
     Printf.printf "fit: %d/%d units in %d iterations\n"
       s.Engine.Model.selected_units s.Engine.Model.total_units
       s.Engine.Model.iterations
   | None -> ());
  (match Engine.Model.certificate m with
   | Some c ->
     Printf.printf "certificate: %s\n" (Certify.Certificate.to_string c)
   | None -> Printf.printf "certificate: none (uncertified)\n");
  List.iter
    (fun (stage, dt) -> Printf.printf "stage %-9s %9.4f s\n" stage dt)
    (Engine.Model.timings m);
  let compiled = Serve.Compiled.of_model m in
  Printf.printf "compiled: %s (%d poles)\n"
    (match Serve.Compiled.mode compiled with
     | Serve.Compiled.Pole_residue -> "pole-residue"
     | Serve.Compiled.Direct -> "direct Hessenberg-triangular solve")
    (Array.length (Serve.Compiled.poles compiled));
  0

let inspect_cmd =
  let info =
    Cmd.info "inspect" ~doc:"Print a packed artifact's metadata."
  in
  Cmd.v info Term.(const run_inspect $ artifact_arg)

(* ------------------------------------------------------------------ *)
(* serve: line-delimited-JSON evaluation server *)

let root_arg =
  let doc = "Directory of packed artifacts; <id>.mfti serves model <id>." in
  Arg.(required & opt (some dir) None & info [ "root" ] ~docv:"DIR" ~doc)

let socket_arg =
  let doc =
    "Listen on a Unix domain socket at this path instead of stdio."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc =
    "Listen on TCP at $(docv) (e.g. 127.0.0.1:7070; port 0 picks an \
     ephemeral port, printed at startup) instead of stdio.  Mutually \
     exclusive with $(b,--socket)."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let cache_mb_arg =
  let doc = "Model cache budget in MiB." in
  Arg.(value & opt int 256 & info [ "cache-mb" ] ~docv:"MB" ~doc)

let workers_arg =
  let doc = "Worker pool size for the socket transport (>= 1)." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let queue_arg =
  let doc =
    "Admission queue capacity; connections beyond it are shed with a \
     typed 'overloaded' response."
  in
  Arg.(value & opt int 16 & info [ "queue" ] ~docv:"N" ~doc)

let request_timeout_arg =
  let doc =
    "Per-request deadline in milliseconds (also bounds how long a \
     partially-received frame may stall)."
  in
  Arg.(value & opt int 5000
       & info [ "request-timeout-ms" ] ~docv:"MS" ~doc)

let drain_arg =
  let doc =
    "Graceful-drain budget in milliseconds: on shutdown, in-flight \
     connections get this long to finish before being force-closed."
  in
  Arg.(value & opt int 2000 & info [ "drain-ms" ] ~docv:"MS" ~doc)

let admission_arg =
  let a =
    Arg.enum
      [ ("open", Serve.Server.Open); ("warn", Serve.Server.Warn);
        ("strict", Serve.Server.Strict) ]
  in
  let doc =
    "Admission policy for uncertified or failed-certification models: \
     $(b,strict) refuses them with a typed response, $(b,warn) serves \
     them but counts the lapse in stats, $(b,open) ignores \
     certification."
  in
  Arg.(value & opt a Serve.Server.Warn
       & info [ "admission" ] ~docv:"POLICY" ~doc)

let report_quarantine server =
  List.iter
    (fun (q : Serve.Artifact.quarantine) ->
      Printf.eprintf "mfti serve: quarantined %s -> %s: %s\n%!"
        q.original q.quarantined
        (Linalg.Mfti_error.to_string q.reason))
    (Serve.Server.quarantined server)

let run_serve root socket tcp cache_mb workers queue request_timeout_ms
    drain_ms admission =
  guarded @@ fun () ->
  if cache_mb < 0 then invalid_arg "serve: cache budget must be >= 0";
  if workers < 1 then invalid_arg "serve: --workers must be >= 1";
  if queue < 1 then invalid_arg "serve: --queue must be >= 1";
  if request_timeout_ms < 1 then
    invalid_arg "serve: --request-timeout-ms must be >= 1";
  if drain_ms < 0 then invalid_arg "serve: --drain-ms must be >= 0";
  if socket <> None && tcp <> None then
    invalid_arg "serve: --socket and --tcp are mutually exclusive";
  let server =
    Serve.Server.create ~cache_bytes:(cache_mb * 1024 * 1024) ~admission
      ~root ()
  in
  report_quarantine server;
  let listen =
    match (socket, tcp) with
    | Some path, None -> Some (Serve.Listener.Unix_path path)
    | None, Some addr ->
      (match Serve.Listener.parse_addr addr with
       | Serve.Listener.Tcp _ as l -> Some l
       | Serve.Listener.Unix_path _ ->
         invalid_arg "serve: --tcp wants HOST:PORT")
    | None, None -> None
    | Some _, Some _ -> assert false
  in
  (match listen with
   | None -> ignore (Serve.Server.serve_channels server stdin stdout)
   | Some listen ->
     let config =
       { Serve.Supervisor.default_config with
         workers; queue; request_timeout_ms; drain_ms }
     in
     let sup = Serve.Supervisor.start ~config server ~listen in
     (match (listen, Serve.Supervisor.bound_port sup) with
      | Serve.Listener.Tcp (host, _), Some port ->
        Printf.eprintf
          "mfti serve: listening on %s:%d (%d workers, queue %d)\n%!" host
          port workers queue
      | Serve.Listener.Unix_path path, _ ->
        Printf.eprintf
          "mfti serve: listening on %s (%d workers, queue %d)\n%!" path
          workers queue
      | _ -> ());
     Serve.Supervisor.wait sup;
     Serve.Supervisor.stop sup);
  Printf.eprintf "mfti serve: %s\n%!"
    (Serve.Sjson.to_string (Serve.Server.stats_json server));
  0

let serve_cmd =
  let info =
    Cmd.info "serve"
      ~doc:
        "Serve eval-grid/model-info queries over stdio, a Unix socket, or \
         TCP (socket/TCP transports are supervised: worker pool, \
         deadlines, load shedding, graceful drain, binary frame \
         negotiation)."
  in
  Cmd.v info
    Term.(const run_serve $ root_arg $ socket_arg $ tcp_arg $ cache_mb_arg
          $ workers_arg $ queue_arg $ request_timeout_arg $ drain_arg
          $ admission_arg)

(* ------------------------------------------------------------------ *)
(* route: sharded, replicated serving tier *)

let route_listen_arg =
  let doc =
    "Address clients connect to: HOST:PORT (port 0 = ephemeral, printed \
     at startup) or a Unix socket path."
  in
  Arg.(required & opt (some string) None
       & info [ "listen" ] ~docv:"ADDR" ~doc)

let route_replica_arg =
  let doc =
    "Replica server address (HOST:PORT or socket path); repeatable.  \
     Models shard over the replicas by consistent hashing on the model \
     id."
  in
  Arg.(non_empty & opt_all string [] & info [ "replica" ] ~docv:"ADDR" ~doc)

let route_vnodes_arg =
  let doc = "Virtual nodes per replica on the hash ring." in
  Arg.(value & opt int 64 & info [ "vnodes" ] ~docv:"N" ~doc)

let route_probe_arg =
  let doc = "Health-probe period in milliseconds." in
  Arg.(value & opt int 200 & info [ "probe-interval-ms" ] ~docv:"MS" ~doc)

let route_fail_threshold_arg =
  let doc = "Consecutive probe failures before a replica is down." in
  Arg.(value & opt int 3 & info [ "fail-threshold" ] ~docv:"N" ~doc)

let route_failover_arg =
  let doc =
    "Extra ring candidates tried after a connection-level failure."
  in
  Arg.(value & opt int 2 & info [ "max-failover" ] ~docv:"N" ~doc)

let route_hold_arg =
  let doc =
    "Hold a fresh eval-grid batch open this many milliseconds so \
     concurrent requests for the same model coalesce into one upstream \
     call (0 = only coalesce naturally-concurrent requests)."
  in
  Arg.(value & opt int 0 & info [ "coalesce-hold-ms" ] ~docv:"MS" ~doc)

let route_conns_arg =
  let doc = "Client connection cap; beyond it connections are shed." in
  Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)

let run_route listen replicas vnodes probe_interval_ms fail_threshold
    max_failover request_timeout_ms coalesce_hold_ms max_conns =
  guarded @@ fun () ->
  let listen = Serve.Listener.parse_addr listen in
  let config =
    { Serve.Router.default_config with
      vnodes; probe_interval_ms; fail_threshold; max_failover;
      request_timeout_ms; coalesce_hold_ms; max_conns }
  in
  let rt = Serve.Router.start ~config ~listen ~replicas () in
  (match (listen, Serve.Router.bound_port rt) with
   | Serve.Listener.Tcp (host, _), Some port ->
     Printf.eprintf "mfti route: listening on %s:%d over %d replicas\n%!"
       host port (List.length replicas)
   | Serve.Listener.Unix_path p, _ ->
     Printf.eprintf "mfti route: listening on %s over %d replicas\n%!" p
       (List.length replicas)
   | _ -> ());
  Serve.Router.wait rt;
  Serve.Router.stop rt;
  let s = Serve.Router.stats rt in
  Printf.eprintf
    "mfti route: %d requests, %d forwarded, %d failovers, %d coalesce \
     hits, %d timeouts, %d unavailable\n%!"
    s.Serve.Router.rt_requests s.Serve.Router.rt_forwarded
    s.Serve.Router.rt_failovers s.Serve.Router.rt_coalesce_hits
    s.Serve.Router.rt_timeouts s.Serve.Router.rt_unavailable;
  0

let route_cmd =
  let info =
    Cmd.info "route"
      ~doc:
        "Front a fleet of replica servers: shard models by consistent \
         hashing, health-check and fail over between replicas, coalesce \
         concurrent eval-grid requests, and negotiate binary frames on \
         both sides."
  in
  Cmd.v info
    Term.(const run_route $ route_listen_arg $ route_replica_arg
          $ route_vnodes_arg $ route_probe_arg $ route_fail_threshold_arg
          $ route_failover_arg $ request_timeout_arg $ route_hold_arg
          $ route_conns_arg)

(* ------------------------------------------------------------------ *)
(* fit-stream: drive a server-resident streaming fit session *)

let stream_socket_arg =
  let doc =
    "Address of a running server: the Unix socket of $(b,mfti serve \
     --socket), or HOST:PORT for $(b,mfti serve --tcp) / $(b,mfti \
     route).  Connection attempts retry with capped exponential \
     backoff."
  in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"ADDR" ~doc)

let batches_arg =
  let doc = "Stream the fitting samples in this many batches." in
  Arg.(value & opt int 3 & info [ "batches" ] ~docv:"N" ~doc)

let suggest_arg =
  let doc =
    "Ask the server for this many adaptive next-frequency suggestions \
     before finalizing (0 = skip)."
  in
  Arg.(value & opt int 2 & info [ "suggest" ] ~docv:"N" ~doc)

let model_id_arg =
  let doc =
    "Model id the finalized fit is packed under in the server's store \
     (default: the input file's base name)."
  in
  Arg.(value & opt (some string) None & info [ "model-id" ] ~docv:"ID" ~doc)

let stream_fail message =
  Linalg.Mfti_error.raise_error
    (Linalg.Mfti_error.Validation { context = "fit-stream"; message })

(* Connect to a server address (HOST:PORT or Unix socket path) with
   capped exponential backoff.  Giving up is a typed diagnostic naming
   the attempt count, never a raw Unix error. *)
let connect_with_retry ?(attempts = 5) ?(base_ms = 100) ?(cap_ms = 2_000)
    ~fail addr_s =
  let addr =
    match Serve.Listener.parse_addr addr_s with
    | a -> a
    | exception Linalg.Mfti_error.Error _ -> Serve.Listener.Unix_path addr_s
  in
  let rec go n delay_ms =
    let timeout_s = float_of_int cap_ms /. 1000. in
    match Serve.Listener.connect addr ~timeout_s with
    | Ok fd -> fd
    | Error msg ->
      if n >= attempts then
        fail
          (Printf.sprintf
             "gave up connecting to %s after %d attempts (capped \
              exponential backoff): %s"
             addr_s attempts msg)
      else begin
        Unix.sleepf (float_of_int delay_ms /. 1000.);
        go (n + 1) (Stdlib.min cap_ms (delay_ms * 2))
      end
  in
  go 1 base_ms

let sample_json (s : Sampling.sample) =
  let p, m = Linalg.Cmat.dims s.Sampling.s in
  Serve.Sjson.Obj
    [ ("freq", Serve.Sjson.Num s.Sampling.freq);
      ( "s",
        Serve.Sjson.Arr
          (List.init p (fun i ->
               Serve.Sjson.Arr
                 (List.init m (fun j ->
                      let z = Linalg.Cmat.get s.Sampling.s i j in
                      Serve.Sjson.Arr
                        [ Serve.Sjson.Num z.Linalg.Cx.re;
                          Serve.Sjson.Num z.Linalg.Cx.im ])))) ) ]

let stream_request oc ic req =
  output_string oc (Serve.Sjson.to_string req);
  output_char oc '\n';
  flush oc;
  match input_line ic with
  | exception End_of_file -> stream_fail "server closed the connection"
  | line ->
    let resp =
      match Serve.Sjson.parse line with
      | resp -> resp
      | exception Serve.Sjson.Parse_error m ->
        stream_fail ("unparseable server response: " ^ m)
    in
    (match Serve.Sjson.member "ok" resp with
     | Some (Serve.Sjson.Bool true) -> resp
     | _ ->
       let detail =
         match Serve.Sjson.member "error" resp with
         | Some err ->
           (match (Serve.Sjson.member "kind" err,
                   Serve.Sjson.member "message" err) with
            | Some (Serve.Sjson.Str k), Some (Serve.Sjson.Str m) ->
              k ^ ": " ^ m
            | _ -> line)
         | None -> line
       in
       stream_fail ("server refused: " ^ detail))

let jstr resp name =
  match Serve.Sjson.member name resp with
  | Some (Serve.Sjson.Str s) -> s
  | _ -> stream_fail (Printf.sprintf "response is missing string %S" name)

let jnum resp name =
  match Serve.Sjson.member name resp with
  | Some (Serve.Sjson.Num f) -> f
  | _ -> stream_fail (Printf.sprintf "response is missing number %S" name)

let run_fit_stream path policy socket batches holdout_every width rank_tol
    certify_mode suggest model_id =
  guarded @@ fun () ->
  if batches < 1 then invalid_arg "fit-stream: --batches must be >= 1";
  if suggest < 0 then invalid_arg "fit-stream: --suggest must be >= 0";
  let data = load ~policy ~certify:certify_mode path in
  let samples = data.Rf.Touchstone.samples in
  let fit, held =
    if holdout_every > 0 then Sampling.partition ~every:holdout_every samples
    else (samples, [||])
  in
  let fit = Tangential.trim_even fit in
  if Array.length fit < 2 then
    stream_fail "need at least one sample pair to stream";
  let p, m = Sampling.port_dims fit in
  let model_id =
    match model_id with
    | Some id -> id
    | None -> Filename.remove_extension (Filename.basename path)
  in
  let sock = connect_with_retry ~fail:stream_fail socket in
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  Fun.protect
    ~finally:(fun () ->
      (try close_out oc with Sys_error _ -> ());
      (try close_in ic with Sys_error _ -> ()))
  @@ fun () ->
  let request = stream_request oc ic in
  let open_fields =
    [ ("op", Serve.Sjson.Str "fit-open");
      ( "ports",
        if p = m then Serve.Sjson.Num (float_of_int p)
        else
          Serve.Sjson.Arr
            [ Serve.Sjson.Num (float_of_int p);
              Serve.Sjson.Num (float_of_int m) ] );
      ("certify", Serve.Sjson.Str (certify_name certify_mode)) ]
    @ (if width > 0 then [ ("width", Serve.Sjson.Num (float_of_int width)) ]
       else [])
    @ (if rank_tol <> 0. then [ ("rank-tol", Serve.Sjson.Num rank_tol) ]
       else [])
  in
  let opened = request (Serve.Sjson.Obj open_fields) in
  let session = jstr opened "session" in
  Printf.printf "session %s: %dx%d ports, ttl %gs\n%!" session p m
    (jnum opened "ttl_s");
  let npairs = Array.length fit / 2 in
  let per_batch = Stdlib.max 1 ((npairs + batches - 1) / batches) in
  let b = ref 0 in
  while !b * per_batch < npairs do
    let lo = !b * per_batch * 2 in
    let hi = Stdlib.min (Array.length fit) ((!b + 1) * per_batch * 2) in
    let chunk = Array.sub fit lo (hi - lo) in
    let resp =
      request
        (Serve.Sjson.Obj
           [ ("op", Serve.Sjson.Str "fit-add-samples");
             ("session", Serve.Sjson.Str session);
             ( "samples",
               Serve.Sjson.Arr
                 (Array.to_list (Array.map sample_json chunk)) ) ])
    in
    Printf.printf "batch %d: +%d samples (%d total), stage %s\n%!" (!b + 1)
      (Array.length chunk)
      (int_of_float (jnum resp "samples"))
      (jstr resp "stage");
    incr b
  done;
  if Array.length held > 0 then begin
    let resp =
      request
        (Serve.Sjson.Obj
           [ ("op", Serve.Sjson.Str "fit-add-samples");
             ("session", Serve.Sjson.Str session);
             ("holdout", Serve.Sjson.Bool true);
             ( "samples",
               Serve.Sjson.Arr
                 (Array.to_list (Array.map sample_json held)) ) ])
    in
    Printf.printf "hold-out: +%d samples (%d total)\n%!" (Array.length held)
      (int_of_float (jnum resp "holdout_samples"))
  end;
  let status =
    request
      (Serve.Sjson.Obj
         [ ("op", Serve.Sjson.Str "fit-status");
           ("session", Serve.Sjson.Str session);
           ("refit", Serve.Sjson.Bool true) ])
  in
  (match Serve.Sjson.member "holdout_err" status with
   | Some (Serve.Sjson.Num e) ->
     Printf.printf "refit: stage %s, hold-out ERR %.3e\n%!"
       (jstr status "stage") e
   | _ -> Printf.printf "refit: stage %s\n%!" (jstr status "stage"));
  if suggest > 0 then begin
    let resp =
      request
        (Serve.Sjson.Obj
           [ ("op", Serve.Sjson.Str "fit-suggest");
             ("session", Serve.Sjson.Str session);
             ("count", Serve.Sjson.Num (float_of_int suggest)) ])
    in
    match Serve.Sjson.member "suggestions" resp with
    | Some (Serve.Sjson.Arr suggestions) ->
      Printf.printf "suggested next frequencies:\n";
      List.iter
        (fun s ->
          Printf.printf "  %.6g Hz (score %.3e)\n" (jnum s "freq")
            (jnum s "score"))
        suggestions;
      Printf.printf "%!"
    | _ -> stream_fail "fit-suggest response has no suggestions"
  end;
  let fin =
    request
      (Serve.Sjson.Obj
         [ ("op", Serve.Sjson.Str "fit-finalize");
           ("session", Serve.Sjson.Str session);
           ("model", Serve.Sjson.Str model_id);
           ("name", Serve.Sjson.Str (Filename.basename path)) ])
  in
  let fit_err =
    match Serve.Sjson.member "fit_err" fin with
    | Some (Serve.Sjson.Num e) -> Printf.sprintf "%.3e" e
    | _ -> "n/a"
  in
  Printf.printf "finalized: model %s, order %d, rank %d, ERR %s%s\n%!"
    (jstr fin "model")
    (int_of_float (jnum fin "order"))
    (int_of_float (jnum fin "rank"))
    fit_err
    (match Serve.Sjson.member "certificate" fin with
     | Some (Serve.Sjson.Obj _) -> " (certified)"
     | _ -> "");
  0

let fit_stream_cmd =
  let info =
    Cmd.info "fit-stream"
      ~doc:
        "Stream a Touchstone file into a server-resident fit session in \
         batches, ask for adaptive next frequencies, and finalize into \
         the server's model store."
  in
  Cmd.v info
    Term.(const run_fit_stream $ touchstone_arg $ policy_arg
          $ stream_socket_arg $ batches_arg $ holdout_arg $ width_arg
          $ rank_tol_arg $ certify_arg $ suggest_arg $ model_id_arg)

let () =
  let doc = "matrix-format tangential interpolation macromodeling" in
  let info = Cmd.info "mfti" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ fit_cmd; engine_cmd; gen_cmd; compare_cmd; info_cmd; pack_cmd;
            inspect_cmd; serve_cmd; route_cmd; fit_stream_cmd ]))
