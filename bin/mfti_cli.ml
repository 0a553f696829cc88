(* mfti: command-line macromodeling tool.

   Subcommands:
     fit      fit a Touchstone file (MFTI, recursive MFTI, VFTI, VF) or
              reduce an MNA netlist (Krylov), printing per-stage timings;
              --out writes the binary model artifact (.mfti)
     gen      generate a synthetic workload (PDN or RLC ladder) as Touchstone
     compare  run every algorithm on a Touchstone file and print a table
     info     summarize a Touchstone file
     inspect  print a packed artifact's metadata (checksum-verified)
     serve    answer eval-grid queries over stdio or a Unix socket
     route    front a fleet of serve replicas
     fit-stream  stream a Touchstone file into a server-resident fit
                 session in batches and finalize into the model store

   Examples:
     mfti gen pdn --ports 8 --out board.s8p
     mfti fit board.s8p --width 2
     mfti fit board.s8p --out models/board.mfti
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

let ok = function
  | Ok x -> x
  | Error e -> Linalg.Mfti_error.raise_error e

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
  let data = ok (Rf.Touchstone.read_file_result ~policy path) in
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

let weight_of_width w = if w = 0 then Tangential.Full else Tangential.Uniform w

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

(* ------------------------------------------------------------------ *)
(* fit: every strategy, per-stage timings, and the packed artifact *)

let input_arg =
  let doc =
    "Input: Touchstone (.sNp) sampled data, or an MNA netlist (.ckt, from \
     $(b,mfti gen --netlist)) for the krylov strategies."
  in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let strategy_arg =
  let s =
    Arg.enum
      [ ("mfti", `Mfti); ("mfti2", `Mfti2); ("vfti", `Vfti); ("vf", `Vf);
        ("krylov", `Krylov); ("krylov+mfti", `Krylov_mfti) ]
  in
  let doc =
    "Fitting strategy: $(b,mfti) (Algorithm 1), $(b,mfti2) (recursive \
     Algorithm 2 with incremental Loewner assembly), $(b,vfti) \
     (vector-format baseline), $(b,vf) (vector fitting), $(b,krylov) \
     (sparse tangential rational Krylov reduction of an MNA netlist) or \
     $(b,krylov+mfti) (Krylov reduction, then $(b,mfti) on samples of \
     the reduced model).  Default: $(b,krylov) for a .ckt netlist, \
     $(b,mfti) otherwise."
  in
  Arg.(value & opt (some s) None & info [ "strategy" ] ~docv:"STRAT" ~doc)

let poles_arg =
  let doc = "Pole count for vector fitting." in
  Arg.(value & opt int 50 & info [ "poles" ] ~docv:"N" ~doc)

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

let fit_out_arg =
  let doc = "Write the fitted model as a packed artifact (.mfti)." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let name_arg =
  let doc = "Artifact name recorded in the header (default: input file)." in
  Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)

let plot_arg =
  let doc = "Write an SVG of the per-frequency relative fit error." in
  Arg.(value & opt (some string) None & info [ "plot" ] ~docv:"FILE" ~doc)

let symmetrize_arg =
  let doc =
    "Symmetrize the data ((S + S^T)/2) before fitting — noise reduction \
     for reciprocal devices."
  in
  Arg.(value & flag & info [ "symmetrize" ] ~doc)

let print_stages model =
  List.iter
    (fun (stage, dt) -> Printf.printf "stage %-9s %9.4f s\n" stage dt)
    (Engine.Model.timings model)

(* The engine options every strategy starts from. *)
let engine_options ~rank_tol ~seed ~certify =
  { Engine.default_options with
    rank_rule = (if rank_tol = 0. then Svd_reduce.Gap else Tol rank_tol);
    directions = Direction.Orthonormal seed;
    certify }

(* The engine's certify stage, for the models fitted outside it. *)
let certify_model options ~freqs m =
  match options.Engine.certify with
  | Certify.Off -> m
  | mode ->
    ok
      (Engine.Model.certify ~options:{ Certify.default_options with mode }
         ~freqs m)

(* One Touchstone strategy on a dataset, as `fit` and `compare` run it:
   display name and model.  The block width follows the strategy. *)
let fit_dense ~options ~width ~poles strategy dataset =
  match strategy with
  | `Vf ->
    let m =
      Vfit.Vf.fit_model
        ~options:{ Vfit.Vf.default_options with n_poles = poles }
        (Dataset.fit_samples dataset)
    in
    ("VF", certify_model options ~freqs:(Dataset.frequencies dataset) m)
  | (`Mfti | `Mfti2 | `Vfti) as s ->
    let name, strategy, weight =
      match s with
      | `Mfti -> ("MFTI", Engine.Direct, weight_of_width width)
      | `Vfti -> ("VFTI", Engine.Vector, weight_of_width width)
      | `Mfti2 ->
        ( "MFTI-2", Engine.Recursive Engine.Incremental,
          Tangential.Uniform (if width = 0 then 2 else width) )
    in
    ( name,
      Engine.Model.of_fit
        (ok (Engine.run ~options:{ options with weight } ~strategy dataset)) )

(* krylov / krylov+mfti: sparse MNA netlist in, Engine.Model out — the
   certify / pack / serve stages downstream are strategy-blind.  Returns
   the model, the run's diagnostics and the final hold-out error. *)
let fit_krylov ~options ~width ~flo ~fhi ~shifts ~krylov_order ~krylov_tol
    ~z0 strategy path =
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
          ( certify_model options ~freqs:(Sampling.logspace flo fhi 64)
              kr.Krylov.model,
            kr )
        | `Krylov_mfti ->
          let fit_options = { options with weight = weight_of_width width } in
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
  (match strategy with `Krylov_mfti -> print_stages model | `Krylov -> ());
  let h = kr.Krylov.history in
  let n = Array.length h in
  (model, diag, if n > 0 then h.(n - 1) else Float.nan)

let print_retained model =
  Printf.printf "retained order: %d; stable: %b; real: %b\n"
    (Engine.Model.rank model) (Engine.Model.stable model)
    (Engine.Model.is_real model)

let print_passivity model =
  match Rf.Passivity.check (Engine.Model.descriptor model) with
  | Rf.Passivity.Passive -> Printf.printf "passivity: passive\n"
  | Rf.Passivity.Feedthrough_violation sd ->
    Printf.printf
      "passivity: VIOLATED at infinite frequency (sigma D = %.4f)\n" sd
  | Rf.Passivity.Violations fs ->
    Printf.printf
      "passivity: sigma_max(S) crosses 1 at %d frequencies (first %.4g Hz)\n"
      (List.length fs) (List.hd fs)
  | exception Invalid_argument msg ->
    Printf.printf "passivity: not checkable (%s)\n" msg

let write_plot file ~name model samples =
  let errs = Engine.Model.err_vector model samples in
  let points = Array.mapi (fun i e -> (samples.(i).Sampling.freq, e)) errs in
  Plot.Svg.write_file file
    ~title:(name ^ " fit: per-frequency relative error")
    ~xlabel:"frequency (Hz)" ~ylabel:"|H - S| / |S|" ~xaxis:Plot.Svg.Log
    ~yaxis:Plot.Svg.Log
    [ { Plot.Svg.label = name; points } ];
  Printf.printf "wrote error plot -> %s\n" file

(* The Touchstone strategies: read (with lenient recovery reported),
   hold out, trim, symmetrize, fit, and print the report.  Returns the
   model, its diagnostics and its error on the dataset: the hold-out
   error when samples are held out, else the fit error. *)
let fit_touchstone ~options ~width ~poles ~policy ~holdout_every ~symmetrize
    ~plot strategy path =
  let load_diag = Linalg.Diag.create () in
  let data =
    Linalg.Diag.using load_diag (fun () ->
        load ~policy ~certify:options.Engine.certify path)
  in
  List.iter
    (fun (ev : Linalg.Diag.event) ->
      Printf.eprintf "input recovery [%s]: %s\n" ev.Linalg.Diag.site
        ev.Linalg.Diag.detail)
    (Linalg.Diag.events load_diag);
  let dataset = Dataset.of_samples data.Rf.Touchstone.samples in
  let dataset =
    if holdout_every > 0 then
      ok (Dataset.partition ~every:holdout_every dataset)
    else dataset
  in
  let dataset = Dataset.trim_even dataset in
  let dataset = if symmetrize then Dataset.symmetrize dataset else dataset in
  let name, m = fit_dense ~options ~width ~poles strategy dataset in
  print_stages m;
  (match Engine.Model.stats m with
   | Some s when s.Engine.Model.iterations > 0 ->
     Printf.printf "units: %d/%d in %d iterations\n"
       s.Engine.Model.selected_units s.Engine.Model.total_units
       s.Engine.Model.iterations
   | _ -> ());
  let report_samples =
    if Dataset.holdout_size dataset > 0 then Dataset.holdout_samples dataset
    else Dataset.fit_samples dataset
  in
  Printf.printf "%s\n" (Engine.Model.report ~name m report_samples);
  print_retained m;
  if data.Rf.Touchstone.parameter = Rf.Touchstone.S then print_passivity m;
  Option.iter
    (fun file -> write_plot file ~name m (Dataset.fit_samples dataset))
    plot;
  (m, Engine.Model.diagnostics m,
   Dataset.err (Engine.Model.descriptor m) dataset)

let run_fit path policy strategy width rank_tol seed certify poles batch
    threshold max_iterations probe holdout_every flo fhi shifts krylov_order
    krylov_tol z0 out name plot symmetrize =
  guarded @@ fun () ->
  Option.iter check_destination out;
  let netlist = Filename.check_suffix path ".ckt" in
  let options =
    { (engine_options ~rank_tol ~seed ~certify) with
      batch; threshold; max_iterations;
      probe = (if probe > 0 then Some probe else None) }
  in
  let strategy =
    match strategy with
    | Some s -> s
    | None -> if netlist then `Krylov else `Mfti
  in
  let model, diagnostics, fit_err =
    match strategy with
    | (`Krylov | `Krylov_mfti) as strategy ->
      if not netlist then
        validation ~context:"fit"
          (Printf.sprintf
             "strategy krylov reduces a sparse MNA netlist but %s is not a \
              .ckt file; generate one with `mfti gen pdn --grid RxC \
              --netlist FILE`" path);
      let m, diag, err =
        fit_krylov ~options ~width ~flo ~fhi ~shifts ~krylov_order
          ~krylov_tol ~z0 strategy path
      in
      print_retained m;
      (m, diag, err)
    | (`Mfti | `Mfti2 | `Vfti | `Vf) as strategy ->
      if netlist then
        validation ~context:"fit"
          "netlist (.ckt) input needs --strategy krylov or krylov+mfti; the \
           dense strategies fit sampled Touchstone data";
      fit_touchstone ~options ~width ~poles ~policy ~holdout_every
        ~symmetrize ~plot strategy path
  in
  Option.iter
    (fun c ->
      Printf.printf "certificate: %s\n" (Certify.Certificate.to_string c))
    (Engine.Model.certificate model);
  Printf.eprintf "diagnostics: %s\n%!" (Linalg.Diag.summary diagnostics);
  Option.iter
    (fun out ->
      let name =
        match name with Some n -> n | None -> Filename.basename path
      in
      Serve.Artifact.save out (Serve.Artifact.v ~name ~fit_err model);
      Printf.printf
        "packed %s -> %s (order %d, %dx%d ports, ERR %.3e, %d bytes)\n" name
        out (Engine.Model.order model) (Engine.Model.outputs model)
        (Engine.Model.inputs model) fit_err (Unix.stat out).Unix.st_size)
    out;
  0

let fit_cmd =
  let info =
    Cmd.info "fit"
      ~doc:
        "Fit a macromodel to sampled data or reduce a netlist, with \
         per-stage timings, and optionally write the packed artifact."
  in
  Cmd.v info
    Term.(const run_fit $ input_arg $ policy_arg $ strategy_arg $ width_arg
          $ rank_tol_arg $ seed_arg $ certify_arg $ poles_arg $ batch_arg
          $ threshold_arg $ max_iterations_arg $ probe_arg $ holdout_arg
          $ flo_arg $ fhi_arg $ shifts_arg $ krylov_order_arg
          $ krylov_tol_arg $ z0_arg $ fit_out_arg $ name_arg $ plot_arg
          $ symmetrize_arg)

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
     $(b,mfti fit)."
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
  let dataset =
    Dataset.trim_even (Dataset.of_samples data.Rf.Touchstone.samples)
  in
  let options = engine_options ~rank_tol ~seed ~certify:Certify.Off in
  Printf.printf "%-22s %8s %10s %12s\n" "algorithm" "order" "time(s)" "ERR";
  (* time(s) sums the fit's own stage timings: wall time, whatever the
     domain count *)
  let row label ?(width = 0) strategy =
    let _, m = fit_dense ~options ~width ~poles:50 strategy dataset in
    let seconds =
      List.fold_left (fun acc (_, dt) -> acc +. dt) 0. (Engine.Model.timings m)
    in
    Printf.printf "%-22s %8d %10.3f %12.3e\n%!" label (Engine.Model.rank m)
      seconds
      (Engine.Model.err m (Dataset.fit_samples dataset))
  in
  row "VFTI" `Vfti;
  row "MFTI-1 (t=2)" ~width:2 `Mfti;
  row "MFTI-1 (full)" `Mfti;
  row "MFTI-2 (recursive)" `Mfti2;
  row "VF (n=50)" `Vf;
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

let stream_fail message = validation ~context:"fit-stream" message

(* Connect to a server address (HOST:PORT or Unix socket path) with
   capped exponential backoff: 5 attempts, 100 ms doubling to 2 s.
   Giving up is a typed diagnostic naming the attempt count, never a
   raw Unix error. *)
let connect_with_retry addr_s =
  let attempts = 5 and cap_ms = 2_000 in
  let addr =
    match Serve.Listener.parse_addr addr_s with
    | a -> a
    | exception Linalg.Mfti_error.Error _ -> Serve.Listener.Unix_path addr_s
  in
  let rec go n delay_ms =
    let timeout_s = float_of_int cap_ms /. 1000. in
    match
      Serve.Listener.dial addr ~timeout_s
        ~max_bytes:Serve.Supervisor.default_config.max_line_bytes
        ~binary:false
    with
    | Ok peer -> peer
    | Error msg ->
      if n >= attempts then
        stream_fail
          (Printf.sprintf
             "gave up connecting to %s after %d attempts (capped \
              exponential backoff): %s"
             addr_s attempts msg)
      else begin
        Unix.sleepf (float_of_int delay_ms /. 1000.);
        go (n + 1) (Stdlib.min cap_ms (delay_ms * 2))
      end
  in
  go 1 100

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

(* One JSON round trip; the wait for the reply is unbounded, as a
   streaming refit may take long. *)
let stream_request peer req =
  let line =
    match
      Serve.Listener.call peer ~deadline:infinity (Serve.Sjson.to_string req)
    with
    | `Reply (Serve.Frame.Json_text line) -> line
    | `Reply (Serve.Frame.Grid_body _) ->
      stream_fail "server answered with a binary frame"
    | `Timeout -> stream_fail "server timed out"
    | `Failed m -> stream_fail ("server connection failed: " ^ m)
  in
  let resp =
    match Serve.Sjson.parse line with
    | resp -> resp
    | exception Serve.Sjson.Parse_error m ->
      stream_fail ("unparseable server response: " ^ m)
  in
  match Serve.Sjson.member "ok" resp with
  | Some (Serve.Sjson.Bool true) -> resp
  | _ ->
    let detail =
      match Serve.Sjson.member "error" resp with
      | Some err ->
        (match (Serve.Sjson.member "kind" err,
                Serve.Sjson.member "message" err) with
         | Some (Serve.Sjson.Str k), Some (Serve.Sjson.Str m) -> k ^ ": " ^ m
         | _ -> line)
      | None -> line
    in
    stream_fail ("server refused: " ^ detail)

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
  let peer = connect_with_retry socket in
  Fun.protect ~finally:(fun () -> Serve.Listener.hang_up peer) @@ fun () ->
  let request = stream_request peer in
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
          [ fit_cmd; gen_cmd; compare_cmd; info_cmd; inspect_cmd; serve_cmd;
            route_cmd; fit_stream_cmd ]))
