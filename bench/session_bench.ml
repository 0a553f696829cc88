(* Streaming-session benchmark: adaptive vs uniform frequency selection
   on the synthetic PDN workload, to a fixed hold-out accuracy.

   Both arms stream measurements into an Engine.Session against the
   same PDN oracle (Rf.Pdn.scattering, which evaluates the exact
   descriptor at any requested frequency) and are judged on the same
   dense log-spaced hold-out grid:

     - uniform   marches the sample count up in pairs, each count a
                 fresh log-spaced session, until the hold-out error
                 first reaches the target;
     - adaptive  seeds one session with a small log-spaced batch, then
                 loops Adaptive.suggest -> measure -> append until the
                 same target, so every extra measurement lands where
                 the two half-data surrogates disagree.

   The headline number is the sample ratio adaptive/uniform at equal
   accuracy; the roadmap acceptance bar is <= 0.6, recorded in
   BENCH_session.json.

   Writes BENCH_session.json (or BENCH_session.smoke.json with --smoke,
   which also re-parses the report, validates its fields, and checks
   the committed full report still meets the ratio bar). *)

open Statespace

module Json = Bjson

let fail fmt = Printf.ksprintf failwith fmt

let ok = function
  | Ok v -> v
  | Error e -> fail "session bench: %s" (Linalg.Mfti_error.to_string e)

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run ?(smoke = false) () =
  Util.heading
    (if smoke then "streaming-session benchmark (smoke)"
     else "streaming-session benchmark");
  (* 2-port corner of the PDN plane: decap anti-resonances in the tens
     of MHz and the first plane modes near a GHz, so a log-uniform scan
     spends most of its points on the smooth low-frequency shelf. *)
  let spec = { Rf.Pdn.default_spec with ports = 2; decaps = 3; seed = 7 } in
  let f_lo = 1e6 and f_hi = 2e9 in
  let holdout_n = if smoke then 41 else 101 in
  (* the log-uniform scan plateaus near 3e-4 until ~34 samples finally
     resolve the last plane mode; the adaptive arm clears 2e-5 as soon
     as the surrogates agree, around a dozen samples *)
  let target = if smoke then 5e-2 else 2e-5 in
  let seed_n = 8 in           (* Adaptive.suggest needs >= 8 samples *)
  let step = 2 in             (* one completed pair per adaptive round *)
  let cap = if smoke then 40 else 96 in
  let options =
    { Mfti.Engine.default_options with
      rank_rule = Mfti.Svd_reduce.Tol 1e-9;
      certify = Mfti.Certify.Off }
  in
  let aopts =
    { Mfti.Adaptive.surrogate = options; count = step }
  in
  let oracle freqs = Rf.Pdn.scattering spec ~z0:50. freqs in
  (* hold-out points sit at their own log spacing, coprime with both
     the uniform counts and the adaptive candidate grid *)
  let holdout = oracle (Sampling.logspace f_lo f_hi holdout_n) in
  let p, m = spec.Rf.Pdn.ports, spec.Rf.Pdn.ports in
  Printf.printf
    "%dx%d PDN ports over [%.0e, %.0e] Hz, %d hold-out points, target %.1e\n%!"
    p m f_lo f_hi holdout_n target;

  let open_session () =
    let sess = ok (Mfti.Engine.Session.open_ ~options ~inputs:m ~outputs:p ()) in
    ignore (ok (Mfti.Engine.Session.append ~holdout:true sess holdout));
    sess
  in
  let append sess freqs =
    ignore (ok (Mfti.Engine.Session.append sess (oracle freqs)))
  in
  let holdout_err sess =
    match ok (Mfti.Engine.Session.holdout_err sess) with
    | Some e -> e
    | None -> fail "session bench: hold-out error unavailable"
  in

  (* ---------------------------------------------------------------- *)
  (* uniform arm: fresh log-spaced session per count *)

  let uniform_err n =
    let sess = open_session () in
    append sess (Sampling.logspace f_lo f_hi n);
    holdout_err sess
  in
  let (uniform_n, uniform_e, uniform_trace), uniform_s =
    wall (fun () ->
        let rec march n trace =
          if n > cap then
            fail "session bench: uniform arm missed %.1e by %d samples"
              target cap;
          let e = uniform_err n in
          let trace = (n, e) :: trace in
          if e <= target then (n, e, List.rev trace)
          else march (n + step) trace
        in
        march seed_n [])
  in

  (* ---------------------------------------------------------------- *)
  (* adaptive arm: one live session, suggest -> measure -> append *)

  let (adaptive_n, adaptive_e, adaptive_trace), adaptive_s =
    wall (fun () ->
        let sess = open_session () in
        append sess (Sampling.logspace f_lo f_hi seed_n);
        let rec refine trace =
          let e = holdout_err sess in
          let n = Mfti.Engine.Session.size sess in
          let trace = (n, e) :: trace in
          if e <= target then (n, e, List.rev trace)
          else if n + step > cap then
            fail "session bench: adaptive arm missed %.1e by %d samples"
              target cap
          else begin
            let scores =
              ok (Mfti.Adaptive.suggest ~options:aopts
                    (Mfti.Engine.Session.fit_samples sess))
            in
            if scores = [] then
              fail "session bench: no adaptive suggestions at %d samples" n;
            (* an odd suggestion round would leave a pending sample, so
               pad the pair from the log grid midpoint *)
            let freqs =
              List.map (fun s -> s.Mfti.Adaptive.freq) scores
            in
            let freqs =
              if List.length freqs land 1 = 0 then freqs
              else freqs @ [ Float.sqrt (f_lo *. f_hi) ]
            in
            append sess (Array.of_list freqs);
            refine trace
          end
        in
        refine [])
  in

  let ratio = float_of_int adaptive_n /. float_of_int uniform_n in
  let max_ratio = 0.6 in
  Util.print_table
    ~header:[ "arm"; "samples"; "hold-out err"; "wall" ]
    [ [ "uniform"; string_of_int uniform_n;
        Printf.sprintf "%.2e" uniform_e;
        Printf.sprintf "%.2f s" uniform_s ];
      [ "adaptive"; string_of_int adaptive_n;
        Printf.sprintf "%.2e" adaptive_e;
        Printf.sprintf "%.2f s" adaptive_s ] ];
  Printf.printf "  sample ratio adaptive/uniform: %.2f (bar %.2f)\n%!"
    ratio max_ratio;
  if not smoke && ratio > max_ratio then
    fail "session bench: ratio %.2f exceeds the %.2f acceptance bar"
      ratio max_ratio;

  (* ---------------------------------------------------------------- *)
  (* report *)

  let trace_json trace =
    Json.Arr
      (List.map
         (fun (n, e) ->
           Json.Obj
             [ ("samples", Json.Num (float_of_int n));
               ("holdout_err", Json.Num e) ])
         trace)
  in
  let arm name n e s trace =
    Json.Obj
      [ ("arm", Json.Str name);
        ("samples", Json.Num (float_of_int n));
        ("holdout_err", Json.Num e);
        ("wall_s", Json.Num s);
        ("trace", trace_json trace) ]
  in
  let json =
    Json.Obj
      (Json.std_header ~schema:"mfti-bench-session/1"
         ~tool:"bench/main.exe session" ~smoke
      @ [ ("workload", Json.Str "pdn");
        ("ports", Json.Num (float_of_int p));
        ("f_lo", Json.Num f_lo);
        ("f_hi", Json.Num f_hi);
        ("holdout_points", Json.Num (float_of_int holdout_n));
        ("target_err", Json.Num target);
        ("uniform_samples", Json.Num (float_of_int uniform_n));
        ("adaptive_samples", Json.Num (float_of_int adaptive_n));
        ("ratio", Json.Num ratio);
        ("max_ratio", Json.Num max_ratio);
        ( "results",
          Json.Arr
            [ arm "uniform" uniform_n uniform_e uniform_s uniform_trace;
              arm "adaptive" adaptive_n adaptive_e adaptive_s adaptive_trace
            ] ) ])
  in
  let path =
    if smoke then "BENCH_session.smoke.json" else "BENCH_session.json"
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (adaptive %d vs uniform %d samples, %.2fx)\n%!"
    path adaptive_n uniform_n ratio;

  if smoke then begin
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let parsed = Json.parse text in
    List.iter
      (fun field ->
        if Json.member field parsed = None then
          failwith ("session bench: JSON missing " ^ field))
      [ "schema"; "workload"; "target_err"; "uniform_samples";
        "adaptive_samples"; "ratio"; "max_ratio"; "results" ];
    (match Json.member "schema" parsed with
     | Some (Json.Str "mfti-bench-session/1") -> ()
     | _ -> failwith "session bench: wrong schema tag");
    (match Json.member "results" parsed with
     | Some (Json.Arr ([ _; _ ] as rs)) ->
       List.iter
         (fun r ->
           List.iter
             (fun field ->
               if Json.member field r = None then
                 failwith ("session bench: JSON row missing " ^ field))
             [ "arm"; "samples"; "holdout_err"; "wall_s"; "trace" ])
         rs
     | _ -> failwith "session bench: JSON needs exactly two arm rows");
    (* the committed full report must still clear the acceptance bar *)
    let committed =
      List.find_opt Sys.file_exists
        [ "BENCH_session.json"; "../BENCH_session.json" ]
    in
    (match committed with
     | None -> failwith "session bench: committed BENCH_session.json not found"
     | Some file ->
       let ic = open_in file in
       let len = in_channel_length ic in
       let text = really_input_string ic len in
       close_in ic;
       let full = Json.parse text in
       let num field =
         match Json.member field full with
         | Some (Json.Num v) -> v
         | _ -> fail "session bench: committed report missing %s" field
       in
       let ratio = num "ratio" and bar = num "max_ratio" in
       if ratio > bar then
         fail
           "session bench: committed BENCH_session.json ratio %.2f exceeds \
            the %.2f bar"
           ratio bar;
       Printf.printf
         "smoke: JSON parses, committed ratio %.2f within the %.2f bar\n%!"
         ratio bar)
  end
