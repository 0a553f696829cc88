(* End-to-end benchmark of the repository: four named workloads, the
   metrics BENCHMARK.json names, and a traced per-layer breakdown.

     bash benchmark/run.sh --workload W --seed S [--seconds N]
                           [--trace 0|1|FILE] [--smoke]

   W is grid-json, shard-mix, fit-touchstone, reduce-plane, or all
   (each workload in its own process, so peak memory is per workload).
   Inputs are drawn from S before timing starts; the measured window
   lasts N seconds (default 20).  --trace 1 (or a FILE) makes a
   separate, traced run: spans are kept in memory, written at the end
   as one JSON line each (to FILE, or _e2e/trace-W-seedS.jsonl), and
   summarised as per-layer self times.  --smoke runs tiny fixed-count
   versions (40 reads of 16 points, 1 session, a 4-port 40-point fit,
   a 24x24 plane).

   Output: the host and settings, every metric as `name value unit`,
   then one JSON line {"correct", "attempted", "failed", "metrics"}
   holding every end_to_end metric of BENCHMARK.json (every per_layer
   metric when traced; 0 where the workload has no such layer).  The
   exit code is non-zero when a correctness check fails or a printed
   metric is not one BENCHMARK.json lists.

   The bounded timing is the 10th-percentile operation latency (a read,
   or an offline job), not the median.  On a 2-vCPU Xeon guest whose
   cores are shared with other tenants, a neighbour on the sibling
   hyperthread slows a dense kernel up to 2x for seconds at a time,
   and medians and throughput of identical runs move 10-30%.  The fast
   decile is the cost of the code when it has the core, and it repeats
   better; medians, p99 and throughput are still printed. *)

module Sjson = Serve.Sjson

let workloads =
  [ ("grid-json", Serving.run `Grid_json);
    ("shard-mix", Serving.run `Shard_mix);
    ("fit-touchstone", Offline.fit_touchstone);
    ("reduce-plane", Offline.reduce_plane) ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : string option;   (* span file, when traced *)
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: e2e.exe --workload (grid-json|shard-mix|fit-touchstone|reduce-plane|all) \
     --seed S [--seconds N] [--trace 0|1|FILE] [--smoke]";
  exit 2

let parse_args argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest ->
      go { a with seed = (match int_of_string_opt s with Some s -> s | None -> usage ()) } rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some s when s > 0. -> go { a with seconds = s } rest
       | _ -> usage ())
    | "--trace" :: "0" :: rest -> go { a with trace = None } rest
    | "--trace" :: "1" :: rest -> go { a with trace = Some "" } rest
    | "--trace" :: file :: rest -> go { a with trace = Some file } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | _ -> usage ()
  in
  let a =
    go { workload = ""; seed = 1; seconds = 20.; trace = None; smoke = false }
      (List.tl (Array.to_list argv))
  in
  if a.workload <> "all" && not (List.mem_assoc a.workload workloads) then usage ();
  a

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json: the metric names and units this program may print *)

type catalog = {
  end_to_end : (string * string) list;   (* name, unit *)
  per_layer : (string * string) list;
}

let catalog () =
  match List.find_opt Sys.file_exists [ "BENCHMARK.json"; "../BENCHMARK.json" ] with
  | None -> failwith "BENCHMARK.json not found in . or .."
  | Some path ->
    let json = Sjson.parse (In_channel.with_open_bin path In_channel.input_all) in
    let metrics key =
      match Sjson.member key json with
      | Some (Sjson.Arr ms) ->
        List.map
          (fun m ->
            match (Sjson.member "name" m, Sjson.member "unit" m) with
            | Some (Sjson.Str n), Some (Sjson.Str u) -> (n, u)
            | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
          ms
      | _ -> failwith ("BENCHMARK.json: missing " ^ key)
    in
    { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

(* ------------------------------------------------------------------ *)
(* One workload in this process *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let mkdir_p path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let result_line ~correct ~attempted ~failed metrics =
  Sjson.to_string
    (Sjson.Obj
       [ ("correct", Sjson.Bool correct);
         ("attempted", Sjson.Num (float_of_int attempted));
         ("failed", Sjson.Num (float_of_int failed));
         ( "metrics",
           Sjson.Obj
             (List.map
                (fun (n, v, u) ->
                  (n, Sjson.Obj [ ("value", Sjson.Num v); ("unit", Sjson.Str u) ]))
                metrics) ) ])

let print_self_times tr =
  List.iter
    (fun (name, n, total) ->
      Printf.printf "self %s count=%d total_ms=%.3f mean_ms=%.4f\n" name n
        (Run.ms total) (Run.ms (total /. float_of_int n)))
    (Probe.Trace.self_times tr)

let run_one args =
  let cat = catalog () in
  let cwd = Sys.getcwd () in
  let out_dir = Filename.concat cwd "_e2e" in
  mkdir_p out_dir;
  let trace_file =
    match args.trace with
    | Some "" ->
      Some (Filename.concat out_dir
              (Printf.sprintf "trace-%s-seed%d.jsonl" args.workload args.seed))
    | Some f when Filename.is_relative f -> Some (Filename.concat cwd f)
    | other -> other
  in
  let exe = Sys.executable_name in
  let cli =
    Filename.concat (Filename.dirname (Filename.dirname exe))
      (Filename.concat "bin" "mfti_cli.exe")
  in
  if not (Sys.file_exists cli) then failwith (cli ^ " not built");
  (* socket paths must stay short: work in a relative directory *)
  let dir = Filename.concat out_dir (Printf.sprintf "run-%s-%d" args.workload (Unix.getpid ())) in
  mkdir_p dir;
  Sys.chdir dir;
  let tr = Option.map (fun _ -> Probe.Trace.create args.workload) trace_file in
  let ctx =
    { Run.seed = args.seed; seconds = args.seconds; smoke = args.smoke; trace = tr; cli;
      dir = "." }
  in
  let r =
    Fun.protect (fun () -> (List.assoc args.workload workloads) ctx)
      ~finally:(fun () -> Sys.chdir cwd; rm_rf dir)
  in
  let metrics =
    match tr with
    | None -> r.metrics
    | Some tr ->
      let cost = Probe.Trace.span_cost () in
      r.metrics
      @ [ ( "tracing.overhead",
            Probe.ratio (cost *. float_of_int (Probe.Trace.count tr))
              (Probe.Trace.root_seconds tr),
            "ratio" ) ]
  in
  let host = Probe.host () in
  let settings =
    host
    @ [ ("seed", string_of_int args.seed);
        ("seconds", Printf.sprintf "%g" args.seconds);
        ("smoke", string_of_bool args.smoke) ]
    @ r.settings
  in
  Printf.printf "# e2e %s seed=%d seconds=%g trace=%s%s\n" args.workload args.seed
    args.seconds (if tr = None then "off" else "on") (if args.smoke then " smoke" else "");
  Printf.printf "host %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) host));
  List.iter (fun (k, v) -> Printf.printf "setting %s: %s\n" k v) r.settings;
  List.iter (fun (n, v, u) -> Printf.printf "%s %.6g %s\n" n v u) metrics;
  Option.iter print_self_times tr;
  (match (tr, trace_file) with
   | Some tr, Some file ->
     Probe.Trace.write tr file
       ~settings:(Sjson.Obj (List.map (fun (k, v) -> (k, Sjson.Str v)) settings));
     Printf.printf "spans: %d written to %s\n" (Probe.Trace.count tr) file
   | _ -> ());
  (* every printed name must be catalogued, with the catalogued unit *)
  let known = cat.end_to_end @ cat.per_layer in
  let problems =
    List.filter_map
      (fun (n, _, u) ->
        match List.assoc_opt n known with
        | None -> Some (n ^ " is not listed in BENCHMARK.json")
        | Some u' when u' <> u -> Some (Printf.sprintf "%s: unit %s, BENCHMARK.json says %s" n u u')
        | Some _ -> None)
      metrics
    @ List.filter_map
        (fun (n, _) ->
          if List.exists (fun (m, _, _) -> m = n) metrics then None
          else Some ("end-to-end metric " ^ n ^ " was not measured"))
        cat.end_to_end
  in
  List.iter (fun p -> Printf.printf "error: %s\n" p) problems;
  let reported = if tr = None then cat.end_to_end else cat.per_layer in
  let value n =
    List.find_map (fun (m, v, _) -> if m = n then Some v else None) metrics
    |> Option.value ~default:0.
  in
  let correct = r.failed = 0 && problems = [] in
  print_endline
    (result_line ~correct ~attempted:r.attempted ~failed:r.failed
       (List.map (fun (n, u) -> (n, value n, u)) reported));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* --workload all: one child process per workload *)

let metric_name line =
  match String.split_on_char ' ' line with
  | [ n; v; _ ] when Option.is_some (float_of_string_opt v) -> Some n
  | _ -> None

let run_all args argv =
  let cat = catalog () in
  let results =
    List.map
      (fun (w, _) ->
        let child_args =
          Array.map (fun a -> if a = "all" then w else a) argv
        in
        let rd, wr = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process Sys.executable_name child_args Unix.stdin wr Unix.stderr
        in
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let rec echo last names =
          match input_line ic with
          | line ->
            print_endline line;
            echo line (match metric_name line with Some n -> n :: names | None -> names)
          | exception End_of_file -> (last, names)
        in
        let last, names = echo "" [] in
        close_in ic;
        let _, status = Unix.waitpid [] pid in
        let json = try Sjson.parse last with Sjson.Parse_error _ -> Sjson.Null in
        (w, status = Unix.WEXITED 0, json, names))
      workloads
  in
  let names = List.concat_map (fun (_, _, _, n) -> n) results in
  (* traced: between them the workloads must cover every layer metric *)
  let missing =
    if args.trace = None then []
    else List.filter (fun (n, _) -> not (List.mem n names)) cat.per_layer
  in
  List.iter (fun (n, _) -> Printf.printf "error: no workload measured %s\n" n) missing;
  let total key =
    List.fold_left
      (fun a (_, _, json, _) ->
        match Sjson.member key json with Some (Sjson.Num f) -> a +. f | _ -> a)
      0. results
  in
  let correct = missing = [] && List.for_all (fun (_, ok, _, _) -> ok) results in
  print_endline
    (Sjson.to_string
       (Sjson.Obj
          [ ("correct", Sjson.Bool correct);
            ("attempted", Sjson.Num (total "attempted"));
            ("failed", Sjson.Num (total "failed"));
            ("workloads", Sjson.Obj (List.map (fun (w, _, json, _) -> (w, json)) results)) ]));
  exit (if correct then 0 else 1)

let () =
  let args = parse_args Sys.argv in
  if args.workload = "all" then run_all args Sys.argv else run_one args
