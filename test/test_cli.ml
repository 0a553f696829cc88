(* End-to-end smoke tests for the mfti command-line tool.

   The test binary runs in _build/default/test/, and the dune rule
   declares the CLI as a dependency, so it sits at ../bin/mfti_cli.exe. *)

let cli =
  (* resolve relative to this test binary, so it works under both
     `dune runtest` (cwd = _build/default/test) and `dune exec` *)
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "mfti_cli.exe"))

let run ?(env = "") args =
  let out = Filename.temp_file "mfti_cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s %s > %s 2>&1" env (Filename.quote cli) args out
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains what needle text =
  if not (contains ~needle text) then
    Alcotest.failf "%s: expected %S in output:\n%s" what needle text

let workload = Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_test.s2p"

let test_gen () =
  let code, text =
    run (Printf.sprintf "gen ladder --points 40 --f-hi 2e10 --out %s" workload)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "gen" "wrote 40 samples, 2 ports" text;
  Alcotest.(check bool) "file exists" true (Sys.file_exists workload)

let test_info () =
  let code, text = run (Printf.sprintf "info %s" workload) in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "info" "40 samples, 2x2 matrices" text;
  check_contains "info" "passive" text

let test_fit () =
  let code, text = run (Printf.sprintf "fit %s" workload) in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "fit" "MFTI: order" text;
  check_contains "fit" "stable: true" text;
  check_contains "fit" "passivity:" text

let test_fit_save_and_plot () =
  let tmp = Filename.get_temp_dir_name () in
  let model = Filename.concat tmp "mfti_cli_model_sym.mfti" in
  let plot = Filename.concat tmp "mfti_cli_err.svg" in
  let code, text =
    run (Printf.sprintf "fit %s --symmetrize --out %s --plot %s"
           workload model plot)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "save" "packed mfti_cli_test.s2p ->" text;
  check_contains "plot" "wrote error plot" text;
  Alcotest.(check bool) "model file" true (Sys.file_exists model);
  Alcotest.(check bool) "plot file" true (Sys.file_exists plot);
  Sys.remove model;
  Sys.remove plot

let test_fit_vf () =
  let code, text = run (Printf.sprintf "fit %s --strategy vf --poles 21" workload) in
  Alcotest.(check int) "exit code" 0 code;
  (* the report line gives the realization's order (poles x inputs);
     the retained order is the pole count *)
  check_contains "vf fit" "VF: order 42" text;
  check_contains "vf fit" "retained order: 21" text

let test_compare () =
  let code, text = run (Printf.sprintf "compare %s" workload) in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "compare" "VFTI" text;
  check_contains "compare" "MFTI-1 (full)" text;
  check_contains "compare" "VF (n=50)" text

let test_bad_input () =
  let code, _ = run "fit /nonexistent.s2p" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  let code, _ = run "gen ladder --out /tmp/wrong_ports.s7p" in
  Alcotest.(check bool) "port mismatch rejected" true (code <> 0)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* a 2-port body with one garbage line spliced into the middle *)
let dirty_body =
  "# HZ S RI R 50\n\
   1e6 0.1 0 0.9 0 0.9 0 0.1 0\n\
   not a data line at all\n\
   2e6 0.2 0 0.8 0 0.8 0 0.2 0\n\
   3e6 0.3 0 0.7 0 0.7 0 0.3 0\n\
   4e6 0.4 0 0.6 0 0.6 0 0.4 0\n"

let test_exit_codes () =
  let dirty = Filename.concat (Filename.get_temp_dir_name ()) "mfti_dirty.s2p" in
  write_file dirty dirty_body;
  (* strict (default): corrupt data is a parse error -> sysexits EX_DATAERR *)
  let code, text = run (Printf.sprintf "fit %s" dirty) in
  Alcotest.(check int) "corrupt file exits 65" 65 code;
  check_contains "parse diagnostic" "mfti:" text;
  let code, _ = run (Printf.sprintf "info %s" dirty) in
  Alcotest.(check int) "info exits 65 too" 65 code;
  Sys.remove dirty

let test_lenient_recovers () =
  let dirty = Filename.concat (Filename.get_temp_dir_name ()) "mfti_dirty2.s2p" in
  write_file dirty dirty_body;
  let code, text = run (Printf.sprintf "fit --lenient %s" dirty) in
  Alcotest.(check int) "lenient fit succeeds" 0 code;
  check_contains "recovery reported" "input recovery" text;
  check_contains "fit ran" "MFTI: order" text;
  check_contains "diagnostics line" "diagnostics:" text;
  Sys.remove dirty

(* fit --out -> inspect -> serve: the full artifact lifecycle over the CLI *)
let artifact_path =
  Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_model.mfti"

let netlist_path =
  Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_grid.ckt"

let test_pack () =
  let code, text =
    run (Printf.sprintf "fit %s --out %s --name ladder" workload artifact_path)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "pack" "packed ladder ->" text;
  check_contains "pack" "2x2 ports" text;
  Alcotest.(check bool) "artifact exists" true (Sys.file_exists artifact_path)

(* packing into a directory that does not exist is a usage error that
   names the path, for every strategy *)
let test_pack_missing_dir () =
  let out =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_no_such_dir")
      "x.mfti"
  in
  List.iter
    (fun cmd ->
      let code, text = run (Printf.sprintf "%s %s" cmd out) in
      Alcotest.(check int) (cmd ^ " exits 64") 64 code;
      check_contains "diagnostic" ("cannot write " ^ out) text;
      (* the destination is refused before any stage runs *)
      List.iter
        (fun stage ->
          Alcotest.(check bool)
            (Printf.sprintf "%s prints no %S" cmd stage)
            false (contains ~needle:stage text))
        [ "diagnostics:"; "stage "; "MFTI:"; "VF:"; "netlist:"; "packed " ])
    [ Printf.sprintf "fit %s --out" workload;
      Printf.sprintf "fit %s --strategy vf --out" workload;
      Printf.sprintf "fit %s --out" netlist_path ]

let test_inspect () =
  let code, text = run (Printf.sprintf "inspect %s" artifact_path) in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "inspect" "format v2, checksum ok" text;
  check_contains "inspect" "name: ladder" text;
  check_contains "inspect" "certificate: none (uncertified)" text;
  check_contains "inspect" "2 outputs x 2 inputs" text;
  check_contains "inspect" "compiled: pole-residue" text

let test_inspect_corrupt () =
  let bad = Filename.concat (Filename.get_temp_dir_name ()) "mfti_bad.mfti" in
  let ic = open_in_bin artifact_path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string s in
  Bytes.set b (Bytes.length b / 2)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 1));
  let oc = open_out_bin bad in
  output_bytes oc b;
  close_out oc;
  let code, text = run (Printf.sprintf "inspect %s" bad) in
  Alcotest.(check int) "corrupt artifact exits 65" 65 code;
  check_contains "diagnostic" "checksum" text;
  Sys.remove bad

let test_serve_stdio () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_root" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let model = Filename.concat root "ladder.mfti" in
  let code, _ = run (Printf.sprintf "fit %s --out %s" workload model) in
  Alcotest.(check int) "pack for serving" 0 code;
  let requests =
    Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_requests"
  in
  write_file requests
    "{\"op\":\"list-models\"}\n\
     {\"op\":\"eval-grid\",\"model\":\"ladder\",\"freqs\":[1e6,1e9]}\n\
     {\"op\":\"model-info\",\"model\":\"missing\"}\n\
     {\"op\":\"shutdown\"}\n";
  let out = Filename.temp_file "mfti_cli_serve" ".out" in
  let cmd =
    Printf.sprintf "%s serve --root %s < %s > %s 2>/dev/null"
      (Filename.quote cli) (Filename.quote root) (Filename.quote requests) out
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  Sys.remove requests;
  Alcotest.(check int) "serve exit code" 0 code;
  check_contains "list" "\"id\": \"ladder\"" text;
  check_contains "eval" "\"op\": \"eval-grid\", \"model\": \"ladder\", \"points\": 2"
    text;
  check_contains "typed error" "\"ok\": false" text;
  check_contains "typed error kind" "\"kind\": \"validation\"" text;
  check_contains "shutdown ack" "\"op\": \"shutdown\"" text

(* gen --netlist -> fit --strategy krylov: the sparse pipeline *)
let test_gen_netlist () =
  let code, text =
    run (Printf.sprintf "gen pdn --grid 10x10 --ports 2 --netlist %s"
           netlist_path)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "netlist header" "wrote netlist: 10" text;
  check_contains "ports" "2 ports" text;
  Alcotest.(check bool) "netlist exists" true (Sys.file_exists netlist_path)

let test_gen_refusals () =
  let expect_64 what args =
    let code, text = run args in
    Alcotest.(check int) (what ^ " exits 64") 64 code;
    check_contains what "invalid input (gen)" text
  in
  expect_64 "zero grid side" "gen pdn --grid 0x5 --netlist /tmp/x.ckt";
  expect_64 "garbage grid" "gen pdn --grid 4by4 --netlist /tmp/x.ckt";
  expect_64 "zero node budget" "gen pdn --nodes 0 --netlist /tmp/x.ckt";
  expect_64 "no outputs" "gen pdn";
  expect_64 "ladder has no plane" "gen ladder --netlist /tmp/x.ckt";
  expect_64 "overfull plane"
    "gen pdn --grid 3x3 --ports 9 --netlist /tmp/x.ckt"

let test_engine_krylov () =
  let code, text =
    run
      (Printf.sprintf
         "fit %s --strategy krylov --f-lo 1e6 --f-hi 1e9 --shifts 4 \
          --krylov-order 96"
         netlist_path)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "netlist echoed" "netlist: 10" text;
  check_contains "reduction ran" "krylov: order" text;
  check_contains "adaptive rounds" "round 1: hold-out err" text;
  check_contains "model line" "retained order:" text

let test_engine_krylov_mfti_pack () =
  let packed =
    Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_grid.mfti"
  in
  let code, text =
    run
      (Printf.sprintf
         "fit %s --strategy krylov+mfti --f-lo 1e6 --f-hi 1e9 \
          --shifts 4 --krylov-order 96 --certify --out %s"
         netlist_path packed)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "mfti stage ran" "stage reduce" text;
  check_contains "certified" "certificate:" text;
  check_contains "packed" "packed mfti_cli_grid.ckt ->" text;
  Alcotest.(check bool) "artifact exists" true (Sys.file_exists packed);
  let code, text = run (Printf.sprintf "inspect %s" packed) in
  Alcotest.(check int) "inspect exit code" 0 code;
  check_contains "checksum" "checksum ok" text;
  Sys.remove packed

let test_engine_strategy_mismatch () =
  let code, text =
    run (Printf.sprintf "fit %s --strategy mfti2" netlist_path)
  in
  Alcotest.(check int) "dense on netlist exits 64" 64 code;
  check_contains "mismatch" "needs --strategy krylov" text;
  let code, text =
    run (Printf.sprintf "fit %s --strategy krylov" workload)
  in
  Alcotest.(check int) "krylov on touchstone exits 64" 64 code;
  check_contains "mismatch" "not a" text

(* a netlist with no --strategy runs the Krylov reduction *)
let test_fit_netlist_default () =
  let code, text =
    run
      (Printf.sprintf
         "fit %s --f-lo 1e6 --f-hi 1e9 --shifts 4 --krylov-order 96"
         netlist_path)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "reduction ran" "krylov: order" text;
  check_contains "adaptive rounds" "round 1: hold-out err" text

(* the text after [key] up to the next [stop], from the first [key] *)
let field ~key ~stop text =
  let kl = String.length key and tl = String.length text in
  let rec find i =
    if i + kl > tl then Alcotest.failf "no %S in output:\n%s" key text
    else if String.sub text i kl = key then i + kl
    else find (i + 1)
  in
  let i = find 0 in
  let j = try String.index_from text i stop with Not_found -> tl in
  String.trim (String.sub text i (j - i))

(* --out records the input's basename as the artifact name, whatever
   the strategy *)
let test_fit_out_name () =
  let out =
    Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_named.mfti"
  in
  List.iter
    (fun (args, expected) ->
      let code, text = run (Printf.sprintf "%s --out %s" args out) in
      Alcotest.(check int) (args ^ " exits 0") 0 code;
      check_contains args ("packed " ^ expected ^ " ->") text;
      let code, text = run (Printf.sprintf "inspect %s" out) in
      Alcotest.(check int) "inspect exits 0" 0 code;
      Alcotest.(check string) (args ^ " artifact name") expected
        (field ~key:"name: " ~stop:'\n' text);
      Sys.remove out)
    [ (Printf.sprintf "fit %s" workload, Filename.basename workload);
      (Printf.sprintf "fit %s --strategy vf --poles 12" workload,
       Filename.basename workload);
      (Printf.sprintf
         "fit %s --strategy krylov --f-lo 1e6 --f-hi 1e9 --shifts 4 \
          --krylov-order 96" netlist_path,
       Filename.basename netlist_path) ]

(* with samples held out, the packed fit error is the printed hold-out
   ERR *)
let test_fit_holdout_err () =
  let out =
    Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_held.mfti"
  in
  let code, text =
    run (Printf.sprintf "fit %s --holdout-every 4 --out %s" workload out)
  in
  Alcotest.(check int) "exit code" 0 code;
  (* 40 samples, every 4th held out *)
  check_contains "report on the hold-out set" "over 10 samples" text;
  let report = field ~key:"MFTI: order" ~stop:'\n' text in
  let printed = field ~key:"ERR " ~stop:',' report in
  let code, info = run (Printf.sprintf "inspect %s" out) in
  Alcotest.(check int) "inspect exits 0" 0 code;
  Alcotest.(check string) "packed fit_err = hold-out ERR" printed
    (field ~key:"fit error: " ~stop:'\n' info);
  Sys.remove out

(* the retired commands and options are usage errors *)
let test_retired_commands () =
  List.iter
    (fun args ->
      let code, _ = run args in
      Alcotest.(check int) (args ^ " exits 124") 124 code)
    [ Printf.sprintf "engine %s" workload;
      Printf.sprintf "pack %s --out /tmp/mfti_cli_retired.mfti" workload;
      Printf.sprintf "fit %s --save-model /tmp/mfti_cli_retired.txt" workload;
      Printf.sprintf "fit %s --algorithm mfti" workload;
      Printf.sprintf "fit %s --strategy direct" workload ]

(* a server that accepts and then hangs up without answering: fit-stream
   exits with a typed diagnostic *)
let test_fit_stream_server_closes () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_closer.sock"
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX sock);
  Unix.listen listener 1;
  match Unix.fork () with
  | 0 ->
    (* read the first request line, then hang up *)
    let conn, _ = Unix.accept listener in
    let buf = Bytes.create 4096 in
    let rec until_newline () =
      match Unix.read conn buf 0 (Bytes.length buf) with
      | 0 -> ()
      | k ->
        if not (Bytes.contains (Bytes.sub buf 0 k) '\n') then until_newline ()
    in
    (try until_newline () with Unix.Unix_error _ -> ());
    Unix.close conn;
    Unix._exit 0
  | pid ->
    Unix.close listener;
    let code, text =
      run (Printf.sprintf "fit-stream %s --socket %s" workload sock)
    in
    ignore (Unix.waitpid [] pid);
    Unix.unlink sock;
    Alcotest.(check int) "exits 64" 64 code;
    check_contains "diagnostic" "invalid input (fit-stream)" text;
    check_contains "diagnostic" "connection closed mid-response" text

(* fit-stream to an address nobody serves: retries with backoff, then a
   typed diagnostic, never a raw Unix error *)
let test_fit_stream_gives_up () =
  let sock = Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_nobody.sock" in
  let code, text = run (Printf.sprintf "fit-stream %s --socket %s" workload sock) in
  Alcotest.(check int) "exits 64" 64 code;
  check_contains "diagnostic" "gave up connecting to" text;
  check_contains "attempts" "after 5 attempts" text

(* Passivity is an S-parameter property, so certifying Y/Z data is a
   usage error in every command that fits Touchstone input; without
   --certify the same file still fits. *)
let test_certify_needs_s () =
  let zfile = workload ^ ".z.s2p" in
  let ic = open_in workload in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let header = "# HZ S RI R 50" in
  let i =
    let rec find i =
      if String.sub text i (String.length header) = header then i
      else find (i + 1)
    in
    find 0
  in
  let oc = open_out zfile in
  output_string oc (String.sub text 0 i);
  output_string oc "# HZ Z RI R 50";
  let rest = i + String.length header in
  output_string oc (String.sub text rest (String.length text - rest));
  close_out oc;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ()) "mfti_cli_nobody.sock"
  in
  let packed = zfile ^ ".mfti" in
  List.iter
    (fun mode ->
      List.iter
        (fun cmd ->
          let code, text =
            run (Printf.sprintf "%s --certify %s" (cmd zfile) mode)
          in
          let what = Printf.sprintf "%s --certify %s" (cmd "Z") mode in
          Alcotest.(check int) (what ^ " exits 64") 64 code;
          check_contains what "needs S-parameter data" text;
          check_contains what "Z-parameter data" text)
        [ Printf.sprintf "fit %s";
          (fun f -> Printf.sprintf "fit %s --out %s" f packed);
          Printf.sprintf "fit %s --strategy mfti";
          (fun f -> Printf.sprintf "fit-stream %s --socket %s" f sock) ])
    [ "check"; "repair" ];
  Alcotest.(check bool) "nothing packed" false (Sys.file_exists packed);
  let code, text = run (Printf.sprintf "fit %s --certify off" zfile) in
  Alcotest.(check int) "fit --certify off exits 0" 0 code;
  check_contains "fit" "MFTI: order" text;
  let code, _ = run (Printf.sprintf "fit %s --strategy mfti" zfile) in
  Alcotest.(check int) "mfti without --certify exits 0" 0 code;
  Sys.remove zfile

(* a malformed MFTI_DOMAINS is a usage error with the usual diagnostic,
   not an uncaught exception *)
let test_bad_domains () =
  List.iter
    (fun v ->
      let code, text =
        run
          (Printf.sprintf "gen ladder --points 20 --out %s"
             (Filename.quote (workload ^ ".domains")))
          ~env:(Printf.sprintf "MFTI_DOMAINS=%s" v)
      in
      Alcotest.(check int) ("MFTI_DOMAINS=" ^ v ^ " exits 64") 64 code;
      check_contains "diagnostic" "invalid input (MFTI_DOMAINS)" text)
    [ "abc"; "0"; "-2" ]

(* a rank tolerance outside (0, 1) is a usage error for every fitting
   command, not an order-1 model *)
let test_bad_rank_tol () =
  List.iter
    (fun v ->
      List.iter
        (fun cmd ->
          let code, text =
            run (Printf.sprintf "%s %s --rank-tol=%s" cmd workload v)
          in
          Alcotest.(check int) (cmd ^ " --rank-tol " ^ v ^ " exits 64") 64 code;
          check_contains "diagnostic" "rank tolerance must be in (0, 1)" text)
        [ "fit"; "fit --strategy mfti" ])
    [ "nan"; "inf"; "1.5"; "-0.5" ]

let test_bad_threshold () =
  List.iter
    (fun v ->
      let code, text =
        run
          (Printf.sprintf
             "fit %s --strategy mfti2 --threshold=%s --max-iterations 3"
             workload v)
      in
      Alcotest.(check int) ("--threshold " ^ v ^ " exits 64") 64 code;
      check_contains "diagnostic" "threshold must be >= 0" text)
    [ "nan"; "-1" ]

let test_diagnostics_reported () =
  let code, text = run (Printf.sprintf "fit %s" workload) in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "diagnostics on stderr" "diagnostics:" text

let () =
  Alcotest.run "cli"
    [ ("mfti_cli",
       [ Alcotest.test_case "gen" `Quick test_gen;
         Alcotest.test_case "gen netlist" `Quick test_gen_netlist;
         Alcotest.test_case "info" `Quick test_info;
         Alcotest.test_case "fit" `Quick test_fit;
         Alcotest.test_case "fit vf" `Quick test_fit_vf;
         Alcotest.test_case "fit save/plot" `Quick test_fit_save_and_plot;
         Alcotest.test_case "compare" `Quick test_compare;
         Alcotest.test_case "bad input" `Quick test_bad_input;
         Alcotest.test_case "exit codes" `Quick test_exit_codes;
         Alcotest.test_case "lenient recovery" `Quick test_lenient_recovers;
         Alcotest.test_case "pack" `Quick test_pack;
         Alcotest.test_case "pack into a missing directory" `Quick
           test_pack_missing_dir;
         Alcotest.test_case "inspect" `Quick test_inspect;
         Alcotest.test_case "inspect corrupt" `Quick test_inspect_corrupt;
         Alcotest.test_case "serve over stdio" `Quick test_serve_stdio;
         Alcotest.test_case "gen refusals" `Quick test_gen_refusals;
         Alcotest.test_case "engine krylov" `Quick test_engine_krylov;
         Alcotest.test_case "engine krylov+mfti pack" `Quick
           test_engine_krylov_mfti_pack;
         Alcotest.test_case "engine strategy mismatch" `Quick
           test_engine_strategy_mismatch;
         Alcotest.test_case "fit netlist defaults to krylov" `Quick
           test_fit_netlist_default;
         Alcotest.test_case "fit --out records the input name" `Quick
           test_fit_out_name;
         Alcotest.test_case "fit --out records the hold-out ERR" `Quick
           test_fit_holdout_err;
         Alcotest.test_case "retired commands are usage errors" `Quick
           test_retired_commands;
         Alcotest.test_case "diagnostics reported" `Quick
           test_diagnostics_reported;
         Alcotest.test_case "bad MFTI_DOMAINS" `Quick test_bad_domains;
         Alcotest.test_case "bad rank-tol" `Quick test_bad_rank_tol;
         Alcotest.test_case "bad threshold" `Quick test_bad_threshold;
         Alcotest.test_case "certify needs S-parameters" `Quick
           test_certify_needs_s;
         Alcotest.test_case "fit-stream gives up connecting" `Quick
           test_fit_stream_gives_up;
         Alcotest.test_case "fit-stream server closes" `Quick
           test_fit_stream_server_closes ]) ]
