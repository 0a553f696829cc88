(* Routing-tier suite: consistent-hash ring units, health state
   machine units, and end-to-end chaos against a real fleet — N replica
   supervisors plus a router on Unix sockets, attacked from raw client
   sockets.  The invariants: failover answers are bit-identical to a
   direct replica answer, a flapping replica never causes
   double-execution, coalesced responses are byte-identical, and every
   degraded outcome is a typed response.  All faults are deterministic
   ({!Linalg.Fault} sites). *)

open Linalg
open Statespace
open Serve

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let spec ports =
  { Random_sys.order = 12; ports; rank_d = ports; freq_lo = 1e2;
    freq_hi = 1e6; damping = 0.12; seed = 31 + ports }

let model_of sys =
  Mfti.Engine.Model.make ~sigma:[| 2.0; 1.0 |] ~timings:[]
    ~rank:(Descriptor.order sys) sys

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mfti_router_%d_%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let save_model ?(ports = 2) root id =
  Artifact.save
    (Filename.concat root (id ^ ".mfti"))
    (Artifact.v ~name:id (model_of (Random_sys.generate (spec ports))))

let sup_config =
  { Supervisor.default_config with
    workers = 2; queue = 8; request_timeout_ms = 4_000;
    idle_timeout_ms = 10_000; drain_ms = 500;
    backoff_base_ms = 2; backoff_cap_ms = 20 }

let router_config =
  { Router.default_config with
    vnodes = 64; probe_interval_ms = 40; fail_threshold = 1;
    max_failover = 2; connect_timeout_ms = 1_000;
    request_timeout_ms = 4_000; idle_timeout_ms = 10_000;
    backoff_base_ms = 5; backoff_cap_ms = 50 }

type fleet = {
  root : string;
  replica_paths : string list;
  sups : Supervisor.t array;
  router_path : string;
  router : Router.t;
}

(* a root with [models], [n] replica supervisors over it, one router *)
let with_fleet ?(config = router_config) ?(sup_config = sup_config) ~n ~models
    f =
  let root = fresh_dir () in
  List.iter (save_model root) models;
  let sock_dir = fresh_dir () in
  let replica_paths =
    List.init n (fun i -> Filename.concat sock_dir (Printf.sprintf "r%d.sock" i))
  in
  let sups =
    Array.of_list
      (List.map
         (fun path ->
           let srv = Server.create ~root () in
           Supervisor.start ~config:sup_config srv
             ~listen:(Supervisor.Unix_path path))
         replica_paths)
  in
  let router_path = Filename.concat sock_dir "router.sock" in
  let router =
    Router.start ~config ~listen:(Supervisor.Unix_path router_path)
      ~replicas:replica_paths ()
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.set_spec None;
      Router.stop router;
      Array.iter (fun s -> try Supervisor.stop s with _ -> ()) sups)
    (fun () -> f { root; replica_paths; sups; router_path; router })

(* ------------------------------------------------------------------ *)
(* Raw clients *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send_line fd s =
  let s = s ^ "\n" in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let recv_line ?(timeout = 10.0) fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Alcotest.fail "no response within deadline"
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ ->
          (match Unix.read fd chunk 0 (Bytes.length chunk) with
           | 0 -> Alcotest.fail "connection closed"
           | k ->
             Buffer.add_subbytes buf chunk 0 k;
             go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* one-shot request over a fresh connection *)
let ask ?timeout path line =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> close_quiet fd)
    (fun () ->
      send_line fd line;
      recv_line ?timeout fd)

let parse line =
  match Sjson.parse line with
  | j -> j
  | exception Sjson.Parse_error m ->
    Alcotest.failf "unparseable response %s: %s" line m

let expect_ok what line =
  let j = parse line in
  if Sjson.member "ok" j <> Some (Sjson.Bool true) then
    Alcotest.failf "%s: expected ok, got %s" what line;
  j

let expect_kind what kind line =
  let j = parse line in
  (match Sjson.member "error" j with
   | Some err ->
     (match Sjson.member "kind" err with
      | Some (Sjson.Str k) when k = kind -> ()
      | _ -> Alcotest.failf "%s: expected %S error, got %s" what kind line)
   | None -> Alcotest.failf "%s: expected %S error, got %s" what kind line);
  j

let grid_req id =
  Printf.sprintf
    "{\"op\": \"eval-grid\", \"model\": %S, \"freqs\": [1e3, 4.5e4, 2e5]}" id

let j_num what k j =
  match Sjson.member k j with
  | Some (Sjson.Num f) -> f
  | _ -> Alcotest.failf "%s: missing number %S" what k

(* sum of eval-grid executions across the fleet, from replica stats *)
let fleet_eval_count fleet =
  List.fold_left
    (fun acc path ->
      let j = expect_ok "replica stats" (ask path "{\"op\": \"stats\"}") in
      match Sjson.member "by_op" j with
      | Some ops ->
        (match Sjson.member "eval-grid" ops with
         | Some per ->
           acc + int_of_float (j_num "by_op.eval-grid" "count" per)
         | None -> acc)
      | None -> Alcotest.fail "replica stats missing by_op")
    0 fleet.replica_paths

(* the first model id (from a deterministic candidate pool) whose
   primary replica is [name] under the fleet's ring *)
let model_with_primary fleet name =
  let ring = Router.Ring.make ~vnodes:router_config.Router.vnodes
      fleet.replica_paths in
  let rec go i =
    if i >= 256 then Alcotest.fail "no candidate id hashes to the replica"
    else
      let id = Printf.sprintf "shard%d" i in
      match Router.Ring.candidates ring id with
      | primary :: _ when primary = name -> id
      | _ -> go (i + 1)
  in
  let id = go 0 in
  save_model fleet.root id;
  id

let wait_for ?(timeout = 5.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let replica_state fleet name =
  let s = Router.stats fleet.router in
  match
    List.find_opt (fun r -> r.Router.rp_name = name) s.Router.rt_replicas
  with
  | Some r -> r
  | None -> Alcotest.failf "replica %s missing from router stats" name

(* ------------------------------------------------------------------ *)
(* Ring units *)

let test_ring_deterministic () =
  let names = [ "a"; "b"; "c" ] in
  let r1 = Router.Ring.make ~vnodes:64 names in
  let r2 = Router.Ring.make ~vnodes:64 names in
  for i = 0 to 49 do
    let key = Printf.sprintf "key%d" i in
    Alcotest.(check (list string))
      (Printf.sprintf "candidates stable for %s" key)
      (Router.Ring.candidates r1 key)
      (Router.Ring.candidates r2 key)
  done;
  let cands = Router.Ring.candidates r1 "anything" in
  Alcotest.(check int) "every replica appears once" 3 (List.length cands);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n cands))
    names

let test_ring_distribution () =
  let names = [ "a"; "b"; "c" ] in
  let r = Router.Ring.make ~vnodes:64 names in
  let counts = Hashtbl.create 3 in
  for i = 0 to 299 do
    let primary = List.hd (Router.Ring.candidates r (string_of_int i)) in
    Hashtbl.replace counts primary
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts primary))
  done;
  List.iter
    (fun n ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts n) in
      if c < 30 then
        Alcotest.failf "replica %s owns only %d/300 keys (ring too lumpy)" n c)
    names

let test_ring_consistent_remap () =
  (* adding a replica must only move keys onto the newcomer — a key
     whose primary survives keeps it *)
  let before = Router.Ring.make ~vnodes:64 [ "a"; "b"; "c" ] in
  let after = Router.Ring.make ~vnodes:64 [ "a"; "b"; "c"; "d" ] in
  let moved = ref 0 in
  for i = 0 to 299 do
    let key = string_of_int i in
    let p0 = List.hd (Router.Ring.candidates before key) in
    let p1 = List.hd (Router.Ring.candidates after key) in
    if p1 <> p0 then begin
      incr moved;
      Alcotest.(check string)
        (Printf.sprintf "key %s moved somewhere other than the newcomer" key)
        "d" p1
    end
  done;
  if !moved = 0 then Alcotest.fail "no key moved to the new replica";
  if !moved > 150 then
    Alcotest.failf "%d/300 keys moved (expected ~1/4 for 1 of 4 replicas)"
      !moved

let test_ring_empty_and_bad () =
  Alcotest.(check (list string))
    "empty ring has no candidates" []
    (Router.Ring.candidates (Router.Ring.make ~vnodes:8 []) "k");
  (match Router.Ring.make ~vnodes:0 [ "a" ] with
   | _ -> Alcotest.fail "vnodes=0 accepted"
   | exception Mfti_error.Error (Mfti_error.Validation _) -> ())

(* ------------------------------------------------------------------ *)
(* Health units *)

let test_health_step () =
  let open Router.Health in
  let step s f p = Router.Health.step ~fail_threshold:3 s f p in
  Alcotest.(check bool) "up stays up on ok" true (step Up 0 Ok = (Up, 0));
  Alcotest.(check bool) "first failure suspects" true
    (step Up 0 Failed = (Suspect, 1));
  Alcotest.(check bool) "second failure still suspect" true
    (step Suspect 1 Failed = (Suspect, 2));
  Alcotest.(check bool) "threshold downs" true
    (step Suspect 2 Failed = (Down, 3));
  Alcotest.(check bool) "down stays down on failure" true
    (step Down 3 Failed = (Down, 4));
  Alcotest.(check bool) "ok rejoins from down" true
    (step Down 7 Ok = (Up, 0));
  Alcotest.(check bool) "draining on ok_draining" true
    (step Up 0 Ok_draining = (Draining, 0));
  Alcotest.(check bool) "draining survives failures below threshold" true
    (step Draining 0 Failed = (Draining, 1));
  Alcotest.(check bool) "draining rejoins on plain ok" true
    (step Draining 0 Ok = (Up, 0))

let test_parse_addr () =
  (match Listener.parse_addr "/tmp/x.sock" with
   | Supervisor.Unix_path "/tmp/x.sock" -> ()
   | _ -> Alcotest.fail "path not parsed as unix socket");
  (match Listener.parse_addr "127.0.0.1:7070" with
   | Supervisor.Tcp ("127.0.0.1", 7070) -> ()
   | _ -> Alcotest.fail "host:port not parsed as tcp");
  (match Listener.parse_addr "localhost:0" with
   | Supervisor.Tcp ("localhost", 0) -> ()
   | _ -> Alcotest.fail "port 0 not accepted");
  (match Listener.parse_addr "host:notaport" with
   | _ -> Alcotest.fail "bad port accepted"
   | exception Mfti_error.Error (Mfti_error.Validation _) -> ())

(* ------------------------------------------------------------------ *)
(* End-to-end: basic routing *)

let test_route_basic () =
  with_fleet ~n:3 ~models:[ "alpha"; "beta"; "gamma" ] @@ fun fleet ->
  let j = expect_ok "ping" (ask fleet.router_path "{\"op\": \"ping\"}") in
  Alcotest.(check bool) "not draining" true
    (Sjson.member "draining" j = Some (Sjson.Bool false));
  List.iter
    (fun id ->
      let j =
        expect_ok ("model-info " ^ id)
          (ask fleet.router_path
             (Printf.sprintf "{\"op\": \"model-info\", \"model\": %S}" id))
      in
      ignore (j_num "model-info" "order" j))
    [ "alpha"; "beta"; "gamma" ];
  (* eval-grid through the router is byte-identical to a direct replica
     answer.  Warm both sides first so the cached flag agrees. *)
  List.iter
    (fun id ->
      let req = grid_req id in
      ignore (expect_ok "warm via router" (ask fleet.router_path req));
      let via_router = ask fleet.router_path req in
      ignore (expect_ok "router grid" via_router);
      let direct_path = List.hd fleet.replica_paths in
      ignore (expect_ok "warm direct" (ask direct_path req));
      let direct = ask direct_path req in
      Alcotest.(check string)
        (Printf.sprintf "router response for %s is byte-identical" id)
        direct via_router)
    [ "alpha"; "beta"; "gamma" ];
  (* a missing model is the replica's typed validation error, relayed *)
  ignore
    (expect_kind "unknown model" "validation"
       (ask fleet.router_path (grid_req "no-such-model")));
  (* malformed JSON is relayed to a replica for its typed parse error *)
  ignore
    (expect_kind "bad json" "parse" (ask fleet.router_path "{nope"));
  (* router stats expose the fleet *)
  let s = Router.stats fleet.router in
  Alcotest.(check int) "three replicas" 3 (List.length s.Router.rt_replicas);
  if s.Router.rt_forwarded = 0 then Alcotest.fail "nothing was forwarded"

(* ------------------------------------------------------------------ *)
(* End-to-end: kill a replica, failover is bit-identical *)

let test_failover_kill_bit_identical () =
  (* slow probes: the *request path* must discover the dead replica and
     fail over itself, not find it already probed Down and skipped *)
  let config = { router_config with probe_interval_ms = 60_000 } in
  with_fleet ~config ~n:3 ~models:[] @@ fun fleet ->
  let first = List.hd fleet.replica_paths in
  let id = model_with_primary fleet first in
  let req = grid_req id in
  let ring =
    Router.Ring.make ~vnodes:router_config.Router.vnodes fleet.replica_paths
  in
  let second =
    match Router.Ring.candidates ring id with
    | _ :: s :: _ -> s
    | _ -> Alcotest.fail "ring has no failover candidate"
  in
  (* warm the failover target directly and keep its steady answer *)
  ignore (expect_ok "warm failover target" (ask second req));
  let expected = ask second req in
  ignore (expect_ok "failover target answer" expected);
  (* sanity: the router currently serves this model from the primary *)
  ignore (expect_ok "pre-kill route" (ask fleet.router_path req));
  (* kill the primary mid-fleet *)
  let idx =
    match
      List.find_index (fun p -> p = first) fleet.replica_paths
    with
    | Some i -> i
    | None -> Alcotest.fail "first replica path missing"
  in
  Supervisor.stop fleet.sups.(idx);
  (* the very next request must fail over and answer bit-identically *)
  let via_router = ask fleet.router_path req in
  ignore (expect_ok "post-kill route" via_router);
  Alcotest.(check string) "failover answer is bit-identical" expected
    via_router;
  let s = Router.stats fleet.router in
  if s.Router.rt_failovers < 1 then
    Alcotest.fail "failover not counted";
  (* health converges: the dead replica goes down, the fleet keeps
     answering *)
  wait_for "primary marked down" (fun () ->
      (replica_state fleet first).Router.rp_state = Router.Health.Down);
  ignore (expect_ok "steady after kill" (ask fleet.router_path req))

(* ------------------------------------------------------------------ *)
(* End-to-end: partition fault, then heal and rejoin *)

let test_partition_failover_and_rejoin () =
  with_fleet ~n:3 ~models:[] @@ fun fleet ->
  let first = List.hd fleet.replica_paths in
  let id = model_with_primary fleet first in
  let req = grid_req id in
  ignore (expect_ok "pre-partition" (ask fleet.router_path req));
  Fault.set_spec (Some "router.partition");
  (* requests keep working through failover while probes down the
     partitioned replica *)
  ignore (expect_ok "during partition 1" (ask fleet.router_path req));
  wait_for "partitioned replica down" (fun () ->
      (replica_state fleet first).Router.rp_state = Router.Health.Down);
  ignore (expect_ok "during partition 2" (ask fleet.router_path req));
  let s = Router.stats fleet.router in
  if s.Router.rt_failovers < 1 then
    Alcotest.fail "partition did not cause a failover";
  (* heal: the replica must rejoin and serve again *)
  Fault.set_spec None;
  wait_for "replica rejoined" (fun () ->
      let r = replica_state fleet first in
      r.Router.rp_state = Router.Health.Up && r.Router.rp_rejoins >= 1);
  ignore (expect_ok "after heal" (ask fleet.router_path req))

(* ------------------------------------------------------------------ *)
(* End-to-end: flap x3 converges, no double execution *)

let test_rejoin_flap_no_double_execution () =
  with_fleet ~n:3 ~models:[] @@ fun fleet ->
  let first = List.hd fleet.replica_paths in
  let id = model_with_primary fleet first in
  let req = grid_req id in
  let sent = ref 0 in
  let send () =
    ignore (expect_ok "flap traffic" (ask fleet.router_path req));
    incr sent
  in
  send ();
  Fault.set_spec (Some "router.rejoin_flap");
  (* fail_threshold = 1, so each failed probe downs the replica and
     each ok probe rejoins it: wait through >= 3 full flap cycles *)
  wait_for ~timeout:10.0 "three rejoin cycles" (fun () ->
      (replica_state fleet first).Router.rp_rejoins >= 3);
  for _ = 1 to 6 do
    send ()
  done;
  Fault.set_spec None;
  wait_for "flapping replica settles up" (fun () ->
      (replica_state fleet first).Router.rp_state = Router.Health.Up);
  send ();
  (* every request executed exactly once somewhere in the fleet *)
  let total = fleet_eval_count fleet in
  Alcotest.(check int) "no double execution across the fleet" !sent total

(* ------------------------------------------------------------------ *)
(* End-to-end: coalescing is byte-identical *)

let test_coalescing_byte_identical () =
  let config = { router_config with coalesce_hold_ms = 300 } in
  with_fleet ~config ~n:2 ~models:[ "alpha" ] @@ fun fleet ->
  let req = grid_req "alpha" in
  (* warm so the cached flag is steady *)
  ignore (expect_ok "warm" (ask fleet.router_path req));
  let expected = ask fleet.router_path req in
  ignore (expect_ok "steady answer" expected);
  let before = Router.stats fleet.router in
  let n = 4 in
  let results = Array.make n "" in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            let fd = connect fleet.router_path in
            Fun.protect
              ~finally:(fun () -> close_quiet fd)
              (fun () ->
                send_line fd req;
                results.(i) <- recv_line fd))
          ())
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      ignore (expect_ok (Printf.sprintf "coalesced client %d" i) r);
      Alcotest.(check string)
        (Printf.sprintf "client %d byte-identical to the steady answer" i)
        expected r)
    results;
  let after = Router.stats fleet.router in
  let hits = after.Router.rt_coalesce_hits - before.Router.rt_coalesce_hits in
  let batches =
    after.Router.rt_coalesce_batches - before.Router.rt_coalesce_batches
  in
  if hits < 1 then
    Alcotest.failf "no coalescing observed (%d batches, %d hits)" batches
      hits;
  if batches + hits <> n then
    Alcotest.failf "coalescing accounting off: %d batches + %d hits <> %d"
      batches hits n

(* a coalesced batch over *different* grids still demuxes each waiter
   exactly its own frequencies *)
let test_coalescing_demux_subsets () =
  let config = { router_config with coalesce_hold_ms = 300 } in
  with_fleet ~config ~n:2 ~models:[ "alpha" ] @@ fun fleet ->
  let req_of freqs =
    Printf.sprintf "{\"op\": \"eval-grid\", \"model\": \"alpha\", \"freqs\": [%s]}"
      (String.concat ", " freqs)
  in
  let grids =
    [| req_of [ "1e3"; "2e5" ]; req_of [ "7e3" ];
       req_of [ "2e5"; "1e3" ]; req_of [ "1e3"; "7e3"; "2e5" ] |]
  in
  (* steady direct answers, warmed *)
  let expected =
    Array.map
      (fun r ->
        ignore (expect_ok "warm" (ask fleet.router_path r));
        ask fleet.router_path r)
      grids
  in
  let n = Array.length grids in
  let results = Array.make n "" in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            let fd = connect fleet.router_path in
            Fun.protect
              ~finally:(fun () -> close_quiet fd)
              (fun () ->
                send_line fd grids.(i);
                results.(i) <- recv_line fd))
          ())
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      ignore (expect_ok (Printf.sprintf "demux client %d" i) r);
      Alcotest.(check string)
        (Printf.sprintf "demux client %d got exactly its own grid" i)
        expected.(i) r)
    results

(* ------------------------------------------------------------------ *)
(* End-to-end: slow replica is a typed timeout, never a failover *)

let test_slow_replica_typed_timeout () =
  with_fleet ~n:3 ~models:[] @@ fun fleet ->
  let first = List.hd fleet.replica_paths in
  let id = model_with_primary fleet first in
  let req = grid_req id in
  ignore (expect_ok "pre-fault" (ask fleet.router_path req));
  let before = Router.stats fleet.router in
  Fault.set_spec (Some "router.slow_replica");
  ignore (expect_kind "slow replica" "timeout" (ask fleet.router_path req));
  Fault.set_spec None;
  let after = Router.stats fleet.router in
  Alcotest.(check int) "timeout counted" 1
    (after.Router.rt_timeouts - before.Router.rt_timeouts);
  Alcotest.(check int) "no failover on timeout" 0
    (after.Router.rt_failovers - before.Router.rt_failovers)

(* ------------------------------------------------------------------ *)
(* End-to-end: runtime registration *)

let test_register_replica () =
  with_fleet ~n:2 ~models:[ "alpha" ] @@ fun fleet ->
  ignore (expect_ok "pre-register" (ask fleet.router_path (grid_req "alpha")));
  (* bring up a third replica over the same store and register it *)
  let path = Filename.concat (fresh_dir ()) "r-late.sock" in
  let srv = Server.create ~root:fleet.root () in
  let sup =
    Supervisor.start ~config:sup_config srv ~listen:(Supervisor.Unix_path path)
  in
  Fun.protect
    ~finally:(fun () -> try Supervisor.stop sup with _ -> ())
    (fun () ->
      let j =
        expect_ok "register"
          (ask fleet.router_path
             (Printf.sprintf "{\"op\": \"register\", \"replica\": %S}" path))
      in
      Alcotest.(check int) "three replicas after register" 3
        (int_of_float (j_num "register" "replicas" j));
      (* re-register is idempotent *)
      let j2 =
        expect_ok "re-register"
          (ask fleet.router_path
             (Printf.sprintf "{\"op\": \"register\", \"replica\": %S}" path))
      in
      Alcotest.(check int) "still three replicas" 3
        (int_of_float (j_num "register" "replicas" j2));
      (* a malformed address is a typed refusal *)
      ignore
        (expect_kind "bad register" "validation"
           (ask fleet.router_path
              "{\"op\": \"register\", \"replica\": \"host:notaport\"}"));
      (* the fleet keeps serving; the newcomer becomes probe-visible *)
      wait_for "late replica probed up" (fun () ->
          (replica_state fleet path).Router.rp_state = Router.Health.Up);
      ignore
        (expect_ok "post-register" (ask fleet.router_path (grid_req "alpha"))))

(* ------------------------------------------------------------------ *)
(* Connection layer: the supervisor and the router share one, so one
   table of transport cases must come out the same on both fronts. *)

(* A front under test: where clients connect, and how many connections
   it is serving or holding in its queue right now. *)
type front = { path : string; load : unit -> int }

let parity_timeout_ms = 500

let parity_sup_config =
  { sup_config with workers = 1; queue = 1;
    request_timeout_ms = parity_timeout_ms; max_line_bytes = 4096 }

let parity_router_config =
  { router_config with max_conns = 2; probe_interval_ms = 60_000;
    request_timeout_ms = parity_timeout_ms; max_line_bytes = 4096 }

let send_raw fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* the next frame, or how the connection ended instead *)
let read_payload ?(timeout = 5.0) fd r ~mode =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Frame.Reader.next r ~mode ~max_bytes:(1 lsl 24) with
    | `Frame p -> `Frame p
    | `Too_long | `Bad _ -> Alcotest.fail "client reader: undecodable frame"
    | `None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then `No_reply
      else (
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ ->
          (match Unix.read fd chunk 0 (Bytes.length chunk) with
           | 0 -> `Eof
           | k ->
             Frame.Reader.add r chunk k;
             go ()
           | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* "ok", the typed error kind, or how the connection ended *)
let outcome = function
  | `Frame (Frame.Json_text l) ->
    let j = parse l in
    if Sjson.member "ok" j = Some (Sjson.Bool true) then "ok"
    else (
      match Option.bind (Sjson.member "error" j) (Sjson.member "kind") with
      | Some (Sjson.Str k) -> k
      | _ -> "untyped error: " ^ l)
  | `Frame (Frame.Grid_body _) -> "grid frame"
  | `Eof -> "eof"
  | `No_reply -> "no reply"

let with_client path f =
  let fd = connect path in
  Fun.protect ~finally:(fun () -> close_quiet fd) (fun () ->
      f fd (Frame.Reader.create ()))

let hello_binary fd r =
  send_line fd "{\"op\": \"hello\", \"frames\": \"binary\"}";
  Alcotest.(check string) "hello ack" "ok"
    (outcome (read_payload fd r ~mode:Frame.Json))

let parity_table : (string * (front -> unit)) list =
  let expect what kind res = Alcotest.(check string) what kind (outcome res) in
  [ ( "unknown hello: validation, connection usable",
      fun f ->
        with_client f.path @@ fun fd r ->
        send_line fd "{\"op\": \"hello\", \"frames\": \"morse\"}";
        expect "refusal" "validation" (read_payload fd r ~mode:Frame.Json);
        send_line fd "{\"op\": \"ping\"}";
        expect "still usable" "ok" (read_payload fd r ~mode:Frame.Json) );
    ( "oversized frame: validation",
      fun f ->
        with_client f.path @@ fun fd r ->
        send_line fd (String.make 5000 'x');
        expect "refusal" "validation" (read_payload fd r ~mode:Frame.Json) );
    ( "malformed binary frame: parse, then closed",
      fun f ->
        with_client f.path @@ fun fd r ->
        hello_binary fd r;
        send_raw fd "\000\000\000\002Xy";
        expect "refusal" "parse" (read_payload fd r ~mode:Frame.Binary);
        expect "closed" "eof" (read_payload fd r ~mode:Frame.Binary) );
    ( "client grid frame: parse",
      fun f ->
        with_client f.path @@ fun fd r ->
        hello_binary fd r;
        send_raw fd (Frame.encode_grid "not a request");
        expect "refusal" "parse" (read_payload fd r ~mode:Frame.Binary) );
    ( "half a frame: timeout within the request deadline",
      fun f ->
        with_client f.path @@ fun fd r ->
        let t0 = Unix.gettimeofday () in
        send_raw fd "{\"op\": \"pi";
        expect "refusal" "timeout" (read_payload fd r ~mode:Frame.Json);
        let waited = Unix.gettimeofday () -. t0 in
        if waited > (float_of_int parity_timeout_ms /. 1000.) +. 1.5 then
          Alcotest.failf "partial frame timed out after %.2fs" waited );
    ( "unterminated last line at EOF: answered",
      fun f ->
        with_client f.path @@ fun fd r ->
        send_raw fd "{\"op\": \"list-models\"}";
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        expect "answer" "ok" (read_payload fd r ~mode:Frame.Json) );
    ( "at capacity: overloaded",
      fun f ->
        (* fill it one connection at a time *)
        let held =
          List.init 2 (fun i ->
              let fd = connect f.path in
              wait_for "connection admitted" (fun () -> f.load () = i + 1);
              fd)
        in
        Fun.protect ~finally:(fun () -> List.iter close_quiet held) @@ fun () ->
        with_client f.path @@ fun fd r ->
        expect "refusal" "overloaded" (read_payload fd r ~mode:Frame.Json) ) ]

(* every row runs, on an idle front: the connections earlier rows
   closed may still count against its [max_conns] until the front
   reaps them; the failure names each row that broke *)
let run_parity front =
  let failed =
    List.filter_map
      (fun (row, case) ->
        match
          wait_for "front idle" (fun () -> front.load () = 0);
          case front
        with
        | () -> None
        | exception e -> Some (row ^ ": " ^ Printexc.to_string e))
      parity_table
  in
  if failed <> [] then
    Alcotest.failf "%d parity rows failed:\n%s" (List.length failed)
      (String.concat "\n" failed)

let test_parity_supervisor () =
  let root = fresh_dir () in
  let path = Filename.concat (fresh_dir ()) "p.sock" in
  let sup =
    Supervisor.start ~config:parity_sup_config (Server.create ~root ())
      ~listen:(Supervisor.Unix_path path)
  in
  Fun.protect ~finally:(fun () -> Supervisor.stop sup) @@ fun () ->
  run_parity
    { path;
      load =
        (fun () ->
          let s = Supervisor.stats sup in
          s.Supervisor.in_flight + s.Supervisor.queue_depth) }

let test_parity_router () =
  with_fleet ~config:parity_router_config ~sup_config:parity_sup_config ~n:1
    ~models:[] @@ fun fleet ->
  run_parity
    { path = fleet.router_path;
      load = (fun () -> (Router.stats fleet.router).Router.rt_conns) }

(* Write deadline: a client asks for a multi-MiB JSON grid and never
   reads it.  The front must cut it off at the request deadline — a
   read timeout, and the connection gone — instead of a runner blocked
   in write(2) until the client closes. *)

let deadline_ms = 2_000

let big_grid_req =
  Printf.sprintf "{\"op\": \"eval-grid\", \"model\": \"wide\", \"freqs\": [%s]}"
    (String.concat ", "
       (List.init 4096 (fun i -> Printf.sprintf "%d" (1000 + (97 * i)))))

let check_write_deadline ~path ~block ~in_flight =
  with_client path @@ fun fd _ ->
  let t0 = Unix.gettimeofday () in
  send_line fd big_grid_req;
  let limit = t0 +. (3. *. float_of_int deadline_ms /. 1000.) in
  let rec poll () =
    let j = expect_ok "stats" (ask path "{\"op\": \"stats\"}") in
    let b =
      match Sjson.member block j with
      | Some b -> b
      | None -> Alcotest.failf "stats missing %S" block
    in
    (* the asking connection is the only one left in flight *)
    if j_num block "read_timeouts" b >= 1. && j_num block in_flight b = 1. then
      ()
    else if Unix.gettimeofday () >= limit then
      Alcotest.failf "unread reply still pinned a runner after %.1fs: %s"
        (Unix.gettimeofday () -. t0) (Sjson.to_string b)
    else begin
      Unix.sleepf 0.1;
      poll ()
    end
  in
  poll ()

let deadline_sup_config = { sup_config with request_timeout_ms = deadline_ms }

let test_write_deadline_supervisor () =
  let root = fresh_dir () in
  save_model ~ports:4 root "wide";
  let path = Filename.concat (fresh_dir ()) "w.sock" in
  let sup =
    Supervisor.start ~config:deadline_sup_config (Server.create ~root ())
      ~listen:(Supervisor.Unix_path path)
  in
  Fun.protect ~finally:(fun () -> Supervisor.stop sup) @@ fun () ->
  check_write_deadline ~path ~block:"supervisor" ~in_flight:"in_flight"

let test_write_deadline_router () =
  let config = { router_config with request_timeout_ms = deadline_ms } in
  with_fleet ~config ~sup_config:deadline_sup_config ~n:1 ~models:[]
  @@ fun fleet ->
  save_model ~ports:4 fleet.root "wide";
  check_write_deadline ~path:fleet.router_path ~block:"router" ~in_flight:"conns"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "router"
    [ ( "ring",
        [ Alcotest.test_case "deterministic candidates" `Quick
            test_ring_deterministic;
          Alcotest.test_case "spread across replicas" `Quick
            test_ring_distribution;
          Alcotest.test_case "consistent remap on growth" `Quick
            test_ring_consistent_remap;
          Alcotest.test_case "empty ring, bad vnodes" `Quick
            test_ring_empty_and_bad ] );
      ( "health",
        [ Alcotest.test_case "state machine steps" `Quick test_health_step;
          Alcotest.test_case "address parsing" `Quick test_parse_addr ] );
      ( "routing",
        [ Alcotest.test_case "basic ops and byte-identity" `Quick
            test_route_basic;
          Alcotest.test_case "register replica at runtime" `Quick
            test_register_replica ] );
      ( "chaos",
        [ Alcotest.test_case "kill replica: failover bit-identical" `Quick
            test_failover_kill_bit_identical;
          Alcotest.test_case "partition: failover then rejoin" `Quick
            test_partition_failover_and_rejoin;
          Alcotest.test_case "flap x3: no double execution" `Quick
            test_rejoin_flap_no_double_execution;
          Alcotest.test_case "slow replica: typed timeout, no failover"
            `Quick test_slow_replica_typed_timeout ] );
      ( "coalescing",
        [ Alcotest.test_case "identical requests byte-identical" `Quick
            test_coalescing_byte_identical;
          Alcotest.test_case "mixed grids demux correctly" `Quick
            test_coalescing_demux_subsets ] );
      ( "listener",
        [ Alcotest.test_case "transport parity: supervisor" `Quick
            test_parity_supervisor;
          Alcotest.test_case "transport parity: router" `Quick
            test_parity_router;
          Alcotest.test_case "write deadline: supervisor" `Quick
            test_write_deadline_supervisor;
          Alcotest.test_case "write deadline: router" `Quick
            test_write_deadline_router ] ) ]
