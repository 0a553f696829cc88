open Linalg

(* Supervised concurrent serving: the {!Listener} connection layer on
   domain runners, plus this request handler — fault sites, the request
   deadline and per-worker latency stats.

   Workers run their evaluations under [Parallel.with_sequential]:
   the domain pool's submission protocol assumes one submitting domain
   at a time, so in the serving tier concurrency comes from the worker
   pool, not from the kernels.  (Thread-fallback workers share the
   spawning domain's sequential flag; they too evaluate inline.) *)

type config = Listener.config = {
  workers : int;
  queue : int;
  request_timeout_ms : int;
  idle_timeout_ms : int;
  drain_ms : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  max_line_bytes : int;
}

let default_config =
  { workers = 2;
    queue = 16;
    request_timeout_ms = 5_000;
    idle_timeout_ms = 30_000;
    drain_ms = 2_000;
    backoff_base_ms = 10;
    backoff_cap_ms = 1_000;
    max_line_bytes = 8 * 1024 * 1024 }

type worker_stat = {
  mutable served : int;
  mutable w_total_s : float;
  mutable w_max_s : float;
}

type worker_snapshot = {
  ws_served : int;
  ws_conns : int;
  ws_total_s : float;
  ws_max_s : float;
  ws_restarts : int;
}

type snapshot = {
  sn_workers : int;
  sn_queue_capacity : int;
  accepted : int;
  dispatched : int;
  shed : int;
  idle_timeouts : int;
  read_timeouts : int;
  request_timeouts : int;
  restarts : int;
  queue_depth : int;
  queue_max : int;
  in_flight : int;
  draining : bool;
  per_worker : worker_snapshot array;
}

type listener = Listener.addr = Unix_path of string | Tcp of string * int

type t = {
  server : Server.t;
  config : config;
  front : Listener.t;
  mu : Mutex.t;                         (* guards the counters below *)
  wstats : worker_stat array;
  mutable request_timeouts : int;
}

(* ------------------------------------------------------------------ *)
(* Request handler (runs on worker [i]) *)

let request_op line =
  match Sjson.member "op" (Sjson.parse line) with
  | Some (Sjson.Str op) -> Some op
  | _ | (exception Sjson.Parse_error _) -> None

let handle t i ~binary line =
  let req_timeout_s = float_of_int t.config.request_timeout_ms /. 1000. in
  let t0 = Listener.now () in
  (* deterministic chaos: a handler that dies mid-connection; the
     listener counts a restart and backs off *)
  Fault.check "serve.conn_drop";
  (* deterministic chaos: a request that blows its deadline *)
  if Fault.armed "serve.stall" then Unix.sleepf (2. *. req_timeout_s);
  let reply, stop =
    Parallel.with_sequential (fun () ->
        Server.handle_request t.server ~binary line)
  in
  let dt = Listener.now () -. t0 in
  let late = dt > req_timeout_s in
  Mutex.protect t.mu (fun () ->
      let ws = t.wstats.(i) in
      ws.served <- ws.served + 1;
      ws.w_total_s <- ws.w_total_s +. dt;
      if dt > ws.w_max_s then ws.w_max_s <- dt;
      if late then t.request_timeouts <- t.request_timeouts + 1);
  if not late then (reply, stop)
  else
    ( Server.Text
        (Sjson.to_string
           (Server.protocol_error ?op:(request_op line) ~kind:"timeout"
              ~message:
                (Printf.sprintf "request deadline exceeded (%d ms)"
                   t.config.request_timeout_ms)
              ())),
      stop )

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats t =
  let l = Listener.stats t.front in
  Mutex.protect t.mu (fun () ->
      { sn_workers = t.config.workers;
        sn_queue_capacity = t.config.queue;
        accepted = l.accepted;
        dispatched = l.dispatched;
        shed = l.shed;
        idle_timeouts = l.idle_timeouts;
        read_timeouts = l.read_timeouts;
        request_timeouts = t.request_timeouts;
        restarts = l.restarts;
        queue_depth = l.queue_depth;
        queue_max = l.queue_max;
        in_flight = l.in_flight;
        draining = Listener.draining t.front;
        per_worker =
          Array.mapi
            (fun i w ->
              { ws_served = w.served; ws_conns = l.runner_conns.(i);
                ws_total_s = w.w_total_s; ws_max_s = w.w_max_s;
                ws_restarts = l.runner_restarts.(i) })
            t.wstats })

let stats_fields t =
  let s = stats t in
  let n x = Sjson.Num (float_of_int x) in
  [ ( "supervisor",
      Sjson.Obj
        [ ("workers", n s.sn_workers);
          ("queue_capacity", n s.sn_queue_capacity);
          ("accepted", n s.accepted);
          ("dispatched", n s.dispatched);
          ("shed", n s.shed);
          ("idle_timeouts", n s.idle_timeouts);
          ("read_timeouts", n s.read_timeouts);
          ("request_timeouts", n s.request_timeouts);
          ("restarts", n s.restarts);
          ("queue_depth", n s.queue_depth);
          ("queue_max", n s.queue_max);
          ("in_flight", n s.in_flight);
          ("draining", Sjson.Bool s.draining);
          ( "per_worker",
            Sjson.Arr
              (Array.to_list
                 (Array.map
                    (fun w ->
                      Sjson.Obj
                        [ ("served", n w.ws_served);
                          ("conns", n w.ws_conns);
                          ("total_s", Sjson.Num w.ws_total_s);
                          ("max_s", Sjson.Num w.ws_max_s);
                          ("restarts", n w.ws_restarts) ])
                    s.per_worker)) ) ] ) ]

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let start ?(config = default_config) server ~listen =
  if config.queue < 1 then
    Mfti_error.raise_error
      (Mfti_error.Validation
         { context = "supervisor"; message = "queue capacity must be >= 1" });
  let front = Listener.create ~context:"supervisor" config listen in
  let t =
    { server; config; front;
      mu = Mutex.create ();
      wstats =
        Array.init config.workers (fun _ ->
            { served = 0; w_total_s = 0.; w_max_s = 0. });
      request_timeouts = 0 }
  in
  Server.set_stats_hook server (fun () -> stats_fields t);
  (* new fit sessions are refused for the whole drain window; sessions
     already open keep streaming until their connection finishes *)
  Listener.start front ~runner:Listener.Domains
    ~on_drain:(fun () -> Server.set_draining server true)
    ~on_drop:(fun () -> Server.note_conn_drop server)
    ~on_conn:(fun i -> handle t i);
  t

let bound_port t = Listener.bound_port t.front
let wait t = Listener.wait t.front
let stop t = Listener.stop t.front
