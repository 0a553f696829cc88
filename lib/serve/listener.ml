open Linalg

(* The connection layer under Supervisor and Router.  See listener.mli
   for the contract: one accept loop feeding a bounded queue, a fixed
   pool of runners, idle/partial-frame/write deadlines, typed transport
   replies, hello negotiation, drain.  Both fronts plug in a per-request
   handler and never touch a socket themselves. *)

type addr = Unix_path of string | Tcp of string * int

let now () = Unix.gettimeofday ()

(* Ticked selects notice a drain or a forced shutdown promptly; the tick
   is coarse enough to stay off the profile. *)
let tick = 0.05

let seconds ms = float_of_int ms /. 1000.
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let invalid ~context message =
  Mfti_error.raise_error (Mfti_error.Validation { context; message })

(* ------------------------------------------------------------------ *)
(* Addresses *)

let parse_addr s =
  let bad () =
    invalid ~context:"address"
      (Printf.sprintf
         "malformed address %S (want host:port or a socket path)" s)
  in
  if s = "" then bad ();
  match String.rindex_opt s ':' with
  | Some i when not (String.contains s '/') ->
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
     | Some p when p >= 0 && p <= 65535 && host <> "" -> Tcp (host, p)
     | _ -> bad ())
  | _ -> Unix_path s

let resolve host =
  match Unix.inet_addr_of_string host with
  | ip -> Ok ip
  | exception Failure _ ->
    (match Unix.gethostbyname host with
     | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
       Error ("cannot resolve host " ^ host)
     | h -> Ok h.Unix.h_addr_list.(0))

(* A Unix path is bound without the unlink-then-bind race: blindly
   unlinking would delete a live server's socket.  A connectable path
   means someone is serving there; a refused connect means a stale file
   from a dead process, safe to remove. *)
let bind_unix path =
  let refuse why = invalid ~context:"serve" ("socket path " ^ path ^ why) in
  (match Unix.stat path with
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
   | { Unix.st_kind = Unix.S_SOCK; _ } ->
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let live =
       match Unix.connect probe (Unix.ADDR_UNIX path) with
       | () -> true
       | exception Unix.Unix_error _ -> false
     in
     close_quiet probe;
     if live then refuse " already has a live server"
     else (try Unix.unlink path with Unix.Unix_error _ -> ())
   | _ -> refuse " exists and is not a socket");
  (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)

(* SO_REUSEADDR lets a restarted replica rebind at once: rejoin must not
   wait out TIME_WAIT. *)
let bind_tcp host port =
  if port < 0 || port > 0xffff then
    invalid ~context:"serve" (Printf.sprintf "tcp port %d out of range" port);
  match resolve host with
  | Error m -> invalid ~context:"serve" m
  | Ok ip ->
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    (sock, Unix.ADDR_INET (ip, port))

let bind addr =
  (* a client closing mid-reply must surface as EPIPE, not kill the
     process with SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sock, sockaddr =
    match addr with
    | Unix_path path -> bind_unix path
    | Tcp (host, port) -> bind_tcp host port
  in
  match
    Unix.bind sock sockaddr;
    Unix.listen sock 64;
    Unix.getsockname sock
  with
  | Unix.ADDR_INET (_, p) -> (sock, Some p)
  | Unix.ADDR_UNIX _ -> (sock, None)
  | exception e ->
    close_quiet sock;
    (match (e, addr) with
     | Unix.Unix_error (Unix.EADDRINUSE, _, _), Tcp (host, port) ->
       invalid ~context:"serve"
         (Printf.sprintf "tcp address %s:%d already in use" host port)
     | _ -> raise e)

let release addr sock =
  close_quiet sock;
  match addr with
  | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let connect addr ~timeout_s =
  let fail fd e =
    close_quiet fd;
    Error (Unix.error_message e)
  in
  match addr with
  | Unix_path p ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX p) with
     | () -> Ok fd
     | exception Unix.Unix_error (e, _, _) -> fail fd e)
  | Tcp (host, port) ->
    (match resolve host with
     | Error m -> Error m
     | Ok ip ->
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ());
       Unix.set_nonblock fd;
       let connected () =
         Unix.clear_nonblock fd;
         Ok fd
       in
       (match Unix.connect fd (Unix.ADDR_INET (ip, port)) with
        | () -> connected ()
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
          (match Unix.select [] [ fd ] [] timeout_s with
           | _, _ :: _, _ ->
             (match Unix.getsockopt_error fd with
              | None -> connected ()
              | Some e -> fail fd e)
           | _ ->
             close_quiet fd;
             Error "connect timed out"
           | exception Unix.Unix_error (e, _, _) -> fail fd e)
        | exception Unix.Unix_error (e, _, _) -> fail fd e))

(* ------------------------------------------------------------------ *)
(* Frames on one connection *)

type conn = {
  fd : Unix.file_descr;                 (* non-blocking *)
  reader : Frame.Reader.t;
  chunk : bytes;
  mutable mode : Frame.mode;
  max_bytes : int;
}

type peer = conn

let conn_of fd ~max_bytes =
  Unix.set_nonblock fd;
  { fd; reader = Frame.Reader.create (); chunk = Bytes.create 65536;
    mode = Frame.Json; max_bytes }

(* Each [single_write] copies at most one 64 KiB chunk and returns;
   when the peer's buffer is full the descriptor says EAGAIN and we wait
   in [select], so no write outlives [deadline]. *)
let write_all fd s ~deadline =
  let len = String.length s in
  let rec go off =
    if off >= len then `Ok
    else if off > 0 && now () >= deadline then `Timeout
    else
      match Unix.single_write_substring fd s off (len - off) with
      | k -> go (off + k)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        let left = deadline -. now () in
        if left <= 0. then `Timeout
        else begin
          (try ignore (Unix.select [] [ fd ] [] (Float.min tick left))
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go off
        end
      | exception Unix.Unix_error _ -> `Closed
  in
  go 0

(* JSON-lines mode never sees [Server.Grid]: handlers only produce it
   for binary connections. *)
let render mode (reply : Server.reply) =
  match (mode, reply) with
  | Frame.Json, Server.Text s -> s ^ "\n"
  | Frame.Binary, Server.Text s -> Frame.encode_json s
  | Frame.Binary, Server.Grid body -> Frame.encode_grid body
  | Frame.Json, Server.Grid _ -> assert false

(* Pull one complete frame.  With nothing buffered the connection may
   wait until [deadline]; once a frame's first byte is in, the rest must
   follow within [frame_s].  [draining] lets an idle connection notice a
   drain between frames; [slow_fault] arms the ["serve.slow_client"]
   site, which forces the partial-frame expiry without clock time. *)
let read_frame ?(draining = fun () -> false) ?(slow_fault = false) c
    ~deadline ~frame_s =
  let frame_deadline = ref infinity in
  let rec go () =
    match Frame.Reader.next c.reader ~mode:c.mode ~max_bytes:c.max_bytes with
    | `Frame (Frame.Json_text line) -> `Line line
    | `Frame (Frame.Grid_body body) -> `Grid body
    | (`Too_long | `Bad _) as e -> e
    | `None ->
      let partial = Frame.Reader.pending c.reader > 0 in
      if partial && !frame_deadline = infinity then
        frame_deadline := now () +. frame_s;
      let until = Float.min deadline !frame_deadline in
      let t = now () in
      if partial && slow_fault && Fault.armed "serve.slow_client" then
        `Timeout_partial
      else if t >= until then
        if partial then `Timeout_partial else `Timeout_idle
      else if (not partial) && draining () then `Drain
      else
        match Unix.select [ c.fd ] [] [] (Float.min tick (until -. t)) with
        | [], _, _ -> go ()
        | _ ->
          (match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
           | 0 ->
             (* a trailing unterminated JSON line is served, the way
                [input_line] would; a truncated binary frame is just EOF *)
             if partial && c.mode = Frame.Json then
               `Line (Frame.Reader.take_rest c.reader)
             else `Eof
           | k ->
             Frame.Reader.add c.reader c.chunk k;
             go ()
           | exception
               Unix.Unix_error
                 ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
             go ()
           | exception Unix.Unix_error _ -> `Eof)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Client side *)

let hang_up p = close_quiet p.fd

let call p ~deadline line =
  match write_all p.fd (render p.mode (Server.Text line)) ~deadline with
  | `Timeout -> `Timeout
  | `Closed -> `Failed "write failed"
  | `Ok ->
    (match read_frame p ~deadline ~frame_s:infinity with
     | `Line s -> `Reply (Frame.Json_text s)
     | `Grid b -> `Reply (Frame.Grid_body b)
     | `Timeout_idle | `Timeout_partial -> `Timeout
     | `Eof | `Drain -> `Failed "connection closed mid-response"
     | `Too_long -> `Failed "frame exceeds the byte cap"
     | `Bad m -> `Failed ("malformed frame: " ^ m))

let hello_binary =
  Sjson.to_string
    (Sjson.Obj [ ("op", Sjson.Str "hello"); ("frames", Sjson.Str "binary") ])

let dial addr ~timeout_s ~max_bytes ~binary =
  match connect addr ~timeout_s with
  | Error m -> Error m
  | Ok fd ->
    let p = conn_of fd ~max_bytes in
    if not binary then Ok p
    else
      match call p ~deadline:(now () +. timeout_s) hello_binary with
      | `Reply (Frame.Json_text ack)
        when (match Sjson.parse ack with
              | j -> Sjson.member "ok" j = Some (Sjson.Bool true)
              | exception Sjson.Parse_error _ -> false) ->
        p.mode <- Frame.Binary;
        Ok p
      | _ ->
        hang_up p;
        Error "binary frames not acknowledged"

(* ------------------------------------------------------------------ *)
(* Serving *)

type config = {
  workers : int;
  queue : int;
  request_timeout_ms : int;
  idle_timeout_ms : int;
  drain_ms : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  max_line_bytes : int;
}

type runner = Domains | Threads

type handler = binary:bool -> string -> Server.reply * bool

type spawned = Dom of unit Domain.t | Thr of Thread.t

type stats = {
  accepted : int;
  dispatched : int;
  shed : int;
  idle_timeouts : int;
  read_timeouts : int;
  restarts : int;
  queue_depth : int;
  queue_max : int;
  in_flight : int;
  runner_conns : int array;
  runner_restarts : int array;
}

type t = {
  context : string;
  config : config;
  addr : addr;
  sock : Unix.file_descr;
  port : int option;
  mu : Mutex.t;
  nonempty : Condition.t;               (* queue gained work, or draining *)
  queue : Unix.file_descr Queue.t;
  active : (int, Unix.file_descr) Hashtbl.t;  (* runner -> live conn *)
  mutable s : stats;                    (* counters; arrays mutated in place *)
  mutable stopping : bool;
  mutable accept_done : bool;
  mutable stopped : bool;
  mutable spawned : spawned list;
  mutable on_drain : unit -> unit;
  mutable on_drop : unit -> unit;
  mutable on_conn : int -> handler;
}

let validate ~context c =
  let bad = invalid ~context in
  if c.workers < 1 then bad "workers must be >= 1";
  if c.queue < 0 then bad "queue capacity must be >= 0";
  if c.request_timeout_ms < 1 then bad "request timeout must be >= 1 ms";
  if c.idle_timeout_ms < 1 then bad "idle timeout must be >= 1 ms";
  if c.drain_ms < 0 then bad "drain deadline must be >= 0 ms";
  if c.max_line_bytes < 2 then bad "frame cap must be >= 2 bytes"

let create ~context config addr =
  validate ~context config;
  let sock, port = bind addr in
  { context; config; addr; sock; port;
    mu = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    active = Hashtbl.create 8;
    s =
      { accepted = 0; dispatched = 0; shed = 0; idle_timeouts = 0;
        read_timeouts = 0; restarts = 0; queue_depth = 0; queue_max = 0;
        in_flight = 0;
        runner_conns = Array.make config.workers 0;
        runner_restarts = Array.make config.workers 0 };
    stopping = false; accept_done = false; stopped = false; spawned = [];
    on_drain = ignore; on_drop = ignore;
    on_conn = (fun _ ~binary:_ _ -> assert false) }

let count t f = Mutex.protect t.mu (fun () -> t.s <- f t.s)

let request_stop t =
  let first =
    Mutex.protect t.mu (fun () ->
        let first = not t.stopping in
        t.stopping <- true;
        Condition.broadcast t.nonempty;
        first)
  in
  if first then t.on_drain ()

let refusal ?op kind message =
  Server.Text (Sjson.to_string (Server.protocol_error ?op ~kind ~message ()))

(* One connection, on runner [i], until EOF, a transport error, an
   expired deadline or a drain. *)
let serve_conn t i fd =
  let cfg = t.config in
  let c = conn_of fd ~max_bytes:cfg.max_line_bytes in
  let handle = t.on_conn i in
  let req_s = seconds cfg.request_timeout_ms in
  let send reply =
    write_all fd (render c.mode reply) ~deadline:(now () +. req_s)
  in
  let refuse ?op kind message = ignore (send (refusal ?op kind message)) in
  let rec loop () =
    match
      read_frame c ~deadline:(now () +. seconds cfg.idle_timeout_ms)
        ~frame_s:req_s ~draining:(fun () -> t.stopping) ~slow_fault:true
    with
    | `Eof | `Drain -> ()
    | `Timeout_idle ->
      count t (fun s -> { s with idle_timeouts = s.idle_timeouts + 1 })
    | `Timeout_partial ->
      count t (fun s -> { s with read_timeouts = s.read_timeouts + 1 });
      refuse "timeout"
        (Printf.sprintf "request frame deadline exceeded (%d ms)"
           cfg.request_timeout_ms)
    | `Too_long ->
      refuse "validation"
        (Printf.sprintf "request frame exceeds the %d-byte cap"
           cfg.max_line_bytes)
    | `Bad m -> refuse "parse" ("malformed frame: " ^ m)
    | `Grid _ -> refuse "parse" "malformed frame: grid frames are response-only"
    | `Line "" -> loop ()                (* blank keep-alive lines *)
    | `Line line ->
      (* hello is transport-level: acknowledged in the old framing,
         then the switch; an unknown value leaves the mode alone *)
      let reply, switch, stop =
        match Frame.is_hello line with
        | Some ("binary" | "json" as f) ->
          ( Server.Text (Frame.hello_ack f),
            Some (if f = "binary" then Frame.Binary else Frame.Json),
            false )
        | Some other ->
          ( refusal ~op:"hello" "validation"
              (Printf.sprintf
                 "unknown frames value %S (want \"json\" or \"binary\")" other),
            None, false )
        | None ->
          let reply, stop = handle ~binary:(c.mode = Frame.Binary) line in
          (reply, None, stop)
      in
      (match send reply with
       | `Ok ->
         Option.iter (fun m -> c.mode <- m) switch;
         if stop then request_stop t else loop ()
       | `Closed -> t.on_drop ()
       | `Timeout ->
         (* the client stopped reading: a read-side stall *)
         count t (fun s -> { s with read_timeouts = s.read_timeouts + 1 }))
  in
  loop ()

let backoff t attempt =
  let ms =
    Stdlib.min t.config.backoff_cap_ms
      (t.config.backoff_base_ms * (1 lsl Stdlib.min attempt 16))
  in
  Unix.sleepf (seconds ms)

let runner_loop t i clean =
  let rec next () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    match Queue.take_opt t.queue with
    | None -> Mutex.unlock t.mu          (* draining and nothing queued *)
    | Some fd ->
      let s = t.s in
      s.runner_conns.(i) <- s.runner_conns.(i) + 1;
      t.s <-
        { s with dispatched = s.dispatched + 1; in_flight = s.in_flight + 1 };
      Hashtbl.replace t.active i fd;
      Mutex.unlock t.mu;
      Fun.protect
        ~finally:(fun () ->
          count t (fun s ->
              Hashtbl.remove t.active i;
              { s with in_flight = s.in_flight - 1 });
          close_quiet fd)
        (fun () -> serve_conn t i fd);
      clean := true;
      next ()
  in
  next ()

(* A runner that dies restarts with exponential backoff; the attempt
   counter resets after any cleanly finished connection, so a crash
   loop backs off to the cap while a one-off failure recovers at the
   base delay. *)
let runner_life t i () =
  let rec live attempt =
    let clean = ref false in
    match runner_loop t i clean with
    | () -> ()
    | exception _ ->
      let stop_now =
        Mutex.protect t.mu (fun () ->
            let s = t.s in
            s.runner_restarts.(i) <- s.runner_restarts.(i) + 1;
            t.s <- { s with restarts = s.restarts + 1 };
            t.stopping && Queue.is_empty t.queue)
      in
      if not stop_now then begin
        let attempt = if !clean then 0 else attempt + 1 in
        backoff t attempt;
        live attempt
      end
  in
  live (-1)

(* Admission: at most [workers + queue] connections served or waiting;
   past that, or once draining, the client gets a typed refusal. *)
let admit t fd =
  (match t.addr with
   | Tcp _ ->
     (* request/response protocol: Nagle would add 40 ms stalls *)
     (try Unix.setsockopt fd Unix.TCP_NODELAY true
      with Unix.Unix_error _ -> ())
   | Unix_path _ -> ());
  Unix.set_nonblock fd;
  let cap = t.config.workers + t.config.queue in
  let verdict =
    Mutex.protect t.mu (fun () ->
        let s = { t.s with accepted = t.s.accepted + 1 } in
        t.s <- s;
        if t.stopping then `Draining
        else if s.in_flight + Queue.length t.queue >= cap then begin
          t.s <- { s with shed = s.shed + 1 };
          `Shed
        end
        else begin
          Queue.push fd t.queue;
          let depth = Queue.length t.queue in
          t.s <- { s with queue_max = Stdlib.max s.queue_max depth };
          Condition.signal t.nonempty;
          `Queued
        end)
  in
  let turn_away message =
    ignore
      (write_all fd (render Frame.Json (refusal "overloaded" message))
         ~deadline:(now () +. 1.0));
    close_quiet fd
  in
  match verdict with
  | `Queued -> ()
  | `Draining -> turn_away "server is draining"
  | `Shed ->
    turn_away
      (Printf.sprintf "%s at capacity (%d connections); retry with backoff"
         t.context cap)

let accept_loop t () =
  let rec go () =
    if not t.stopping then begin
      (match Unix.select [ t.sock ] [] [] tick with
       | [], _, _ -> ()
       | _ ->
         (match Unix.accept t.sock with
          | fd, _ -> admit t fd
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED ), _, _ ) -> ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  (* the listening socket is the one resource a server cannot lose:
     whatever escapes, restart *)
  let rec supervise attempt =
    match go () with
    | () -> ()
    | exception _ ->
      count t (fun s -> { s with restarts = s.restarts + 1 });
      if not t.stopping then begin
        backoff t attempt;
        supervise (attempt + 1)
      end
  in
  supervise 0;
  (* refuse new connects during the drain instead of parking them *)
  release t.addr t.sock;
  Mutex.protect t.mu (fun () -> t.accept_done <- true)

let spawn runner f =
  match runner with
  | Threads -> Thr (Thread.create f ())
  | Domains ->
    (* OCaml caps the live-domain count; past it, share this domain *)
    (match Domain.spawn f with
     | d -> Dom d
     | exception _ -> Thr (Thread.create f ()))

let start ?(on_drain = ignore) ?(on_drop = ignore) t ~runner ~on_conn =
  t.on_drain <- on_drain;
  t.on_drop <- on_drop;
  t.on_conn <- on_conn;
  t.spawned <-
    spawn runner (accept_loop t)
    :: List.init t.config.workers (fun i -> spawn runner (runner_life t i))

let bound_port t = t.port
let draining t = t.stopping

let stats t =
  Mutex.protect t.mu (fun () ->
      { t.s with
        queue_depth = Queue.length t.queue;
        runner_conns = Array.copy t.s.runner_conns;
        runner_restarts = Array.copy t.s.runner_restarts })

let wait t =
  while not (Mutex.protect t.mu (fun () -> t.stopping)) do
    Unix.sleepf tick
  done

let stop t =
  if not t.stopped then begin
    request_stop t;
    let deadline = now () +. seconds t.config.drain_ms in
    let busy () =
      Mutex.protect t.mu (fun () ->
          t.s.in_flight > 0 || (not (Queue.is_empty t.queue))
          || not t.accept_done)
    in
    while busy () && now () < deadline do
      Unix.sleepf 0.01
    done;
    (* past the drain deadline: shut live connections down so blocked
       readers see EOF, and close the admitted-but-never-served ones *)
    Mutex.protect t.mu (fun () ->
        Hashtbl.iter
          (fun _ fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          t.active;
        Queue.iter close_quiet t.queue;
        Queue.clear t.queue;
        Condition.broadcast t.nonempty);
    List.iter
      (function Dom d -> Domain.join d | Thr th -> Thread.join th)
      t.spawned;
    t.stopped <- true
  end
