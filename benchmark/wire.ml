(* The serve workloads' view of the system: blocking client connections
   speaking the server protocol (JSON lines, or binary frames after a
   hello), and the fleet of shipped `mfti` processes they talk to. *)

module Frame = Serve.Frame

(* ------------------------------------------------------------------ *)
(* Client connections *)

type conn = {
  fd : Unix.file_descr;
  reader : Frame.Reader.t;
  chunk : Bytes.t;
  mutable mode : Frame.mode;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    { fd; reader = Frame.Reader.create (); chunk = Bytes.create 65536;
      mode = Frame.Json }
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* One reply, timed: [call c line] sends a request and returns the
   response payload together with the clock readings at send, first
   response byte and last response byte. *)
type reply = {
  payload : Frame.payload;
  sent : int64;
  first_byte : int64;
  done_ : int64;
  bytes : int;
}

exception Closed

let call c line =
  let framed =
    match c.mode with
    | Frame.Json -> line ^ "\n"
    | Frame.Binary -> Frame.encode_json line
  in
  let sent = Probe.now () in
  send_all c.fd framed;
  let first_byte = ref 0L in
  let bytes = ref 0 in
  let rec next () =
    match Frame.Reader.next c.reader ~mode:c.mode ~max_bytes:(1 lsl 26) with
    | `Frame p -> p
    | `None ->
      let k = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
      if k = 0 then raise Closed;
      if !first_byte = 0L then first_byte := Probe.now ();
      bytes := !bytes + k;
      Frame.Reader.add c.reader c.chunk k;
      next ()
    | `Too_long | `Bad _ -> raise Closed
  in
  let payload = next () in
  { payload; sent; first_byte = !first_byte; done_ = Probe.now ();
    bytes = !bytes }

let text r =
  match r.payload with Frame.Json_text s -> s | Frame.Grid_body _ -> ""

let is_ok s = String.starts_with ~prefix:{|{"ok": true|} s

let hello_binary c =
  let r = call c {|{"op":"hello","frames":"binary"}|} in
  if not (is_ok (text r)) then failwith ("hello refused: " ^ text r);
  c.mode <- Frame.Binary

(* A fresh connection for one JSON request, parsed. *)
let ask path line =
  let c = connect path in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  Serve.Sjson.parse (text (call c line))

(* ------------------------------------------------------------------ *)
(* Fleet: two replicas behind one router, each its own process *)

type fleet = {
  replicas : string list;        (* socket paths = the router's ring names *)
  router : string;
  pids : int list;               (* replicas first, router last *)
}

let workers = 8
let domains = 2

let settings fleet ~cache_mb =
  Printf.sprintf
    "%d replicas (serve --workers %d --cache-mb %d) behind 1 router, \
     MFTI_DOMAINS=%d, Unix sockets"
    (List.length fleet.replicas) workers cache_mb domains

let env () =
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"MFTI_DOMAINS=" kv))
          (Array.to_list (Unix.environment ()))))
    [| Printf.sprintf "MFTI_DOMAINS=%d" domains |]

(* Children are killed if the benchmark dies with them still running. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~log cli args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out) @@ fun () ->
    Unix.create_process_env cli (Array.of_list (cli :: args)) (env ())
      Unix.stdin out out
  in
  live := pid :: !live;
  pid

let rec wait_connectable ?(tries = 500) path =
  match connect path with
  | c -> close c
  | exception Unix.Unix_error _ when tries > 0 ->
    Unix.sleepf 0.01;
    wait_connectable ~tries:(tries - 1) path
  | exception Unix.Unix_error (e, _, _) ->
    failwith (Printf.sprintf "%s never accepted: %s" path (Unix.error_message e))

(* [start ~cli ~dir ~root ~cache_mb] launches the fleet with its
   sockets and log under [dir] and returns once the router answers. *)
let start ~cli ~dir ~root ~cache_mb =
  let log = Filename.concat dir "fleet.log" in
  let replicas =
    List.init 2 (fun i -> Filename.concat dir (Printf.sprintf "r%d.sock" i))
  in
  let rpids =
    List.map
      (fun sock ->
        spawn ~log cli
          [ "serve"; "--root"; root; "--socket"; sock; "--workers";
            string_of_int workers; "--cache-mb"; string_of_int cache_mb ])
      replicas
  in
  List.iter (fun s -> wait_connectable s) replicas;
  let router = Filename.concat dir "rt.sock" in
  let rt =
    spawn ~log cli
      ([ "route"; "--listen"; router ]
       @ List.concat_map (fun r -> [ "--replica"; r ]) replicas)
  in
  wait_connectable router;
  { replicas; router; pids = rpids @ [ rt ] }

(* Drain the router first, then the replicas; a process that does not
   exit within 10 s is killed.  Every child is reaped before return. *)
let stop fleet =
  List.iter
    (fun path ->
      try ignore (ask path {|{"op":"shutdown"}|}) with _ -> ())
    (fleet.router :: fleet.replicas);
  let deadline = Int64.add (Probe.now ()) 10_000_000_000L in
  List.iter
    (fun pid ->
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Probe.now () < deadline ->
          Unix.sleepf 0.01;
          reap ()
        | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      reap ();
      live := List.filter (( <> ) pid) !live)
    fleet.pids
