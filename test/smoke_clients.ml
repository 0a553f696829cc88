(* CI smoke driver for the supervised socket/TCP transports and the
   routing tier.

   Usage: smoke_clients.exe ADDR MODEL
          smoke_clients.exe --lines ADDR
          smoke_clients.exe --blast N ADDR MODEL

   ADDR is a Unix socket path, or HOST:PORT (no '/') for TCP.  Every
   connection retries with capped exponential backoff and dies with a
   typed "gave up after N attempts" diagnostic, so a briefly-restarting
   server does not flake the suite.

   Default mode attacks a running server — a supervised replica, or a
   router in front of one — with four concurrent clients: one stalls
   mid-frame (and must be timed out with a typed "timeout" response),
   three issue well-formed requests (and must all complete).  A final
   client checks the stats op reports the timeout (in the "supervisor"
   or the "router" object), then sends the shutdown request so the
   server drains.

   --lines is a plain pipe client: each stdin line is sent over one
   connection and the response line printed to stdout — the socket
   equivalent of piping requests into a stdio server.

   --blast fires N concurrent identical eval-grid requests (one thread
   per client) and asserts every response is byte-identical — the
   router's coalescing demux must be invisible to clients.  Exit 0
   only when every expectation holds; failures print to stderr. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

(* ADDR with a ':' and no '/' is HOST:PORT; anything else a socket path *)
let parse_addr s =
  if String.contains s '/' || not (String.contains s ':') then `Unix s
  else
    match String.rindex_opt s ':' with
    | None -> `Unix s
    | Some i ->
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt port with
       | Some p when p >= 0 && p <= 65535 && host <> "" -> `Tcp (host, p)
       | _ -> die "malformed address %S (want host:port or a path)" s)

let connect_once addr =
  match addr with
  | `Unix path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX path) with
     | () -> Ok fd
     | exception Unix.Unix_error (e, _, _) ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       Error (Unix.error_message e))
  | `Tcp (host, port) ->
    let ip =
      try Some (Unix.inet_addr_of_string host)
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } -> None
        | h -> Some h.Unix.h_addr_list.(0)
        | exception Not_found -> None)
    in
    (match ip with
     | None -> Error ("cannot resolve host " ^ host)
     | Some ip ->
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ());
       (match Unix.connect fd (Unix.ADDR_INET (ip, port)) with
        | () -> Ok fd
        | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Unix.error_message e)))

(* capped exponential backoff; giving up is a typed diagnostic *)
let connect ?(attempts = 5) ?(base_ms = 100) ?(cap_ms = 2000) addr_s =
  let addr = parse_addr addr_s in
  let rec go n delay_ms =
    match connect_once addr with
    | Ok fd -> fd
    | Error msg ->
      if n >= attempts then
        die
          "gave up connecting to %s after %d attempts (capped exponential \
           backoff): %s"
          addr_s attempts msg
      else begin
        Unix.sleepf (float_of_int delay_ms /. 1000.);
        go (n + 1) (min cap_ms (delay_ms * 2))
      end
  in
  go 1 base_ms

let send_raw fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let recv_line ?(timeout = 10.0) fd what =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then die "%s: no response within %.1fs" what timeout
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ ->
          (match Unix.read fd chunk 0 (Bytes.length chunk) with
           | 0 -> die "%s: connection closed" what
           | k -> Buffer.add_subbytes buf chunk 0 k; go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* string-level checks keep this driver free of the serve library, so
   it exercises the CLI binary exactly as an external client would *)
let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let expect_ok what line =
  if not (contains line "\"ok\": true") then
    die "%s: expected ok response, got %s" what line

let expect_kind what kind line =
  if not (contains line (Printf.sprintf "\"kind\": %S" kind)) then
    die "%s: expected %S error, got %s" what kind line

let run_lines socket =
  let fd = connect socket in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then begin
         send_raw fd (line ^ "\n");
         print_endline (recv_line ~timeout:60.0 fd "lines client")
       end
     done
   with End_of_file -> ());
  Unix.close fd

(* N concurrent identical eval-grid clients; responses must be
   byte-identical (the router's coalescing demux is invisible) *)
let run_blast n addr model =
  if n < 1 then die "--blast wants N >= 1";
  let req =
    Printf.sprintf
      "{\"op\":\"eval-grid\",\"model\":%S,\"freqs\":[1e6,2e6,5e6,1e7]}\n"
      model
  in
  let results = Array.make n "" in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            let fd = connect addr in
            send_raw fd req;
            results.(i) <- recv_line ~timeout:30.0 fd
                (Printf.sprintf "blast client %d" i);
            Unix.close fd)
          ())
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      expect_ok (Printf.sprintf "blast client %d" i) r;
      if r <> results.(0) then
        die "blast client %d: response differs from client 0:\n%s\nvs\n%s" i
          r results.(0))
    results;
  Printf.printf "blast: %d/%d identical ok responses\n%!" n n

let () =
  let socket, model =
    match Sys.argv with
    | [| _; "--lines"; s |] -> run_lines s; exit 0
    | [| _; "--blast"; n; s; m |] ->
      (match int_of_string_opt n with
       | Some n -> run_blast n s m; exit 0
       | None -> die "--blast wants a numeric count, got %S" n)
    | [| _; s; m |] -> (s, m)
    | _ -> die "usage: smoke_clients [--lines | --blast N] ADDR [MODEL]"
  in
  (* client 1: stalls mid-frame *)
  let slow = connect socket in
  send_raw slow "{\"op\":\"eval-grid\",\"model\":\"";
  (* clients 2-4: well-formed traffic while the slow client hangs *)
  let fast = Array.init 3 (fun _ -> connect socket) in
  Array.iteri
    (fun i fd ->
      let what = Printf.sprintf "fast client %d" i in
      send_raw fd
        (Printf.sprintf "{\"op\":\"model-info\",\"model\":%S}\n" model);
      expect_ok what (recv_line fd what);
      Unix.close fd)
    fast;
  print_endline "fast clients: 3/3 ok";
  (* the stalled client must receive a typed timeout, per policy *)
  let l = recv_line ~timeout:15.0 slow "slow client" in
  expect_kind "slow client" "timeout" l;
  Unix.close slow;
  print_endline "slow client: timed out with typed response";
  (* stats must account for the stall; then drain the server *)
  let last = connect socket in
  send_raw last "{\"op\":\"stats\"}\n";
  let stats = recv_line last "stats" in
  expect_ok "stats" stats;
  if not (contains stats "\"supervisor\"" || contains stats "\"router\"") then
    die "stats: missing supervisor or router block: %s" stats;
  if contains stats "\"read_timeouts\": 0," then
    die "stats: slow-client timeout not recorded: %s" stats;
  send_raw last "{\"op\":\"shutdown\"}\n";
  expect_ok "shutdown" (recv_line last "shutdown");
  Unix.close last;
  print_endline "shutdown: acknowledged, server draining"
