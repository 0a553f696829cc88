open Linalg

(* Sharded, replicated serving tier.  See router.mli for the design:
   consistent-hash sharding, health-checked replicas with failover and
   rejoin, per-model coalescing of concurrent eval-grid requests, and
   frame negotiation on both sides (clients negotiate with us; we
   negotiate binary frames with every replica so grids cross as raw
   IEEE-754).

   Concurrency model: the router is IO-bound, so everything runs on
   systhreads — the {!Listener}'s accept loop and [max_conns] client
   runners, plus one health prober.  One global mutex [t.mu] guards the
   replica set, the ring, the coalescing slots, the pools and every
   counter; all network IO happens outside it. *)

(* ------------------------------------------------------------------ *)
(* Consistent-hash ring *)

module Ring = struct
  type t = { points : (int64 * string) array }

  let hash s =
    (* FNV-1a, 64-bit.  Raw FNV has almost no avalanche on short
       strings (one-byte keys differ in a handful of bit positions), so
       finish with a splitmix64 mix — without it a ring of short names
       is badly lumpy. *)
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h :=
          Int64.mul
            (Int64.logxor !h (Int64.of_int (Char.code c)))
            0x100000001b3L)
      s;
    let z = !h in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let make ~vnodes names =
    if vnodes < 1 then
      Mfti_error.raise_error
        (Mfti_error.Validation
           { context = "router.ring"; message = "vnodes must be >= 1" });
    let points =
      Array.of_list
        (List.concat_map
           (fun name ->
             List.init vnodes (fun v ->
                 (hash (Printf.sprintf "%s#%d" name v), name)))
           names)
    in
    Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) points;
    { points }

  let candidates t key =
    let n = Array.length t.points in
    if n = 0 then []
    else begin
      let h = hash key in
      (* first point clockwise of [h] (unsigned), wrapping *)
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then
          lo := mid + 1
        else hi := mid
      done;
      let start = if !lo = n then 0 else !lo in
      let seen = Hashtbl.create 8 in
      let out = ref [] in
      for i = 0 to n - 1 do
        let _, name = t.points.((start + i) mod n) in
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name ();
          out := name :: !out
        end
      done;
      List.rev !out
    end
end

(* ------------------------------------------------------------------ *)
(* Health state machine *)

module Health = struct
  type state = Up | Suspect | Down | Draining
  type probe = Ok | Ok_draining | Failed

  let step ~fail_threshold state fails probe =
    match probe with
    | Ok -> (Up, 0)
    | Ok_draining -> (Draining, 0)
    | Failed ->
      let fails = fails + 1 in
      if fails >= fail_threshold then (Down, fails)
      else (
        match state with
        | Up | Suspect -> (Suspect, fails)
        | (Down | Draining) as s -> (s, fails))

  let to_string = function
    | Up -> "up"
    | Suspect -> "suspect"
    | Down -> "down"
    | Draining -> "draining"
end

(* ------------------------------------------------------------------ *)
(* Configuration *)

type config = {
  vnodes : int;
  probe_interval_ms : int;
  fail_threshold : int;
  max_failover : int;
  connect_timeout_ms : int;
  request_timeout_ms : int;
  idle_timeout_ms : int;
  max_conns : int;
  coalesce_hold_ms : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  max_line_bytes : int;
}

let default_config =
  { vnodes = 64;
    probe_interval_ms = 200;
    fail_threshold = 3;
    max_failover = 2;
    connect_timeout_ms = 1_000;
    request_timeout_ms = 5_000;
    idle_timeout_ms = 30_000;
    max_conns = 64;
    coalesce_hold_ms = 0;
    backoff_base_ms = 50;
    backoff_cap_ms = 2_000;
    max_line_bytes = 8 * 1024 * 1024 }

let validate_config c =
  let bad what =
    Mfti_error.raise_error
      (Mfti_error.Validation { context = "router"; message = what })
  in
  if c.vnodes < 1 then bad "vnodes must be >= 1";
  if c.probe_interval_ms < 1 then bad "probe interval must be >= 1 ms";
  if c.fail_threshold < 1 then bad "fail threshold must be >= 1";
  if c.max_failover < 0 then bad "max failover must be >= 0";
  if c.connect_timeout_ms < 1 then bad "connect timeout must be >= 1 ms";
  if c.max_conns < 1 then bad "connection cap must be >= 1";
  if c.coalesce_hold_ms < 0 then bad "coalesce hold must be >= 0 ms"

(* Clients get [max_conns] runners and no queue, so the router sheds
   exactly at the cap; runners restart on the replicas' backoff. *)
let listener_config c =
  { Listener.workers = c.max_conns;
    queue = 0;
    request_timeout_ms = c.request_timeout_ms;
    idle_timeout_ms = c.idle_timeout_ms;
    drain_ms = 2_000;
    backoff_base_ms = c.backoff_base_ms;
    backoff_cap_ms = c.backoff_cap_ms;
    max_line_bytes = c.max_line_bytes }

let now = Listener.now
let seconds ms = float_of_int ms /. 1000.

(* ------------------------------------------------------------------ *)
(* Replicas *)

type replica = {
  r_name : string;
  r_addr : Listener.addr;
  r_faulted : bool;             (* first configured replica: chaos target *)
  mutable r_state : Health.state;
  mutable r_fails : int;
  mutable r_pool : Listener.peer list;
  mutable r_next_attempt : float;
  mutable r_backoff_ms : int;
  mutable r_served : int;
  mutable r_errors : int;
  mutable r_rejoins : int;
  mutable r_flap : int;         (* router.rejoin_flap probe counter *)
}

let pool_cap = 4

(* ------------------------------------------------------------------ *)
(* Coalescing *)

(* The outcome of one upstream eval-grid batch, shared by its waiters:
   the replica's meta fields + matrices over the merged grid, or an
   error response text relayed to everyone. *)
type gres =
  | Gok of (string * Sjson.t) list * Cmat.t array * float array
  | Gtext of string

type batch = {
  b_cond : Condition.t;
  mutable b_freqs : float array list;   (* one entry per waiter *)
  mutable b_running : bool;
  mutable b_result : gres option;
}

type slot = { mutable open_batch : batch option }

(* ------------------------------------------------------------------ *)
(* Router state *)

type replica_snapshot = {
  rp_name : string;
  rp_state : Health.state;
  rp_fails : int;
  rp_served : int;
  rp_errors : int;
  rp_rejoins : int;
}

type snapshot = {
  rt_requests : int;
  rt_forwarded : int;
  rt_failovers : int;
  rt_timeouts : int;
  rt_unavailable : int;
  rt_shed : int;
  rt_coalesce_batches : int;
  rt_coalesce_hits : int;
  rt_probes : int;
  rt_conns : int;
  rt_draining : bool;
  rt_replicas : replica_snapshot list;
}

type t = {
  config : config;
  front : Listener.t;                   (* the client-facing connections *)
  mu : Mutex.t;
  mutable replicas : replica list;      (* configured order *)
  mutable ring : Ring.t;
  slots : (string, slot) Hashtbl.t;
  mutable session_rr : int;             (* fit-open round-robin cursor *)
  mutable c_requests : int;
  mutable c_forwarded : int;
  mutable c_failovers : int;
  mutable c_timeouts : int;
  mutable c_unavailable : int;
  mutable c_batches : int;
  mutable c_hits : int;
  mutable c_probes : int;
  mutable health_thread : Thread.t option;
}

let locked t f = Mutex.protect t.mu f

let find_replica t name =
  List.find_opt (fun r -> r.r_name = name) t.replicas

(* ------------------------------------------------------------------ *)
(* Health bookkeeping (callers hold t.mu) *)

let flush_pool r =
  List.iter Listener.hang_up r.r_pool;
  r.r_pool <- []

let note_transition r was =
  if r.r_state = Health.Up && was <> Health.Up then begin
    if was = Health.Down then r.r_rejoins <- r.r_rejoins + 1;
    r.r_backoff_ms <- 0;
    r.r_next_attempt <- 0.;
    (* pooled fds predate the outage; a restarted replica has new ones *)
    flush_pool r
  end

let note_failure t r =
  let was = r.r_state in
  let st, fails =
    Health.step ~fail_threshold:t.config.fail_threshold r.r_state r.r_fails
      Health.Failed
  in
  r.r_state <- st;
  r.r_fails <- fails;
  r.r_errors <- r.r_errors + 1;
  r.r_backoff_ms <-
    Stdlib.min t.config.backoff_cap_ms
      (Stdlib.max t.config.backoff_base_ms (r.r_backoff_ms * 2));
  (* deterministic per-replica jitter so a fleet of routers does not
     hammer a recovering replica in lockstep *)
  let jit = Int64.to_int (Int64.logand (Ring.hash r.r_name) 0xfL) in
  r.r_next_attempt <- now () +. (float_of_int (r.r_backoff_ms + jit) /. 1000.);
  flush_pool r;
  ignore was

let note_success r =
  (* request-path success: resurrect Suspect/Down, but leave Draining
     alone — the replica asked to wind down *)
  if r.r_state <> Health.Draining then begin
    let was = r.r_state in
    r.r_state <- Health.Up;
    r.r_fails <- 0;
    note_transition r was
  end

let apply_probe t r probe =
  let was = r.r_state in
  let st, fails =
    Health.step ~fail_threshold:t.config.fail_threshold r.r_state r.r_fails
      probe
  in
  r.r_state <- st;
  r.r_fails <- fails;
  note_transition r was

(* ------------------------------------------------------------------ *)
(* Upstream calls *)

let take_conn t r =
  match
    locked t (fun () ->
        match r.r_pool with
        | [] -> None
        | c :: rest ->
          r.r_pool <- rest;
          Some c)
  with
  | Some c -> Ok c
  | None ->
    Listener.dial r.r_addr ~timeout_s:(seconds t.config.connect_timeout_ms)
      ~max_bytes:t.config.max_line_bytes ~binary:true

let put_conn t r p =
  locked t (fun () ->
      if (not (Listener.draining t.front)) && List.length r.r_pool < pool_cap
         && r.r_state <> Health.Down
      then r.r_pool <- p :: r.r_pool
      else Listener.hang_up p)

(* One attempt against one replica: fault sites first, then the wire.
   [`Timeout] is terminal (no failover — the work may still land);
   [`Conn_err] lets the caller try the next candidate. *)
let call_replica t r line =
  if r.r_faulted && Fault.armed "router.partition" then
    `Conn_err "injected partition"
  else if r.r_faulted && Fault.armed "router.slow_replica" then `Timeout
  else
    match take_conn t r with
    | Error m -> `Conn_err m
    | Ok p ->
      let deadline = now () +. seconds t.config.request_timeout_ms in
      (match Listener.call p ~deadline line with
       | `Reply payload ->
         put_conn t r p;
         locked t (fun () ->
             r.r_served <- r.r_served + 1;
             note_success r);
         (match payload with
          | Frame.Json_text s -> `Json s
          | Frame.Grid_body b -> `Grid b)
       | `Timeout ->
         Listener.hang_up p;
         `Timeout
       | `Failed m ->
         Listener.hang_up p;
         `Conn_err m)

(* Route [line] by [key] along the ring with bounded failover. *)
let exec_upstream ?attempts t ~key line =
  let max_attempts =
    match attempts with Some n -> n | None -> 1 + t.config.max_failover
  in
  let cands = locked t (fun () -> Ring.candidates t.ring key) in
  let tried = ref 0 in
  let rec go = function
    | [] ->
      locked t (fun () -> t.c_unavailable <- t.c_unavailable + 1);
      `Unavailable !tried
    | name :: rest ->
      if !tried >= max_attempts then begin
        locked t (fun () -> t.c_unavailable <- t.c_unavailable + 1);
        `Unavailable !tried
      end
      else begin
        let r_opt = locked t (fun () -> find_replica t name) in
        match r_opt with
        | None -> go rest
        | Some r ->
          let eligible =
            locked t (fun () ->
                match r.r_state with
                | Health.Down | Health.Draining -> false
                | Health.Up -> true
                | Health.Suspect -> now () >= r.r_next_attempt)
          in
          if not eligible then go rest
          else begin
            if !tried > 0 then
              locked t (fun () -> t.c_failovers <- t.c_failovers + 1);
            incr tried;
            locked t (fun () -> t.c_forwarded <- t.c_forwarded + 1);
            match call_replica t r line with
            | `Json s -> `Json s
            | `Grid b -> `Grid b
            | `Timeout ->
              locked t (fun () -> t.c_timeouts <- t.c_timeouts + 1);
              `Timeout
            | `Conn_err _ ->
              locked t (fun () -> note_failure t r);
              go rest
          end
      end
  in
  go cands

(* A single-replica call (session stickiness), no ring walk. *)
let exec_on_replica t r line =
  locked t (fun () -> t.c_forwarded <- t.c_forwarded + 1);
  match call_replica t r line with
  | `Json s -> `Json s
  | `Grid b -> `Grid b
  | `Timeout ->
    locked t (fun () -> t.c_timeouts <- t.c_timeouts + 1);
    `Timeout
  | `Conn_err _ ->
    locked t (fun () ->
        note_failure t r;
        t.c_unavailable <- t.c_unavailable + 1);
    `Unavailable 1

(* ------------------------------------------------------------------ *)
(* Typed local responses *)

let timeout_resp ?op ms =
  Server.protocol_error ?op ~kind:"timeout"
    ~message:(Printf.sprintf "upstream replica deadline exceeded (%d ms)" ms)
    ()

let unavailable_resp ?op tried =
  Server.protocol_error ?op ~kind:"unavailable"
    ~message:
      (Printf.sprintf
         "no live replica could answer (attempted %d); retry with backoff"
         tried)
    ()

(* ------------------------------------------------------------------ *)
(* Coalesced eval-grid *)

let merge_freqs sets =
  let all = Array.concat sets in
  let l = List.sort_uniq Float.compare (Array.to_list all) in
  Array.of_list l

let find_idx merged f =
  let lo = ref 0 and hi = ref (Array.length merged - 1) in
  let found = ref (-1) in
  while !lo <= !hi && !found < 0 do
    let mid = (!lo + !hi) / 2 in
    let c = Float.compare merged.(mid) f in
    if c = 0 then found := mid
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let grid_request ~model freqs =
  Sjson.to_string
    (Sjson.Obj
       [ ("op", Sjson.Str "eval-grid");
         ("model", Sjson.Str model);
         ( "freqs",
           Sjson.Arr
             (Array.to_list (Array.map (fun f -> Sjson.Num f) freqs)) ) ])

let exec_grid t ~model merged =
  let line = grid_request ~model merged in
  match exec_upstream t ~key:model line with
  | `Grid body ->
    (match Frame.decode_grid_body body with
     | Sjson.Obj fields, grid -> Gok (fields, grid, merged)
     | _ ->
       Gtext
         (Sjson.to_string
            (Server.protocol_error ~op:"eval-grid" ~kind:"parse"
               ~message:"replica grid meta is not an object" ()))
     | exception Mfti_error.Error e ->
       Gtext (Sjson.to_string (Server.error_response ~op:"eval-grid" e)))
  | `Json s -> Gtext s
  | `Timeout ->
    Gtext
      (Sjson.to_string (timeout_resp ~op:"eval-grid" t.config.request_timeout_ms))
  | `Unavailable tried ->
    Gtext (Sjson.to_string (unavailable_resp ~op:"eval-grid" tried))

(* Submit one eval-grid request, riding a shared batch when one is
   forming for the same model.  Returns this waiter's share. *)
let submit_grid t ~model ~freqs =
  Mutex.lock t.mu;
  let slot =
    match Hashtbl.find_opt t.slots model with
    | Some s -> s
    | None ->
      let s = { open_batch = None } in
      Hashtbl.add t.slots model s;
      s
  in
  let result =
    match slot.open_batch with
    | Some b when not b.b_running ->
      (* follower: join the forming batch, wait for its leader *)
      b.b_freqs <- freqs :: b.b_freqs;
      t.c_hits <- t.c_hits + 1;
      while b.b_result = None do
        Condition.wait b.b_cond t.mu
      done;
      Mutex.unlock t.mu;
      (match b.b_result with Some r -> r | None -> assert false)
    | _ ->
      (* leader: open a batch, optionally hold it so concurrent
         requests can pile in, then run the merged call *)
      let b =
        { b_cond = Condition.create (); b_freqs = [ freqs ];
          b_running = false; b_result = None }
      in
      slot.open_batch <- Some b;
      t.c_batches <- t.c_batches + 1;
      if t.config.coalesce_hold_ms > 0 then begin
        Mutex.unlock t.mu;
        Unix.sleepf (float_of_int t.config.coalesce_hold_ms /. 1000.);
        Mutex.lock t.mu
      end;
      b.b_running <- true;
      (match slot.open_batch with
       | Some b' when b' == b -> slot.open_batch <- None
       | _ -> ());
      let merged = merge_freqs b.b_freqs in
      Mutex.unlock t.mu;
      let res = exec_grid t ~model merged in
      Mutex.lock t.mu;
      b.b_result <- Some res;
      Condition.broadcast b.b_cond;
      Mutex.unlock t.mu;
      res
  in
  (* demultiplex this waiter's frequencies back out *)
  match result with
  | Gtext s -> `Text s
  | Gok (fields, grid, merged) ->
    let ok = ref true in
    let mine =
      Array.map
        (fun f ->
          let i = find_idx merged f in
          if i < 0 then begin
            ok := false;
            Cmat.zeros 0 0
          end
          else grid.(i))
        freqs
    in
    if not !ok then
      `Text
        (Sjson.to_string
           (Server.protocol_error ~op:"eval-grid" ~kind:"parse"
              ~message:"merged grid is missing a requested frequency" ()))
    else
      let fields =
        List.map
          (fun (k, v) ->
            if k = "points" then
              (k, Sjson.Num (float_of_int (Array.length freqs)))
            else (k, v))
          fields
      in
      `Grid_meta (fields, mine)

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats t =
  let l = Listener.stats t.front in
  locked t (fun () ->
      { rt_requests = t.c_requests;
        rt_forwarded = t.c_forwarded;
        rt_failovers = t.c_failovers;
        rt_timeouts = t.c_timeouts;
        rt_unavailable = t.c_unavailable;
        rt_shed = l.shed;
        rt_coalesce_batches = t.c_batches;
        rt_coalesce_hits = t.c_hits;
        rt_probes = t.c_probes;
        rt_conns = l.in_flight;
        rt_draining = Listener.draining t.front;
        rt_replicas =
          List.map
            (fun r ->
              { rp_name = r.r_name;
                rp_state = r.r_state;
                rp_fails = r.r_fails;
                rp_served = r.r_served;
                rp_errors = r.r_errors;
                rp_rejoins = r.r_rejoins })
            t.replicas })

let stats_json t =
  let s = stats t in
  let l = Listener.stats t.front in
  let n x = Sjson.Num (float_of_int x) in
  Sjson.Obj
    [ ("ok", Sjson.Bool true);
      ("op", Sjson.Str "stats");
      ( "router",
        Sjson.Obj
          [ ("requests", n s.rt_requests);
            ("forwarded", n s.rt_forwarded);
            ("failovers", n s.rt_failovers);
            ("timeouts", n s.rt_timeouts);
            ("unavailable", n s.rt_unavailable);
            ("shed", n s.rt_shed);
            ("accepted", n l.accepted);
            ("idle_timeouts", n l.idle_timeouts);
            ("read_timeouts", n l.read_timeouts);
            ("restarts", n l.restarts);
            ("coalesce_batches", n s.rt_coalesce_batches);
            ("coalesce_hits", n s.rt_coalesce_hits);
            ("probes", n s.rt_probes);
            ("conns", n s.rt_conns);
            ("draining", Sjson.Bool s.rt_draining);
            ( "replicas",
              Sjson.Arr
                (List.map
                   (fun r ->
                     Sjson.Obj
                       [ ("name", Sjson.Str r.rp_name);
                         ("state", Sjson.Str (Health.to_string r.rp_state));
                         ("fails", n r.rp_fails);
                         ("served", n r.rp_served);
                         ("errors", n r.rp_errors);
                         ("rejoins", n r.rp_rejoins) ])
                   s.rt_replicas) ) ] ) ]

(* ------------------------------------------------------------------ *)
(* Health prober *)

let probe_replica t r =
  if r.r_faulted && Fault.armed "router.partition" then Health.Failed
  else if r.r_faulted && Fault.armed "router.rejoin_flap" then begin
    let odd =
      locked t (fun () ->
          r.r_flap <- r.r_flap + 1;
          r.r_flap land 1 = 1)
    in
    if odd then Health.Failed else Health.Ok
  end
  else begin
    let timeout_s = seconds t.config.connect_timeout_ms in
    match
      Listener.dial r.r_addr ~timeout_s ~max_bytes:t.config.max_line_bytes
        ~binary:false
    with
    | Error _ -> Health.Failed
    | Ok p ->
      let verdict =
        let deadline = now () +. timeout_s in
        match Listener.call p ~deadline {|{"op": "ping"}|} with
        | `Reply (Frame.Json_text s) ->
          (match Sjson.parse s with
           | j when Sjson.member "ok" j = Some (Sjson.Bool true) ->
             if Sjson.member "draining" j = Some (Sjson.Bool true) then
               Health.Ok_draining
             else Health.Ok
           | _ | (exception Sjson.Parse_error _) -> Health.Failed)
        | _ -> Health.Failed
      in
      Listener.hang_up p;
      verdict
  end

let health_loop t () =
  let interval = seconds t.config.probe_interval_ms in
  let stopping () = Listener.draining t.front in
  let rec go () =
    if not (stopping ()) then begin
      let reps = locked t (fun () -> t.replicas) in
      List.iter
        (fun r ->
          if not (stopping ()) then begin
            let probe = probe_replica t r in
            locked t (fun () ->
                t.c_probes <- t.c_probes + 1;
                apply_probe t r probe)
          end)
        reps;
      let until = now () +. interval in
      while now () < until && not (stopping ()) do
        Unix.sleepf (Float.min 0.05 (until -. now ()))
      done;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Client-facing dispatch *)

let text j = Server.Text (Sjson.to_string j)

(* An eval-grid answer in the connection's rendering: raw IEEE-754 for a
   binary client, JSON re-rendered from the bits for a JSON one. *)
let grid_reply ~binary fields grid =
  if binary then Server.Grid (Frame.grid_body ~meta:(Sjson.Obj fields) ~grid)
  else Server.Text (Frame.grid_json ~meta:fields ~grid)

let member_str req k =
  match Sjson.member k req with Some (Sjson.Str s) -> Some s | _ -> None

let freqs_of req =
  match Sjson.member "freqs" req with
  | Some (Sjson.Arr l) ->
    let ok = List.for_all (function Sjson.Num _ -> true | _ -> false) l in
    if ok && l <> [] then
      Some
        (Array.of_list
           (List.map (function Sjson.Num f -> f | _ -> 0.) l))
    else None
  | _ -> None

let upstream_reply ?op t ~binary = function
  | `Json s -> Server.Text s
  | `Grid body when binary -> Server.Grid body
  | `Grid body ->
    (match Frame.decode_grid_body body with
     | Sjson.Obj fields, grid -> grid_reply ~binary fields grid
     | _ | (exception Mfti_error.Error _) ->
       text
         (Server.protocol_error ~op:"eval-grid" ~kind:"parse"
            ~message:"replica grid body is damaged" ()))
  | `Timeout -> text (timeout_resp ?op t.config.request_timeout_ms)
  | `Unavailable tried -> text (unavailable_resp ?op tried)

let pick_session_replica t =
  locked t (fun () ->
      let arr = Array.of_list t.replicas in
      let n = Array.length arr in
      if n = 0 then None
      else begin
        let k = t.session_rr in
        t.session_rr <- t.session_rr + 1;
        let rec find i =
          if i >= n then None
          else
            let r = arr.((k + i) mod n) in
            if r.r_state = Health.Up then Some r else find (i + 1)
        in
        find 0
      end)

let op_register t req =
  match member_str req "replica" with
  | None ->
    text
      (Server.protocol_error ~op:"register" ~kind:"validation"
         ~message:"register needs a \"replica\" address" ())
  | Some addr_s ->
    (match Listener.parse_addr addr_s with
     | exception Mfti_error.Error e ->
       text (Server.error_response ~op:"register" e)
     | addr ->
       let count =
         locked t (fun () ->
             (match find_replica t addr_s with
              | Some _ -> ()       (* idempotent re-register *)
              | None ->
                let r =
                  { r_name = addr_s; r_addr = addr; r_faulted = false;
                    r_state = Health.Suspect; r_fails = 0; r_pool = [];
                    r_next_attempt = 0.; r_backoff_ms = 0; r_served = 0;
                    r_errors = 0; r_rejoins = 0; r_flap = 0 }
                in
                t.replicas <- t.replicas @ [ r ];
                t.ring <-
                  Ring.make ~vnodes:t.config.vnodes
                    (List.map (fun r -> r.r_name) t.replicas));
             List.length t.replicas)
       in
       text
         (Sjson.Obj
            [ ("ok", Sjson.Bool true);
              ("op", Sjson.Str "register");
              ("replicas", Sjson.Num (float_of_int count)) ]))

(* The client-side request handler.  [pinned] is the connection's
   sticky session replica (set by the first successful fit-open).
   Returns the reply plus a drain flag. *)
let dispatch t ~pinned ~binary line =
  locked t (fun () -> t.c_requests <- t.c_requests + 1);
  let upstream ?op res = (upstream_reply ?op t ~binary res, false) in
  match Sjson.parse line with
  | exception Sjson.Parse_error _ ->
    (* let a replica render the typed parse error so clients see the
       exact same diagnostics with or without a router in front *)
    upstream (exec_upstream t ~key:"" line)
  | req ->
    let op = member_str req "op" in
    (match op with
     | Some "ping" ->
       ( text
           (Sjson.Obj
              [ ("ok", Sjson.Bool true);
                ("op", Sjson.Str "ping");
                ("draining", Sjson.Bool (Listener.draining t.front)) ]),
         false )
     | Some "stats" -> (text (stats_json t), false)
     | Some "register" -> (op_register t req, false)
     | Some "shutdown" ->
       ( text
           (Sjson.Obj [ ("ok", Sjson.Bool true); ("op", Sjson.Str "shutdown") ]),
         true )
     | Some "eval-grid" ->
       (match (member_str req "model", freqs_of req) with
        | Some model, Some freqs ->
          (match submit_grid t ~model ~freqs with
           | `Text s -> (Server.Text s, false)
           | `Grid_meta (fields, grid) ->
             (grid_reply ~binary fields grid, false))
        | _ ->
          (* malformed eval-grid: forward for the replica's typed error *)
          let key = Option.value ~default:"" (member_str req "model") in
          upstream ~op:"eval-grid" (exec_upstream t ~key line))
     | Some o
       when String.length o >= 4 && String.sub o 0 4 = "fit-" ->
       (* session ops are connection-sticky *)
       (match !pinned with
        | Some name ->
          (match locked t (fun () -> find_replica t name) with
           | Some r -> upstream ~op:o (exec_on_replica t r line)
           | None -> upstream ~op:o (`Unavailable 0))
        | None ->
          if o = "fit-open" then (
            match pick_session_replica t with
            | None -> upstream ~op:o (`Unavailable 0)
            | Some r ->
              let res = exec_on_replica t r line in
              (match res with
               | `Json _ -> pinned := Some r.r_name
               | _ -> ());
              upstream ~op:o res)
          else
            let key = Option.value ~default:"" (member_str req "session") in
            upstream ~op:o (exec_upstream ~attempts:1 t ~key line))
     | _ ->
       let key = Option.value ~default:"" (member_str req "model") in
       upstream ?op (exec_upstream t ~key line))

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let start ?(config = default_config) ~listen ~replicas () =
  validate_config config;
  let bad what =
    Mfti_error.raise_error
      (Mfti_error.Validation { context = "router"; message = what })
  in
  if replicas = [] then bad "at least one replica is required";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a then
        bad (Printf.sprintf "duplicate replica address %S" a);
      Hashtbl.add seen a ())
    replicas;
  let reps =
    List.mapi
      (fun i a ->
        { r_name = a; r_addr = Listener.parse_addr a; r_faulted = i = 0;
          r_state = Health.Up; r_fails = 0; r_pool = [];
          r_next_attempt = 0.; r_backoff_ms = 0; r_served = 0;
          r_errors = 0; r_rejoins = 0; r_flap = 0 })
      replicas
  in
  let front =
    Listener.create ~context:"router" (listener_config config) listen
  in
  let t =
    { config; front;
      mu = Mutex.create ();
      replicas = reps;
      ring = Ring.make ~vnodes:config.vnodes replicas;
      slots = Hashtbl.create 32;
      session_rr = 0;
      c_requests = 0; c_forwarded = 0; c_failovers = 0; c_timeouts = 0;
      c_unavailable = 0; c_batches = 0; c_hits = 0; c_probes = 0;
      health_thread = None }
  in
  (* the router is IO-bound: systhread runners, one per client *)
  Listener.start front ~runner:Listener.Threads ~on_conn:(fun _ ->
      dispatch t ~pinned:(ref None));
  t.health_thread <- Some (Thread.create (health_loop t) ());
  t

let bound_port t = Listener.bound_port t.front
let wait t = Listener.wait t.front

let stop t =
  Listener.stop t.front;
  Option.iter Thread.join t.health_thread;
  t.health_thread <- None;
  locked t (fun () -> List.iter flush_pool t.replicas)
