type event = { site : string; detail : string }

type t = {
  mutable condition : float option;
  mutable rank_gap : float option;
  mutable fallbacks : event list;
  mutable retries : int;
  mutable wall_time : float;
}

let create () =
  { condition = None; rank_gap = None; fallbacks = []; retries = 0;
    wall_time = 0. }

(* One ambient collector for the process, guarded by a mutex: deep
   numerics (an LU fallback inside a parallelized frequency sweep, a
   non-converging SVD) record events from whatever domain they run on,
   without every kernel threading a diagnostics parameter. *)
let lock = Mutex.create ()
let current : t option ref = ref None

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Events recorded inside [hold] on this domain, newest first. *)
let held : event list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let record ~site detail =
  match !(Domain.DLS.get held) with
  | Some events -> events := { site; detail } :: !events
  | None ->
    with_lock (fun () ->
        match !current with
        | None -> ()
        | Some d -> d.fallbacks <- { site; detail } :: d.fallbacks)

let hold f =
  let slot = Domain.DLS.get held in
  let saved = !slot in
  let events = ref [] in
  slot := Some events;
  let x = Fun.protect ~finally:(fun () -> slot := saved) f in
  (x, List.rev !events)

let incr_retries () =
  with_lock (fun () ->
      match !current with None -> () | Some d -> d.retries <- d.retries + 1)

let set_condition c =
  with_lock (fun () ->
      match !current with None -> () | Some d -> d.condition <- Some c)

let set_rank_gap g =
  with_lock (fun () ->
      match !current with None -> () | Some d -> d.rank_gap <- Some g)

let using d f =
  let saved = with_lock (fun () -> let s = !current in current := Some d; s) in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      d.wall_time <- d.wall_time +. (Unix.gettimeofday () -. t0);
      with_lock (fun () -> current := saved))
    f

let with_collector f =
  let d = create () in
  let x = using d f in
  (x, d)

let events d = List.rev d.fallbacks
let fallback_count d = List.length d.fallbacks
let recorded d site = List.exists (fun e -> e.site = site) d.fallbacks

let summary d =
  let buf = Buffer.create 128 in
  (match d.condition with
   | Some c -> Buffer.add_string buf (Printf.sprintf "condition ~ %.3g" c)
   | None -> Buffer.add_string buf "condition n/a");
  (match d.rank_gap with
   | Some g -> Buffer.add_string buf (Printf.sprintf "; rank gap %.2f decades" g)
   | None -> ());
  let n = fallback_count d in
  if n = 0 then Buffer.add_string buf "; no fallbacks"
  else begin
    Buffer.add_string buf (Printf.sprintf "; %d fallback%s (" n
                             (if n = 1 then "" else "s"));
    let sites =
      List.sort_uniq compare (List.map (fun e -> e.site) (events d))
    in
    Buffer.add_string buf (String.concat ", " sites);
    Buffer.add_char buf ')'
  end;
  if d.retries > 0 then
    Buffer.add_string buf (Printf.sprintf "; %d retr%s" d.retries
                             (if d.retries = 1 then "y" else "ies"));
  Buffer.add_string buf (Printf.sprintf "; %.3f s" d.wall_time);
  Buffer.contents buf
