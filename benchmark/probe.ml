(* Measurement primitives shared by every workload: one monotonic clock,
   quantiles, an in-memory span recorder, and /proc readers for peak
   memory and the host description. *)

(* Nanoseconds from the kernel's monotonic clock: immune to wall-clock
   steps, so no interval can come out negative. *)
let now () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, seconds_since t0)

(* Linear interpolation between closest ranks (numpy's default);
   [p] in [0, 100].  An empty sample is 0: a layer that did no work. *)
let percentile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    Array.sort compare a;
    let pos = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = percentile 50. xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio num den = if den = 0. then 0. else num /. den

(* ------------------------------------------------------------------ *)
(* Spans *)

module Trace = struct
  type span = {
    sid : int;
    rid : string;        (* request or job id the span belongs to *)
    name : string;
    t0 : int64;
    t1 : int64;
    parent : int option;
  }

  type t = {
    workload : string;
    mutable spans : span list;   (* newest first *)
    mutable next : int;
    mutable stack : int list;    (* open spans, innermost first *)
  }

  let create workload = { workload; spans = []; next = 0; stack = [] }

  (* [span tr ~rid name f] times [f] as a child of the innermost open
     span.  With no recorder it is just [f ()].  Single-threaded: the
     traced replays run on one thread. *)
  let span tr ~rid name f =
    match tr with
    | None -> f ()
    | Some tr ->
      let sid = tr.next in
      tr.next <- sid + 1;
      let parent = match tr.stack with p :: _ -> Some p | [] -> None in
      tr.stack <- sid :: tr.stack;
      let t0 = now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          tr.stack <- List.tl tr.stack;
          tr.spans <- { sid; rid; name; t0; t1; parent } :: tr.spans)

  let seconds s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

  let count tr = tr.next

  (* Durations (s) of every span with this name, oldest first. *)
  let durations tr name =
    List.rev
      (List.filter_map
         (fun s -> if s.name = name then Some (seconds s) else None)
         tr.spans)

  (* Summed duration (s) of each span's direct children. *)
  let child_seconds tr =
    let h = Hashtbl.create 256 in
    List.iter
      (fun s ->
        match s.parent with
        | Some p ->
          Hashtbl.replace h p
            (seconds s +. Option.value ~default:0. (Hashtbl.find_opt h p))
        | None -> ())
      tr.spans;
    h

  (* For each span named [name]: the share of its duration its direct
     children cover. *)
  let coverage tr name =
    let kids = child_seconds tr in
    List.filter_map
      (fun s ->
        if s.name <> name then None
        else
          Some
            (ratio
               (Option.value ~default:0. (Hashtbl.find_opt kids s.sid))
               (seconds s)))
      tr.spans

  (* Self time per span name — duration minus what direct children
     cover — as (name, count, total self seconds), first-seen order. *)
  let self_times tr =
    let kids = child_seconds tr in
    let order = ref [] in
    let acc = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self =
          seconds s -. Option.value ~default:0. (Hashtbl.find_opt kids s.sid)
        in
        match Hashtbl.find_opt acc s.name with
        | Some (n, t) -> Hashtbl.replace acc s.name (n + 1, t +. self)
        | None ->
          order := s.name :: !order;
          Hashtbl.replace acc s.name (1, self))
      (List.rev tr.spans);
    List.rev_map
      (fun name ->
        let n, t = Hashtbl.find acc name in
        (name, n, t))
      !order

  (* Wall time covered by root spans. *)
  let root_seconds tr =
    List.fold_left
      (fun acc s -> if s.parent = None then acc +. seconds s else acc)
      0. tr.spans

  (* What recording one span costs, measured on a throwaway recorder. *)
  let span_cost () =
    let tr = Some (create "calibration") in
    let n = 20_000 in
    let (), dt =
      timed (fun () ->
          for _ = 1 to n do
            span tr ~rid:"0" "calibration" ignore
          done)
    in
    dt /. float_of_int n

  (* One JSON line per span; the first line carries the run settings. *)
  let write tr ~settings path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    output_string oc (Serve.Sjson.to_string (Serve.Sjson.Obj [ ("settings", settings) ]));
    output_char oc '\n';
    let str s = Serve.Sjson.to_string (Serve.Sjson.Str s) in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"workload\": %s, \"id\": %s, \"name\": %s, \"start_ns\": %Ld, \
           \"end_ns\": %Ld, \"parent\": %s}\n"
          (str tr.workload) (str s.rid) (str s.name) s.t0 s.t1
          (match s.parent with Some p -> string_of_int p | None -> "null"))
      (List.rev tr.spans)
end

(* ------------------------------------------------------------------ *)
(* /proc *)

let status_field ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.starts_with ~prefix line then
          Some
            (String.trim
               (String.sub line (String.length prefix)
                  (String.length line - String.length prefix)))
        else scan ()
    in
    scan ()

(* Peak resident set (VmHWM) in MiB; [pid] "self" for this process. *)
let peak_rss_mb pid =
  match status_field ~pid "VmHWM" with
  | Some v ->
    (match String.split_on_char ' ' v with
     | kb :: _ -> (
       match float_of_string_opt kb with Some k -> k /. 1024. | None -> 0.)
     | [] -> 0.)
  | None -> 0.

let host () =
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ( "cpus_allowed_list",
      Option.value ~default:"unknown"
        (status_field ~pid:"self" "Cpus_allowed_list") );
    ( "mfti_domains",
      Option.value ~default:"unset" (Sys.getenv_opt "MFTI_DOMAINS") );
    ("ocaml", Sys.ocaml_version) ]
