open Linalg

type op_stat = {
  mutable count : int;
  mutable op_errors : int;
  mutable total_s : float;
  mutable max_s : float;
}

type admission = Open | Warn | Strict

let admission_name = function
  | Open -> "open"
  | Warn -> "warn"
  | Strict -> "strict"

type session_limits = {
  max_sessions : int;
  session_bytes : int;
  session_ttl_s : float;
}

let default_session_limits =
  { max_sessions = 8;
    session_bytes = 64 * 1024 * 1024;
    session_ttl_s = 600. }

(* One live streaming-fit session.  [se_lock] serializes every op on
   the session (sticky access): [Engine.Session.t] is single-owner
   mutable state with no internal locking, and two supervisor workers
   can carry requests for the same session id on different
   connections. *)
type session_entry = {
  se_id : string;
  se_session : Mfti.Engine.Session.t;
  se_lock : Mutex.t;
  mutable se_last_used : float;
  mutable se_bytes : int;       (* accepted sample payload, accounted *)
}

type t = {
  root : string;
  admission : admission;
  cache : (Artifact.t * Compiled.t) Lru.t;
  started : float;
  ops : (string, op_stat) Hashtbl.t;
  (* one lock guards the cache and every mutable counter: supervisor
     workers call [handle_line] from several domains concurrently, and
     the LRU byte accounting must stay exact, not approximate *)
  lock : Mutex.t;
  quarantined : Artifact.quarantine list;
  limits : session_limits;
  sessions : (string, session_entry) Hashtbl.t;
  mutable next_session : int;
  mutable draining : bool;
  mutable extra_stats : unit -> (string * Sjson.t) list;
  mutable requests : int;
  mutable errors : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable conn_drops : int;
  mutable admission_refused : int;
  mutable admission_warned : int;
  mutable sessions_opened : int;
  mutable sessions_finalized : int;
  mutable sessions_expired : int;
  mutable sessions_refused : int;
  mutable session_samples : int;
  mutable session_suggests : int;
}

let validate_limits l =
  let bad what =
    Mfti_error.raise_error
      (Mfti_error.Validation { context = "serve.session"; message = what })
  in
  if l.max_sessions < 0 then bad "max_sessions must be >= 0";
  if l.session_bytes < 1 then bad "session_bytes must be >= 1";
  if not (l.session_ttl_s > 0.) then bad "session_ttl_s must be > 0"

let create ?(cache_bytes = 256 * 1024 * 1024) ?(recover = true)
    ?(admission = Warn) ?(session_limits = default_session_limits) ~root () =
  validate_limits session_limits;
  let quarantined = if recover then Artifact.recover_root root else [] in
  { root;
    admission;
    cache = Lru.create ~budget:cache_bytes;
    started = Unix.gettimeofday ();
    ops = Hashtbl.create 8;
    lock = Mutex.create ();
    quarantined;
    limits = session_limits;
    sessions = Hashtbl.create 8;
    next_session = 0;
    draining = false;
    extra_stats = (fun () -> []);
    requests = 0; errors = 0; bytes_in = 0; bytes_out = 0; conn_drops = 0;
    admission_refused = 0; admission_warned = 0;
    sessions_opened = 0; sessions_finalized = 0; sessions_expired = 0;
    sessions_refused = 0; session_samples = 0; session_suggests = 0 }

let quarantined t = t.quarantined
let set_stats_hook t f = t.extra_stats <- f

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_draining t b = locked t (fun () -> t.draining <- b)
let draining t = locked t (fun () -> t.draining)

(* expire idle streaming sessions; call with [t.lock] held *)
let sweep_sessions t now =
  let expired =
    Hashtbl.fold
      (fun id e acc ->
        if now -. e.se_last_used > t.limits.session_ttl_s then id :: acc
        else acc)
      t.sessions []
  in
  List.iter
    (fun id ->
      Hashtbl.remove t.sessions id;
      t.sessions_expired <- t.sessions_expired + 1)
    expired

(* ------------------------------------------------------------------ *)
(* Errors as typed responses *)

let kind_of_error = function
  | Mfti_error.Parse _ -> "parse"
  | Mfti_error.Validation _ -> "validation"
  | Mfti_error.Numerical_breakdown _ -> "numerical"
  | Mfti_error.Non_convergence _ -> "non-convergence"
  | Mfti_error.Budget_exhausted _ -> "budget"
  | Mfti_error.Fault_injected _ -> "fault"

let error_response ?op e =
  let base =
    [ ("ok", Sjson.Bool false);
      ( "error",
        Sjson.Obj
          [ ("kind", Sjson.Str (kind_of_error e));
            ("message", Sjson.Str (Mfti_error.to_string e)) ] ) ]
  in
  Sjson.Obj
    (match op with
     | Some op -> ("op", Sjson.Str op) :: base
     | None -> base)

let invalid message =
  Mfti_error.raise_error
    (Mfti_error.Validation { context = "serve"; message })

(* Protocol-level failure that is not a fitting-pipeline error: the
   supervisor uses this for load shedding ("overloaded") and deadline
   expiry ("timeout").  Same shape as [error_response] so clients parse
   one format. *)
let protocol_error ?op ~kind ~message () =
  let base =
    [ ("ok", Sjson.Bool false);
      ( "error",
        Sjson.Obj
          [ ("kind", Sjson.Str kind); ("message", Sjson.Str message) ] ) ]
  in
  Sjson.Obj
    (match op with
     | Some op -> ("op", Sjson.Str op) :: base
     | None -> base)

(* ------------------------------------------------------------------ *)
(* Model store *)

let id_ok id =
  String.length id > 0
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
         | _ -> false)
       id

let path_of_id t id = Filename.concat t.root (id ^ ".mfti")

(* Certification gate between disk and the cache.  An artifact with no
   certificate (a version-1 file or a pack without [--certify]) or a
   certificate that records a failed check is inadmissible evidence:
   [Strict] refuses it with a typed response, [Warn] serves it but
   counts the lapse, [Open] waves everything through.  Runs on cache
   misses only — a resident model already passed the same policy. *)
let admission_gate t id (art : Artifact.t) =
  let defect =
    match Mfti.Engine.Model.certificate art.Artifact.model with
    | None -> Some "uncertified (no certificate in the artifact)"
    | Some c when not (Mfti.Certify.Certificate.passed c) ->
      Some ("failed certification: " ^ Mfti.Certify.Certificate.to_string c)
    | Some _ -> None
  in
  match (defect, t.admission) with
  | None, _ | Some _, Open -> ()
  | Some _, Warn ->
    locked t (fun () -> t.admission_warned <- t.admission_warned + 1)
  | Some reason, Strict ->
    locked t (fun () -> t.admission_refused <- t.admission_refused + 1);
    Mfti_error.raise_error
      (Mfti_error.Validation
         { context = "serve.admission";
           message =
             Printf.sprintf "model %s refused under strict admission: %s" id
               reason })

(* Load through the cache; [snd] of the result tells whether it was
   resident already.  The lock covers each cache operation but not the
   disk load + compile in between: two workers missing on the same id
   load it twice and the second insert replaces the first (the LRU
   releases the replaced bytes), which keeps the byte accounting exact
   without serializing every model load. *)
let get_model t id =
  if not (id_ok id) then invalid ("malformed model id " ^ String.escaped id);
  match locked t (fun () -> Lru.find t.cache id) with
  | Some v -> (v, true)
  | None ->
    let path = path_of_id t id in
    if not (Sys.file_exists path) then invalid ("unknown model id " ^ id);
    let art =
      match Artifact.load path with
      | Ok art -> art
      | Error e -> Mfti_error.raise_error e
    in
    admission_gate t id art;
    let compiled = Compiled.of_model art.Artifact.model in
    let bytes = (Unix.stat path).Unix.st_size in
    locked t (fun () -> Lru.insert t.cache id ~bytes (art, compiled));
    ((art, compiled), false)

let list_ids t =
  match Sys.readdir t.root with
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".mfti" f)
    |> List.filter id_ok
    |> List.sort compare
  | exception Sys_error m -> invalid ("model root unreadable: " ^ m)

(* ------------------------------------------------------------------ *)
(* Request fields *)

let str_field req name =
  match Sjson.member name req with
  | Some (Sjson.Str s) -> s
  | Some _ -> invalid (Printf.sprintf "field %S must be a string" name)
  | None -> invalid (Printf.sprintf "missing field %S" name)

let max_grid_points = 1 lsl 16

let freqs_field req =
  match Sjson.member "freqs" req with
  | Some (Sjson.Arr (_ :: _ as xs)) ->
    if List.length xs > max_grid_points then
      invalid
        (Printf.sprintf "freqs exceeds the %d-point request cap"
           max_grid_points);
    Array.of_list
      (List.map
         (function
           | Sjson.Num f when Float.is_finite f -> f
           | _ -> invalid "freqs entries must be finite numbers")
         xs)
  | Some _ -> invalid "field \"freqs\" must be a non-empty array"
  | None -> invalid "missing field \"freqs\""

(* ------------------------------------------------------------------ *)
(* Ops *)

let mode_str c =
  match Compiled.mode c with
  | Compiled.Pole_residue -> "pole-residue"
  | Compiled.Direct -> "direct"

let op_list_models t =
  let models =
    List.map
      (fun id ->
        let bytes =
          try (Unix.stat (path_of_id t id)).Unix.st_size with _ -> 0
        in
        Sjson.Obj
          [ ("id", Sjson.Str id);
            ("bytes", Sjson.Num (float_of_int bytes));
            ("cached", Sjson.Bool (locked t (fun () -> Lru.mem t.cache id))) ])
      (list_ids t)
  in
  Sjson.Obj
    [ ("ok", Sjson.Bool true);
      ("op", Sjson.Str "list-models");
      ("models", Sjson.Arr models) ]

let certificate_json m =
  match Mfti.Engine.Model.certificate m with
  | None -> Sjson.Null
  | Some c ->
    let num x = if Float.is_finite x then Sjson.Num x else Sjson.Null in
    Sjson.Obj
      [ ("stable", Sjson.Bool c.Mfti.Certify.Certificate.stable);
        ("passive", Sjson.Bool c.Mfti.Certify.Certificate.passive);
        ("passed", Sjson.Bool (Mfti.Certify.Certificate.passed c));
        ("flipped",
         Sjson.Num (float_of_int c.Mfti.Certify.Certificate.flipped));
        ("repair_iterations",
         Sjson.Num (float_of_int c.Mfti.Certify.Certificate.repair_iterations));
        ("worst_margin", num c.Mfti.Certify.Certificate.worst_margin);
        ("pre_margin", num c.Mfti.Certify.Certificate.pre_margin);
        ("fit_delta", num c.Mfti.Certify.Certificate.fit_delta) ]

let op_model_info t req =
  let id = str_field req "model" in
  let (art, compiled), cached = get_model t id in
  let m = art.Artifact.model in
  Sjson.Obj
    [ ("ok", Sjson.Bool true);
      ("op", Sjson.Str "model-info");
      ("model", Sjson.Str id);
      ("name", Sjson.Str art.Artifact.name);
      ("created", Sjson.Num art.Artifact.created);
      ("order", Sjson.Num (float_of_int (Mfti.Engine.Model.order m)));
      ("inputs", Sjson.Num (float_of_int (Mfti.Engine.Model.inputs m)));
      ("outputs", Sjson.Num (float_of_int (Mfti.Engine.Model.outputs m)));
      ("rank", Sjson.Num (float_of_int (Mfti.Engine.Model.rank m)));
      ("fit_err", Sjson.Num art.Artifact.fit_err);
      ("mode", Sjson.Str (mode_str compiled));
      ("poles", Sjson.Num (float_of_int (Array.length (Compiled.poles compiled))));
      ("certificate", certificate_json m);
      ("cached", Sjson.Bool cached) ]

(* eval-grid computes meta fields and the raw grid separately so the
   transport can render either the JSON "results" array or the binary
   frame body without paying for the other *)
let op_eval_grid t req =
  let id = str_field req "model" in
  let freqs = freqs_field req in
  let (_, compiled), cached = get_model t id in
  let grid = Compiled.eval_grid compiled freqs in
  let meta =
    [ ("ok", Sjson.Bool true);
      ("op", Sjson.Str "eval-grid");
      ("model", Sjson.Str id);
      ("points", Sjson.Num (float_of_int (Array.length freqs)));
      ("outputs", Sjson.Num (float_of_int (Compiled.outputs compiled)));
      ("inputs", Sjson.Num (float_of_int (Compiled.inputs compiled)));
      ("cached", Sjson.Bool cached) ]
  in
  (meta, grid)

let op_ping t =
  Sjson.Obj
    [ ("ok", Sjson.Bool true);
      ("op", Sjson.Str "ping");
      ("draining", Sjson.Bool (locked t (fun () -> t.draining))) ]

let stats_json t =
  (* snapshot under the lock; render (and call the supervisor's stats
     hook, which takes its own lock) outside it so lock ordering stays
     one-directional *)
  let base =
    locked t (fun () ->
        sweep_sessions t (Unix.gettimeofday ());
        let cache = Lru.stats t.cache in
        let session_bytes =
          Hashtbl.fold (fun _ e acc -> acc + e.se_bytes) t.sessions 0
        in
        let per_op =
          Hashtbl.fold
            (fun op s acc ->
              ( op,
                Sjson.Obj
                  [ ("count", Sjson.Num (float_of_int s.count));
                    ("errors", Sjson.Num (float_of_int s.op_errors));
                    ("total_s", Sjson.Num s.total_s);
                    ("max_s", Sjson.Num s.max_s) ] )
              :: acc)
            t.ops []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        [ ("ok", Sjson.Bool true);
          ("op", Sjson.Str "stats");
          ("uptime_s", Sjson.Num (Unix.gettimeofday () -. t.started));
          ("requests", Sjson.Num (float_of_int t.requests));
          ("errors", Sjson.Num (float_of_int t.errors));
          ("bytes_in", Sjson.Num (float_of_int t.bytes_in));
          ("bytes_out", Sjson.Num (float_of_int t.bytes_out));
          ("conn_drops", Sjson.Num (float_of_int t.conn_drops));
          ("quarantined", Sjson.Num (float_of_int (List.length t.quarantined)));
          ( "admission",
            Sjson.Obj
              [ ("policy", Sjson.Str (admission_name t.admission));
                ("refused", Sjson.Num (float_of_int t.admission_refused));
                ("warned", Sjson.Num (float_of_int t.admission_warned)) ] );
          ( "sessions",
            Sjson.Obj
              [ ("open", Sjson.Num (float_of_int (Hashtbl.length t.sessions)));
                ("opened", Sjson.Num (float_of_int t.sessions_opened));
                ("finalized", Sjson.Num (float_of_int t.sessions_finalized));
                ("expired", Sjson.Num (float_of_int t.sessions_expired));
                ("refused", Sjson.Num (float_of_int t.sessions_refused));
                ("appended_samples",
                 Sjson.Num (float_of_int t.session_samples));
                ("suggest_calls", Sjson.Num (float_of_int t.session_suggests));
                ("resident_bytes", Sjson.Num (float_of_int session_bytes));
                ("draining", Sjson.Bool t.draining);
                ( "limits",
                  Sjson.Obj
                    [ ("max_sessions",
                       Sjson.Num (float_of_int t.limits.max_sessions));
                      ("session_bytes",
                       Sjson.Num (float_of_int t.limits.session_bytes));
                      ("ttl_s", Sjson.Num t.limits.session_ttl_s) ] ) ] );
          ("by_op", Sjson.Obj per_op);
          ( "cache",
            Sjson.Obj
              [ ("hits", Sjson.Num (float_of_int cache.Lru.hits));
                ("misses", Sjson.Num (float_of_int cache.Lru.misses));
                ("evictions", Sjson.Num (float_of_int cache.Lru.evictions));
                ("oversize", Sjson.Num (float_of_int cache.Lru.oversize));
                ("resident_bytes",
                 Sjson.Num (float_of_int cache.Lru.resident_bytes));
                ("budget_bytes", Sjson.Num (float_of_int cache.Lru.budget_bytes));
                ("models", Sjson.Num (float_of_int cache.Lru.count)) ] ) ])
  in
  Sjson.Obj (base @ t.extra_stats ())

(* ------------------------------------------------------------------ *)
(* Streaming fit sessions

   Registry discipline: [t.lock] guards the session table and the
   session counters; each entry's [se_lock] serializes the (mutable,
   lock-free) [Engine.Session.t] underneath.  Lock order is always
   [se_lock] before [t.lock] — lookups take [t.lock] briefly and
   release it before locking the entry, so the two can never deadlock.
   Expiry is lazy: any session op (and [stats]) sweeps entries whose
   idle time exceeds the TTL.  An op that raced the sweep keeps its
   already-resolved entry and completes; the next lookup of that id is
   a typed refusal. *)

let invalid_session message =
  Mfti_error.raise_error
    (Mfti_error.Validation { context = "serve.session"; message })

let find_session t id =
  let now = Unix.gettimeofday () in
  locked t (fun () ->
      sweep_sessions t now;
      match Hashtbl.find_opt t.sessions id with
      | None ->
        invalid_session ("unknown or expired session " ^ String.escaped id)
      | Some e ->
        e.se_last_used <- now;
        e)

let with_entry e f =
  Mutex.lock e.se_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.se_lock) f

let stage_name = function
  | Mfti.Engine.Ingested -> "ingested"
  | Mfti.Engine.Assembled -> "assembled"
  | Mfti.Engine.Realified -> "realified"
  | Mfti.Engine.Reduced -> "reduced"
  | Mfti.Engine.Certified -> "certified"

let opt_int_field req name =
  match Sjson.member name req with
  | Some (Sjson.Num f) when Float.is_integer f -> Some (int_of_float f)
  | Some _ -> invalid (Printf.sprintf "field %S must be an integer" name)
  | None -> None

let opt_bool_field req name =
  match Sjson.member name req with
  | Some (Sjson.Bool b) -> b
  | Some _ -> invalid (Printf.sprintf "field %S must be a boolean" name)
  | None -> false

(* the 16 bytes/entry of a complex payload plus a fixed per-sample
   overhead: what the byte budget charges an accepted sample *)
let sample_cost s =
  let p, m = Cmat.dims s.Statespace.Sampling.s in
  (16 * p * m) + 16

let complex_of_json = function
  | Sjson.Arr [ Sjson.Num re; Sjson.Num im ] -> { Cx.re; im }
  | _ -> invalid "matrix entries must be [re, im] pairs"

let sample_of_json j =
  let freq =
    match Sjson.member "freq" j with
    | Some (Sjson.Num f) -> f
    | Some _ | None -> invalid "sample field \"freq\" must be a number"
  in
  let rows =
    match Sjson.member "s" j with
    | Some (Sjson.Arr (_ :: _ as rows)) -> rows
    | Some _ | None ->
      invalid "sample field \"s\" must be a non-empty row-major matrix"
  in
  let p = List.length rows in
  let m =
    match List.hd rows with
    | Sjson.Arr (_ :: _ as r) -> List.length r
    | _ -> invalid "sample rows must be non-empty arrays"
  in
  let h = Cmat.zeros p m in
  List.iteri
    (fun i row ->
      match row with
      | Sjson.Arr cols when List.length cols = m ->
        List.iteri (fun jc z -> Cmat.set h i jc (complex_of_json z)) cols
      | _ -> invalid "sample rows must all have the same length")
    rows;
  { Statespace.Sampling.freq; s = h }

let max_batch_samples = 4096
let max_suggestions = 64

let certify_of_string = function
  | "off" -> Mfti.Certify.Off
  | "check" -> Mfti.Certify.Check
  | "repair" -> Mfti.Certify.Repair
  | s ->
    invalid
      (Printf.sprintf
         "field \"certify\" must be \"off\", \"check\" or \"repair\" (got %S)"
         s)

let session_options req =
  let weight =
    match opt_int_field req "width" with
    | None -> Mfti.Tangential.Full
    | Some w -> Mfti.Tangential.Uniform w
  in
  let rank_rule =
    match Sjson.member "rank-tol" req with
    | Some (Sjson.Num tol) -> Mfti.Svd_reduce.Tol tol
    | Some _ -> invalid "field \"rank-tol\" must be a number"
    | None -> Mfti.Engine.default_options.Mfti.Engine.rank_rule
  in
  let certify =
    match Sjson.member "certify" req with
    | Some (Sjson.Str s) -> certify_of_string s
    | Some _ -> invalid "field \"certify\" must be a string"
    | None -> Mfti.Certify.Off
  in
  { Mfti.Engine.default_options with
    Mfti.Engine.weight; rank_rule; certify }

let op_fit_open t req =
  let outputs, inputs =
    match Sjson.member "ports" req with
    | Some (Sjson.Num f) when Float.is_integer f && f > 0. ->
      let p = int_of_float f in
      (p, p)
    | Some (Sjson.Arr [ Sjson.Num p; Sjson.Num m ])
      when Float.is_integer p && Float.is_integer m ->
      (int_of_float p, int_of_float m)
    | Some _ ->
      invalid
        "field \"ports\" must be a positive integer or [outputs, inputs]"
    | None -> invalid "missing field \"ports\""
  in
  let options = session_options req in
  let now = Unix.gettimeofday () in
  let id =
    locked t (fun () ->
        sweep_sessions t now;
        if t.draining then
          invalid_session
            "server is draining; new fit sessions are refused";
        if Hashtbl.length t.sessions >= t.limits.max_sessions then begin
          t.sessions_refused <- t.sessions_refused + 1;
          Mfti_error.raise_error
            (Mfti_error.Budget_exhausted
               { context = "serve.session";
                 budget =
                   Printf.sprintf "session slots (%d open, limit %d)"
                     (Hashtbl.length t.sessions) t.limits.max_sessions })
        end;
        let session =
          match Mfti.Engine.Session.open_ ~options ~inputs ~outputs () with
          | Ok s -> s
          | Error e -> Mfti_error.raise_error e
        in
        t.next_session <- t.next_session + 1;
        let id = Printf.sprintf "s%d" t.next_session in
        Hashtbl.replace t.sessions id
          { se_id = id; se_session = session; se_lock = Mutex.create ();
            se_last_used = now; se_bytes = 0 };
        t.sessions_opened <- t.sessions_opened + 1;
        id)
  in
  Sjson.Obj
    [ ("ok", Sjson.Bool true);
      ("op", Sjson.Str "fit-open");
      ("session", Sjson.Str id);
      ("outputs", Sjson.Num (float_of_int outputs));
      ("inputs", Sjson.Num (float_of_int inputs));
      ("ttl_s", Sjson.Num t.limits.session_ttl_s);
      ("bytes_budget", Sjson.Num (float_of_int t.limits.session_bytes)) ]

let op_fit_add t req =
  let id = str_field req "session" in
  let holdout = opt_bool_field req "holdout" in
  let samples =
    match Sjson.member "samples" req with
    | Some (Sjson.Arr (_ :: _ as xs)) ->
      if List.length xs > max_batch_samples then
        invalid
          (Printf.sprintf "samples exceeds the %d-per-request cap"
             max_batch_samples);
      Array.of_list (List.map sample_of_json xs)
    | Some _ | None -> invalid "field \"samples\" must be a non-empty array"
  in
  let e = find_session t id in
  with_entry e (fun () ->
      let cost = Array.fold_left (fun acc s -> acc + sample_cost s) 0 samples in
      if e.se_bytes + cost > t.limits.session_bytes then begin
        locked t (fun () -> t.sessions_refused <- t.sessions_refused + 1);
        Mfti_error.raise_error
          (Mfti_error.Budget_exhausted
             { context = "serve.session";
               budget =
                 Printf.sprintf
                   "session bytes (%d resident + %d incoming, limit %d)"
                   e.se_bytes cost t.limits.session_bytes })
      end;
      match Mfti.Engine.Session.append ~holdout e.se_session samples with
      | Error err -> Mfti_error.raise_error err
      | Ok stages ->
        e.se_bytes <- e.se_bytes + cost;
        locked t (fun () ->
            t.session_samples <- t.session_samples + Array.length samples);
        let s = e.se_session in
        Sjson.Obj
          [ ("ok", Sjson.Bool true);
            ("op", Sjson.Str "fit-add-samples");
            ("session", Sjson.Str id);
            ("accepted", Sjson.Num (float_of_int (Array.length samples)));
            ("holdout", Sjson.Bool holdout);
            ("samples", Sjson.Num (float_of_int (Mfti.Engine.Session.size s)));
            ("holdout_samples",
             Sjson.Num (float_of_int (Mfti.Engine.Session.holdout_size s)));
            ("pending", Sjson.Bool (Mfti.Engine.Session.pending s));
            ("stage", Sjson.Str (stage_name (Mfti.Engine.Session.stage s)));
            ("invalidated",
             Sjson.Arr (List.map (fun st -> Sjson.Str (stage_name st)) stages));
            ("bytes", Sjson.Num (float_of_int e.se_bytes)) ])

let op_fit_status t req =
  let id = str_field req "session" in
  let refit = opt_bool_field req "refit" in
  let e = find_session t id in
  with_entry e (fun () ->
      let s = e.se_session in
      if refit then begin
        match Mfti.Engine.Session.refit s with
        | Ok () -> ()
        | Error err -> Mfti_error.raise_error err
      end;
      (* the hold-out error is only reported when the cached reduction
         is current — a bare status probe must stay cheap and must not
         trigger a refit behind the client's back *)
      let holdout_err =
        match Mfti.Engine.Session.stage s with
        | Mfti.Engine.Reduced | Mfti.Engine.Certified ->
          (match Mfti.Engine.Session.holdout_err s with
           | Ok (Some v) when Float.is_finite v -> Sjson.Num v
           | _ -> Sjson.Null)
        | _ -> Sjson.Null
      in
      let c = Mfti.Engine.Session.counters s in
      Sjson.Obj
        [ ("ok", Sjson.Bool true);
          ("op", Sjson.Str "fit-status");
          ("session", Sjson.Str id);
          ("stage", Sjson.Str (stage_name (Mfti.Engine.Session.stage s)));
          ("samples", Sjson.Num (float_of_int (Mfti.Engine.Session.size s)));
          ("holdout_samples",
           Sjson.Num (float_of_int (Mfti.Engine.Session.holdout_size s)));
          ("pending", Sjson.Bool (Mfti.Engine.Session.pending s));
          ("finalized", Sjson.Bool (Mfti.Engine.Session.finalized s));
          ("holdout_err", holdout_err);
          ("bytes", Sjson.Num (float_of_int e.se_bytes));
          ("bytes_budget", Sjson.Num (float_of_int t.limits.session_bytes));
          ( "counters",
            Sjson.Obj
              [ ("appended",
                 Sjson.Num (float_of_int c.Mfti.Engine.Session.appended));
                ("held_out",
                 Sjson.Num (float_of_int c.Mfti.Engine.Session.held_out));
                ("refits",
                 Sjson.Num (float_of_int c.Mfti.Engine.Session.refits));
                ("suggests",
                 Sjson.Num (float_of_int c.Mfti.Engine.Session.suggests)) ] ) ])

let op_fit_suggest t req =
  let id = str_field req "session" in
  let count =
    match opt_int_field req "count" with
    | None -> Mfti.Adaptive.default_options.Mfti.Adaptive.count
    | Some c ->
      if c < 1 || c > max_suggestions then
        invalid
          (Printf.sprintf "field \"count\" must be in [1, %d]" max_suggestions);
      c
  in
  let candidates =
    match Sjson.member "candidates" req with
    | Some (Sjson.Arr (_ :: _ as xs)) ->
      Some
        (Array.of_list
           (List.map
              (function
                | Sjson.Num f -> f
                | _ -> invalid "candidates entries must be numbers")
              xs))
    | Some _ -> invalid "field \"candidates\" must be a non-empty array"
    | None -> None
  in
  let e = find_session t id in
  with_entry e (fun () ->
      let s = e.se_session in
      let options =
        { Mfti.Adaptive.surrogate = Mfti.Engine.Session.options s; count }
      in
      match
        Mfti.Adaptive.suggest ~options ?candidates
          (Mfti.Engine.Session.fit_samples s)
      with
      | Error err -> Mfti_error.raise_error err
      | Ok scores ->
        Mfti.Engine.Session.record_suggest s;
        locked t (fun () -> t.session_suggests <- t.session_suggests + 1);
        Sjson.Obj
          [ ("ok", Sjson.Bool true);
            ("op", Sjson.Str "fit-suggest");
            ("session", Sjson.Str id);
            ( "suggestions",
              Sjson.Arr
                (List.map
                   (fun sc ->
                     Sjson.Obj
                       [ ("freq", Sjson.Num sc.Mfti.Adaptive.freq);
                         ("score", Sjson.Num sc.Mfti.Adaptive.score);
                         ("disagreement",
                          Sjson.Num sc.Mfti.Adaptive.disagreement);
                         ("residual", Sjson.Num sc.Mfti.Adaptive.residual) ])
                   scores) ) ])

let op_fit_finalize t req =
  let sid = str_field req "session" in
  let model_id = str_field req "model" in
  if not (id_ok model_id) then
    invalid ("malformed model id " ^ String.escaped model_id);
  let path = path_of_id t model_id in
  if Sys.file_exists path then
    invalid ("model id " ^ model_id ^ " already exists in the store");
  let name =
    match Sjson.member "name" req with
    | Some (Sjson.Str s) -> s
    | Some _ -> invalid "field \"name\" must be a string"
    | None -> model_id
  in
  let e = find_session t sid in
  with_entry e (fun () ->
      let s = e.se_session in
      let model =
        match Mfti.Engine.Session.finalize s with
        | Ok m -> m
        | Error err -> Mfti_error.raise_error err
      in
      let fit_err =
        Mfti.Dataset.err
          (Mfti.Engine.Model.descriptor model)
          (Mfti.Engine.Session.dataset s)
      in
      Artifact.save path (Artifact.v ~name ~fit_err model);
      locked t (fun () ->
          Hashtbl.remove t.sessions sid;
          t.sessions_finalized <- t.sessions_finalized + 1);
      Sjson.Obj
        [ ("ok", Sjson.Bool true);
          ("op", Sjson.Str "fit-finalize");
          ("session", Sjson.Str sid);
          ("model", Sjson.Str model_id);
          ("order", Sjson.Num (float_of_int (Mfti.Engine.Model.order model)));
          ("rank", Sjson.Num (float_of_int (Mfti.Engine.Model.rank model)));
          ("samples", Sjson.Num (float_of_int (Mfti.Engine.Session.size s)));
          ("fit_err",
           if Float.is_finite fit_err then Sjson.Num fit_err else Sjson.Null);
          ("certificate", certificate_json model) ])

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let shutdown_response =
  Sjson.Obj [ ("ok", Sjson.Bool true); ("op", Sjson.Str "shutdown") ]

(* an op either yields an ordinary JSON response or (eval-grid only)
   meta fields plus the raw grid, rendered per the connection's frame
   mode by [handle_request] *)
type outcome =
  | Json_out of Sjson.t
  | Grid_out of (string * Sjson.t) list * Cmat.t array

let dispatch t req =
  match str_field req "op" with
  | "list-models" -> (Json_out (op_list_models t), false)
  | "model-info" -> (Json_out (op_model_info t req), false)
  | "eval-grid" ->
    let meta, grid = op_eval_grid t req in
    (Grid_out (meta, grid), false)
  | "fit-open" -> (Json_out (op_fit_open t req), false)
  | "fit-add-samples" -> (Json_out (op_fit_add t req), false)
  | "fit-status" -> (Json_out (op_fit_status t req), false)
  | "fit-suggest" -> (Json_out (op_fit_suggest t req), false)
  | "fit-finalize" -> (Json_out (op_fit_finalize t req), false)
  | "stats" -> (Json_out (stats_json t), false)
  | "ping" -> (Json_out (op_ping t), false)
  | "shutdown" -> (Json_out shutdown_response, true)
  | op -> invalid ("unknown op " ^ String.escaped op)

(* call with [t.lock] held *)
let op_stat t op =
  match Hashtbl.find_opt t.ops op with
  | Some s -> s
  | None ->
    let s = { count = 0; op_errors = 0; total_s = 0.; max_s = 0. } in
    Hashtbl.add t.ops op s;
    s

type reply = Text of string | Grid of string

let handle_request t ~binary line =
  locked t (fun () ->
      t.requests <- t.requests + 1;
      t.bytes_in <- t.bytes_in + String.length line + 1);
  let t0 = Unix.gettimeofday () in
  let op_name = ref "invalid" in
  let outcome, stop =
    match Sjson.parse line with
    | req ->
      (match Sjson.member "op" req with
       | Some (Sjson.Str op) -> op_name := op
       | _ -> ());
      (* anything escaping an op lands in the taxonomy, then in a typed
         response — a request can never kill the serve loop *)
      (match Mfti_error.guard ~context:"serve" (fun () -> dispatch t req) with
       | Ok r -> r
       | Error e -> (Json_out (error_response ~op:!op_name e), false))
    | exception Sjson.Parse_error m ->
      ( Json_out
          (error_response
             (Mfti_error.Parse { source = None; line = None; message = m })),
        false )
  in
  let dt = Unix.gettimeofday () -. t0 in
  let failed =
    match outcome with
    | Grid_out _ -> false
    | Json_out response ->
      (match Sjson.member "ok" response with
       | Some (Sjson.Bool true) -> false
       | _ -> true)
  in
  let reply =
    match outcome with
    | Json_out response -> Text (Sjson.to_string response)
    | Grid_out (meta, grid) ->
      if binary then Grid (Frame.grid_body ~meta:(Sjson.Obj meta) ~grid)
      else Text (Frame.grid_json ~meta ~grid)
  in
  let out_bytes =
    match reply with
    | Text s -> String.length s + 1
    | Grid body -> String.length body + 5
  in
  locked t (fun () ->
      let s = op_stat t !op_name in
      s.count <- s.count + 1;
      s.total_s <- s.total_s +. dt;
      if dt > s.max_s then s.max_s <- dt;
      if failed then begin
        t.errors <- t.errors + 1;
        s.op_errors <- s.op_errors + 1
      end;
      t.bytes_out <- t.bytes_out + out_bytes);
  (reply, stop)

let handle_line t line =
  match handle_request t ~binary:false line with
  | Text s, stop -> (s, stop)
  | Grid _, _ -> assert false (* ~binary:false never yields a grid *)

(* ------------------------------------------------------------------ *)
(* Transports *)

(* Large responses (a 1024-point 8-port grid is ~1 MB of JSON) are
   written in bounded chunks with a flush between, so a client that
   stops reading or vanishes surfaces as [Sys_error] (EPIPE under the
   channel) on some chunk boundary — counted as a typed connection
   drop, never an exception escaping the serve loop. *)
let write_chunk_bytes = 64 * 1024

let write_response t oc text =
  let len = String.length text in
  let rec go off =
    if off >= len then
      match
        output_char oc '\n';
        flush oc
      with
      | () -> `Ok
      | exception Sys_error _ -> `Closed
    else
      let n = Stdlib.min write_chunk_bytes (len - off) in
      match
        output_substring oc text off n;
        flush oc
      with
      | () -> go (off + n)
      | exception Sys_error _ -> `Closed
  in
  match go 0 with
  | `Ok -> `Ok
  | `Closed ->
    locked t (fun () -> t.conn_drops <- t.conn_drops + 1);
    `Closed

let note_conn_drop t = locked t (fun () -> t.conn_drops <- t.conn_drops + 1)

let serve_channels t ic oc =
  let rec loop () =
    match input_line ic with
    | "" -> loop ()  (* blank keep-alive lines are ignored *)
    | line ->
      let response, stop = handle_line t line in
      (match write_response t oc response with
       | `Ok -> if stop then `Stop else loop ()
       | `Closed -> `Eof)
    | exception End_of_file -> `Eof
  in
  loop ()
