(* The serve workloads.  A fleet of shipped `mfti` processes — two
   replicas behind a router — answers closed-loop clients in this
   process; the traced run then replays the same request stream
   in-process, split per replica the way the router's hash ring splits
   it, to attribute each request's time to the serving layers.

   grid-json   4 resident models (2 random 8-port order-40 systems in
               pole-residue form, 2 copies of a fitted 4-port PDN whose
               evaluator falls back to Direct), 2 JSON clients asking
               for 64-point grids on a random model, cache warmed:
               rendering and evaluation dominate, the cache never misses.
   shard-mix   48 random 8-port order-48 models (~87 KB each) on 1 MiB
               replica caches, so each replica holds about half its
               shard: a binary-frame reader asks for 8-point grids with
               Zipf(1.0) popularity while a second connection streams
               fit sessions (open, 4 appends, refit, finalize with a
               stability/passivity check), 12 per 1000 reads at most:
               artifact load, compile and eviction dominate, and writes
               run beside the reads. *)

open Statespace
module Sjson = Serve.Sjson
module Frame = Serve.Frame

let band = (1e6, 3e9)

type read = { model : string; freqs : float array; line : string }

type sessions = {
  batches : string list;   (* rendered "samples" arrays, one per append *)
  session_limit : int option;
}

type plan = {
  ids : string list;
  warm_ids : string list;  (* requested once before the window *)
  reads : read array;      (* request stream, cycled *)
  sampled : bool array;    (* responses kept for the bit-identity check *)
  binary : bool;
  points : int;
  cache_mb : int;
  read_limit : int option;
  sessions : sessions option;
}

let sessions_per_1000_reads = 12

(* %.17g round-trips every float, so the server evaluates exactly the
   frequencies kept here for the bit-identity check. *)
let eval_line model freqs =
  Printf.sprintf {|{"op":"eval-grid","model":%S,"freqs":[%s]}|} model
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") freqs)))

let random_grid rng n =
  let lo, hi = band in
  let f =
    Array.init n (fun _ -> lo *. Float.pow (hi /. lo) (Random.State.float rng 1.))
  in
  Array.sort compare f;
  f

(* Index in [0, n) with P(i) proportional to 1 / (i + 1). *)
let zipf rng n =
  let h = Array.make n 0. in
  Array.iteri
    (fun i _ -> h.(i) <- (1. /. float_of_int (i + 1)) +. if i > 0 then h.(i - 1) else 0.)
    h;
  let u = Random.State.float rng h.(n - 1) in
  let rec find i = if i >= n - 1 || u < h.(i) then i else find (i + 1) in
  find 0

(* ------------------------------------------------------------------ *)
(* Inputs *)

let random_artifact ~seed ~order id =
  let sys =
    Random_sys.generate
      { Random_sys.order; ports = 8; rank_d = 4; freq_lo = 1e6;
        freq_hi = 1e10; damping = 0.05; seed }
  in
  Serve.Artifact.v ~name:id ~fit_err:0. (Mfti.Engine.Model.make ~rank:order sys)

(* One fixed 4-port board: its fitted model has order 29 and compiles
   to the Direct fallback; its 40-point sweep certifies cleanly, so
   every streamed session finalizes. *)
let pdn_board =
  { Rf.Pdn.default_spec with ports = 4; decaps = 2; nx = 3; ny = 3; seed = 1 }

let pdn_samples points =
  let lo, hi = band in
  Rf.Pdn.scattering pdn_board ~z0:50. (Sampling.logspace lo hi points)

(* What `mfti gen pdn` then `mfti pack` do with their defaults. *)
let packed_pdn ~dir =
  let path = Filename.concat dir "pdn.s4p" in
  Rf.Touchstone.write_file path
    { Rf.Touchstone.parameter = Rf.Touchstone.S; z0 = 50.;
      samples = pdn_samples 100 };
  let data = Run.ok (Rf.Touchstone.read_file_result path) in
  let samples = Mfti.Tangential.trim_even data.Rf.Touchstone.samples in
  let model = Mfti.Engine.Model.of_fit (Mfti.Engine.fit samples) in
  Serve.Artifact.v ~name:"pdn.s4p"
    ~fit_err:(Mfti.Engine.Model.err model samples) model

let sample_json (s : Sampling.sample) =
  let p, m = Linalg.Cmat.dims s.Sampling.s in
  Sjson.Obj
    [ ("freq", Sjson.Num s.Sampling.freq);
      ( "s",
        Sjson.Arr
          (List.init p (fun i ->
               Sjson.Arr
                 (List.init m (fun j ->
                      let z = Linalg.Cmat.get s.Sampling.s i j in
                      Sjson.Arr [ Sjson.Num z.Linalg.Cx.re; Sjson.Num z.Linalg.Cx.im ])))) ) ]

let session_batches ~points ~batches =
  let samples = pdn_samples points in
  let per = points / batches in
  List.init batches (fun b ->
      Sjson.to_string
        (Sjson.Arr (List.init per (fun i -> sample_json samples.((b * per) + i)))))

(* Writes the models under [root] and draws the request stream. *)
let make_plan ~workload ~smoke ~seed ~dir ~root =
  let rng = Random.State.make [| seed; Hashtbl.hash workload |] in
  let save id art = Serve.Artifact.save (Filename.concat root (id ^ ".mfti")) art in
  let stream ~pool ~points pick =
    let reads =
      Array.init pool (fun _ ->
          let model = pick () in
          let freqs = random_grid rng points in
          { model; freqs; line = eval_line model freqs })
    in
    (reads, Array.init pool (fun _ -> Random.State.float rng 1. < 0.05))
  in
  let read_limit = if smoke then Some 40 else None in
  match workload with
  | `Grid_json ->
    let rs = [ "rs0"; "rs1" ] and pdns = [ "pdn0"; "pdn1" ] in
    List.iteri
      (fun i id -> save id (random_artifact ~seed:((seed * 64) + i) ~order:40 id))
      rs;
    let pdn = packed_pdn ~dir in
    List.iter (fun id -> save id pdn) pdns;
    let ids = Array.of_list (rs @ pdns) in
    let points = if smoke then 16 else 64 in
    let reads, sampled =
      stream ~pool:(if smoke then 40 else 2048) ~points (fun () ->
          ids.(Random.State.int rng (Array.length ids)))
    in
    { ids = Array.to_list ids; warm_ids = Array.to_list ids; reads; sampled;
      binary = false; points; cache_mb = 256; read_limit; sessions = None }
  | `Shard_mix ->
    let n = 48 in
    let ids = Array.init n (Printf.sprintf "m%02d") in
    let order = if smoke then 24 else 48 in
    Array.iteri
      (fun i id -> save id (random_artifact ~seed:((seed * 64) + i) ~order id))
      ids;
    let points = if smoke then 16 else 8 in
    (* popularity follows the id order, so how the hot set falls on the
       hash ring is the same for every seed *)
    let reads, sampled =
      stream ~pool:(if smoke then 40 else 8192) ~points (fun () -> ids.(zipf rng n))
    in
    { ids = Array.to_list ids;
      (* about what the two 1 MiB caches hold *)
      warm_ids = List.init 24 (fun i -> ids.(i));
      reads; sampled; binary = true; points; cache_mb = 1; read_limit;
      sessions =
        Some
          { batches = session_batches ~points:40 ~batches:4;
            session_limit = (if smoke then Some 1 else None) } }

let warm_line plan id =
  let lo, hi = band in
  eval_line id (Sampling.logspace lo hi plan.points)

let open_conn plan path =
  let c = Wire.connect path in
  if plan.binary then Wire.hello_binary c;
  c

(* Through the router, so the clients start warm. *)
let warm plan (fleet : Wire.fleet) =
  let c = open_conn plan fleet.router in
  Fun.protect ~finally:(fun () -> Wire.close c) @@ fun () ->
  List.iter
    (fun id ->
      let r = Wire.call c (warm_line plan id) in
      match r.Wire.payload with
      | Frame.Grid_body _ -> ()
      | Frame.Json_text s when Wire.is_ok s -> ()
      | Frame.Json_text s -> failwith ("warm-up refused: " ^ s))
    plan.warm_ids

(* ------------------------------------------------------------------ *)
(* Closed-loop clients *)

type tally = {
  mutable lat : float list;     (* ms per operation *)
  mutable wait : float list;    (* ms from send to first response byte *)
  mutable read : float list;    (* ms from first to last response byte *)
  mutable bytes : int;
  mutable sent : int;
  mutable bad : int;
  mutable kept : (int * Frame.payload * bool) list;  (* index, reply, ok *)
  mutable finalized : string list;
}

let tally () =
  { lat = []; wait = []; read = []; bytes = 0; sent = 0; bad = 0; kept = [];
    finalized = [] }

let merge a b =
  { lat = a.lat @ b.lat; wait = a.wait @ b.wait; read = a.read @ b.read;
    bytes = a.bytes + b.bytes; sent = a.sent + b.sent; bad = a.bad + b.bad;
    kept = a.kept @ b.kept; finalized = a.finalized @ b.finalized }

let ms_between a b = Int64.to_float (Int64.sub b a) *. 1e-6

let has_sub ~within s sub =
  let n = min within (String.length s) and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* Cheap shape check on every reply: ok, with the requested point count
   (the meta fields precede the results in both framings). *)
let read_ok points = function
  | Frame.Json_text s ->
    Wire.is_ok s && has_sub ~within:256 s (Printf.sprintf {|"points": %d,|} points)
  | Frame.Grid_body b ->
    String.length b >= 4
    && (let ml = Int32.to_int (String.get_int32_be b 0) in
        String.length b >= 8 + ml
        && Wire.is_ok (String.sub b 4 ml)
        && Int32.to_int (String.get_int32_be b (4 + ml)) = points)

(* A request that dies with its connection counts as failed; the
   client reconnects and carries on. *)
let guarded_call plan path conn t line =
  match Wire.call !conn line with
  | r -> Some r
  | exception (Wire.Closed | Unix.Unix_error _ | Failure _) ->
    t.bad <- t.bad + 1;
    Wire.close !conn;
    (try conn := open_conn plan path with _ -> ());
    None

let reader plan path ~next ~reads_done ~stop t =
  let conn = ref (open_conn plan path) in
  let n = Array.length plan.reads in
  let rec go () =
    if not (stop ()) then begin
      let k = Atomic.fetch_and_add next 1 in
      let within = match plan.read_limit with Some l -> k < l | None -> true in
      if within then begin
        let r = plan.reads.(k mod n) in
        t.sent <- t.sent + 1;
        (match guarded_call plan path conn t r.line with
         | None -> ()
         | Some reply ->
           let first =
             if reply.Wire.first_byte = 0L then reply.Wire.done_
             else reply.Wire.first_byte
           in
           t.lat <- ms_between reply.Wire.sent reply.Wire.done_ :: t.lat;
           t.wait <- ms_between reply.Wire.sent first :: t.wait;
           t.read <- ms_between first reply.Wire.done_ :: t.read;
           t.bytes <- t.bytes + reply.Wire.bytes;
           let good = read_ok plan.points reply.Wire.payload in
           if not good then t.bad <- t.bad + 1;
           if (not good) || plan.sampled.(k mod n) then
             t.kept <- (k, reply.Wire.payload, good) :: t.kept);
        Atomic.incr reads_done;
        go ()
      end
    end
  in
  Fun.protect ~finally:(fun () -> Wire.close !conn) go

let session_of s =
  match Sjson.member "session" (Sjson.parse s) with
  | Some (Sjson.Str id) -> Some id
  | _ -> None

let open_line = {|{"op":"fit-open","ports":4,"certify":"check"}|}

let add_line sid batch =
  Printf.sprintf {|{"op":"fit-add-samples","session":%S,"samples":%s}|} sid batch

let status_line sid = Printf.sprintf {|{"op":"fit-status","session":%S,"refit":true}|} sid

let finalize_line sid model =
  Printf.sprintf {|{"op":"fit-finalize","session":%S,"model":%S}|} sid model

(* Session [k] starts once the readers have completed k * 1000 / 12
   reads, so the read/write mix stays fixed whatever either side's
   speed. *)
let writer plan s path ~reads_done ~readers_done ~stop t =
  let conn = ref (Wire.connect path) in
  let op line =
    t.sent <- t.sent + 1;
    match guarded_call { plan with binary = false } path conn t line with
    | None -> None
    | Some reply ->
      t.lat <- ms_between reply.Wire.sent reply.Wire.done_ :: t.lat;
      let text = Wire.text reply in
      if Wire.is_ok text then Some text
      else begin
        t.bad <- t.bad + 1;
        None
      end
  in
  let session k =
    match Option.bind (op open_line) session_of with
    | None -> ()
    | Some sid ->
      if List.for_all (fun b -> op (add_line sid b) <> None) s.batches
         && op (status_line sid) <> None
      then begin
        let model = Printf.sprintf "fit%d" k in
        if op (finalize_line sid model) <> None then
          t.finalized <- model :: t.finalized
      end
  in
  let rec go k =
    let limit_hit = match s.session_limit with Some l -> k >= l | None -> false in
    if not (limit_hit || stop ()) then begin
      let gate = k * 1000 / sessions_per_1000_reads in
      while
        Atomic.get reads_done < gate && not (stop () || Atomic.get readers_done)
      do
        Thread.delay 0.001
      done;
      if not (stop ()) then begin
        session k;
        go (k + 1)
      end
    end
  in
  Fun.protect ~finally:(fun () -> Wire.close !conn) (fun () -> go 0)

(* ------------------------------------------------------------------ *)
(* Counters read through the stats op *)

let rec num j = function
  | [] -> (match j with Sjson.Num f -> f | _ -> 0.)
  | k :: rest -> (match Sjson.member k j with Some v -> num v rest | None -> 0.)

type counters = { replicas : Sjson.t list; router : Sjson.t }

let counters (fleet : Wire.fleet) =
  { replicas = List.map (fun r -> Wire.ask r {|{"op":"stats"}|}) fleet.replicas;
    router = Wire.ask fleet.router {|{"op":"stats"}|} }

let sum_replicas c path = List.fold_left (fun a j -> a +. num j path) 0. c.replicas

(* ------------------------------------------------------------------ *)
(* Bit-identity of kept replies against in-process evaluation *)

let bits_equal (a : Linalg.Cx.t) (b : Linalg.Cx.t) =
  Int64.equal (Int64.bits_of_float a.re) (Int64.bits_of_float b.re)
  && Int64.equal (Int64.bits_of_float a.im) (Int64.bits_of_float b.im)

let matrix_of_json = function
  | Sjson.Arr rows ->
    let rows = Array.of_list rows in
    let entry = function
      | Sjson.Arr [ Sjson.Num re; Sjson.Num im ] -> { Linalg.Cx.re; im }
      | _ -> failwith "bad entry"
    in
    let row = function Sjson.Arr xs -> Array.of_list xs | _ -> failwith "bad row" in
    let cells = Array.map row rows in
    let p = Array.length cells and m = if cells = [||] then 0 else Array.length cells.(0) in
    Linalg.Cmat.init p m (fun i j -> entry cells.(i).(j))
  | _ -> failwith "bad matrix"

let decode = function
  | Frame.Grid_body b -> snd (Frame.decode_grid_body b)
  | Frame.Json_text s ->
    (match Sjson.member "results" (Sjson.parse s) with
     | Some (Sjson.Arr ms) -> Array.of_list (List.map matrix_of_json ms)
     | _ -> failwith "no results")

let same_grid want got =
  Array.length want = Array.length got
  && Array.for_all2
       (fun w g ->
         Linalg.Cmat.dims w = Linalg.Cmat.dims g
         &&
         let p, m = Linalg.Cmat.dims w in
         let ok = ref true in
         for i = 0 to p - 1 do
           for j = 0 to m - 1 do
             if not (bits_equal (Linalg.Cmat.get w i j) (Linalg.Cmat.get g i j)) then
               ok := false
           done
         done;
         !ok)
       want got

(* Returns how many kept ok-replies differ from in-process
   [Compiled.eval_grid] of the same artifact. *)
let mismatches plan ~root kept =
  let compiled = Hashtbl.create 16 in
  let reference id =
    match Hashtbl.find_opt compiled id with
    | Some c -> c
    | None ->
      let art = Run.ok (Serve.Artifact.load (Filename.concat root (id ^ ".mfti"))) in
      let c = Serve.Compiled.of_model art.Serve.Artifact.model in
      Hashtbl.add compiled id c;
      c
  in
  List.length
    (List.filter
       (fun (k, payload, good) ->
         good
         &&
         let r = plan.reads.(k mod Array.length plan.reads) in
         match decode payload with
         | got -> not (same_grid (Serve.Compiled.eval_grid (reference r.model) r.freqs) got)
         | exception _ -> true)
       kept)

(* Finalized session artifacts must reload with a good checksum and a
   passed certificate. *)
let bad_artifacts ~root ids =
  List.length
    (List.filter
       (fun id ->
         match Serve.Artifact.load (Filename.concat root (id ^ ".mfti")) with
         | Ok art ->
           (match Mfti.Engine.Model.certificate art.Serve.Artifact.model with
            | Some c -> not (Mfti.Certify.Certificate.passed c)
            | None -> true)
         | Error _ -> true)
       ids)

(* ------------------------------------------------------------------ *)
(* Traced in-process replay *)

let ring_vnodes = Serve.Router.default_config.Serve.Router.vnodes

(* Replays the first [reads] requests of the stream (for at most the
   run's window) against one in-process [Server.t] per replica, each
   with the fleet's cache budget.  Every request runs twice: once
   through the public layers one call at a time, each in its own span,
   and once whole through [Server.handle_request]. *)
let replay ctx plan ~root ~replica_names ~session_replica ~reads ~sessions tr =
  let cache_bytes = plan.cache_mb * 1024 * 1024 in
  let ring = Serve.Router.Ring.make ~vnodes:ring_vnodes replica_names in
  let shards =
    List.map
      (fun name ->
        ( name,
          (Serve.Server.create ~cache_bytes ~root (), Serve.Lru.create ~budget:cache_bytes) ))
      replica_names
  in
  let shard model = List.assoc (List.hd (Serve.Router.Ring.candidates ring model)) shards in
  let direct_s = ref 0. and eval_s = ref 0. in
  let decomposed tr ~rid (cache : Serve.Compiled.t Serve.Lru.t) line =
    let span name f = Probe.Trace.span tr ~rid name f in
    let req = span "sjson.parse" (fun () -> Sjson.parse line) in
    let id = match Sjson.member "model" req with Some (Sjson.Str s) -> s | _ -> "" in
    let freqs =
      match Sjson.member "freqs" req with
      | Some (Sjson.Arr xs) ->
        Array.of_list (List.map (function Sjson.Num f -> f | _ -> nan) xs)
      | _ -> [||]
    in
    let compiled, cached =
      match Serve.Lru.find cache id with
      | Some c -> (c, true)
      | None ->
        let path = Filename.concat root (id ^ ".mfti") in
        let art = span "artifact.load" (fun () -> Run.ok (Serve.Artifact.load path)) in
        let c =
          span "compiled.of_model" (fun () -> Serve.Compiled.of_model art.Serve.Artifact.model)
        in
        Serve.Lru.insert cache id ~bytes:(Unix.stat path).Unix.st_size c;
        (c, false)
    in
    let grid, dt =
      span "compiled.eval_grid" (fun () ->
          Probe.timed (fun () -> Serve.Compiled.eval_grid compiled freqs))
    in
    eval_s := !eval_s +. dt;
    if Serve.Compiled.mode compiled = Serve.Compiled.Direct then direct_s := !direct_s +. dt;
    let meta =
      [ ("ok", Sjson.Bool true);
        ("op", Sjson.Str "eval-grid");
        ("model", Sjson.Str id);
        ("points", Sjson.Num (float_of_int (Array.length freqs)));
        ("outputs", Sjson.Num (float_of_int (Serve.Compiled.outputs compiled)));
        ("inputs", Sjson.Num (float_of_int (Serve.Compiled.inputs compiled)));
        ("cached", Sjson.Bool cached) ]
    in
    if plan.binary then
      ignore (span "frame.grid_body" (fun () -> Frame.grid_body ~meta:(Sjson.Obj meta) ~grid))
    else begin
      let results = span "frame.results_json" (fun () -> Frame.results_json grid) in
      ignore
        (span "sjson.to_string" (fun () ->
             Sjson.to_string (Sjson.Obj (meta @ [ ("results", results) ]))))
    end
  in
  (* warmed like the fleet *)
  List.iter
    (fun id ->
      let srv, cache = shard id in
      ignore (Serve.Server.handle_request srv ~binary:plan.binary (warm_line plan id));
      decomposed None ~rid:"warm" cache (warm_line plan id))
    plan.warm_ids;
  let session_srv =
    Option.map (fun name -> fst (List.assoc name shards)) session_replica
  in
  let replay_session j =
    match (plan.sessions, session_srv) with
    | Some s, Some srv ->
      let rid = Printf.sprintf "session%d" j in
      let handle name line =
        match
          Probe.Trace.span tr ~rid name (fun () ->
              fst (Serve.Server.handle_request srv ~binary:false line))
        with
        | Serve.Server.Text t -> t
        | Serve.Server.Grid _ -> ""
      in
      (match session_of (handle "session.open" open_line) with
       | None -> ()
       | Some sid ->
         List.iter (fun b -> ignore (handle "session.append" (add_line sid b))) s.batches;
         ignore (handle "session.refit" (status_line sid));
         let model = Printf.sprintf "replay-fit%d" j in
         ignore (handle "session.finalize" (finalize_line sid model));
         (match Serve.Artifact.load (Filename.concat root (model ^ ".mfti")) with
          | Ok art ->
            Probe.Trace.span tr ~rid "artifact.save" (fun () ->
                Serve.Artifact.save (Filename.concat ctx.Run.dir "replay-save.mfti") art)
          | Error _ -> ()))
    | _ -> ()
  in
  let t0 = Probe.now () in
  let n = Array.length plan.reads in
  let next_session = ref 0 in
  let rec go k =
    if k < reads && (ctx.Run.smoke || Probe.seconds_since t0 < ctx.Run.seconds) then begin
      if !next_session < sessions
         && k >= !next_session * 1000 / sessions_per_1000_reads
      then begin
        replay_session !next_session;
        incr next_session
      end;
      let r = plan.reads.(k mod n) in
      let srv, cache = shard r.model in
      let rid = string_of_int k in
      Probe.Trace.span tr ~rid "replay.request" (fun () -> decomposed tr ~rid cache r.line);
      Probe.Trace.span tr ~rid "server.handle_request" (fun () ->
          ignore (Serve.Server.handle_request srv ~binary:plan.binary r.line));
      go (k + 1)
    end
  in
  go 0;
  Probe.ratio !direct_s !eval_s

(* ------------------------------------------------------------------ *)
(* The workload *)

type live = { plan : plan; fleet : Wire.fleet; root : string }

let run workload (ctx : Run.ctx) =
  let name = match workload with `Grid_json -> "grid-json" | `Shard_mix -> "shard-mix" in
  let setup dir =
    let root = Filename.concat dir "models" in
    Unix.mkdir root 0o755;
    let plan = make_plan ~workload ~smoke:ctx.smoke ~seed:ctx.seed ~dir ~root in
    let fleet = Wire.start ~cli:ctx.cli ~dir ~root ~cache_mb:plan.cache_mb in
    warm plan fleet;
    { plan; fleet; root }
  in
  let { plan; fleet; root }, setup_s =
    Run.repeated_setup ctx ~setup ~discard:(fun l -> Wire.stop l.fleet)
  in
  let before, (reads_t, writes_t, elapsed), after, rss =
    Fun.protect ~finally:(fun () -> Wire.stop fleet) @@ fun () ->
    let before = counters fleet in
    let next = Atomic.make 0 and reads_done = Atomic.make 0 in
    let readers_done = Atomic.make false in
    let t0 = Probe.now () in
    let deadline = Int64.add t0 (Int64.of_float (ctx.seconds *. 1e9)) in
    let stop () = (not ctx.smoke) && Probe.now () >= deadline in
    let reads_t = tally () and other = tally () in
    (* two load threads, two connections: this thread and one more *)
    let second =
      Thread.create
        (fun () ->
          match plan.sessions with
          | Some s ->
            writer plan s fleet.router ~reads_done ~readers_done ~stop other
          | None -> reader plan fleet.router ~next ~reads_done ~stop other)
        ()
    in
    reader plan fleet.router ~next ~reads_done ~stop reads_t;
    if plan.sessions <> None then Atomic.set readers_done true;
    Thread.join second;
    let elapsed = Probe.seconds_since t0 in
    let reads_t, writes_t =
      if plan.sessions = None then (merge reads_t other, tally ()) else (reads_t, other)
    in
    let after = counters fleet in
    let rss = List.fold_left (fun a pid -> a +. Probe.peak_rss_mb (string_of_int pid)) 0. fleet.pids in
    (before, (reads_t, writes_t, elapsed), after, rss)
  in
  let wrong = mismatches plan ~root reads_t.kept + bad_artifacts ~root writes_t.finalized in
  let attempted = reads_t.sent + writes_t.sent in
  let failed = reads_t.bad + writes_t.bad + wrong in
  let completed = List.length reads_t.lat in
  let delta path = sum_replicas after path -. sum_replicas before path in
  let rdelta path = num after.router path -. num before.router path in
  let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
  let co_hits = rdelta [ "router"; "coalesce_hits" ] in
  let co_batches = rdelta [ "router"; "coalesce_batches" ] in
  let p50 = Probe.median reads_t.lat in
  let measured =
    [ ("setup_s", setup_s, "s");
      ("latency_p10_ms", Probe.percentile 10. reads_t.lat, "ms");
      ("throughput_rps", Probe.ratio (float_of_int completed) elapsed, "1/s");
      ("latency_p50_ms", p50, "ms");
      ("peak_rss_mb", rss, "MiB");
      ("latency_p99_ms", Probe.percentile 99. reads_t.lat, "ms");
      ("fail_share", Probe.ratio (float_of_int failed) (float_of_int attempted), "ratio");
      ("ops_attempted", float_of_int attempted, "count");
      ("ops_failed", float_of_int failed, "count");
      ("client.wait_ms", Probe.mean reads_t.wait, "ms");
      ("client.read_ms", Probe.mean reads_t.read, "ms");
      ( "wire.resp_bytes",
        Probe.ratio (float_of_int reads_t.bytes) (float_of_int completed), "bytes" );
      ("lru.hit_ratio", Probe.ratio hits (hits +. misses), "ratio");
      ("lru.evictions", delta [ "cache"; "evictions" ], "count");
      ("router.coalesce_hit_ratio", Probe.ratio co_hits (co_hits +. co_batches), "ratio");
      ("router.failovers", rdelta [ "router"; "failovers" ], "count");
      ("router.timeouts", rdelta [ "router"; "timeouts" ], "count");
      ("router.unavailable", rdelta [ "router"; "unavailable" ], "count");
      ("supervisor.shed", delta [ "supervisor"; "shed" ], "count");
      ("supervisor.request_timeouts", delta [ "supervisor"; "request_timeouts" ], "count");
      ( "supervisor.queue_max",
        List.fold_left (fun a j -> Float.max a (num j [ "supervisor"; "queue_max" ])) 0.
          after.replicas,
        "count" ) ]
    @
    if plan.sessions = None then []
    else [ ("write_p50_ms", Probe.median writes_t.lat, "ms") ]
  in
  let layers =
    match ctx.trace with
    | None -> []
    | Some tr ->
      let session_replica =
        List.find_map
          (fun (rname, j) ->
            if num j [ "sessions"; "opened" ] > 0. then Some rname else None)
          (List.combine fleet.replicas after.replicas)
      in
      let direct_share =
        replay ctx plan ~root ~replica_names:fleet.replicas ~session_replica
          ~reads:completed ~sessions:(List.length writes_t.finalized) (Some tr)
      in
      let mean_ms span = Run.ms (Probe.mean (Probe.Trace.durations tr span)) in
      let handle = Probe.Trace.durations tr "server.handle_request" in
      let requests = float_of_int (List.length handle) in
      let staged =
        List.fold_left ( +. ) 0.
          (List.concat_map (Probe.Trace.durations tr)
             [ "sjson.parse"; "artifact.load"; "compiled.of_model"; "compiled.eval_grid";
               "frame.grid_body"; "frame.results_json"; "sjson.to_string" ])
      in
      [ ("sjson.parse_ms", mean_ms "sjson.parse", "ms");
        ("frame.results_json_ms", mean_ms "frame.results_json", "ms");
        ("sjson.render_ms", mean_ms "sjson.to_string", "ms");
        ("frame.grid_body_ms", mean_ms "frame.grid_body", "ms");
        ("compiled.eval_grid_ms", mean_ms "compiled.eval_grid", "ms");
        ("compiled.direct_share", direct_share, "ratio");
        ("artifact.load_ms", mean_ms "artifact.load", "ms");
        ("compiled.compile_ms", mean_ms "compiled.of_model", "ms");
        ("server.handle_ms", Run.ms (Probe.mean handle), "ms");
        ( "server.unattributed_ms",
          Run.ms (Probe.ratio (List.fold_left ( +. ) 0. handle -. staged) requests), "ms" );
        ("router.hop_ms", p50 -. Run.ms (Probe.median handle), "ms");
        ("session.append_ms", mean_ms "session.append", "ms");
        ("session.refit_ms", mean_ms "session.refit", "ms");
        ("session.finalize_ms", mean_ms "session.finalize", "ms");
        ("artifact.save_ms", mean_ms "artifact.save", "ms") ]
  in
  { Run.metrics = measured @ layers;
    attempted;
    failed;
    settings =
      [ ("workload", name);
        ("fleet", Wire.settings fleet ~cache_mb:plan.cache_mb);
        ( "load",
          Printf.sprintf
            "closed loop, 2 connections from 2 threads: %s, %d-point grids over \
             %d models, %d reads completed in %.3f s%s"
            (if plan.sessions = None then "2 JSON readers" else "1 binary-frame reader + 1 session writer")
            plan.points (List.length plan.ids) completed elapsed
            (if plan.sessions = None then ""
             else Printf.sprintf ", %d sessions finalized" (List.length writes_t.finalized)) ) ] }
