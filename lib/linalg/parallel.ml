(* Persistent domain pool.

   One pool for the whole process.  Jobs are chunked index ranges of a
   single [int -> int -> unit] task; the submitting domain participates
   in chunk consumption, so a pool of size n uses n domains total
   (n - 1 spawned workers).  Workers park on a condition variable
   between jobs; a job submission bumps [generation] and broadcasts.

   Chunks are handed out under the pool mutex.  The kernels built on
   top use coarse chunks (a handful per domain), so the lock is cold.

   The pool holds one job at a time.  A submission that finds a job in
   flight (from another domain, or another thread of the submitting
   one) runs inline instead of waiting or sharing the job slot. *)

let env_domains () =
  match Sys.getenv_opt "MFTI_DOMAINS" with
  | None -> Domain.recommended_domain_count ()
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ ->
       Mfti_error.raise_error
         (Mfti_error.Validation
            { context = "MFTI_DOMAINS";
              message = Printf.sprintf "%S: expected a positive integer" s }))

type pool = {
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable generation : int;
  mutable task : int -> int -> unit;
  mutable next : int;
  mutable limit : int;
  mutable chunk : int;
  mutable active : int;       (* chunks currently executing *)
  mutable failure : exn option;
  mutable busy : bool;        (* a job is in flight *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* True while this domain is executing pool chunks: nested parallel
   loops (e.g. a matrix product inside a parallelized frequency sweep)
   run inline instead of deadlocking on the busy pool. *)
let inside_task = Domain.DLS.new_key (fun () -> ref false)
let forced_sequential = Domain.DLS.new_key (fun () -> ref false)

(* Drain chunks of the current job.  Called with [p.mutex] held;
   returns with it held.  Completion is tracked per chunk ([active]),
   not per worker, so a worker that starts late — or sleeps through a
   whole generation — can never stall a job. *)
let consume p =
  let inside = Domain.DLS.get inside_task in
  while p.next < p.limit do
    let lo = p.next in
    let hi = Stdlib.min p.limit (lo + p.chunk) in
    p.next <- hi;
    p.active <- p.active + 1;
    Mutex.unlock p.mutex;
    inside := true;
    (try
       (* deterministic injection point for the pool layer: proves a
          worker-side exception surfaces as a typed error at the
          submitting call without deadlocking or poisoning the pool *)
       Fault.check "pool.worker";
       p.task lo hi
     with e ->
       Mutex.lock p.mutex;
       if p.failure = None then p.failure <- Some e;
       (* poison the remaining range so the job drains fast *)
       p.next <- p.limit;
       Mutex.unlock p.mutex);
    inside := false;
    Mutex.lock p.mutex;
    p.active <- p.active - 1
  done;
  if p.active = 0 then Condition.broadcast p.finished

let worker p () =
  Mutex.lock p.mutex;
  let last_gen = ref 0 in
  let rec loop () =
    while (not p.stop) && p.generation = !last_gen do
      Condition.wait p.work p.mutex
    done;
    if p.stop then Mutex.unlock p.mutex
    else begin
      last_gen := p.generation;
      consume p;
      loop ()
    end
  in
  loop ()

let requested_size = ref None
let the_pool : pool option ref = ref None

let domain_count () =
  match !requested_size with Some n -> n | None -> env_domains ()

let make_pool size =
  let p =
    { mutex = Mutex.create (); work = Condition.create ();
      finished = Condition.create (); generation = 0;
      task = (fun _ _ -> ()); next = 0; limit = 0; chunk = 1;
      active = 0; failure = None; busy = false; stop = false;
      workers = [] }
  in
  p.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker p));
  p

let shutdown () =
  match !the_pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.mutex;
    p.stop <- true;
    Condition.broadcast p.work;
    Mutex.unlock p.mutex;
    List.iter Domain.join p.workers;
    the_pool := None

let set_domain_count n =
  if n < 1 then invalid_arg "Parallel.set_domain_count: need n >= 1";
  shutdown ();
  requested_size := Some n

(* Two domains making their first parallel call at once must not
   build two pools. *)
let creating = Mutex.create ()

let get_pool () =
  match !the_pool with
  | Some p -> p
  | None ->
    Mutex.protect creating (fun () ->
        match !the_pool with
        | Some p -> p
        | None ->
          let p = make_pool (domain_count ()) in
          the_pool := Some p;
          p)

let sequential_here () =
  !(Domain.DLS.get forced_sequential) || !(Domain.DLS.get inside_task)

let with_sequential f =
  let flag = Domain.DLS.get forced_sequential in
  let saved = !flag in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := saved) f

(* The inline paths arm the same fault site as the pool workers so the
   [pool.worker] scenario behaves identically at any domain count. *)
let run_inline n f =
  Fault.check "pool.worker";
  f 0 n

(* A second submitter would overwrite the job slot (task, range, chunk
   counters) under the first one's chunks, so a busy pool sends it
   inline.  Kernels write disjoint, chunk-independent elements, so the
   inline run gives the same bits. *)
let run_pool p n task chunk =
  Mutex.lock p.mutex;
  if p.busy then begin
    Mutex.unlock p.mutex;
    run_inline n task
  end
  else begin
    p.busy <- true;
    p.generation <- p.generation + 1;
    p.task <- task;
    p.next <- 0;
    p.limit <- n;
    p.chunk <- chunk;
    p.active <- 0;
    p.failure <- None;
    Condition.broadcast p.work;
    consume p;
    while p.active > 0 do
      Condition.wait p.finished p.mutex
    done;
    let failure = p.failure in
    p.task <- (fun _ _ -> ());
    p.busy <- false;
    Mutex.unlock p.mutex;
    match failure with Some e -> raise e | None -> ()
  end

let default_chunk n size = Stdlib.max 1 ((n + (4 * size) - 1) / (4 * size))

let parallel_for ?chunk n f =
  if n > 0 then begin
    let size = domain_count () in
    if size <= 1 || sequential_here () then run_inline n f
    else begin
      let chunk =
        match chunk with
        | Some c when c >= 1 -> c
        | Some _ -> invalid_arg "Parallel.parallel_for: chunk must be >= 1"
        | None -> default_chunk n size
      in
      if chunk >= n then run_inline n f else run_pool (get_pool ()) n f chunk
    end
  end

(* Typed-error boundary for callers that prefer results over exceptions:
   any exception escaping the loop body — including injected faults and
   worker-side failures re-raised by the pool — is classified into the
   {!Mfti_error.t} taxonomy instead of unwinding the caller. *)
let parallel_for_result ?chunk ~context n f =
  match parallel_for ?chunk n f with
  | () -> Ok ()
  | exception e -> Error (Mfti_error.of_exn ~context e)

let parallel_for_reduce ?chunk ~neutral ~combine n f =
  if n <= 0 then neutral
  else begin
    (* The chunk grid must not depend on the domain count: partials are
       combined in chunk order, so a fixed grid keeps the fold (and its
       floating-point rounding) identical for any parallelism. *)
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Parallel.parallel_for_reduce: chunk must be >= 1"
      | None -> Stdlib.max 1 ((n + 31) / 32)
    in
    let nchunks = (n + chunk - 1) / chunk in
    if nchunks = 1 then combine neutral (f 0 n)
    else begin
      let partials = Array.make nchunks neutral in
      parallel_for ~chunk:1 nchunks (fun lo hi ->
          for c = lo to hi - 1 do
            let clo = c * chunk in
            let chi = Stdlib.min n (clo + chunk) in
            partials.(c) <- f clo chi
          done);
      Array.fold_left combine neutral partials
    end
  end
