(** Persistent domain pool for the numerics kernels.

    A single process-wide pool of OCaml 5 domains executes chunked
    index-range loops.  The pool is created lazily on the first parallel
    call that can use it and persists across calls, so the per-call cost
    is one mutex/condition handshake rather than a domain spawn.

    Pool size comes from the [MFTI_DOMAINS] environment variable
    (default: [Domain.recommended_domain_count ()]).  A size of [1]
    means every loop runs inline in the calling domain — the fully
    sequential fallback the determinism tests compare against.

    Every kernel built on {!parallel_for} writes disjoint output
    elements and keeps the per-element operation order independent of
    the chunk decomposition, so results are bit-identical for any
    domain count.  {!parallel_for_reduce} combines per-chunk partials in
    chunk-index order with a chunk grid that does not depend on the
    domain count, so it too is deterministic.

    The pool runs one job at a time.  Any domain or thread may submit:
    a loop submitted while another job is in flight (a second domain,
    a thread beside the submitter, or a loop nested in a chunk) runs
    inline in its caller, as under {!with_sequential}, which by the
    rule above gives the same bits. *)

(** Effective pool size: the value set by {!set_domain_count}, else
    [MFTI_DOMAINS], else [Domain.recommended_domain_count ()].  An
    [MFTI_DOMAINS] that is not a positive integer raises
    {!Mfti_error.Error} ([Validation], context ["MFTI_DOMAINS"]). *)
val domain_count : unit -> int

(** [set_domain_count n] fixes the pool size to [n >= 1], shutting down
    any existing pool (its domains are joined).  Call only from the
    main domain while no parallel loop is in flight — intended for
    benchmarks and tests.  [set_domain_count 1] restores fully
    sequential execution. *)
val set_domain_count : int -> unit

(** [parallel_for ?chunk n f] runs [f lo hi] over subranges that
    exactly tile [0, n): every index is covered once.  [f] must only
    write state disjoint between ranges.  Runs inline as [f 0 n] when
    the pool size is 1, when called from inside another parallel loop
    (nested parallelism degrades gracefully), while another loop holds
    the pool, or under {!with_sequential}.  Default [chunk] splits [n]
    into about 4 chunks per domain.  Exceptions raised by [f] are
    re-raised in the caller after the loop drains. *)
val parallel_for : ?chunk:int -> int -> (int -> int -> unit) -> unit

(** [parallel_for_result ~context ?chunk n f] is {!parallel_for} with a
    typed-error boundary: an exception escaping [f] (or the
    ["pool.worker"] injected fault) is returned as
    [Error (Mfti_error.of_exn ~context e)] instead of being re-raised.
    A failed call leaves the pool reusable — subsequent loops run
    normally. *)
val parallel_for_result :
  ?chunk:int -> context:string -> int -> (int -> int -> unit) ->
  (unit, Mfti_error.t) result

(** [parallel_for_reduce ?chunk ~neutral ~combine n f] evaluates
    [f lo hi] on each chunk and folds the per-chunk results with
    [combine], left to right in chunk-index order starting from
    [neutral].  The chunk grid defaults to at most 32 chunks and is
    independent of the domain count, so the fold order (hence the
    floating-point result) does not change with parallelism. *)
val parallel_for_reduce :
  ?chunk:int -> neutral:'a -> combine:('a -> 'a -> 'a) -> int ->
  (int -> int -> 'a) -> 'a

(** [with_sequential f] runs [f ()] with every parallel loop in this
    domain forced inline — the reference execution used by the
    determinism tests and the [domains = 1] benchmark arm. *)
val with_sequential : (unit -> 'a) -> 'a

(** [shutdown ()] joins and discards the pool (if any).  The next
    parallel call recreates it.  Exposed for benchmarks that want to
    exclude pool spin-up from a timed region boundary. *)
val shutdown : unit -> unit
