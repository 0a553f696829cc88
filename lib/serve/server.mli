(** Model evaluation server.

    Serves a directory of packed artifacts ([<root>/<id>.mfti]) over a
    line-delimited-JSON protocol: one request object per line in, one
    response object per line out.  No external dependencies — the
    transport is stdin/stdout ({!serve_channels}), or a Unix domain or
    TCP socket through {!Supervisor}.

    {2 Protocol}

    Requests are objects with an ["op"] field:

    - [{"op":"list-models"}] — enumerate artifacts under the root:
      [{"ok":true,"op":"list-models","models":[{"id":...,"bytes":...,
      "cached":...}]}]
    - [{"op":"model-info","model":ID}] — artifact metadata plus the
      compiled evaluator's mode ("pole-residue" or "direct") and pole
      count.
    - [{"op":"eval-grid","model":ID,"freqs":[f1,...]}] — evaluate
      [H(j 2 pi f)] at every frequency (batched over the domain pool).
      ["results"] is one [p x m] matrix per frequency, each entry a
      [[re, im]] pair, bit-exact (the emitter round-trips floats).
    - [{"op":"stats"}] — counters snapshot (see {!stats_json}).
    - [{"op":"ping"}] — liveness probe: [{"ok":true,"op":"ping",
      "draining":B}].  The {!Router}'s health checks use it; the
      ["draining"] flag lets the ring mark a draining replica before
      its listener goes away.
    - [{"op":"shutdown"}] — acknowledge and stop the serve loop.

    Socket connections ({!Listener}, under {!Supervisor} and
    {!Router}) may additionally negotiate length-prefixed {b binary
    frames} with [{"op":"hello","frames":"binary"}] — see {!Frame}.
    The negotiation never reaches this module; {!handle_request} is
    merely told which rendering the transport wants.

    {2 Streaming fit sessions}

    A fit session is a server-resident {!Mfti.Engine.Session}: the
    client opens it, streams sample batches, asks where to measure
    next, and finalizes into a packed artifact — without ever holding
    the full dataset client-side.

    - [{"op":"fit-open","ports":P}] — open a session for a [P x P]
      response ([ "ports":[p,m] ] for a rectangular one).  Optional
      ["width"] (uniform tangential block width; default full),
      ["rank-tol"] (reduction tolerance; default the engine's gap
      rule), ["certify"] ("off"/"check"/"repair", applied at finalize;
      default "off").  Returns [{"session":ID,"ttl_s":...,
      "bytes_budget":...}].
    - [{"op":"fit-add-samples","session":ID,"samples":[
      {"freq":F,"s":[[[re,im],...],...]},...]}] — append a batch in
      measurement order; ["holdout":true] routes it to the hold-out
      view instead.  The batch is vetted whole (all-or-nothing) by the
      session; the response reports the accepted count, current
      pipeline ["stage"], and which cached stages the append
      ["invalidated"].
    - [{"op":"fit-status","session":ID}] — stage, sample counts, byte
      usage and per-session counters.  ["refit":true] first re-runs
      the invalidated downstream stages; ["holdout_err"] is reported
      only while the cached reduction is current (never triggers a
      refit implicitly).
    - [{"op":"fit-suggest","session":ID}] — adaptive next-frequency
      suggestions ({!Mfti.Adaptive}), best first.  Optional ["count"]
      and explicit ["candidates"].
    - [{"op":"fit-finalize","session":ID,"model":MID}] — certify per
      the session options, pack the model into the store as
      [MID.mfti] (refusing to overwrite an existing id), and close the
      session.  Optional ["name"] labels the artifact.

    Sessions are budgeted: at most [max_sessions] live at once, at
    most [session_bytes] of accepted sample payload each — exhaustion
    is a typed ["budget"] response ({!Linalg.Mfti_error.Budget_exhausted},
    context ["serve.session"]).  A session idle past [session_ttl_s]
    is expired lazily (swept on the next session op or ["stats"]);
    touching an expired or unknown id is a typed ["validation"]
    refusal.  While {!set_draining} is on, [fit-open] is refused but
    live sessions keep streaming — the supervisor's drain lets
    in-flight fits land before the listener goes away.  Each session
    is serialized by its own lock (sticky access), so concurrent
    requests for one id — even over different connections — apply in
    some serial order; distinct sessions proceed in parallel.

    Every failure is a typed response, never a crash or a dropped
    connection: [{"ok":false,"error":{"kind":K,"message":M}}] where [K]
    mirrors the {!Linalg.Mfti_error} taxonomy ("parse", "validation",
    "numerical", "non-convergence", "budget", "fault").  Malformed JSON
    is "parse"; an unknown op, bad field, or unknown model id is
    "validation"; a corrupt artifact is whatever {!Artifact.load}
    reports (typically "parse").

    Model ids are restricted to [A-Za-z0-9_.-] — the server never
    concatenates request text into a path outside the root.

    {2 Admission policy}

    Models carry certification evidence (a {!Mfti.Certify.Certificate.t}
    in version-2 artifacts; see {!Artifact}).  The {!admission} policy
    decides what happens when a model arrives without one, or with one
    that records a failed check: [Strict] refuses it with a typed
    ["validation"] response (context ["serve.admission"]), [Warn] (the
    default) serves it but counts the lapse, [Open] ignores
    certification entirely.  The gate runs on cache misses — the
    ["model-info"] response includes the certificate (or [null]) and
    ["stats"] reports the policy with refused/warned counts under
    ["admission"].

    Loaded artifacts are compiled once ({!Compiled.of_model}) and kept
    in an {!Lru} cache accounted at their on-disk byte size.  The cache
    and every counter sit behind one internal mutex, so {!handle_line}
    is safe to call concurrently from {!Supervisor} worker domains —
    the LRU byte accounting stays exact under contention. *)

type t

(** What to do with a model whose artifact carries no certificate, or a
    certificate recording a failed stability/passivity check. *)
type admission =
  | Open    (** serve everything, certification ignored *)
  | Warn    (** serve it, but count it in [stats.admission.warned] *)
  | Strict  (** refuse it with a typed ["validation"] response *)

(** Budgets for streaming fit sessions.  [max_sessions] caps the live
    session count; [session_bytes] caps the accepted sample payload of
    one session (16 bytes per complex entry plus a small per-sample
    overhead); [session_ttl_s] is the idle time after which a session
    is expired. *)
type session_limits = {
  max_sessions : int;
  session_bytes : int;
  session_ttl_s : float;
}

(** 8 sessions, 64 MiB each, 10-minute idle TTL. *)
val default_session_limits : session_limits

(** [create ~root ()] serves artifacts under directory [root].
    [cache_bytes] is the LRU budget (default 256 MiB).  [admission]
    (default [Warn]) gates uncertified / failed-certification models.
    [session_limits] budgets streaming fit sessions (default
    {!default_session_limits}).  Unless [recover] is [false], the root
    is scanned first ({!Artifact.recover_root}): torn or orphaned
    files are quarantined before anything can be served from them —
    see {!quarantined}. *)
val create :
  ?cache_bytes:int -> ?recover:bool -> ?admission:admission ->
  ?session_limits:session_limits -> root:string ->
  unit -> t

(** [set_draining t true] refuses new [fit-open] requests with a typed
    ["validation"] response while letting live sessions stream and
    finalize.  The {!Supervisor} turns this on when a drain starts. *)
val set_draining : t -> bool -> unit

val draining : t -> bool

(** Files moved aside by the startup recovery scan (empty when
    [~recover:false] or the root was clean). *)
val quarantined : t -> Artifact.quarantine list

(** [set_stats_hook t f] registers extra top-level fields appended to
    every {!stats_json} response.  The {!Supervisor} uses this to
    publish queue depth, sheds, timeouts, restarts and per-worker
    latency through the ordinary ["stats"] op.  [f] is called outside
    the server's internal lock. *)
val set_stats_hook : t -> (unit -> (string * Sjson.t) list) -> unit

(** [handle_line t line] processes one request line and returns the
    response line (no trailing newline) plus [true] when the request
    asked the serve loop to stop.  Never raises; safe to call from
    several domains concurrently. *)
val handle_line : t -> string -> string * bool

(** A rendered response: JSON text, or (binary connections only) the
    body of a {!Frame} grid frame. *)
type reply = Text of string | Grid of string

(** [handle_request t ~binary line] is {!handle_line} generalized over
    the connection's frame mode: with [~binary:true] a successful
    [eval-grid] renders as [Grid] (raw IEEE-754 matrix data, see
    {!Frame.grid_body}) instead of the JSON ["results"] array; every
    other response — including every error — stays [Text].  With
    [~binary:false] it never returns [Grid]. *)
val handle_request : t -> binary:bool -> string -> reply * bool

(** [error_response ?op e] is the standard typed rendering of a
    pipeline error — [{"ok":false,"error":{"kind":K,"message":M}}] with
    [K] from the {!Linalg.Mfti_error} taxonomy.  Exposed so the
    {!Router} renders errors it catches exactly as a replica would. *)
val error_response : ?op:string -> Linalg.Mfti_error.t -> Sjson.t

(** [protocol_error ~kind ~message ()] builds the standard
    [{"ok":false,"error":{...}}] response for protocol-level conditions
    outside the {!Linalg.Mfti_error} taxonomy — the supervisor's
    ["overloaded"] (load shedding) and ["timeout"] (deadline expiry)
    kinds. *)
val protocol_error : ?op:string -> kind:string -> message:string -> unit -> Sjson.t

(** Serve until EOF or a shutdown request; responses are flushed after
    every line.  Returns how the loop ended. *)
val serve_channels : t -> in_channel -> out_channel -> [ `Eof | `Stop ]

(** Counters snapshot: total/per-op request counts, error count,
    latency totals and maxima (seconds), bytes in/out, cache
    hits/misses/evictions/residency, uptime. *)
val stats_json : t -> Sjson.t

(** Record a client vanishing mid-response (EPIPE / reset during a
    write).  The channel loop counts its own; {!Supervisor} calls this
    so ["conn_drops"] in {!stats_json} covers every transport. *)
val note_conn_drop : t -> unit
