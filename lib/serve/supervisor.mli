(** Supervised concurrent serving over a Unix domain socket or TCP:
    the {!Listener} connection layer (accept loop, bounded admission
    queue with typed shedding, deadlines, [hello] negotiation, runner
    restarts, drain — see there) on {b domain} workers, each serving
    requests through {!Server.handle_request}:

    - workers are OCaml 5 domains, falling back to threads when the
      domain budget is exhausted, because evaluation is CPU-bound; each
      evaluation runs under {!Linalg.Parallel.with_sequential} so worker
      domains never race on the kernel pool's submission protocol;
    - a request whose evaluation blows [request_timeout_ms] gets a
      ["timeout"] response instead of its (discarded) result;
    - initiating a drain flips {!Server.set_draining}, and a client
      vanishing mid-reply counts in the server's ["conn_drops"].

    The certification {!Server.admission} policy is inherited from the
    wrapped server: a supervisor over a [Strict] server refuses
    uncertified / failed-certification models with the same typed
    ["validation"] response on every worker, and the refused/warned
    counts surface through the shared ["stats"] op.

    {b Streaming fit sessions} ride the same worker pool.  Routing is
    session-sticky at two levels: a connection is owned by one worker
    for its whole lifetime, and requests that reach one session id
    from {e different} connections serialize on that session's own
    lock inside {!Server} — so a streaming client always observes its
    appends in order, and two clients racing one id apply in some
    serial order instead of corrupting the fit.  Drain semantics:
    initiating a drain (a ["shutdown"] request or {!stop}) refuses new
    [fit-open] requests immediately, while connections already
    streaming a session keep their worker until they finish or the
    [drain_ms] deadline force-closes them — an in-flight
    [fit-finalize] either lands a complete artifact or leaves none (the
    artifact write is atomic).

    Fault sites (see {!Linalg.Fault}) exercised by the chaos suite:
    ["serve.slow_client"] forces the partial-frame deadline,
    ["serve.stall"] makes a request overshoot its deadline,
    ["serve.conn_drop"] kills a worker mid-connection (restart path).

    Statistics are published through the ordinary ["stats"] op: {!start}
    registers a {!Server.set_stats_hook} adding a ["supervisor"] object
    with queue depth, sheds, timeouts, restarts and per-worker
    latency. *)

type config = Listener.config = {
  workers : int;             (** worker pool size (>= 1) *)
  queue : int;               (** connections waiting for a busy pool (>= 1) *)
  request_timeout_ms : int;  (** per-request, partial-frame and reply deadline *)
  idle_timeout_ms : int;     (** keep-alive between frames *)
  drain_ms : int;            (** graceful-drain budget in {!stop} *)
  backoff_base_ms : int;     (** first restart delay *)
  backoff_cap_ms : int;      (** restart delay ceiling *)
  max_line_bytes : int;      (** request frame cap *)
}

(** 2 workers, queue 16, 5 s request / 30 s idle timeouts, 2 s drain,
    10 ms..1 s backoff, 8 MiB frames. *)
val default_config : config

type t

type worker_snapshot = {
  ws_served : int;       (** requests answered *)
  ws_conns : int;        (** connections handled *)
  ws_total_s : float;    (** summed request latency *)
  ws_max_s : float;      (** worst request latency *)
  ws_restarts : int;     (** times this worker was restarted *)
}

type snapshot = {
  sn_workers : int;
  sn_queue_capacity : int;
  accepted : int;          (** connections accepted *)
  dispatched : int;        (** connections handed to a worker *)
  shed : int;              (** connections refused with "overloaded" *)
  idle_timeouts : int;     (** idle keep-alives expired (silent close) *)
  read_timeouts : int;     (** partial frames / unread responses timed out *)
  request_timeouts : int;  (** evaluations that blew the request deadline *)
  restarts : int;          (** worker + accept-loop restarts *)
  queue_depth : int;       (** connections waiting right now *)
  queue_max : int;         (** high-water mark of the queue *)
  in_flight : int;         (** connections being served right now *)
  draining : bool;
  per_worker : worker_snapshot array;
}

(** Where to listen (port [0] = ephemeral). *)
type listener = Listener.addr = Unix_path of string | Tcp of string * int

(** [start server ~listen] binds the listener (race-free, typed error
    if the address is taken), spawns the accept loop and workers,
    registers the stats hook, and returns immediately.  Raises
    {!Linalg.Mfti_error.Error} ([Validation]) on a nonsensical
    [config]. *)
val start : ?config:config -> Server.t -> listen:listener -> t

(** The actual TCP port bound, once started ([None] for a Unix
    listener).  Useful with [Tcp (host, 0)]. *)
val bound_port : t -> int option

(** Consistent counter snapshot (also published as the ["supervisor"]
    object in ["stats"] responses). *)
val stats : t -> snapshot

(** Block until a client's [{"op":"shutdown"}] initiates the drain. *)
val wait : t -> unit

(** Graceful drain then forced shutdown; joins every runner and removes
    the socket file (Unix listeners).  Idempotent. *)
val stop : t -> unit
