(** Sharded, replicated serving: a router in front of N replica
    servers.

    Clients speak the ordinary {!Server} protocol to the router (JSON
    lines, or binary frames after a [hello] — see {!Frame}) over the
    {!Listener} connection layer, with [max_conns] systhread runners
    and no queue: the router is IO-bound, so a cheap thread per client
    connection, shed exactly at the cap.  The router owns which replica
    answers:

    - {b Sharding}: models are spread over the replica fleet by
      consistent hashing on the model id ({!Ring}: FNV-1a over
      [vnodes] virtual nodes per replica).  A model's requests land on
      the same replica every time, so each replica's LRU cache holds
      its shard of the model set instead of every replica thrashing
      over all of it.
    - {b Health}: a background prober pings every replica each
      [probe_interval_ms] and runs the {!Health} state machine — [Up],
      [Suspect] (a failure seen, still tried), [Down] (>=
      [fail_threshold] consecutive failures, skipped), [Draining] (the
      replica answered with ["draining":true], skipped for new work).
      A probe that answers flips the replica straight back to [Up] —
      {b rejoin} — which also discards pooled connections from before
      the outage and counts a rejoin; routing resumes without dropping
      any in-flight request.
    - {b Failover}: a request whose replica fails at the connection
      level (connect refused, reset, EOF mid-response) retries on the
      next distinct candidate along the hash ring, at most
      [max_failover] extra attempts, then answers with a typed
      ["unavailable"] response.  A replica that merely {e times out}
      is NOT failed over — the work may still be running there, and
      re-running it elsewhere would double-execute; the client gets a
      typed ["timeout"] response instead.  Reconnect attempts to a
      failing replica are gated by exponential backoff
      ([backoff_base_ms] doubling to [backoff_cap_ms]) plus a
      deterministic per-replica jitter.
    - {b Coalescing}: concurrent [eval-grid] requests for the same
      model merge into one upstream call over the union of their
      frequency grids (sorted ascending, deduplicated); each waiter's
      response is demultiplexed back out {b byte-identical} to what a
      direct replica answer would have been — same field order, same
      float text (the emitter round-trips bits).  [coalesce_hold_ms]
      optionally holds a fresh batch open so concurrent requests can
      pile in (deterministic tests); the default [0] coalesces only
      requests that arrive while an upstream call is being formed.
    - {b Registration}: [{"op":"register","replica":ADDR}] adds a
      replica to the ring at runtime; requests already routed keep
      their old candidates, new requests see the new ring.

    Upstream connections are pooled per replica and negotiated to
    binary frames, so grid payloads cross the router as raw IEEE-754;
    a JSON client's response is re-rendered from the bits
    ({!Frame.results_json}), a binary client's is relayed as-is.

    Session ([fit-*]) ops are {b connection-sticky}: the replica that
    answers a connection's [fit-open] owns every later session op on
    that connection (session state lives in one replica's memory).  A
    session op arriving with no pin routes by hash of the session id
    and will be refused by a replica that does not hold it — typed,
    never a hang.

    Local ops (never forwarded): ["ping"], ["stats"] (router and
    connection counters plus per-replica health), ["register"], and
    ["shutdown"] (drains the router, not the replicas).

    Fault sites (see {!Linalg.Fault}), all targeting the {e first}
    configured replica so chaos runs replay exactly:
    ["router.partition"] — requests and probes to it fail at the
    connection level (failover path); ["router.slow_replica"] — its
    requests are treated as having blown the deadline (typed
    ["timeout"], no failover); ["router.rejoin_flap"] — its probes
    alternate ok/failed, exercising Up/Suspect churn and rejoin
    convergence. *)

(** Consistent-hash ring: pure, deterministic, exposed for tests. *)
module Ring : sig
  type t

  (** [hash s] is the 64-bit FNV-1a hash of [s], finished with a
      splitmix64 mix (raw FNV lacks avalanche on short strings). *)
  val hash : string -> int64

  (** [make ~vnodes names] places [vnodes] points per name.  Raises
      {!Linalg.Mfti_error.Error} ([Validation]) when [vnodes < 1]. *)
  val make : vnodes:int -> string list -> t

  (** [candidates t key] is every distinct name, nearest first, walking
      the ring clockwise from [hash key] — the failover order for
      [key].  Empty when the ring is empty. *)
  val candidates : t -> string -> string list
end

(** Replica health state machine: pure, exposed for tests. *)
module Health : sig
  type state = Up | Suspect | Down | Draining
  type probe = Ok | Ok_draining | Failed

  (** [step ~fail_threshold state fails probe] is the next
      [(state, consecutive_failures)].  Any successful probe resets to
      [Up] (or [Draining]) with zero failures; a failure increments the
      count, turning [Up] into [Suspect] and anything into [Down] at
      the threshold. *)
  val step : fail_threshold:int -> state -> int -> probe -> state * int

  val to_string : state -> string
end

type config = {
  vnodes : int;              (** virtual nodes per replica (>= 1) *)
  probe_interval_ms : int;   (** health-probe period *)
  fail_threshold : int;      (** consecutive failures before [Down] *)
  max_failover : int;        (** extra candidates tried after the first *)
  connect_timeout_ms : int;  (** upstream connect / probe deadline *)
  request_timeout_ms : int;  (** upstream, partial-frame and reply deadline *)
  idle_timeout_ms : int;     (** client keep-alive between frames *)
  max_conns : int;           (** client connection cap (then shed) *)
  coalesce_hold_ms : int;    (** hold a fresh batch open this long *)
  backoff_base_ms : int;     (** first reconnect delay to a failed replica *)
  backoff_cap_ms : int;      (** reconnect delay ceiling *)
  max_line_bytes : int;      (** frame cap, both directions *)
}

(** 64 vnodes, 200 ms probes, threshold 3, 2 failover attempts, 1 s
    connect / 5 s request / 30 s idle deadlines, 64 client connections,
    no hold window, 50 ms..2 s backoff, 8 MiB frames. *)
val default_config : config

(** Per-replica view in a {!snapshot}. *)
type replica_snapshot = {
  rp_name : string;
  rp_state : Health.state;
  rp_fails : int;      (** consecutive probe/request failures *)
  rp_served : int;     (** upstream requests answered *)
  rp_errors : int;     (** upstream connection-level failures *)
  rp_rejoins : int;    (** transitions back to [Up] from [Down] *)
}

type snapshot = {
  rt_requests : int;          (** client requests dispatched *)
  rt_forwarded : int;         (** upstream calls issued *)
  rt_failovers : int;         (** candidate retries after a failure *)
  rt_timeouts : int;          (** typed ["timeout"] responses *)
  rt_unavailable : int;       (** typed ["unavailable"] responses *)
  rt_shed : int;              (** client connections refused at the cap *)
  rt_coalesce_batches : int;  (** upstream eval-grid batches executed *)
  rt_coalesce_hits : int;     (** requests that rode another's batch *)
  rt_probes : int;            (** health probes sent *)
  rt_conns : int;             (** live client connections *)
  rt_draining : bool;
  rt_replicas : replica_snapshot list;
}

type t

(** [start ~listen ~replicas ()] binds the client listener, spawns the
    client runners and health prober, and returns immediately.
    [replicas] are addresses per {!Listener.parse_addr}; the list must
    be non-empty and duplicate-free (typed [Validation] otherwise).
    The {e first} replica is the chaos target for the [router.*] fault
    sites. *)
val start :
  ?config:config -> listen:Listener.addr -> replicas:string list ->
  unit -> t

(** The actual TCP port bound ([None] for a Unix listener). *)
val bound_port : t -> int option

(** Consistent counter snapshot (also the ["stats"] response body). *)
val stats : t -> snapshot

(** Block until a client's [{"op":"shutdown"}] initiates the drain. *)
val wait : t -> unit

(** Stop accepting, let in-flight client connections finish within
    2 s, close upstream pools, join every thread.  Replicas are left
    running.  Idempotent. *)
val stop : t -> unit
