(** The connection layer shared by {!Supervisor} and {!Router}: the
    only code that binds, accepts, connects, reads frames and writes
    under deadlines.

    A listener owns one listening socket and serves it with a fixed
    pool of {b runners} fed by a bounded admission queue.  A connection
    is admitted while fewer than [workers + queue] connections are
    being served or waiting; past that it is {b shed} with a typed
    ["overloaded"] response.  A runner takes one connection at a time
    and keeps it until EOF; a runner whose handler raises restarts with
    exponential backoff ([backoff_base_ms] doubling to
    [backoff_cap_ms], reset after a cleanly finished connection).

    {b Deadlines.}  An idle connection may wait [idle_timeout_ms]
    between frames (expiry closes it silently).  Once a frame's first
    byte arrives the rest must land within [request_timeout_ms], or
    the client gets a typed ["timeout"].  Every reply is written on a
    non-blocking descriptor under the same [request_timeout_ms]: a
    client that stops reading is cut off at the deadline, counted as a
    read timeout.

    {b Transport replies}, never forwarded to the handler: a frame over
    [max_line_bytes] is a typed ["validation"] error, a malformed
    binary frame or a client-sent grid frame a typed ["parse"] error
    (each closes the connection), and [{"op":"hello","frames":F}]
    switches the connection's framing (see {!Frame}) after an
    acknowledgement in the old one — an unknown [F] is a typed
    ["validation"] refusal that leaves the connection usable.  An
    unterminated final JSON line before EOF is still served. *)

(** Where to listen or connect: a Unix domain socket path, or a TCP
    host and port ([0] = ephemeral when listening). *)
type addr = Unix_path of string | Tcp of string * int

(** [parse_addr s]: [host:port] (no [/]) is TCP, anything else a socket
    path.  Raises {!Linalg.Mfti_error.Error} ([Validation]) on a
    malformed port. *)
val parse_addr : string -> addr

(** [bind addr] listens on [addr] and returns the socket with the bound
    TCP port ([None] for a Unix path).  A Unix path is bound without
    the unlink-then-bind race: a connectable path (a live server) or a
    non-socket file is a typed {!Linalg.Mfti_error.Validation} error,
    a stale socket file is removed and rebound.  A busy TCP address or
    unresolvable host is a typed [Validation] error; [SO_REUSEADDR] is
    set so a restarted replica rebinds at once.  SIGPIPE is ignored. *)
val bind : addr -> Unix.file_descr * int option

(** [release addr sock] closes a socket from {!bind} and unlinks its
    Unix path.  Never raises. *)
val release : addr -> Unix.file_descr -> unit

(** [connect addr ~timeout_s] opens a blocking client socket (TCP with
    [TCP_NODELAY], connect bounded by [timeout_s]); failures are
    [Error message]. *)
val connect : addr -> timeout_s:float -> (Unix.file_descr, string) result

(** Wall-clock seconds: the one clock every deadline here is read
    from. *)
val now : unit -> float

(** {2 Serving} *)

type config = {
  workers : int;             (** runners (>= 1) *)
  queue : int;               (** admission queue beyond busy runners (>= 0) *)
  request_timeout_ms : int;  (** partial-frame and reply-write deadline *)
  idle_timeout_ms : int;     (** keep-alive between frames *)
  drain_ms : int;            (** graceful-drain budget in {!stop} *)
  backoff_base_ms : int;     (** first runner restart delay *)
  backoff_cap_ms : int;      (** restart delay ceiling *)
  max_line_bytes : int;      (** request frame cap *)
}

(** Domains fall back to systhreads when the domain budget is spent. *)
type runner = Domains | Threads

type t

(** [create ~context config addr] validates [config] (a typed
    [Validation] error under [context] otherwise) and binds [addr];
    nothing is accepted until {!start}. *)
val create : context:string -> config -> addr -> t

(** A connection's request handler: [~binary] says which rendering the
    connection wants; returns the reply and whether to drain. *)
type handler = binary:bool -> string -> Server.reply * bool

(** [start t ~runner ~on_conn] spawns the accept loop and the runners
    and returns.  [on_conn i] is called once per connection, on runner
    [i], for its handler.  [on_drain] runs once, when the drain starts
    (a handler asked for it, or {!stop}); [on_drop] runs when a client
    vanishes mid-reply. *)
val start :
  ?on_drain:(unit -> unit) -> ?on_drop:(unit -> unit) -> t ->
  runner:runner -> on_conn:(int -> handler) -> unit

(** The TCP port actually bound ([None] for a Unix path). *)
val bound_port : t -> int option

val draining : t -> bool

type stats = {
  accepted : int;          (** connections accepted *)
  dispatched : int;        (** connections handed to a runner *)
  shed : int;              (** refused with "overloaded" at capacity *)
  idle_timeouts : int;     (** keep-alives expired (silent close) *)
  read_timeouts : int;     (** partial frames / unread replies timed out *)
  restarts : int;          (** runner + accept-loop restarts *)
  queue_depth : int;       (** admitted connections waiting right now *)
  queue_max : int;         (** high-water mark of the queue *)
  in_flight : int;         (** connections being served right now *)
  runner_conns : int array;     (** connections per runner *)
  runner_restarts : int array;  (** restarts per runner *)
}

val stats : t -> stats

(** Block until the drain starts. *)
val wait : t -> unit

(** Stop accepting (the socket closes and its path is unlinked at
    once), let in-flight connections finish within [drain_ms], then
    shut down the stragglers and join every runner.  Idempotent. *)
val stop : t -> unit

(** {2 Client side} *)

(** A client connection to a server speaking this protocol. *)
type peer

(** [dial addr ~timeout_s ~max_bytes ~binary] connects and, with
    [~binary:true], negotiates binary frames within [timeout_s]. *)
val dial :
  addr -> timeout_s:float -> max_bytes:int -> binary:bool ->
  (peer, string) result

(** One request/response round trip under [deadline]; [`Failed] is a
    connection-level failure (the peer is then unusable). *)
val call :
  peer -> deadline:float -> string ->
  [ `Reply of Frame.payload | `Timeout | `Failed of string ]

val hang_up : peer -> unit
