(** Diagnostics threaded through the fitting pipeline.

    A diagnostics record accumulates what the numerics actually did on
    a request: the condition estimate of the reduced pencil, the
    singular-value gap behind the rank decision, every fallback taken
    (LU to pivoted QR, Golub-Kahan to Jacobi, rank demotion, recursion
    guards, ...), the retry count, and the wall time.

    Collection is ambient: {!using} installs a record as the current
    collector, and the kernels call {!record} / {!set_condition} /
    {!incr_retries} from whatever domain they execute on (the store is
    mutex-guarded).  With no collector installed every call is a cheap
    no-op, so instrumented kernels cost nothing outside a fit. *)

type event = { site : string; detail : string }

type t = {
  mutable condition : float option;
      (** sigma_max / sigma_rank of the retained pencil block *)
  mutable rank_gap : float option;
      (** log10 drop at the chosen rank (decades) *)
  mutable fallbacks : event list;  (** newest first; see {!events} *)
  mutable retries : int;           (** numerical retries taken *)
  mutable wall_time : float;       (** seconds inside {!using} *)
}

val create : unit -> t

(** [using d f] runs [f] with [d] installed as the ambient collector,
    restoring the previous collector afterwards (also on exceptions)
    and adding the elapsed wall time to [d.wall_time].  Nesting is
    safe; the innermost collector receives the events. *)
val using : t -> (unit -> 'a) -> 'a

(** [with_collector f] = run [f] under a fresh record and return both. *)
val with_collector : (unit -> 'a) -> 'a * t

(** [record ~site detail] appends a fallback event to the ambient
    collector (no-op when none is installed).  Safe from any domain. *)
val record : site:string -> string -> unit

(** [hold f] runs [f ()] with the events this domain {!record}s held
    back from the collector, and returns them, oldest first, beside
    [f]'s result; {!record} each to put them in.  For work on a second
    domain whose events must land in a fixed place in the list, not
    wherever the schedule interleaves them.  Events recorded by other
    domains (a parallel loop [f] starts) are not held. *)
val hold : (unit -> 'a) -> 'a * event list

val incr_retries : unit -> unit
val set_condition : float -> unit
val set_rank_gap : float -> unit

val events : t -> event list
(** Oldest first. *)

val fallback_count : t -> int

(** [recorded d site] is true when an event with that site was taken. *)
val recorded : t -> string -> bool

(** One-line human-readable summary for logs / stderr. *)
val summary : t -> string
