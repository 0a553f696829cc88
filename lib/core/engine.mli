(** The staged fitting engine.

    The three Loewner fitting paths (MFTI Algorithm 1 and 2, VFTI) are
    strategies over one pipeline ([Vfit.Vf.fit_model] is not: it wraps
    vector fitting with {!Model.make}):

    {v ingest -> assemble -> realify -> reduce -> certify -> model v}

    Each stage is explicit and resumable over a shared {!state}: calling
    a stage runs every stage it depends on that has not run yet, and
    running a stage twice is a no-op — so a driver can stop after
    {!assemble} to inspect the pencil, then continue.  Per-stage wall
    times accumulate in {!timings}.

    The [Recursive Incremental] strategy is the reason the engine
    exists: Algorithm 2 adds interpolation units one batch at a time,
    and the incremental {!Loewner.builder} appends only the new block
    rows/columns to the cached pencil — O(k) new divided differences per
    unit instead of the O(k^2) full rebuild — while producing
    bit-identical models to the [Recursive Batch] arm. *)

(** Options for every strategy.  The recursion fields ([batch] ...
    [probe]) are ignored by the single-pass strategies. *)
type options = {
  weight : Tangential.weight;        (** tangential block widths *)
  directions : Direction.kind;
  rank_rule : Svd_reduce.rank_rule;
  batch : int;                       (** units added per iteration *)
  threshold : float;                 (** stop when the mean held-out
                                         residual drops below this *)
  max_iterations : int;
  divergence_factor : float;         (** bail when the residual exceeds
                                         this multiple of the best seen *)
  probe : int option;
      (** score at most this many held-out units per iteration (strided
          subsample); [None] scores all of them — the exact Algorithm 2
          reordering *)
  certify : Certify.mode;
      (** post-reduce certification: [Off] (default) skips the stage
          entirely, [Check] records a {!Certify.Certificate.t} without
          touching the model, [Repair] additionally enforces stability
          and passivity (see {!Certify.run}) *)
}

(** [Full] weight, [Gap] rank rule, recursion knobs at the Algorithm 2
    defaults, [probe = None]. *)
val default_options : options

(** {!default_options} with the [Uniform 2] weight Algorithm 2 uses. *)
val default_recursive_options : options

(** How the recursive strategy assembles each iteration's sub-pencil. *)
type assembly =
  | Batch        (** build the full pencil once, select rows/columns *)
  | Incremental  (** grow a {!Loewner.builder}, appending new units *)

type strategy =
  | Direct               (** MFTI Algorithm 1: one shot, all samples *)
  | Vector               (** VFTI: width-1 blocks (forces [Uniform 1]) *)
  | Recursive of assembly
      (** MFTI Algorithm 2, for noisy data: move the [batch] worst-fitting
          held-out units into the active set until the mean relative
          held-out residual drops below [threshold].  A stalled or
          diverging recursion returns its best model and records the
          guard that stopped it (["algorithm2.*"]). *)

type stage = Ingested | Assembled | Realified | Reduced | Certified

(** Mutable pipeline state; create with {!ingest}. *)
type state

(** Validate the data and options, apply fault hooks, and build the
    tangential interpolation data.  [strategy] defaults to [Direct].
    Bad data or options are typed [Validation] errors; a [Tol] rank
    rule needs a tolerance in (0, 1), [Fixed k] needs [k >= 1], and a
    [Recursive] strategy needs a [threshold] [>= 0] (not NaN). *)
val ingest :
  ?options:options -> ?strategy:strategy -> Dataset.t ->
  (state, Linalg.Mfti_error.t) result

(** Build the Loewner pencil (no-op for [Recursive Incremental], whose
    pencil grows inside the reduce stage). *)
val assemble : state -> (unit, Linalg.Mfti_error.t) result

(** Realify the pencil (Lemma 3.2), so the reduce gives an exactly real
    model ({!Svd_reduce.reduce}, [Stacked] mode); a no-op for
    [Recursive] strategies, whose loop realifies sub-pencils. *)
val realify : state -> (unit, Linalg.Mfti_error.t) result

(** Run the SVD projection — for recursive strategies, the whole
    greedy selection loop. *)
val reduce : state -> (unit, Linalg.Mfti_error.t) result

(** Run the certification pass on the reduced model, against the
    dataset's own frequency grid.  With [options.certify = Off] the
    stage completes instantly (model unchanged, no certificate); with
    [Repair] an incurable model is a typed error and the state stays at
    {!Reduced}. *)
val certify : state -> (unit, Linalg.Mfti_error.t) result

(** Furthest stage that has completed. *)
val stage : state -> stage

val tangential : state -> Tangential.t
val dataset : state -> Dataset.t

(** The assembled full pencil, once {!assemble} has run (always [None]
    for [Recursive Incremental]). *)
val pencil : state -> Loewner.t option

val reduction : state -> Svd_reduce.result option
val diagnostics : state -> Linalg.Diag.t

(** Accumulated per-stage wall times, in first-hit order: ["ingest"],
    ["assemble"], ["realify"], ["reduce"], (recursion only)
    ["evaluate"] and (when enabled) ["certify"]. *)
val timings : state -> (string * float) list

(** Everything a finished fit produced. *)
type fit = {
  model : Statespace.Descriptor.t;
  rank : int;                 (** retained order *)
  sigma : float array;        (** singular values the rank decision saw *)
  data : Tangential.t;
  loewner : Loewner.t;        (** working pencil of the final reduction *)
  selected_units : int;       (** units used ([= total] for single pass) *)
  total_units : int;
  iterations : int;
  history : float array;      (** mean held-out residual per iteration *)
  certificate : Certify.Certificate.t option;
      (** certification evidence; [None] when the stage ran with
          [certify = Off] *)
  diagnostics : Linalg.Diag.t;
  timings : (string * float) list;
}

(** First-class fitted model: the descriptor realization plus the
    metadata needed to judge and reuse it. *)
module Model : sig
  type stats = {
    selected_units : int;
    total_units : int;
    iterations : int;
    history : float array;
  }

  type t

  (** Wrap a bare descriptor (e.g. a vector-fitting result). *)
  val make :
    ?sigma:float array -> ?stats:stats ->
    ?certificate:Certify.Certificate.t -> ?diagnostics:Linalg.Diag.t ->
    ?timings:(string * float) list -> rank:int ->
    Statespace.Descriptor.t -> t

  val of_fit : fit -> t

  val descriptor : t -> Statespace.Descriptor.t
  val rank : t -> int
  val sigma : t -> float array
  val stats : t -> stats option

  (** Certification evidence attached by the engine's certify stage or
      by {!certify}; [None] for uncertified models. *)
  val certificate : t -> Certify.Certificate.t option

  (** [certify ?options ~freqs m] runs {!Certify.run} on the wrapped
      descriptor and returns the model with the (possibly repaired)
      realization and its certificate attached. *)
  val certify :
    ?options:Certify.options -> freqs:float array -> t ->
    (t, Linalg.Mfti_error.t) result

  val diagnostics : t -> Linalg.Diag.t
  val timings : t -> (string * float) list

  val order : t -> int

  (** Port dimensions of the realization: {!inputs} is [m], {!outputs}
      is [p] — the serving layer stores both in packed artifacts. *)
  val inputs : t -> int

  val outputs : t -> int
  val eval : t -> Linalg.Cx.t -> Linalg.Cmat.t
  val eval_freq : t -> float -> Linalg.Cmat.t
  val poles : t -> Linalg.Cx.t array
  val stable : t -> bool
  val is_real : t -> bool

  val err : t -> Statespace.Sampling.sample array -> float
  val err_vector : t -> Statespace.Sampling.sample array -> float array
  val max_err : t -> Statespace.Sampling.sample array -> float
  val report : name:string -> t -> Statespace.Sampling.sample array -> string
end

(** Run every remaining stage and return the model. *)
val model : state -> (Model.t, Linalg.Mfti_error.t) result

(** [run ?options ?strategy dataset] = ingest + all stages. *)
val run :
  ?options:options -> ?strategy:strategy -> Dataset.t ->
  (fit, Linalg.Mfti_error.t) result

val run_exn : ?options:options -> ?strategy:strategy -> Dataset.t -> fit

(** Convenience over a bare sample array ({!Dataset.of_samples}). *)
val fit_result :
  ?options:options -> ?strategy:strategy ->
  Statespace.Sampling.sample array -> (fit, Linalg.Mfti_error.t) result

val fit :
  ?options:options -> ?strategy:strategy ->
  Statespace.Sampling.sample array -> fit

(** {1 Streaming fit sessions}

    A session is the pipeline turned live: instead of one ingest fixing
    the sample set, samples stream in — as instruments produce them —
    and the incremental {!Loewner.builder} absorbs each completed
    right/left pair as one O(k) append.  The assemble stage never
    reruns; an append only invalidates the cached downstream stages
    (realify / reduce / certify), and {!refit} replays exactly those.
    {!finalize} certifies per the session options and is bit-identical
    to [run ~strategy:Direct] over the same completed pairs.

    Sessions are single-owner mutable values with no internal locking;
    the serving layer serializes access per session. *)
module Session : sig
  type t

  (** Monotonic per-session activity counters, for the serving layer's
      [stats] op. *)
  type counters = {
    appended : int;    (** fit samples accepted over the session *)
    held_out : int;    (** hold-out samples accepted *)
    refits : int;      (** reduce-stage reruns *)
    suggests : int;    (** adaptive suggestions served *)
  }

  (** [open_ ?options ~inputs ~outputs ()] starts an empty session for
      a [outputs x inputs] response, with options checked as by
      {!ingest}.  [Per_sample] weights are a typed error (they need the
      full sample count up front); [Full] resolves to [min inputs
      outputs] per block. *)
  val open_ :
    ?options:options -> inputs:int -> outputs:int -> unit ->
    (t, Linalg.Mfti_error.t) result

  (** [append ?holdout sess samples] accepts a batch.  Samples stream
      in measurement order: even stream positions feed the right
      tangential data, odd the left, exactly as {!Tangential.build}
      assigns them — an unpaired trailing sample waits in a pending
      slot for its partner.  The batch is vetted as a whole
      (dimensions, finiteness, positive distinct frequencies) before
      any state changes, so a refused batch leaves the session
      untouched.  Returns the downstream stages the append invalidated
      (outermost first; empty for hold-out appends, which never
      invalidate the model).  The ["session.stale_append"] fault forces
      the expired-session refusal path. *)
  val append :
    ?holdout:bool -> t -> Statespace.Sampling.sample array ->
    (stage list, Linalg.Mfti_error.t) result

  (** Re-run exactly the invalidated downstream stages (snapshot the
      already-assembled pencil, realify, reduce).  No-op when the
      cached reduction is current. *)
  val refit : t -> (unit, Linalg.Mfti_error.t) result

  (** Current model (refitting first if stale), uncertified until
      {!finalize}. *)
  val model : t -> (Model.t, Linalg.Mfti_error.t) result

  (** Certify per the session options and close the session: appends
      after a finalize are typed errors.  An unpaired pending sample is
      dropped (recorded in the diagnostics), mirroring
      {!Dataset.trim_even}.  The ["session.finalize_race"] fault forces
      the concurrent-finalize refusal path. *)
  val finalize : t -> (Model.t, Linalg.Mfti_error.t) result

  (** Hold-out error of the current model; [None] when the session has
      no hold-out samples (or no complete pair yet). *)
  val holdout_err : t -> (float option, Linalg.Mfti_error.t) result

  (** Furthest stage currently cached ([Assembled] as soon as one pair
      is in — the builder {e is} the assembly). *)
  val stage : t -> stage

  val dataset : t -> Dataset.t
  val fit_samples : t -> Statespace.Sampling.sample array
  val holdout_samples : t -> Statespace.Sampling.sample array
  val options : t -> options

  (** [(outputs, inputs)] — the [p x m] response shape. *)
  val dims : t -> int * int

  (** Completed-pair fit samples (excludes the pending slot). *)
  val size : t -> int

  val holdout_size : t -> int

  (** True when an unpaired sample waits for its partner. *)
  val pending : t -> bool

  val finalized : t -> bool

  (** Stages dropped by the most recent fit append. *)
  val invalidated : t -> stage list

  val diagnostics : t -> Linalg.Diag.t
  val timings : t -> (string * float) list

  (** Count one adaptive suggestion against this session (the serving
      layer calls this when it serves [fit-suggest]). *)
  val record_suggest : t -> unit

  val counters : t -> counters
end
