(** Deterministic fault injection for the robustness test harness.

    A spec is a comma-separated list of site names, e.g.
    [MFTI_FAULT="svd.no_converge,pool.worker"].  When a site is armed
    its injection point fires on every visit, with no randomness, so a
    failing scenario replays exactly.  With no spec every injection
    point is a no-op costing one atomic read.

    Sites used by the library (layers above add their own):
    - ["touchstone.corrupt"]   garbage token prepended to parser input
    - ["sample.corrupt"]       NaN written into the first fitted sample
    - ["loewner.poison"]       NaN written into the assembled pencil
    - ["svd.no_converge"]      sweep/iteration budgets collapsed to force
                               the SVD non-convergence cascade
    - ["svd.rsvd.degrade"]     randomized-SVD residual certificate
                               poisoned to infinity, so the reduce stage
                               deterministically takes the exact-cascade
                               fallback (recorded as ["svd.rsvd.fallback"]
                               in {!Diag}; the sketch's own Householder
                               retreat is ["svd.rsvd.cholqr_fallback"])
    - ["lu.singular"]          LU factorization reports pivot breakdown
    - ["pool.worker"]          domain-pool worker raises mid-chunk
    - ["algorithm2.diverge"]   recursion residuals inflated to trigger
                               the divergence guard
    - ["artifact.corrupt"]     header byte flipped in an encoded model
                               artifact (serving layer)
    - ["artifact.truncate"]    encoded model artifact cut short
    - ["compiled.defective"]   pole-residue compilation forced into the
                               [Direct] fallback, which serves the
                               Hessenberg–triangular solve
    - ["serve.torn_write"]     artifact save killed mid-write: half the
                               bytes reach the temp file, no rename
    - ["serve.slow_client"]    supervisor treats a partial request frame
                               as having blown its read deadline
    - ["serve.stall"]          request handler sleeps past the request
                               deadline, forcing a "timeout" response
    - ["serve.conn_drop"]      worker raises mid-connection, exercising
                               the supervisor restart/backoff path
    - ["certify.unstable"]     certification's stability verdict forced
                               false: in [Check] mode the certificate
                               reports [stable = false], in [Repair]
                               mode the post-reflection re-check fails
                               and the model is refused with a typed
                               [Numerical_breakdown]
    - ["certify.passivity_violation"]
                               certification's sampled passivity margin
                               forced above the perturbative repair
                               limit, so [Repair] refuses the model as
                               incurable ([Numerical_breakdown])
    - ["certify.repair_stall"] certification's passivity re-check pinned
                               to "still violating", so the bounded
                               repair loop exhausts and [Repair] fails
                               with a typed [Non_convergence]
    - ["session.stale_append"] a streaming fit session treats the next
                               append as landing on an expired/stale
                               session and refuses it with a typed
                               [Validation] — the client raced the TTL
                               reaper
    - ["session.finalize_race"]
                               a streaming fit session's finalize
                               behaves as if another finalize is
                               already in flight and refuses with a
                               typed [Validation] — two clients racing
                               one session id
    - ["sparse.singular_pivot"]
                               sparse LU reports a zero pivot at the
                               first elimination step, surfacing the
                               typed [Numerical_breakdown] a singular
                               shifted pencil would produce
    - ["sparse.ordering_degrade"]
                               AMD ordering abandoned: the natural
                               (identity) permutation is returned and
                               the degradation recorded in {!Diag}, so
                               fill blow-ups stay observable
    - ["router.partition"]     the routing tier treats its first
                               configured replica as network-partitioned:
                               requests and health probes to it fail at
                               the connection level, exercising failover
                               along the hash ring and the Down/rejoin
                               path
    - ["router.slow_replica"]  requests routed to the first configured
                               replica are treated as having blown the
                               upstream deadline: the client gets a
                               typed "timeout" response and the router
                               does NOT fail over (the work may still
                               land there; re-running it elsewhere would
                               double-execute)
    - ["router.rejoin_flap"]   health probes of the first configured
                               replica alternate failed/ok, so the
                               replica churns Up/Suspect and the ring's
                               rejoin logic (pool flush, backoff reset,
                               no double-execution) is exercised
                               repeatedly *)

exception Injected of string
(** Raised by {!check} at an armed site. *)

(** [armed site] is true when [site] appears in the active spec. *)
val armed : string -> bool

(** [check site] raises [Injected site] when armed, else does nothing. *)
val check : string -> unit

(** [poison site x] is [nan] when armed, else [x]. *)
val poison : string -> float -> float

(** [set_spec (Some "a,b")] replaces the active spec; [set_spec None]
    clears it.  The [MFTI_FAULT] environment variable is read once, on
    first use, unless a spec was set first. *)
val set_spec : string option -> unit

(** [with_spec s f] runs [f] with spec [s] active, restoring the
    previous spec afterwards (also on exceptions). *)
val with_spec : string -> (unit -> 'a) -> 'a
