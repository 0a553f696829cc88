(** Tangential rational Krylov pre-reduction for sparse MNA systems.

    MFTI interpolates {e measured} transfer data; for a synthesized
    100k-node power-grid netlist there is no instrument — sampling the
    full system densely enough to feed the Loewner pencil would itself
    be the dominant cost.  This module closes the gap: a moment-matching
    projection built from sparse shifted solves

    {v  X_i = (sigma_i C + G)^{-1} B  v}

    compresses the MNA descriptor [(s C + G) x = B u, y = L x] to a few
    hundred states at a cost of one sparse LU per shift.  The AMD
    ordering is computed once for the sweep, the first shift is
    factored in full, and every later shift is a numeric-only
    {!Sparse.Slu.refactor} on that pivot sequence and pattern (with a
    full refactorization when a reused pivot degrades).  The reduced
    model interpolates the full transfer function at every shift;
    adaptive rounds add shifts where
    a held-out probe says the response is not yet pinned down, reusing
    {!Adaptive.suggest} once enough probes have accumulated.

    The first round runs as two lanes on the {!Linalg.Parallel} pool.
    Lane A, on the calling domain, is the shift chain above: the first
    shift factored in full, every later shift refactored on its
    predecessor, with the basis and the projection.  Lane B factors the
    hold-out probes (those that are not also initial shifts) on its own
    base: a full factorization at the highest probe, with threshold
    pivoting that keeps the ordering's diagonal ({!Sparse.Slu.factorize}
    [~diagonal:1e-2]), then each lower probe refactored on the one
    above; it keeps only [L X] per probe.  Each lane steps one
    {!Sparse.Slu.sweep}, whose buffers the calling domain allocated
    once per reduction.  The lanes share nothing
    they write, so the basis, the model and every count are the same
    at any pool size: at one domain, or while the pool is busy, they
    run inline one after the other.  Adaptive rounds, after the join,
    continue lane A's chain; a probe they pick as a shift is solved
    again there.

    The basis is kept {e real} — each complex block contributes
    [[Re X, Im X]] — so the reduced model is real and matches both
    [H(sigma)] and [H(conj sigma)]: the downstream realify / certify
    stages see exactly the model class they expect.  Each block is
    orthonormalized in real arithmetic, in place: two passes of block
    Gram-Schmidt against the basis, then per-column Gram-Schmidt (two
    passes, against the basis and the columns already accepted) with
    an angle-threshold deflation of converged directions.

    The output is an {!Engine.Model.t}, so certification, packing and
    serving work unchanged; {!fit_mfti} goes one step further and runs
    the staged MFTI engine on samples of the reduced model — the
    [krylov+mfti] strategy: sparse physics to a few hundred states,
    tangential interpolation down to tens. *)

(** The sparse first-order system [(s C + G) x = B u, y = L x] —
    exactly what {!Rf.Mna.sparse_system} produces.  All four matrices
    must be real (zero imaginary parts): the basis and the reduced
    model are. *)
type system = {
  g : Sparse.Scsr.t;       (** conductance part, [n x n] *)
  c : Sparse.Scsr.t;       (** susceptance part, [n x n] *)
  b : Linalg.Cmat.t;       (** port injection, [n x m] *)
  l : Linalg.Cmat.t;       (** port selection, [p x n] *)
}

(** Build the system from an assembled MNA circuit. *)
val of_mna : Rf.Mna.t -> system

type options = {
  f_lo : float;            (** band of interest, Hz *)
  f_hi : float;
  shifts : int;            (** initial log-spaced interpolation shifts *)
  max_order : int;         (** hard cap on the reduced order *)
  tol : float;             (** stop when the max relative hold-out
                               error drops below this *)
  holdout : int;           (** held-out probe frequencies (interleaved
                               with the shift grid, never equal to a
                               shift) *)
  z0 : float option;       (** when set, convert the reduced impedance
                               model to scattering parameters at this
                               reference before returning *)
}

(** [1e4 .. 1e10] Hz, 8 initial shifts, order cap 240, [tol = 1e-6],
    9 hold-out probes, [z0 = None].  Each adaptive round adds up to 4
    shifts, for at most 6 rounds; a basis candidate deflates when its
    residual after re-orthogonalization falls below [1e-8] of its
    block norm. *)
val default_options : options

type reduction = {
  model : Engine.Model.t;    (** the reduced descriptor, wrapped *)
  order : int;               (** retained reduced order *)
  shift_freqs : float array; (** every shift frequency used, in the
                                 order the basis absorbed them *)
  history : float array;     (** max relative hold-out error after
                                 each round *)
  factorizations : int;      (** sparse LU factorizations performed,
                                 in both lanes *)
  timings : (string * float) list;
      (** ["ordering"], ["factor"], ["basis"], ["project"],
          ["evaluate"] times in seconds, measured on the domain that
          did the work.  ["factor"] sums every factorization {e and}
          its solve against [B] over both lanes, so with the probe
          lane on a second domain it can exceed the wall time of the
          first round it overlaps; ["basis"] is the orthonormalization
          alone, ["evaluate"] the reduced model at the probes. *)
}

(** [reduce ?options sys] runs the projection.  Ill-posed options,
    empty or complex systems are [Validation] errors; a singular shifted pencil
    surfaces as the underlying {!Sparse.Slu} [Numerical_breakdown].
    Deterministic: same system, same options, same model. *)
val reduce : ?options:options -> system -> (reduction, Linalg.Mfti_error.t) result

(** [fit_mfti ?options ?fit_options ?fit_points sys] is the
    [krylov+mfti] strategy: {!reduce}, sample the reduced model at
    [fit_points] (default 128) log-spaced frequencies over the band,
    and run the staged engine ({!Engine.strategy} [Direct]) on those
    samples.  [fit_options.certify] controls certification of the
    final model exactly as in a dense fit.  Returns the MFTI model
    together with the intermediate Krylov result. *)
val fit_mfti :
  ?options:options -> ?fit_options:Engine.options -> ?fit_points:int ->
  system -> (Engine.Model.t * reduction, Linalg.Mfti_error.t) result
