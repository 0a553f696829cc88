(** Compiled transfer-function evaluators.

    The whole point of the reduced Loewner realization is cheap
    downstream evaluation, but the naive route still pays an
    [O(n^3)] LU solve of [(sE - A)] per frequency point.
    {!of_model} diagonalizes the pencil once — factorize [E], form
    [E^{-1}A], eigendecompose it as [V diag(poles) V^{-1}] — into
    pole–residue form

    {v H(s) = D + (C V) diag(1/(s - pole_k)) (V^{-1} E^{-1} B) v}

    after which each evaluation costs [O(n m p)].

    The diagonalization is validated before it is trusted: the
    candidate is compared against direct [C (sE - A)^{-1} B + D]
    evaluation at deterministic probe points spanning the pole band.
    When the pencil is defective (repeated poles with a deficient
    eigenvector basis), ill-conditioned, or [E] is singular even after
    {!Statespace.Descriptor.to_proper}, the compiler falls back to
    [Direct] mode and records ["compiled.defective_fallback"] in the
    ambient {!Linalg.Diag} collector.  [Direct] reduces a real source
    once to {!Statespace.Descriptor.hessenberg} form, so each point is
    one O(n^2 m) Hessenberg elimination that never inverts [E].  A
    complex (legacy v1/v2) source, or a point where that elimination
    meets a zero pivot, is evaluated by
    {!Statespace.Descriptor.eval}'s dense LU.  Either way {!eval} never
    lies: [Pole_residue] mode is only kept when it reproduces the model
    at the probes.

    In [Pole_residue] mode {!eval_grid} batches points across the
    {!Linalg.Parallel} domain pool; in [Direct] mode it runs them in
    order on one scratch.  Each point is computed independently, so
    results are bit-identical for any domain count.

    Fault-injection site: ["compiled.defective"] forces the [Direct]
    fallback (see {!Linalg.Fault}). *)

type mode =
  | Pole_residue  (** diagonalized; O(n m p) per point *)
  | Direct
      (** defective/singular fallback: the Hessenberg–triangular
          solve, O(n^2 m) per point (per-point LU for a complex
          source) *)

type t

(** [of_model model] compiles the model.  The pole–residue form is
    kept only when it reproduces the model to [1e-5] relative at every
    probe point: loose enough for the eigenvector conditioning of
    realistic Loewner realizations, tight enough to reject a defective
    pencil, which mis-evaluates by orders of magnitude. *)
val of_model : Mfti.Engine.Model.t -> t

(** Compile a bare descriptor realization. *)
val of_descriptor : Statespace.Descriptor.t -> t

val mode : t -> mode
val order : t -> int
val inputs : t -> int
val outputs : t -> int

(** The system poles ([Pole_residue] mode only; empty in [Direct]). *)
val poles : t -> Linalg.Cx.t array

(** [eval t s] is [H(s)], identical (to the compile tolerance) to
    {!Statespace.Descriptor.eval} of the source realization. *)
val eval : t -> Linalg.Cx.t -> Linalg.Cmat.t

(** [eval_freq t f] evaluates at [s = j 2 pi f].  In [Direct] mode it
    is bit-identical to [(Descriptor.eval_grid sys [|f|]).(0)] of the
    source [sys]. *)
val eval_freq : t -> float -> Linalg.Cmat.t

(** [eval_grid t freqs] evaluates every frequency, distributing
    [Pole_residue] points over the domain pool.  [eval_grid t [|f|]].(0)
    is bit-identical to [eval_freq t f] at any domain count. *)
val eval_grid : t -> float array -> Linalg.Cmat.t array
