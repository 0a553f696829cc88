(** Stability enforcement for fitted macromodels.

    Interpolation of noisy data routinely produces models with a few
    poles just across the imaginary axis.  The standard repair — the
    state-space analogue of vector fitting's pole flipping — reflects
    every unstable eigenvalue into the left half-plane through a modal
    (eigenvector) transformation, leaving the stable modes bit-exact.
    The transfer function changes only by the reflected modes'
    contributions, which for near-axis noise poles is below the noise
    floor.

    Requires a diagonalizable proper part; singular-[E] models go
    through {!Descriptor.to_proper} first. *)

type result = {
  model : Descriptor.t;
  flipped : int;          (** number of reflected eigenvalues *)
  max_residual : float;   (** worst relative eigen-residual of the modal
                              decomposition — a sanity indicator, small
                              (<1e-6) when the flip is trustworthy *)
}

(** [reflect ?max_residual sys] mirrors eigenvalues with [Re >= 0] to
    [Re = -max(|Re|, 1e-9 * |eig|)].  A model that is already stable is returned
    unchanged (with [flipped = 0]).

    Failure is typed, never [Invalid_argument], so the certification
    pipeline can degrade gracefully: when the modal decomposition's
    worst relative eigen-residual exceeds [max_residual] (default
    [infinity], i.e. never) the flip is untrustworthy and
    {!Linalg.Mfti_error.Error} is raised with [Numerical_breakdown]
    carrying the residual as its condition estimate; a pencil whose [E]
    stays singular after index reduction raises the same typed error. *)
val reflect : ?max_residual:float -> Descriptor.t -> result
