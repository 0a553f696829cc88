(** Stability enforcement for fitted macromodels.

    Interpolation of noisy data routinely produces models with a few
    poles just across the imaginary axis.  The standard repair — the
    state-space analogue of vector fitting's pole flipping — reflects
    every unstable eigenvalue into the left half-plane through a modal
    (eigenvector) transformation.  It keeps the stable eigenvalues,
    every residue and each reflected term's magnitude
    [|r / (jw - lambda)|] (only the sign of [Re lambda] changes), but
    not that term's phase, so H moves by as much as the reflected modes
    contribute.  On fitted models that is often far above the noise
    floor: reflection took Table 1's t=2 MFTI models from ERR 0.12 to
    3.1 (Test 1) and 0.15 to 2.7 (Test 2), and the fit-touchstone
    benchmark's noisy board from 0.005 to 0.894.

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
