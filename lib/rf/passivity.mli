(** Passivity verification of scattering macromodels.

    A fitted S-parameter model is passive iff its transfer matrix is
    bounded-real: [sigma_max (S(jw)) <= 1] for all [w].  Sampled checks
    ({!Sparams.is_passive_sample}) can miss violations between samples;
    the Hamiltonian test cannot: [|S|_inf < 1] holds exactly when the
    associated Hamiltonian matrix has no purely imaginary eigenvalues,
    and any such eigenvalues pinpoint the frequencies where
    [sigma_max(S(jw))] crosses 1 (Boyd–Balakrishnan–Kabamba).

    This is the standard post-fitting gate before a macromodel is handed
    to a transient simulator: a non-passive model can make an otherwise
    stable circuit blow up. *)

type verdict =
  | Passive
  | Feedthrough_violation of float
      (** [sigma_max D >= gamma]: violated at infinite frequency (the
          test precondition fails); the payload is [sigma_max D] *)
  | Violations of float list
      (** crossing frequencies in Hz, ascending: boundaries of the bands
          where [sigma_max (S(jw)) > 1] *)

(** [check sys] runs the Hamiltonian test at level
    [gamma = 1 + 1e-6]: violations are frequencies where
    [sigma_max (S(jw))] crosses [gamma].  The margin keeps physically
    borderline models — lossless circuits reflect fully at infinite
    frequency, so [sigma_max D = 1] exactly — on the passive side.  A
    crossing is a Hamiltonian eigenvalue with
    [|Re| <= 1e-8 * spectral radius] and [Im = w > 0] where [gamma] lies
    within [1e-4 * gamma] of a singular value of [S(jw)]: that rejects
    a real eigenvalue whose imaginary part is roundoff.

    Singular-[E] models are reduced with {!Statespace.Descriptor.to_proper}
    first; an index > 1 descriptor raises [Invalid_argument]. *)
val check : Statespace.Descriptor.t -> verdict

(** [max_violation sys ~freqs] supplements {!check} with a sampled upper
    bound: the largest [sigma_max (S(jw)) - 1] over the grid (negative
    when passive there). *)
val max_violation : Statespace.Descriptor.t -> freqs:float array -> float
