(** Frequency grids and frequency-response sampling.

    A {!sample} is one measured/simulated scattering (or admittance,
    impedance...) matrix at a physical frequency in Hz — the raw material
    of the interpolation algorithms (paper eq. (2)). *)

type sample = {
  freq : float;            (** physical frequency in Hz, > 0 *)
  s : Linalg.Cmat.t;       (** p x m response matrix at [freq] *)
}

(** [linspace lo hi n] — [n] uniformly spaced points including endpoints
    ([n >= 2]). *)
val linspace : float -> float -> int -> float array

(** [logspace lo hi n] — [n] log-uniformly spaced points ([lo, hi > 0]). *)
val logspace : float -> float -> int -> float array

(** [clustered ~lo ~hi ~split ~fraction n] puts [fraction] of the points
    uniformly in the upper band [[split, hi]] and the rest in
    [[lo, split]] — the paper's Test 2 "poorly distributed samples
    concentrated in the high-frequency band". *)
val clustered : lo:float -> hi:float -> split:float -> fraction:float -> int -> float array

(** [sample_system sys freqs] evaluates the transfer function of [sys] at
    [j 2 pi f] for every [f]. *)
val sample_system : Descriptor.t -> float array -> sample array

(** [of_matrices freqs ms] zips explicit data into samples. *)
val of_matrices : float array -> Linalg.Cmat.t array -> sample array

(** All samples share the response dimensions of the first; returns
    [(p, m)].  Raises on empty or inconsistent arrays. *)
val port_dims : sample array -> int * int

(** [max_conjugate_mismatch sys freqs] is the largest deviation of
    [H(-j w)] from [conj (H(j w))] over the grid — zero for real systems. *)
val max_conjugate_mismatch : Descriptor.t -> float array -> float

(** [interpolate samples freqs] resamples measured data onto a new grid
    by entrywise linear interpolation (in frequency) between the two
    bracketing samples; frequencies outside the measured band clamp to
    the nearest endpoint.  Useful for aligning two measurement grids —
    NOT a substitute for rational fitting.  The input must be sorted by
    frequency (Touchstone readers guarantee this). *)
val interpolate : sample array -> float array -> sample array

(** [symmetrize samples] replaces each matrix by [(S + S^T)/2] —
    enforcing the reciprocity that passive RLC devices must satisfy but
    measurement noise breaks.  Fitting symmetrized data halves the noise
    on off-diagonal entries. *)
val symmetrize : sample array -> sample array

(** [partition ~every samples] splits the array into
    [(fit, holdout)] where every [every]-th sample (1-based positions
    [every, 2*every, ...]) goes to the hold-out set and the rest stay
    for fitting.  Order is preserved in both halves.  Raises
    [Invalid_argument] when [every < 2]. *)
val partition : every:int -> sample array -> sample array * sample array

(** [fault_corrupt samples] is the ["sample.corrupt"] fault-injection
    point: when armed it returns a copy with a NaN planted in the first
    response matrix (the caller's array is untouched); otherwise it
    returns [samples] as-is.  The fitting drivers route their input
    through it so the validation gate can be tested deterministically. *)
val fault_corrupt : sample array -> sample array

(** [validate samples] checks the whole array is fit-ready: non-empty,
    consistent dimensions, finite positive frequencies, finite entries.
    The strict-mode gate of the fitting pipeline. *)
val validate : sample array -> (unit, Linalg.Mfti_error.t) result

(** [scrub samples] is the lenient counterpart of {!validate}: samples
    with non-finite frequencies/entries and duplicate frequencies (first
    wins) are dropped instead of rejected, each drop recorded in the
    ambient {!Linalg.Diag} collector under ["sampling.scrub"]. *)
val scrub : sample array -> sample array
