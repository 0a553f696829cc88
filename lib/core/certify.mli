(** Post-fit certification: stability and passivity enforcement.

    A raw interpolant of noisy data routinely carries a few poles just
    across the imaginary axis and a transfer function whose largest
    singular value grazes (or crosses) 1 where noise pushed it — and a
    macromodel with either defect can make an otherwise stable
    transient simulation blow up.  This module is the gate between the
    engine's model stage and anything durable: it {e checks} a fitted
    descriptor, optionally {e repairs} it, and emits a typed
    {!Certificate.t} recording exactly what was found and done, so the
    serving layer can admit models on evidence instead of trust.

    The pipeline (Aumann & Gosea's post-fit repair loop, PAPERS.md):

    + {b Stability.}  Finite poles with [Re >= 0] are reflected into
      the left half-plane through {!Statespace.Stabilize.reflect};
      the modal decomposition's residual is thresholded (at [1e-3])
      so an untrustworthy flip is a typed refusal, not a silently
      wrong model.
    + {b Passivity.}  The Hamiltonian test {!Rf.Passivity.check}
      (exact, cannot miss violations between samples) combined with a
      sampled [sigma_max S(jw) - 1] margin sweep over the data band,
      refined around the Hamiltonian's crossing frequencies and the
      interior of each violation band (at most 128 strided points of
      the data grid before refinement).
    + {b Perturbative repair.}  Small violations (worst sampled margin
      at most [0.25]) are repaired by contracting the model toward the
      bounded-real boundary: a pure feedthrough violation scales [D]
      alone; finite-frequency violations scale the residues ([C]) and
      [D] together by [(1 - 1e-6) / (1 + worst)].  Re-test, at most 8
      retries; anything worse is {e incurable} and refused with a
      typed error.

    The passivity level is [1 + 1e-6] throughout, the level of
    {!Rf.Passivity.check}: the margin keeps lossless boundary models
    passive.

    Every failure path is deterministic under the fault harness (see
    {!Linalg.Fault}): ["certify.unstable"] forces the post-reflection
    stability verdict to fail, ["certify.passivity_violation"] poisons
    the sampled margin to an incurable violation, and
    ["certify.repair_stall"] pins the passivity re-check to "still
    violating" so the bounded retry loop exhausts. *)

(** The evidence record carried by version-2 artifacts and printed by
    [mfti inspect]. *)
module Certificate : sig
  type t = {
    stable : bool;           (** every finite pole has [Re < 0] *)
    passive : bool;          (** Hamiltonian test clean at level
                                 [1 + 1e-6] and sampled margin
                                 within tolerance (always [false] when
                                 unstable; vacuously [true] when the
                                 passivity check was skipped) *)
    flipped : int;           (** unstable poles reflected by the repair *)
    worst_margin : float;    (** final sampled [max (sigma_max S - 1)]
                                 over the sweep — negative means a real
                                 margin; [nan] when passivity was not
                                 checked *)
    pre_margin : float;      (** the same sweep before any repair *)
    repair_iterations : int; (** passivity-repair retries performed *)
    fit_delta : float;       (** relative RMS transfer-function change
                                 introduced by the whole repair, over
                                 the sweep grid; [0.] when untouched *)
  }

  (** [passed c] — the certificate attests a servable model:
      [stable && passive]. *)
  val passed : t -> bool

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

type mode =
  | Off     (** no certification: {!run} returns the model unchanged
                with no certificate *)
  | Check   (** measure and record; never modifies the model and never
                refuses it *)
  | Repair  (** check, then enforce: reflect unstable poles,
                perturbatively restore passivity; incurable models are
                a typed {!Linalg.Mfti_error.t} refusal *)

type options = {
  mode : mode;
  check_passivity : bool;  (** [false] for Y/Z-parameter data, where
                               bounded-realness is not the right gate *)
}

(** [Repair] mode, passivity on. *)
val default_options : options

(** [run ?options ~freqs sys] certifies [sys] against the physical
    frequency band [freqs] (Hz, the fitted data's grid; the sweep is a
    strided subsample refined around detected crossings).

    - [Off]: [Ok (sys, None)] — untouched, uncertified.
    - [Check]: [Ok (sys, Some cert)] — the model is never modified;
      defects are recorded in the certificate ([passed cert = false]).
    - [Repair]: [Ok (repaired, Some cert)] with [passed cert = true],
      or a typed error — [Numerical_breakdown] for an untrustworthy
      reflection or an incurable passivity violation,
      [Non_convergence] when the bounded repair loop stalls.

    Note the repaired realization may differ from the input beyond the
    repair itself: reflection goes through
    {!Statespace.Descriptor.to_proper} and absorbs [E].  A model that
    needs no repair is returned bit-identical. *)
val run :
  ?options:options -> freqs:float array -> Statespace.Descriptor.t ->
  (Statespace.Descriptor.t * Certificate.t option, Linalg.Mfti_error.t) result
