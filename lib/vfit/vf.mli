(** Matrix vector fitting (Gustavsen–Semlyen) with common poles.

    The Table 1 baseline: iterative sigma/pole-relocation rational
    fitting of sampled frequency responses.  All least-squares problems
    use the real-coefficient basis of {!Basis}, so fitted models are
    real.  Pole identification stacks a configurable subset of matrix
    entries (fitting all [p*m] entries is the textbook method but is
    quadratically expensive; the diagonal subset is the standard
    engineering compromise) and eliminates the entry-local unknowns with
    a per-entry QR, keeping only the shared sigma block.  Residues are
    then identified for every entry against the final poles in one
    multi-RHS solve.  Relocated poles in the right half-plane are
    always reflected into the left. *)

type entry_selection =
  | Diagonal          (** the [min(p,m)] diagonal entries *)
  | All               (** every entry (slow for many ports) *)
  | First of int      (** the first [q] entries in row-major order *)

type options = {
  n_poles : int;
  iterations : int;          (** sigma iterations (the paper uses 10) *)
  selection : entry_selection;
}

val default_options : options

type model = {
  basis : Basis.t;
      (** poles in *normalized* frequency [s' = s / w_scale]; use
          {!poles} for physical values *)
  coeffs : Linalg.Cmat.t array;
      (** one real [p x m] coefficient matrix per basis function *)
  d : Linalg.Cmat.t;         (** real [p x m] feedthrough *)
  w_scale : float;
      (** frequency normalization (rad/s): fitting runs with the band's
          upper edge at [|s'| = 1], the standard VF conditioning trick *)
}

type diagnostics = {
  iterations_run : int;
  pole_history : Linalg.Cx.t array array;  (** poles after each iteration *)
}

(** [fit ?options samples] runs the full loop.  Raises
    [Invalid_argument] on empty samples or non-positive frequencies. *)
val fit :
  ?options:options -> Statespace.Sampling.sample array -> model * diagnostics

(** Transfer-function evaluation [H(s) = D + sum coeffs_n phi_n(s)]. *)
val eval : model -> Linalg.Cx.t -> Linalg.Cmat.t

val eval_freq : model -> float -> Linalg.Cmat.t

(** Number of poles (the "reduced order" a VF user reports). *)
val order : model -> int

(** The conjugate-closed pole list. *)
val poles : model -> Linalg.Cx.t array

(** Real state-space realization of order [n_poles * m] (Gilbert form).
    Exact but large; intended for small fits fed to transient analysis. *)
val to_descriptor : model -> Statespace.Descriptor.t

(** Wrap as a sampled-error-compatible object: evaluates [eval_freq] on
    each sample frequency and reports the paper's ERR metric. *)
val err : model -> Statespace.Sampling.sample array -> float

(** [fit_model ?options samples] runs {!fit} and wraps the realized
    descriptor as a unified {!Mfti.Engine.Model.t} — same surface as the
    Loewner-framework fits (eval, poles, save, error metrics), with the
    sigma-iteration count in the model stats and the wall time under the
    ["fit"] timing key. *)
val fit_model :
  ?options:options -> Statespace.Sampling.sample array -> Mfti.Engine.Model.t
