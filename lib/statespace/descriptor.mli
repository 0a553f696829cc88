(** Descriptor (generalized state-space) systems.

    [E x' = A x + B u,  y = C x + D u] — paper eq. (1).  [E] may be
    singular; the only requirement for frequency-domain evaluation is
    that the pencil [sE - A] is regular at the evaluation points.
    Matrices are complex; models produced by the realified MFTI pipeline
    have numerically real entries (see {!is_real}). *)

type t = private {
  e : Linalg.Cmat.t;  (** n x n *)
  a : Linalg.Cmat.t;  (** n x n *)
  b : Linalg.Cmat.t;  (** n x m *)
  c : Linalg.Cmat.t;  (** p x n *)
  d : Linalg.Cmat.t;  (** p x m *)
}

(** [create ~e ~a ~b ~c ~d] checks dimension consistency. *)
val create :
  e:Linalg.Cmat.t -> a:Linalg.Cmat.t -> b:Linalg.Cmat.t -> c:Linalg.Cmat.t ->
  d:Linalg.Cmat.t -> t

(** [of_state_space ~a ~b ~c ~d] uses [E = I]. *)
val of_state_space :
  a:Linalg.Cmat.t -> b:Linalg.Cmat.t -> c:Linalg.Cmat.t -> d:Linalg.Cmat.t -> t

(** State dimension [n]. *)
val order : t -> int

(** Number of inputs [m]. *)
val inputs : t -> int

(** Number of outputs [p]. *)
val outputs : t -> int

exception Singular_pencil of Linalg.Cx.t
(** Raised by MNA netlist evaluation when [sE - A] is singular at the
    requested point.  {!eval} itself no longer raises it: an exactly
    singular pencil goes through the column-pivoted QR fallback of
    {!Linalg.Lu.solve_robust}, which records ["lu.qr_fallback"] in the
    ambient {!Linalg.Diag} collector and returns the minimum-norm
    solution. *)

(** [eval sys s] is the transfer matrix [H(s) = C (sE - A)^{-1} B + D].
    Never raises on singular pencils — see {!Singular_pencil}. *)
val eval : t -> Linalg.Cx.t -> Linalg.Cmat.t

(** [eval_freq sys f] evaluates at [s = j 2 pi f]. *)
val eval_freq : t -> float -> Linalg.Cmat.t

(** Hessenberg–triangular form of an exactly real model: orthogonal
    [Q], [Z] (products of Givens rotations, the first stage of Moler &
    Stewart's QZ) with [H = Q^T A Z] upper Hessenberg and
    [T = Q^T E Z] upper triangular, stored with [Q^T B], [C Z] and
    [D].  Then [H(s) = C Z (sT - H)^{-1} Q^T B + D], and [E] is never
    inverted, so a nearly singular [E] costs nothing extra.  Immutable:
    one form may be shared between domains. *)
type hessenberg

(** [hessenberg sys] reduces [sys] once, in O(n^3).  [None] when the
    order is 0, when [E], [A], [B] or [C] has a nonzero imaginary
    entry, or when the ["lu.singular"] fault is armed (so the fault
    keeps every point on {!eval}'s LU path). *)
val hessenberg : t -> hessenberg option

(** [hessenberg_eval form s] is [H(s)] by one O(n^2 m) Gaussian
    elimination on the Hessenberg [sT - H], pivoting between adjacent
    rows; [None] on a zero pivot, where {!eval}'s QR fallback applies.
    Partial application [hessenberg_eval form] allocates the scratch,
    and the returned function reuses it: give each domain its own.
    Its answers do not depend on what it evaluated before. *)
val hessenberg_eval : hessenberg -> Linalg.Cx.t -> Linalg.Cmat.t option

(** [eval_grid sys freqs] is [Array.map (eval_freq sys) freqs] up to
    roundoff: the {!hessenberg} form built once, then {!hessenberg_eval}
    at each point, with {!eval_freq} where there is no form or the
    elimination meets a zero pivot. *)
val eval_grid : t -> float array -> Linalg.Cmat.t array

(** [dc_gain sys] is [H(0)]. *)
val dc_gain : t -> Linalg.Cmat.t

(** True when every matrix's largest imaginary part is at most [1e-8]
    of its Frobenius norm. *)
val is_real : t -> bool

(** [to_proper ?rtol sys] eliminates the algebraic (singular-[E]) part:
    the state space is split along the singular vectors of [E] and the
    algebraic states are solved out (index-1 Kron reduction), giving an
    equivalent model with nonsingular [E] and an explicit feedthrough
    [D].  The transfer function is preserved exactly.  MNA netlists and
    noise-free Loewner models are the typical inputs.

    [rtol] is the relative rank cut on the singular values of [E]
    (default [1e-11]).  Raises [Invalid_argument] when the algebraic
    subsystem is itself singular (a higher-index descriptor, e.g. a pure
    C-loop); such circuits need topological preprocessing first. *)
val to_proper : ?rtol:float -> t -> t

val pp : Format.formatter -> t -> unit

(** [save path sys] writes the model as a plain-text file (dimensions,
    then E, A, B, C, D entries as "re im" pairs, row-major) — a stable
    interchange format that diffs cleanly and loads anywhere. *)
val save : string -> t -> unit

(** [load path] reads a model written by {!save}.  Raises [Failure] with
    a location message on malformed input. *)
val load : string -> t
