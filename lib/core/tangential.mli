(** Matrix-format tangential interpolation data — paper eqs. (6)-(9).

    Sampled matrices are split into right data (odd-position samples) and
    left data (even-position samples), each closed under conjugation so
    a real model exists: for every block [(lambda, R, W)] the array also
    contains [(conj lambda, R, conj W)] immediately after it (directions
    are real, so they are shared).  VFTI is the special case where every
    block has width 1. *)

type right_block = {
  lambda : Linalg.Cx.t;   (** interpolation point, [j 2 pi f] or conjugate *)
  r : Linalg.Cmat.t;      (** m x t direction *)
  w : Linalg.Cmat.t;      (** p x t data, [W = S R] *)
}

type left_block = {
  mu : Linalg.Cx.t;
  l : Linalg.Cmat.t;      (** t x p direction *)
  v : Linalg.Cmat.t;      (** t x m data, [V = L S] *)
}

type t = {
  right : right_block array;  (** conjugate pairs adjacent: [b0; conj b0; ...] *)
  left : left_block array;
  inputs : int;               (** m *)
  outputs : int;              (** p *)
}

(** Block widths [t_i], the paper's speed/accuracy/weighting knob. *)
type weight =
  | Full                  (** t_i = min(m, p): use every entry (Lemma 3.1) *)
  | Uniform of int        (** the same 1 <= t <= min(m,p) everywhere *)
  | Per_sample of int array
      (** one width per sample, in sample order; lets ill-conditioned
          samples be down/up-weighted (Table 1 "weight 1/2") *)

(** [build ?directions ?weight samples] constructs the MFTI data.
    Requires an even number (>= 2) of samples with distinct positive
    frequencies; raises [Invalid_argument] otherwise (use {!trim_even}).
    Samples at even positions (0-based) feed the right data, odd
    positions the left data, mirroring eqs. (6)-(7). *)
val build :
  ?directions:Direction.kind -> ?weight:weight ->
  Statespace.Sampling.sample array -> t

(** [build_vector ?directions samples] is the VFTI special case: width-1
    blocks (paper Section 2.1). *)
val build_vector :
  ?directions:Direction.kind -> Statespace.Sampling.sample array -> t

(** [pair ?directions ~block ~right_width ~left_width sr sl] builds the
    tangential blocks for one sample pair: [sr] feeds the right data,
    [sl] the left.  Returns [((orig, conj) right, (orig, conj) left)] —
    the conjugate-closure blocks adjacent ordering {!build} uses.  This
    is the per-pair unit an incremental driver appends one at a time. *)
val pair :
  ?directions:Direction.kind -> block:int -> right_width:int ->
  left_width:int -> Statespace.Sampling.sample -> Statespace.Sampling.sample ->
  (right_block * right_block) * (left_block * left_block)

(** Drop the last sample when the count is odd. *)
val trim_even : Statespace.Sampling.sample array -> Statespace.Sampling.sample array

(** Total right width [sum t_i] (columns of the Loewner matrix). *)
val right_width : t -> int

(** Total left width (rows of the Loewner matrix). *)
val left_width : t -> int

(** Right block widths in order (for the realification transform). *)
val right_sizes : t -> int array

val left_sizes : t -> int array

(** Largest interpolation residual of eq. (10) over all blocks: the
    right condition [|H(lambda) R - W|_F] and the left condition
    [|L H(mu) - V|_F]. *)
val max_residual : Statespace.Descriptor.t -> t -> float
