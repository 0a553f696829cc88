(** Realification of the Loewner pencil — paper Lemma 3.2.

    With conjugate sample pairs adjacent and real directions, the block
    transform [T = blkdiag(T_1, T_3, ...)],
    [T_i = (1/sqrt 2) [[I, -jI], [I, jI]]], makes
    [T_l^* LL T_r], [T_l^* sLL T_r], [T_l^* V] and [W T_r] real, so the
    final model has real state-space matrices. *)

(** [transform_matrix sizes] builds the [K x K] unitary [T] for blocks
    whose widths are [sizes] (which must come in equal adjacent pairs:
    [t; t; t'; t'; ...]). *)
val transform_matrix : int array -> Linalg.Cmat.t

(** [apply loewner] returns the transformed pencil.  The [lambda]/[mu]
    arrays are preserved untouched (they no longer diagonalize the
    Sylvester identities after the similarity — only the matrices
    change).  Raises [Invalid_argument] if the block structure is not
    conjugate-paired. *)
val apply : Loewner.t -> Loewner.t
