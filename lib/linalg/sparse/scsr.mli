(** Complex sparse matrices in compressed-sparse-row form.

    Assembly goes through a triplet {!builder} backed by growable
    unboxed arrays; {!compress} sorts, merges duplicate coordinates by
    summation, and drops entries that cancelled to exactly zero.  The
    matvec kernels distribute rows (or right-hand-side columns) over
    the {!Linalg.Parallel} domain pool with a fixed per-element
    reduction order, so results are bit-identical at any pool size. *)

type builder

type t = private {
  rows : int;
  cols : int;
  rowptr : int array;   (** length [rows + 1] *)
  colind : int array;   (** column indices, sorted within each row *)
  re : float array;
  im : float array;
}

(** [create ?hint ~rows ~cols] starts a triplet builder; [hint] is the
    expected number of entries (capacity only, not a bound). *)
val create : ?hint:int -> rows:int -> cols:int -> unit -> builder

(** [add b i j z] records [z] at [(i, j)].  Duplicate coordinates
    accumulate at {!compress}.  Exact zeros are skipped. *)
val add : builder -> int -> int -> Linalg.Cx.t -> unit

(** [add_real b i j x] is [add] with a purely real value. *)
val add_real : builder -> int -> int -> float -> unit

(** Triplets recorded so far. *)
val pending : builder -> int

(** Freeze the builder into a compressed matrix.  The builder remains
    usable (compress again after more [add]s to get a superset). *)
val compress : builder -> t

val nnz : t -> int
val dims : t -> int * int
val rows : t -> int
val cols : t -> int

(** [mul_vec a x] is [a * x] for a column vector [x]. *)
val mul_vec : t -> Linalg.Cmat.t -> Linalg.Cmat.t

(** [mul_mat a x] is the sparse-dense product [a * x]. *)
val mul_mat : t -> Linalg.Cmat.t -> Linalg.Cmat.t

(** [scale_add ~alpha a ~beta b] is [alpha*a + beta*b].  The result
    pattern is the union of the operand patterns even where values
    cancel, so a fill-reducing ordering computed on one [alpha, beta]
    combination stays valid for every other — the contract the
    frequency sweep relies on. *)
val scale_add : alpha:Linalg.Cx.t -> t -> beta:Linalg.Cx.t -> t -> t

(** [scale_add_into dst ~alpha a ~beta b] overwrites the values of
    [dst] with those of [scale_add ~alpha a ~beta b], bit for bit and
    without allocating.  [dst] must have that union pattern (it is a
    previous [scale_add] of the same operands); any other pattern, or
    mismatched dimensions, raise [Invalid_argument], possibly after
    some values were written. *)
val scale_add_into :
  t -> alpha:Linalg.Cx.t -> t -> beta:Linalg.Cx.t -> t -> unit

val transpose : t -> t

(** [permute t ~perm] applies a symmetric permutation to a square
    matrix: entry [(perm.(i'), perm.(j'))] of [t] lands at [(i', j')].
    [perm.(new_position) = original_index], the convention used by the
    ordering and LU modules. *)
val permute : t -> perm:int array -> t

val to_dense : t -> Linalg.Cmat.t

(** [of_dense ?drop_tol d] keeps entries with modulus above
    [drop_tol] (default [0.], i.e. keep all nonzeros). *)
val of_dense : ?drop_tol:float -> Linalg.Cmat.t -> t

(** True when every stored entry is finite. *)
val is_finite : t -> bool
