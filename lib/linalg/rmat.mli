(** Dense real matrices.

    Storage is column-major ([a.(i + j*rows)]) so that the column-oriented
    factorization kernels (QR, Jacobi SVD) touch contiguous memory.
    Indices are zero-based.  All operations allocate fresh results unless
    the name says otherwise ([set], [set_sub], ...). *)

type t = private { rows : int; cols : int; data : float array }

val create : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val zeros : int -> int -> t

(** [of_rows [[a;b]; [c;d]]] builds a matrix from row lists. *)
val of_rows : float list list -> t

val random : Rng.t -> int -> int -> t
val dims : t -> int * int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val transpose : t -> t
val map : (float -> float) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val neg : t -> t
val col : t -> int -> float array
val row : t -> int -> float array
val set_col : t -> int -> float array -> unit

(** [sub_matrix a ~r ~c ~rows ~cols] copies the given block. *)
val sub_matrix : t -> r:int -> c:int -> rows:int -> cols:int -> t

val set_sub : t -> r:int -> c:int -> t -> unit
val hcat : t -> t -> t
val vcat : t -> t -> t

(** [mul a b] is [a b]; [mul_tn a b] is [a^T b] without forming the
    transpose.  Both split result columns over the {!Parallel} pool,
    bit-identically at any domain count. *)
val mul : t -> t -> t
val mul_tn : t -> t -> t

(** C column kernels, for [i] in [[ilo, ihi)], [j] in [[j0, j1)]:
    [dot_block a b c kk ldc ilo ihi j0 j1] sets [c.(i + j*ldc)] to
    [a(:,i) . b(:,j)] (columns of length [kk]); [axpy_block a c y rows
    ldc ilo ihi j0 j1] adds [sum_i a(:,i) c.(i + j*ldc)] to [y(:,j)].
    Reduction order is fixed by the shapes, so [j] splits freely. *)
external dot_block : float array -> float array -> float array -> int ->
  int -> int -> int -> int -> int -> unit
  = "mfti_dot_block_byte" "mfti_dot_block" [@@noalloc]
external axpy_block : float array -> float array -> float array -> int ->
  int -> int -> int -> int -> int -> unit
  = "mfti_axpy_block_byte" "mfti_axpy_block" [@@noalloc]

val norm_fro : t -> float
val max_abs : t -> float
val trace : t -> float
val equal : tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
