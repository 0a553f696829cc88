(** Dense complex matrices.

    The real and imaginary parts are stored in two separate column-major
    [float array]s, which keeps every arithmetic kernel on unboxed floats
    (a boxed [Complex.t array array] is several times slower and GC-heavy
    at the sizes the Loewner pipeline produces).  Indices are zero-based.

    Vectors are represented as [n x 1] matrices throughout the library. *)

type t = private { rows : int; cols : int; re : float array; im : float array }

val create : int -> int -> t
val zeros : int -> int -> t
val init : int -> int -> (int -> int -> Cx.t) -> t
val identity : int -> t

(** [scalar z] is the 1x1 matrix [[z]]. *)
val scalar : Cx.t -> t

(** [of_rows [[a;b];[c;d]]] builds from row lists of complex entries. *)
val of_rows : Cx.t list list -> t

(** [of_real r] embeds a real matrix ([im = 0]). *)
val of_real : Rmat.t -> t

(** [col_vector [| ... |]] is an [n x 1] matrix. *)
val col_vector : Cx.t array -> t

(** Entries i.i.d. standard complex Gaussian. *)
val random : Rng.t -> int -> int -> t

(** Real Gaussian entries (imaginary part zero). *)
val random_real : Rng.t -> int -> int -> t

val dims : t -> int * int
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
val copy : t -> t
val map : (Cx.t -> Cx.t) -> t -> t
val mapi : (int -> int -> Cx.t -> Cx.t) -> t -> t
val iteri : (int -> int -> Cx.t -> unit) -> t -> unit
val transpose : t -> t

(** Conjugate (Hermitian) transpose [A*]. *)
val ctranspose : t -> t

val conj : t -> t
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : Cx.t -> t -> t
val scale_float : float -> t -> t

(** Matrix product.  Small products use a scalar kernel; above roughly
    [32^3] multiply-adds a cache-blocked kernel takes over: the left
    operand is packed as [conj(A)^T], the outer loop over result
    columns is distributed across the {!Parallel} domain pool, and the
    per-entry dot products run in a vectorized C microkernel.  Results
    are independent of the domain count (identical chunking-invariant
    per-entry reductions), though not bit-identical to the scalar
    reference — agreement is at rounding level (relative [1e-15]ish). *)
val mul : t -> t -> t

(** [mul_cn a b] is [ctranspose a * b] without forming the transpose.
    Same small/blocked dispatch as {!mul}. *)
val mul_cn : t -> t -> t

(** The pre-blocking scalar kernels, exported as the benchmark baseline
    (and used internally as the small-size fast path). *)
val mul_reference : t -> t -> t

val mul_cn_reference : t -> t -> t

(** [axpy alpha x y] returns [alpha*x + y]. *)
val axpy : Cx.t -> t -> t -> t

val col : t -> int -> t
val row : t -> int -> t
val set_col : t -> int -> t -> unit
val sub_matrix : t -> r:int -> c:int -> rows:int -> cols:int -> t
val set_sub : t -> r:int -> c:int -> t -> unit

(** [select_rows a idx] keeps the listed rows, in order. *)
val select_rows : t -> int array -> t

val select_cols : t -> int array -> t
val hcat : t -> t -> t
val vcat : t -> t -> t

(** [blocks [[a;b];[c;d]]] assembles a block matrix. *)
val blocks : t list list -> t

(** Block-diagonal assembly. *)
val blkdiag : t list -> t

val trace : t -> Cx.t
val norm_fro : t -> float

(** Largest entry modulus. *)
val max_abs : t -> float

(** Spectral norm estimate is in {!Svd}; [norm_one] is the max column sum. *)
val norm_one : t -> float

(** True when every entry is finite (no NaN / infinity in either part). *)
val is_finite : t -> bool

(** Euclidean norm of an [n x 1] or [1 x n] matrix. *)
val vec_norm : t -> float

(** Hermitian inner product [x* y] of two vectors (as 1x1 matrices' entry). *)
val vec_dot : t -> t -> Cx.t

val real_part : t -> Rmat.t

(** Largest absolute imaginary entry — for "is this numerically real?". *)
val max_imag : t -> float

val equal : tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Unsafe raw access used by the factorization kernels in this library.
    [idx i j = i + j*rows]. *)
val unsafe_re : t -> float array

val unsafe_im : t -> float array
