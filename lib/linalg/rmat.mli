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
val norm_fro : t -> float
val max_abs : t -> float
val trace : t -> float
val equal : tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
