(** Block Loewner and shifted Loewner matrices — paper eqs. (11)-(13).

    Block [(i,j)] of [LL] is [(V_i R_j - L_i W_j) / (mu_i - lambda_j)];
    of [sLL] it is [(mu_i V_i R_j - lambda_j L_i W_j) / (mu_i - lambda_j)].
    Rows follow the left data, columns the right data.  The stacked
    direction/data matrices [R, W, L, V] and the expanded diagonal points
    [Lambda, M] of eqs. (8)-(9) are kept alongside, because the
    realization (Lemma 3.1) and the Sylvester identities (13) need them. *)

type t = {
  ll : Linalg.Cmat.t;        (** Loewner matrix, [kl x kr] *)
  sll : Linalg.Cmat.t;       (** shifted Loewner matrix, [kl x kr] *)
  w : Linalg.Cmat.t;         (** stacked right data, [p x kr] *)
  v : Linalg.Cmat.t;         (** stacked left data, [kl x m] *)
  r : Linalg.Cmat.t;         (** stacked right directions, [m x kr] *)
  l : Linalg.Cmat.t;         (** stacked left directions, [kl x p] *)
  lambda : Linalg.Cx.t array; (** expanded right points, length [kr] *)
  mu : Linalg.Cx.t array;     (** expanded left points, length [kl] *)
  right_sizes : int array;   (** block widths along the columns *)
  left_sizes : int array;    (** block widths along the rows *)
}

(** [build data] assembles the matrices.  Raises [Invalid_argument] when
    a left and right point coincide (the divided difference is then
    undefined; distinct sample frequencies guarantee this never fires). *)
val build : Tangential.t -> t

(** {1 Incremental assembly}

    A {!builder} holds the pencil in growable storage so tangential
    blocks can be appended one at a time: appending the [k+1]-th sample
    computes only the new block row/column of divided differences —
    O(k) work instead of the O(k^2) full rebuild.  Every entry is
    produced by the same fixed-order scalar formula regardless of when
    it is filled or how the fill is chunked across domains, so a
    {!snapshot} of an incrementally grown builder is {e bit-identical}
    to {!build} on the same data (and insensitive to [MFTI_DOMAINS]). *)

type builder

(** [builder ~inputs ~outputs ()] starts an empty pencil for a system
    with [m = inputs] and [p = outputs] ports.  The optional capacities
    pre-size the growable storage (they are hints; storage doubles as
    needed). *)
val builder :
  ?right_capacity:int -> ?left_capacity:int ->
  inputs:int -> outputs:int -> unit -> builder

(** Append one right block: one new column strip of [LL]/[sLL] plus the
    matching columns of [W], [R] and entry of [Lambda].  Raises
    [Invalid_argument] on dimension mismatch or when the new point
    coincides with an existing left point. *)
val append_right : builder -> Tangential.right_block -> unit

(** Append one left block: one new row strip of [LL]/[sLL] plus the
    matching rows of [V], [L] and entry of [M]. *)
val append_left : builder -> Tangential.left_block -> unit

(** [append b rb lb] appends a right block then a left block — one
    interpolation unit of Algorithm 2's recursion. *)
val append : builder -> Tangential.right_block -> Tangential.left_block -> unit

(** Bulk-load a whole tangential data set into a fresh builder.
    [build data] is exactly [snapshot (of_tangential data)]. *)
val of_tangential : Tangential.t -> builder

(** Freeze the builder into an immutable pencil.  The builder remains
    usable; later appends do not affect earlier snapshots. *)
val snapshot : builder -> t

(** [check_finite ?context t] verifies that [LL] and [sLL] contain only
    finite entries, returning a typed [Numerical_breakdown] otherwise —
    the cheap gate the fitting drivers run before the SVD.  The
    ["loewner.poison"] fault plants a NaN in [LL] during {!snapshot} so
    this path can be tested deterministically. *)
val check_finite : ?context:string -> t -> (unit, Linalg.Mfti_error.t) result

(** Frobenius residuals of the two Sylvester identities (13):
    [LL Lambda - M LL = L W - V R] and
    [sLL Lambda - M sLL = L W Lambda - M V R].  Both are zero up to
    roundoff for a correctly assembled pencil. *)
val sylvester_residuals : t -> float * float

(** Assemble [LL] by solving the first Sylvester identity instead of the
    divided-difference formula (the "or solve from (13)" alternative in
    Algorithm 1 step 3) — used to cross-check {!build}. *)
val ll_via_sylvester : t -> Linalg.Cmat.t
