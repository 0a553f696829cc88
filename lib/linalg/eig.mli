(** Dense eigenvalues: Parlett–Reinsch balancing and Householder
    Hessenberg reduction, then explicit single-shift QR with Wilkinson
    shifts for a complex matrix, or Francis double-shift QR (EISPACK
    [hqr]) in real arithmetic, at about a quarter of the flops, for a
    real one.  {!eigen} adds vectors by inverse iteration. *)

exception No_convergence
(** Raised when the QR iteration fails to deflate within the iteration
    budget (essentially never happens on balanced matrices). *)

(** Eigenvalues of a square complex matrix, in no particular order. *)
val eigenvalues : Cmat.t -> Cx.t array

(** Eigenvalues of a real matrix: complex pairs are exactly conjugate
    and real eigenvalues have [im] exactly [0.]. *)
val eigenvalues_real : Rmat.t -> Cx.t array

(** [right_vectors a values] computes (approximate) right eigenvectors
    for the given eigenvalues by shifted inverse iteration: column [i]
    satisfies [A v_i ~ values.(i) v_i], normalized to unit length.
    Robust for simple, reasonably separated eigenvalues; for (nearly)
    defective clusters the returned vectors may be nearly parallel —
    check the residual if that matters. *)
val right_vectors : Cmat.t -> Cx.t array -> Cmat.t

(** [eigen a] is [eigenvalues a] paired with {!right_vectors}. *)
val eigen : Cmat.t -> Cx.t array * Cmat.t
