(** Singular value decomposition of complex matrices,
    [A = U diag(s) V*] with [U] of size [m x min(m,n)], [s] descending,
    [V] of size [n x min(m,n)].

    Two kernels, chosen by the input, not by the caller.  A matrix is
    factored in its tall orientation (a wide one through its conjugate
    transpose); then:
    - exactly real input (every imaginary part [= 0.]) over 32 columns
      goes to the real Golub–Kahan SVD: Householder bidiagonalization
      and implicit-shift QR, roughly an order of magnitude faster than
      Jacobi at the pencil sizes the Loewner pipeline produces;
    - everything else, complex input and anything with at most 32
      columns, goes to the complex one-sided Jacobi SVD: simple,
      unconditionally convergent, highly accurate in the relative sense
      on the smallest singular values, and the reference the agreement
      tests compare against.

    When the bidiagonal QR fails to deflate within its budget the
    factorization falls back to Jacobi, recording
    ["svd.gk.jacobi_fallback"] in the ambient {!Diag} collector.  Jacobi
    never raises: on a blown sweep budget it extends the budget, then
    retries at a rescaled magnitude, and finally records the achieved
    off-diagonal norm (["svd.jacobi.non_convergence"]) and returns the
    degraded factorization.  The ["svd.no_converge"] fault collapses
    all these budgets so the whole cascade can be tested
    deterministically.

    {!right} is the one-sided entry point: for a tall matrix it never
    forms [U], which is most of the cost that a caller needing only
    [V] would otherwise throw away. *)

type t = {
  u : Cmat.t;      (** [m x k] left singular vectors, [k = min(m,n)] *)
  sigma : float array;  (** [k] singular values, descending *)
  v : Cmat.t;      (** [n x k] right singular vectors *)
}

val decompose : Cmat.t -> t

(** [right a] is [(sigma, v)] of {!decompose}[ a], bit for bit, on every
    path (Jacobi and the fallback to it included).  When
    [rows a >= cols a] it never forms [U]: the bidiagonalization skips
    the left-reflector accumulation and the QR iteration skips the
    left rotations.  A wide [a] still needs the [U] of its conjugate
    transpose, so there it costs as much as {!decompose}; pass
    [Cmat.ctranspose a] to get the left vectors of a wide matrix
    cheaply. *)
val right : Cmat.t -> float array * Cmat.t

(** [right_real a] is {!right} of [Cmat.of_real a], with [V] real. *)
val right_real : Rmat.t -> float array * Rmat.t

(** [reconstruct d] re-multiplies [U diag(s) V*] (for tests). *)
val reconstruct : t -> Cmat.t

(** [rank ~rtol d] counts singular values above [rtol * s.(0)]. *)
val rank : rtol:float -> t -> int

(** [rank_of_values ~rtol sigma] is {!rank} over a bare descending
    spectrum (e.g. the truncated spectrum of a randomized SVD). *)
val rank_of_values : rtol:float -> float array -> int

(** [rank_gap_of_values ?floor ?tail_bound sigma] finds the split
    maximizing the log10 drop between consecutive values of a
    descending spectrum (the "sharp drop" of the paper's Fig. 1),
    ignoring values below [floor * sigma.(0)] (default [1e-13]).  It
    returns the number of values before the largest drop, or the count
    above the floor when no drop reaches 10x.  [tail_bound] makes the
    rule safe on truncated spectra: it is a certified upper bound on
    every singular value the truncation cut off
    (sigma_{k+1} <= tail_bound), and the drop from the last retained
    value into that bound competes as a candidate gap — so a spectrum
    cut exactly at its cliff still reports the full retained count. *)
val rank_gap_of_values : ?floor:float -> ?tail_bound:float -> float array -> int

(** Spectral norm [s.(0)] (0 for empty matrices).  Like {!values} it
    never forms [U]. *)
val norm2 : Cmat.t -> float

(** Moore–Penrose pseudoinverse with relative tolerance [rtol]
    (default [1e-12]). *)
val pinv : ?rtol:float -> Cmat.t -> Cmat.t

(** Singular values only, bit-identical to [(decompose a).sigma].  The
    matrix is factored in its tall orientation through {!right}, so no
    [U] is formed. *)
val values : Cmat.t -> float array
