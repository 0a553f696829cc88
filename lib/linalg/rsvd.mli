(** Randomized truncated SVD (Gaussian range finder).

    For a numerically low-rank [m x n] matrix — the regime of the MFTI
    pencil [[L sL]], whose rank is bounded by the model order (Lemma
    3.3) — the full SVD is wasted work: a real Gaussian sketch
    [Y = A Om] captures the range with high probability, and the
    decomposition reduces to a few large GEMMs (which go through the
    cache-blocked parallel {!Cmat} kernel) plus a small dense SVD of
    [Q* A].

    The factorization is {e certified}: because [Q] has orthonormal
    columns, [|A - Q Q* A|_F^2 = |A|_F^2 - |Q* A|_F^2] exactly, so the
    residual of the returned truncation is usually known without
    forming the error matrix.  The difference of squares cancels once
    the true residual is below about [sqrt eps * |A|_F]; in that
    regime the error matrix is formed explicitly (one extra GEMM) so
    tiny tails still certify deterministically.  Callers check
    {!field-certified}, or a test of their own on {!field-residual},
    and fall back to the exact path when the sketch missed what they
    need — {!Core.Svd_reduce} records ["svd.rsvd.fallback"] and reruns
    the exact SVD.

    [Om] is real, so a real [A] (the realified pencil) gets a real
    factorization and the projected model stays real (Lemma 3.2).
    All randomness is drawn from a {!Rng} stream with a fixed seed, and
    every parallel kernel used is domain-count independent, so results
    are reproducible across runs and domain counts.

    Fault sites: ["svd.rsvd.degrade"] poisons the residual certificate
    to [infinity] (the factorization itself is untouched), forcing the
    caller's fallback path deterministically. *)

type t = {
  svd : Svd.t;
      (** truncated factorization: [u] is [m x l], [sigma] has the [l]
          leading singular values (descending), [v] is [n x l], where
          [l] is the final sketch width *)
  residual : float;
      (** certified [|A - Q Q* A|_F]; every singular value the
          truncation cut off is [<= residual], so it is a valid
          [tail_bound] for {!Svd.rank_gap_of_values} *)
  certified : bool;  (** [residual <= 1e-10 * |A|_F] *)
  sketch : int;      (** final sketch width [l] *)
  total : int;       (** [min (m, n)] — the full spectrum length *)
}

(** [decompose_adaptive a] starts with a sketch of
    [max 16 (k / 4)] columns, [k = min (m, n)], runs one power iteration
    with re-orthogonalization between applications, certifies against
    [1e-10 * |A|_F], and doubles the sketch from
    [l] to [2l] while the residual does not certify and [2l <= k / 2].
    Each step reuses the already-orthonormalized block (new sketch
    columns are projected against the existing basis, not recomputed).
    A sketch that has not certified by then is returned uncertified,
    with [sketch < total]: past half width a wider sketch costs more
    than the exact SVD the caller falls back to, and a spectrum that
    wide is a noise floor (measured noisy data makes the Loewner pencil
    numerically full rank), not a low-rank matrix.  This is the
    reduce-stage entry point: the pencil rank is not known a priori.
    Matrices with [min (m, n) <= 32] are dispatched to the exact path
    ([residual = 0], [certified = true]). *)
val decompose_adaptive : Cmat.t -> t
