(** Randomized truncated SVD of a real matrix, right vectors only.

    The realified MFTI pencil [[L sL]] is exactly real (Lemma 3.2) and
    numerically low-rank (Lemma 3.3), so its full SVD is wasted work: a
    real Gaussian sketch [Y = A Om], one power iteration and CholeskyQR2
    capture the range [Q] in a few real GEMMs ({!Rmat.mul},
    {!Rmat.mul_tn}).  The small SVD of [B = Q^T A] runs through its R
    factor: a Householder QR [B^T = Q_b R], then {!Svd.right_real} of the
    [l x l] [R^T], whose right vectors [W] give [V = Q_b W].  A sketch
    Gram matrix that is not positive definite is orthonormalized by
    Householder instead (["svd.rsvd.cholqr_fallback"]).

    The factorization is {e certified}: [Q] has orthonormal columns, so
    [|A - Q Q^T A|_F^2 = |A|_F^2 - |B|_F^2] exactly; below about
    [sqrt eps * |A|_F], where that difference cancels, the error matrix
    is formed explicitly.  A caller whose test is looser than Rsvd's
    gets a spectral-norm bound as well ({!field-spectral}).  Callers
    test {!field-certified}, {!field-residual} or {!field-spectral} and
    fall back to the exact path when the sketch missed what they need
    ({!Core.Svd_reduce} records ["svd.rsvd.fallback"]).  The random
    stream has a fixed seed and every kernel is domain-count
    independent, so results are reproducible bit for bit.  Fault site: ["svd.rsvd.degrade"] poisons
    the residual (and the spectral bound) to [infinity], leaving the
    factorization untouched. *)

type t = {
  sigma : float array;  (** the [l] leading singular values, descending *)
  v : Rmat.t;           (** [n x l] right singular vectors *)
  residual : float;
      (** certified [|A - Q Q^T A|_F], bounding every singular value cut
          off: a valid [tail_bound] for {!Svd.rank_gap_of_values} *)
  spectral : float;
      (** a certified bound [r >= |A - Q Q^T A|_2], never above
          [residual].  When an [accept] test saw the round and Rsvd's own
          test did not certify it, this is
          [min residual (|E^T E|_F^(1/2) + margin)] with the error matrix
          [E] formed explicitly (a Schatten-4 bound, about 3x tighter
          than [residual] on a flat noise tail) and a stated roundoff
          margin; otherwise it equals [residual].  Weyl brackets each
          kept [sigma_i] in [[s_i, sqrt (s_i^2 + r^2)]] and bounds each
          cut one by [r]. *)
  certified : bool;  (** [residual <= 1e-10 * |A|_F] *)
  sketch : int;      (** final sketch width [l] *)
  total : int;       (** [min (m, n)] — the full spectrum length *)
}

(** [decompose_adaptive ?accept a] sketches [max 16 (k / 4)] columns,
    [k = min (m, n)], and doubles the sketch (reusing the orthonormal
    block built so far) while the residual does not certify and
    [2l <= k / 2].  Past half width a wider sketch costs more than the
    exact SVD, and a spectrum that wide is a noise floor, so such a
    sketch is returned uncertified with [sketch < total].

    [accept] is the caller's own test (a rank rule that needs less than
    Rsvd's [1e-10 |A|_F]).  After every round that Rsvd's test does not
    certify, the round is factored, its {!field-spectral} bound
    computed, and it is returned as soon as [accept] holds; otherwise
    the sketch grows as above.  Without [accept] no round pays for the
    bound, and the result is bit-identical to the growth rule alone.

    A wide [a] is sketched through its transpose (the same sketch, the
    same residuals, as for the tall [a^T]); [k <= 32] and zero matrices
    take the exact path ([residual = spectral = 0],
    [certified = true]). *)
val decompose_adaptive : ?accept:(t -> bool) -> Rmat.t -> t
