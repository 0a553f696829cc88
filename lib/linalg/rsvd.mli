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
    is formed explicitly.  Callers test {!field-certified} or
    {!field-residual} and fall back to the exact path when the sketch
    missed what they need ({!Core.Svd_reduce} records
    ["svd.rsvd.fallback"]).  The random stream has a fixed seed and
    every kernel is domain-count independent, so results are
    reproducible bit for bit.  Fault site: ["svd.rsvd.degrade"] poisons
    the residual to [infinity], leaving the factorization untouched. *)

type t = {
  sigma : float array;  (** the [l] leading singular values, descending *)
  v : Rmat.t;           (** [n x l] right singular vectors *)
  residual : float;
      (** certified [|A - Q Q^T A|_F], bounding every singular value cut
          off: a valid [tail_bound] for {!Svd.rank_gap_of_values} *)
  certified : bool;  (** [residual <= 1e-10 * |A|_F] *)
  sketch : int;      (** final sketch width [l] *)
  total : int;       (** [min (m, n)] — the full spectrum length *)
}

(** [decompose_adaptive a] sketches [max 16 (k / 4)] columns,
    [k = min (m, n)], and doubles the sketch (reusing the orthonormal
    block built so far) while the residual does not certify and
    [2l <= k / 2].  Past half width a wider sketch costs more than the
    exact SVD, and a spectrum that wide is a noise floor, so such a
    sketch is returned uncertified with [sketch < total].  A wide [a] is
    sketched through its transpose; [k <= 32] and zero matrices take
    the exact path ([residual = 0], [certified = true]). *)
val decompose_adaptive : Rmat.t -> t
