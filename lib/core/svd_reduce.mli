(** SVD projection of the Loewner pencil to a minimal model —
    paper Lemmas 3.3-3.4 and Theorem 3.5.

    The raw pencil has rank at most [order + rank D] (Lemma 3.3); the
    singular values of [x0 LL - sLL] exhibit a sharp drop at that rank
    (paper Fig. 1).  Projecting with the dominant singular subspaces
    gives the descriptor realization
    [E = -Y* LL X, A = -Y* sLL X, B = Y* V, C = W X]. *)

(** How to choose the projection subspaces.  Both modes factor two
    real sides of the realified pencil (Lemma 3.2) with one-sided SVDs,
    never forming the singular vectors they discard. *)
type mode =
  | Pencil of float option
      (** [x0 LL - sLL] (Lemma 3.4): [Y] from its transpose, [X] from
          itself.  The shift is real, so the model is; [None] picks
          [x0 = |lambda.(0)|]. *)
  | Stacked
      (** [Y] from [[LL sLL]^T], [X] from [[LL; sLL]] — the
          Lefteriu-Antoulas practical variant, and the default. *)

(** How many singular values to keep; on noisy data, [Tol] near the
    noise floor. *)
type rank_rule =
  | Fixed of int        (** exact order [>= 1] (clipped to the pencil size) *)
  | Tol of float        (** keep sigma > tol * sigma_max, [0 < tol < 1] *)
  | Gap                 (** the largest log10 drop ({!Linalg.Svd.rank_gap}) *)

type result = {
  model : Statespace.Descriptor.t;
  rank : int;              (** retained order *)
  sigma : float array;     (** singular values the rank decision saw *)
}

val default_rank_rule : rank_rule  (* Gap *)

(** [reduce ?mode ?rank_rule loewner] projects and realizes.  The
    pencil must be exactly real: realify it first, as {!Engine} does
    ([Invalid_argument] otherwise).  The sides, the SVDs and the
    projection run in real arithmetic, so the model is exactly real in
    both modes.

    A side with at least 96 singular values runs the real adaptive
    {!Linalg.Rsvd} sketch first, since the MFTI pencil is numerically
    low-rank (Lemma 3.3); every other side runs the exact
    {!Linalg.Svd.right_real}.  The rank rule decides whether the sketch
    stands in for the exact SVD.  [Tol tol] keeps it when
    {!tol_certificate} proves the rank the rule would pick on the exact
    spectrum, and stops the sketch at the first round that does (on a
    noisy 160-wide pencil, the quarter-width first round).  The column
    side must prove the row side's [k].  [Gap] and [Fixed] need Rsvd's
    own certificate ([r <= 1e-10 |A|_F]) and pass Rsvd no test of
    their own.  A refused sketch (a noise
    floor too high for the rule, or the ["svd.rsvd.degrade"] fault
    poisoning [r]) reruns that side's exact SVD and records
    ["svd.rsvd.fallback"] in the ambient {!Linalg.Diag} collector; the
    detail says ["capped at n/2"] when the sketch stopped at its
    half-width cap, then names the failed test with its values.

    On a kept sketch the rank rule sees the truncated spectrum, and
    [Gap] takes the certified residual as its tail bound
    ({!Linalg.Svd.rank_gap_of_values}), so rank decisions match the
    exact path on well-gapped spectra; the model agrees with the exact
    one to roundoff, not bit for bit.

    The chosen rank is automatically demoted past trailing singular
    values at the roundoff floor ([<= 1e-13 sigma_max]) — keeping them
    only injects noise into the realization; a demotion is recorded in
    the ambient {!Linalg.Diag} collector as ["svd_reduce.rank_demotion"].
    The collector also receives the retained-subspace condition estimate
    [sigma_max / sigma_rank] and the log10 drop at the cut.  The rank
    rule is not checked here: {!Engine} refuses a bad one when a fit is
    ingested or a session opened. *)
val reduce : ?mode:mode -> ?rank_rule:rank_rule -> Loewner.t -> result

(** [tol_certificate ~tol ?ranked r] is [Ok ()] when the sketch [r]
    provably keeps the rank [Tol tol] picks on the exact spectrum, and
    otherwise names the failed test.  With [r]'s spectral bound
    {!Linalg.Rsvd.field-spectral} [e >= |A - Q Q^T A|_2], each kept
    [sigma_i] lies in [[s_i, sqrt (s_i^2 + e^2)]] and each cut one
    below [e], so with [k] sketched values above [tol s_1] (or [k]
    counted on [ranked], the row side's spectrum, when given) the rank
    is [k] when [e <= tol s_1], [k] is less than the sketch width,
    [sqrt (s_k+1^2 + e^2) <= tol s_1] and [s_k > tol sqrt (s_1^2 + e^2)].
    A sketch covering the whole spectrum is exact and always passes. *)
val tol_certificate :
  tol:float -> ?ranked:float array -> Linalg.Rsvd.t ->
  (unit, string) Stdlib.result

(** Singular values of [LL], [sLL] and [x0 LL - sLL] — the three curves
    of the paper's Fig. 1.  [x0] defaults to [lambda.(0)]. *)
val fig1_singular_values :
  ?x0:Linalg.Cx.t -> Loewner.t -> float array * float array * float array

(** Theorem 3.5: the empirical minimum number of (noise-free) samples,
    [ceil ((order + rank_d) / min (m, p))], rounded up to even so the
    conjugate split works. *)
val minimal_samples : order:int -> rank_d:int -> inputs:int -> outputs:int -> int
