(** Adaptive frequency selection for streaming fits.

    After each refit the open question is {e where to measure next}.
    Following the cross-validation idea of Åkerstedt et al. ("On
    Adaptive Frequency Sampling for Data-driven Model Order
    Reduction"), the accepted samples are split into two interleaved
    halves and a cheap surrogate model is fitted to each; where the two
    surrogates disagree, the data does not yet pin the response down.
    A residual estimate — the surrogates' consensus against the local
    log-frequency interpolation of the measured data — sharpens the
    score near under-resolved resonances.  Candidates are ranked by the
    combined score and returned best-first with a minimum log-spacing,
    so one sharp peak cannot absorb the whole suggestion budget. *)

type options = {
  surrogate : Engine.options;
      (** options for the two half-data surrogate fits (certification is
          never run here); match the session's options so the surrogates
          probe the same model class *)
  count : int;          (** maximum suggestions returned *)
}

(** [Engine.default_options] surrogates ([certify] forced off), 8
    suggestions. *)
val default_options : options

(** One scored candidate frequency. *)
type score = {
  freq : float;
  disagreement : float;  (** relative Frobenius gap of the two surrogates *)
  residual : float;      (** surrogate consensus vs interpolated data *)
  score : float;         (** [disagreement + residual], the ranking key *)
}

(** [suggest ?options ?candidates samples] ranks the next-best
    frequencies to measure given the accepted fit [samples] in stream
    order.  [candidates] defaults to a 64-point log grid spanning the
    sampled band; candidates closer than 0.02 decades to an existing
    sample are excluded, and so are two suggestions that close.  Needs at least 8 samples (two surrogate
    halves of two pairs each) — fewer is a typed [Validation] error.
    Deterministic: same samples, same options, same suggestions. *)
val suggest :
  ?options:options -> ?candidates:float array ->
  Statespace.Sampling.sample array ->
  (score list, Linalg.Mfti_error.t) result
