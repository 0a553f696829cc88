(** Sparse LU with partial pivoting and fill-reducing ordering.

    A left-looking Gilbert–Peierls factorization of a square complex
    CSR matrix.  A symmetric fill-reducing permutation is applied
    first — approximate minimum degree by default — and partial
    pivoting by largest modulus keeps the numerics safe under any
    ordering.

    Failures are typed through {!Linalg.Mfti_error}: a zero pivot (or
    the armed ["sparse.singular_pivot"] fault site) is
    [Numerical_breakdown]; a malformed permutation is [Validation].
    An AMD-internal failure never fails the factorization — it
    degrades to the natural order and records
    ["sparse.ordering_degrade"] in {!Linalg.Diag}. *)

type ordering = [ `Natural | `Rcm | `Amd ]

type factor

(** [factorize ?ordering ?perm a] factors square [a].  [perm]
    short-circuits the ordering computation with a precomputed
    symmetric permutation ([perm.(new) = old]) — pass the
    {!Ordering.amd} of the pattern once and reuse it across a
    frequency sweep, since [Scsr.scale_add] keeps the pattern stable.
    Default [ordering] is [`Amd]. *)
val factorize :
  ?ordering:ordering -> ?perm:int array -> Scsr.t ->
  (factor, Linalg.Mfti_error.t) result

(** [refactor base a] factors [a] numerically only, reusing [base]'s
    ordering, pivot sequence and L/U pattern: no ordering, no symbolic
    reach.  [a] must have exactly the pattern [base] was computed from
    ([rowptr] and [colind] equal), as every [Scsr.scale_add] of the
    same operands does — the contract a frequency sweep relies on; any
    other pattern is a [Validation] error.

    Stability is checked column by column: when a reused pivot falls
    below [1e-3] of the largest modulus among its column's candidate
    rows (or vanishes), [refactor] records ["sparse.refactor_fallback"]
    in {!Linalg.Diag} and returns a full {!factorize} of [a] under
    [base]'s ordering instead.  Either way, pass the result as the base
    of the next call: a refactored factor shares its base's pattern, a
    fallback carries its own.  Refactoring [base]'s own matrix
    reproduces [base] bit for bit.  Errors are typed as for
    {!factorize}, including the armed ["sparse.singular_pivot"] fault
    and a singular fallback. *)
val refactor : factor -> Scsr.t -> (factor, Linalg.Mfti_error.t) result

(** [solve f b] solves [a x = b] for one or more dense right-hand-side
    columns. *)
val solve : factor -> Linalg.Cmat.t -> Linalg.Cmat.t

(** Stored entries in [L] plus [U] — the fill the ordering is trying
    to keep down. *)
val fill : factor -> int

(** The symmetric permutation that was applied, if any. *)
val order : factor -> int array option

val size : factor -> int
