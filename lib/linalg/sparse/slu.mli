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

(** [factorize ?ordering ?perm ?diagonal a] factors square [a].
    [perm] short-circuits the ordering computation with a precomputed
    symmetric permutation ([perm.(new) = old]) — pass the
    {!Ordering.amd} of the pattern once and reuse it across a
    frequency sweep, since [Scsr.scale_add] keeps the pattern stable.
    Default [ordering] is [`Amd].

    Each pivot is the candidate of largest modulus in its column
    (partial pivoting), unless [diagonal] (in [[0, 1]], default [0],
    which turns it off) is positive: then the ordered diagonal is kept
    whenever its modulus is at least [diagonal] times the largest —
    threshold pivoting, which keeps the fill the ordering planned while
    bounding every entry of L by [1 / diagonal].
    Raises [Invalid_argument] for a [diagonal] outside [[0, 1]]. *)
val factorize :
  ?ordering:ordering -> ?perm:int array -> ?diagonal:float -> Scsr.t ->
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
    [base]'s ordering and pivot rule instead.  Either way, pass the
    result as the base of the next call: a refactored factor shares its
    base's pattern, a fallback carries its own, computed from [base]'s
    column view and sized to [base]'s fill, and bit-identical to
    [factorize] of [a] under [base]'s ordering and rule.  Refactoring
    [base]'s own matrix reproduces [base] bit for bit.  Errors are
    typed as for {!factorize}, including the armed
    ["sparse.singular_pivot"] fault and a singular fallback. *)
val refactor : factor -> Scsr.t -> (factor, Linalg.Mfti_error.t) result

(** [solve f b] solves [a x = b] for one or more dense right-hand-side
    columns. *)
val solve : factor -> Linalg.Cmat.t -> Linalg.Cmat.t

(** Buffers for a frequency sweep that factors and solves one pattern
    over and over without allocating: the L and U values, the
    elimination scratch and the solve vectors.  OCaml 5 mallocs large
    arrays from the allocating thread's arena, so a sweep run on a
    second domain would otherwise leave a second arena's worth of
    dropped factors behind; {!sweep} allocates on the domain that
    calls it, and {!sweep_solve} reuses what it allocated. *)
type sweep

(** [sweep ~perm ?diagonal ~nrhs a] allocates the buffers for
    matrices of [a]'s pattern under the symmetric permutation [perm]
    and the pivot rule [diagonal] (as for {!factorize}), solved against
    [nrhs] columns.  L and U start with [4 * nnz a] entries each and
    grow (on the domain that steps the sweep) only past that.  Raises
    [Invalid_argument] when [a] is not square, [nrhs < 1], [perm] is
    not a permutation or [diagonal] is outside [[0, 1]]. *)
val sweep : perm:int array -> ?diagonal:float -> nrhs:int -> Scsr.t -> sweep

(** [sweep_solve s a b] factors [a] and solves [a x = b] in [s]'s
    buffers.  The first call (and the first after an error) is
    {!factorize} [~perm ~diagonal a]; every later call is {!refactor}
    on the previous call's factor, with the same pivot check, fallback
    and ["sparse.refactor_fallback"] event.  The arithmetic is theirs,
    so [x] is bit-identical to {!solve} on the factors they return.  [x]
    is owned by [s] and overwritten by the next call.  Errors are typed
    as for {!refactor}; [b] must be [n x nrhs]. *)
val sweep_solve :
  sweep -> Scsr.t -> Linalg.Cmat.t ->
  (Linalg.Cmat.t, Linalg.Mfti_error.t) result

(** Stored entries in [L] plus [U] — the fill the ordering is trying
    to keep down. *)
val fill : factor -> int

(** The symmetric permutation that was applied, if any. *)
val order : factor -> int array option

val size : factor -> int
