(** Plain-text netlist interchange for {!Mna} circuits.

    One directive per line — [nodes N] first, then [R]/[C]/[L]/[RL]/[K]
    element stamps and [P plus minus] port declarations, with [#]
    comments.  Elements and ports keep file order, so mutual-inductance
    branch numbering and port indices round-trip exactly.

    This is how [gen --grid] hands a 100k-node plane grid to
    [fit --strategy krylov] without synthesizing a dense Touchstone
    sweep of the full system first. *)

(** Write a circuit; values are printed round-trip exact ([%.17g]). *)
val save : string -> Mna.t -> unit

(** Parse a netlist.  Malformed input comes back as
    [Mfti_error.Parse] with the offending line number; element
    validation failures (bad nodes, non-positive values) are reported
    the same way. *)
val load : string -> (Mna.t, Linalg.Mfti_error.t) result

(** Raising form of {!load}. *)
val load_exn : string -> Mna.t
