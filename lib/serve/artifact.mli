(** Versioned, checksummed binary artifacts for fitted models.

    A fitted {!Mfti.Engine.Model.t} dies with the process; an artifact
    is its durable form — the realization matrices plus the fit
    metadata a serving layer needs (ports, order, singular values,
    recursion stats, stage timings, fit error).

    {2 Format (version 2)}

    All integers are unsigned 32-bit little-endian; all floats are raw
    IEEE-754 bits (64-bit little-endian, via [Int64.bits_of_float]) —
    never printed and re-parsed, so every value round-trips bitwise.
    Field order is canonical and fixed:

    {v
    magic   "MFTIART\x00"                       8 bytes
    version u32 = 2
    name    u32 length + bytes
    created f64 (unix time of packing)
    order, inputs, outputs, rank               4 x u32
    fit_err f64 (NaN when unknown)
    sigma   u32 count + count x f64
    timings u32 count + count x (string, f64)
    stats   u8 flag; when 1: selected, total,
            iterations (u32) + history floats
    E A B C D  each: u32 rows, u32 cols,
            rows*cols x (f64 re, f64 im), column-major
    cert    u8 flag; when 1: stable u8, passive u8,
            flipped u32, repair_iterations u32,
            worst_margin f64, pre_margin f64,
            fit_delta f64          (version >= 2 only)
    crc32   u32 over every preceding byte
    v}

    Version 2 appends exactly the [cert] block — a version-1 body is a
    byte prefix of the version-2 body for the same model.

    Version policy: readers accept exactly the versions they know
    (currently 1 and 2) and reject anything else as
    {!Linalg.Mfti_error.Parse} — a newer writer never silently
    half-loads.  A version-1 file (no [cert] block) loads with
    [Engine.Model.certificate = None], indistinguishable from a
    version-2 file packed without certification — either way the model
    is {e uncertified} and a strict serving policy refuses it.  Any
    structural damage (bad magic, truncation, checksum mismatch,
    trailing bytes) is a [Parse] error too, never a crash.

    Fault-injection sites (see {!Linalg.Fault}): ["artifact.corrupt"]
    flips a header byte in the encoded output, ["artifact.truncate"]
    drops the trailing bytes — both make the result unloadable in a
    deterministic way for the robustness tests.  ["serve.torn_write"]
    simulates a writer killed mid-{!save}: half the bytes reach the
    temp file, no rename happens, and a typed
    {!Linalg.Mfti_error.Fault_injected} error is raised.

    {2 Crash safety}

    {!save} is atomic: bytes are written to [path ^ ".tmp"], fsynced,
    and renamed over [path] (with a best-effort directory fsync), so a
    crash leaves either the previous artifact intact or an orphaned
    temp file — never a torn [.mfti].  {!recover_root} is the matching
    startup scan: it quarantines orphaned temp files and (optionally)
    any [.mfti] that fails to decode, renaming them aside with a
    [".quarantined"] suffix so they leave the servable namespace but
    survive for inspection. *)

type t = {
  name : string;          (** human label, e.g. the source file *)
  created : float;        (** unix time the artifact was packed *)
  fit_err : float;        (** relative fit error at pack time; NaN = unknown *)
  model : Mfti.Engine.Model.t;
}

(** [v ?name ?fit_err ?created model] fills defaults: empty name,
    [nan] fit error, [created = Unix.time ()]. *)
val v : ?name:string -> ?fit_err:float -> ?created:float ->
  Mfti.Engine.Model.t -> t

(** Current format version (2); writers always emit it, readers also
    accept 1. *)
val format_version : int

(** Encode to the binary format.  Deterministic: encoding the result of
    {!of_string} reproduces the input bytes exactly. *)
val to_string : t -> string

(** Decode; every failure mode is a {!Linalg.Mfti_error.Parse}. *)
val of_string : ?source:string -> string -> (t, Linalg.Mfti_error.t) result

(** [save path t] writes [to_string t] atomically: temp file + fsync +
    rename.  Raises {!Linalg.Mfti_error.Error}: [Validation] naming
    [path] when the temp file cannot be created (a missing or
    unwritable directory), and [Fault_injected] at the
    ["serve.torn_write"] fault site (leaving a torn temp file behind,
    as a killed writer would). *)
val save : string -> t -> unit

(** [load path] reads and decodes; I/O errors and corrupt content both
    surface as [Error]. *)
val load : string -> (t, Linalg.Mfti_error.t) result

val load_exn : string -> t

(** One quarantined file found by {!recover_root}: where it was, where
    it went, and the typed diagnostic explaining why. *)
type quarantine = {
  original : string;
  quarantined : string;     (** [original ^ ".quarantined"], or equal to
                                [original] when the rename itself failed *)
  reason : Linalg.Mfti_error.t;
}

(** [recover_root root] scans a model directory for damage left by
    interrupted writers: orphaned [*.mfti.tmp] files are always
    quarantined; when [verify] (default [true]) every [*.mfti] is
    decoded (checksum and all) and quarantined on failure.  Returns the
    quarantine record for each file moved aside, in sorted filename
    order.  An unreadable [root] yields [[]]. *)
val recover_root : ?verify:bool -> string -> quarantine list
