(** Wire framing for the serving tier.

    Two framings share every transport:

    - {b JSON lines} (the default): one request/response object per
      newline-terminated line, exactly as {!Server} has always spoken.
    - {b Binary frames}, negotiated per connection: a 4-byte big-endian
      payload length [n], one tag byte, then [n - 1] payload bytes.
      Tag ['J'] carries JSON text (any request, any non-grid response);
      tag ['G'] carries a binary eval-grid response whose matrix data
      is raw IEEE-754 instead of JSON text — a 1024-point 8-port grid
      shrinks from ~1 MB of JSON to ~128 KiB.

    A connection starts in JSON-lines mode.  The client switches with
    [{"op":"hello","frames":"binary"}]; the acknowledgement
    [{"ok":true,"op":"hello","frames":"binary"}] is sent in the {e old}
    framing and every subsequent frame in both directions uses the new
    one.  [{"op":"hello","frames":"json"}] switches back the same way.
    Negotiation is handled by the socket transports ({!Listener}); the
    stdio loop in {!Server} stays JSON-only.

    {2 Grid body layout}

    All integers big-endian, floats raw IEEE-754 bits big-endian:

    {v
    u32  meta length
    ...  meta: JSON text of the response object minus "results"
    u32  points   u32 outputs (p)   u32 inputs (m)
    then points * p * m entries, row-major per point,
    each entry f64 re, f64 im
    v}

    Decoding failures are typed {!Linalg.Mfti_error.Parse} errors, never
    exceptions escaping a worker. *)

type mode = Json | Binary

(** A complete incoming frame: a JSON request/response line, or the
    body of a binary grid response (clients only receive the latter). *)
type payload = Json_text of string | Grid_body of string

(** [encode_json s] is the binary frame (header + tag ['J']) carrying
    JSON text [s]. *)
val encode_json : string -> string

(** [encode_grid body] is the binary frame (header + tag ['G'])
    carrying an already-encoded grid body. *)
val encode_grid : string -> string

(** [grid_body ~meta ~grid] encodes the eval-grid response whose
    non-result fields are the object [meta] and whose per-frequency
    matrices are [grid]. *)
val grid_body : meta:Sjson.t -> grid:Linalg.Cmat.t array -> string

(** [decode_grid_body body] recovers the meta object and the matrices.
    Raises {!Linalg.Mfti_error.Error} ([Parse]) on a damaged body. *)
val decode_grid_body : string -> Sjson.t * Linalg.Cmat.t array

(** [grid_json ~meta ~grid] is the JSON text of the eval-grid response
    whose fields are [meta] followed by ["results"]: one [p x m] matrix
    per frequency, each entry a [[re, im]] pair.  It is written straight
    into one buffer, with no {!Sjson.t} tree, and its bytes are those of
    [Sjson.to_string (Obj (meta @ [("results", results_json grid)]))].
    Shared by {!Server} (JSON eval-grid responses) and {!Router}
    (re-rendering a binary upstream reply for a JSON client), so the two
    emit bit-identical text. *)
val grid_json : meta:(string * Sjson.t) list -> grid:Linalg.Cmat.t array -> string

(** The JSON ["results"] array for a grid as a tree: the reference that
    {!grid_json} must match byte for byte. *)
val results_json : Linalg.Cmat.t array -> Sjson.t

(** Incremental frame extraction over a byte stream.  The reader owns
    the receive buffer; transports feed it raw chunks and pull complete
    frames under the current {!mode}.  One reader serves a connection
    for its whole lifetime — switching modes mid-stream is safe because
    extraction only ever consumes whole frames. *)
module Reader : sig
  type t

  val create : unit -> t

  (** [add r chunk k] appends the first [k] bytes of [chunk]. *)
  val add : t -> bytes -> int -> unit

  (** Buffered bytes not yet consumed by {!next}. *)
  val pending : t -> int

  (** [next r ~mode ~max_bytes] extracts the next complete frame:
      [`Frame p] on success, [`None] when more bytes are needed,
      [`Too_long] when the frame under construction exceeds
      [max_bytes], [`Bad msg] on a malformed binary frame (bad tag, or
      a grid frame arriving as a request). In [Json] mode frames are
      newline-delimited lines with a trailing [CR] stripped. *)
  val next :
    t -> mode:mode -> max_bytes:int ->
    [ `Frame of payload | `None | `Too_long | `Bad of string ]

  (** Drain whatever is buffered (EOF with an unterminated trailing
      line in [Json] mode: serve it, the way [input_line] would). *)
  val take_rest : t -> string
end

(** [is_hello line] is [Some "binary"], [Some "json"], or [Some other]
    when [line] parses to a [{"op":"hello","frames":...}] request
    ([Some ""] when the field is missing/not a string); [None] when it
    is any other request.  Transports use it to intercept negotiation
    before the request reaches {!Server.handle_line}. *)
val is_hello : string -> string option

(** The [{"ok":true,"op":"hello","frames":F}] acknowledgement text. *)
val hello_ack : string -> string
