(** Minimal JSON reader/writer shared by the serving layer and the
    benchmark reporters (there is no JSON library in the build
    environment, and the server protocol must not grow one).

    This is the single escaping/emission routine in the repo:
    [bench/bjson.ml] re-exports this module, and {!Server} builds every
    protocol response through it.

    Number emission round-trips exactly: a finite [Num x] is printed
    with the first of [%.6g]/[%.12g]/[%.17g] that parses back to the
    identical float ([%.0f] for integers below [1e15]), so values
    survive a write/parse cycle bit-for-bit (the serving protocol
    depends on this).  Non-finite floats have no JSON representation
    and are emitted as [null].

    The text is found with one [%.17g] call for nearly every float: a
    shorter candidate is formatted and parse-checked only when digits
    7–8 (for [%.6g]) or 13–14 (for [%.12g]) of the 17-digit text are
    both [0] or both [9], since no other candidate can parse back to
    [x].  Subnormals, whose spacing is absolute rather than relative,
    try every candidate.  The emitted bytes are those of the plain
    three-try cascade.  Each [%g] / [%.0f] text comes from C++17
    [std::to_chars], which the standard defines to print what [printf]
    does, into a writer's scratch bytes: no string is allocated per
    number. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

(** {2 Appending writer}

    What {!to_string} prints with, open to writers that stream a
    response too large to build as a tree ({!Frame.grid_json}).  A
    writer is a buffer plus the scratch bytes the number printer works
    in, so it belongs to one thread at a time. *)

type writer

(** [writer n] is an empty writer whose buffer starts at [n] bytes. *)
val writer : int -> writer

(** The writer's output so far; separators and brackets go straight
    into it. *)
val buffer : writer -> Buffer.t

(** [add w v] appends the text {!to_string} gives [v]. *)
val add : writer -> t -> unit

(** [add_num w x] is [add w (Num x)] without the box. *)
val add_num : writer -> float -> unit

exception Parse_error of string

(** Recursive-descent parser for the subset we emit (strings, numbers,
    bools, null, arrays, objects).  Raises {!Parse_error} with an offset
    message on malformed input. *)
val parse : string -> t

(** [member k json] is the value bound to key [k] when [json] is an
    object containing it. *)
val member : string -> t -> t option
