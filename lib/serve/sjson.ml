(* Minimal JSON shared by the serving layer and the bench reporters: a
   writer for protocol responses and BENCH_*.json, and a parser for
   protocol requests and the smoke checks (no JSON library in the build
   environment).  [bench/bjson.ml] re-exports this module so there is
   exactly one escaping routine in the repo. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let buf_add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* The number kernel (sjson_stubs.cpp): [print buf off prec x] writes
   the text of [x] under %.0f (prec = 0) or %.<prec>g into [buf] at
   [off], the same bytes as [Printf.sprintf], and returns its length.
   It allocates nothing. *)
external print :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (float[@unboxed]) ->
  (int[@untagged]) = "mfti_sjson_print_byte" "mfti_sjson_print"
[@@noalloc]

(* A writer's scratch: the %.17g text at [0, half), a shorter candidate
   at [half, 2 half).  The longest %.17g text is 24 bytes. *)
let half = 32

(* The %.17g text [s.[0 .. len - 1]] of a nonzero float is a sign, the
   mantissa's significant digits from index [i] (past leading zeros and
   the point) up to [m] (the 'e' of an exponent, or [len]), broken by
   at most one '.' at [dot] ([m] when there is none), then the
   exponent, whose 'e' sits four or five bytes from the end. *)
let rec first_sig s i =
  match Bytes.get s i with '-' | '0' | '.' -> first_sig s (i + 1) | _ -> i

let mantissa_end s len =
  if len >= 5 && Bytes.get s (len - 4) = 'e' then len - 4
  else if len >= 6 && Bytes.get s (len - 5) = 'e' then len - 5
  else len

let rec index_of s c j stop =
  if j >= stop || Bytes.get s j = c then j else index_of s c (j + 1) stop

(* Significant digit [k] (1-based) of that text; positions past the
   printed digits (%g strips trailing zeros) read as '0'. *)
let sig_digit s i dot m k =
  let p = i + k - 1 in
  let p = if i < dot && dot <= p then p + 1 else p in
  if p < m then Bytes.get s p else '0'

(* Digits n+1 and n+2 of the 17-digit text are both '0' or both '9'. *)
let near_short s17 i dot m n =
  let d = sig_digit s17 i dot m (n + 1) in
  (d = '0' || d = '9') && sig_digit s17 i dot m (n + 2) = d

(* Appends the %.<n>g text of [x] to [b] when it parses back to [x]. *)
let add_if_exact sc b n x =
  let len = print sc half n x in
  float_of_string (Bytes.sub_string sc half len) = x
  && (Buffer.add_subbytes b sc half len; true)

(* Appends to [b] the shortest of %.6g / %.12g / %.17g that parses back
   to the finite float [x] (%.0f for an integer below 1e15): compact for
   round numbers, exact always.  The serving protocol relies on emitted
   values surviving a write/parse cycle bitwise.

   The %.17g text is formatted first, and a shorter candidate is only
   formatted and parse-checked when that text says it can round-trip.
   Why this never changes the output: take a normal [x] and an n-digit
   candidate c that parses back to [x].  Then |c - x| <= ulp(x)/2 <=
   1.11e-16 |x|, which is less than 1.11 units of digit 16 of [x].  The
   17-digit text is within 0.05 units of digit 16 of [x], so it differs
   from c by less than 1.2 units of digit 16: its digits n+1 .. 15 are
   all '0' (text above c) or all '9' (text below c), carrying into the
   next exponent if needed, where the stripped digits read as '0'.  So
   a candidate whose digits n+1 and n+2 fail that test cannot
   round-trip, and skipping it returns what the full cascade would.
   Subnormals have an absolute, not relative, ulp (5e-324 prints as
   4.94066e-324 under %.6g), so they try every candidate. *)
let add_finite sc b x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_subbytes b sc 0 (print sc 0 0 x)
  else begin
    let len17 = print sc 0 17 x in
    let i = first_sig sc 0 and m = mantissa_end sc len17 in
    let dot = index_of sc '.' 0 m in
    let subnormal = Float.abs x < Float.min_float in
    if not
         (((subnormal || near_short sc i dot m 6) && add_if_exact sc b 6 x)
         || ((subnormal || near_short sc i dot m 12) && add_if_exact sc b 12 x))
    then Buffer.add_subbytes b sc 0 len17
  end

type writer = { buf : Buffer.t; scratch : bytes }

let writer n = { buf = Buffer.create n; scratch = Bytes.create (2 * half) }
let buffer w = w.buf

let add_num w x =
  (* JSON has no NaN/infinity; emit null rather than invalid text *)
  if Float.is_finite x then add_finite w.scratch w.buf x
  else Buffer.add_string w.buf "null"

let rec add w v =
  let b = w.buf in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num x -> add_num w x
  | Str s ->
    Buffer.add_char b '"';
    buf_add_escaped b s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        add w x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b ", ";
        add w (Str k);
        Buffer.add_string b ": ";
        add w x)
      kvs;
    Buffer.add_char b '}'

let to_string t =
  let w = writer 4096 in
  add w t;
  Buffer.contents w.buf

exception Parse_error of string

(* Recursive-descent parser, just enough for the protocol and the
   smoke checks. *)
let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (if !pos >= n then fail "bad escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 't' -> Buffer.add_char b '\t'
             | 'r' -> Buffer.add_char b '\r'
             | 'u' ->
               if !pos + 4 >= n then fail "bad unicode escape";
               (* int_of_string would raise Failure on mutated hex
                  digits; every malformed input must be Parse_error *)
               let code =
                 match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                 | Some c when c >= 0 -> c
                 | _ -> fail "bad unicode escape"
               in
               pos := !pos + 4;
               if code < 128 then Buffer.add_char b (Char.chr code)
               else Buffer.add_char b '?'
             | c -> fail (Printf.sprintf "bad escape \\%c" c));
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elems (v :: acc)
          | Some ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None
