open Linalg

type mode = Json | Binary
type payload = Json_text of string | Grid_body of string

let tag_json = 'J'
let tag_grid = 'G'

let parse_fail message =
  Mfti_error.raise_error
    (Mfti_error.Parse { source = Some "frame"; line = None; message })

(* ------------------------------------------------------------------ *)
(* Binary encoding *)

let put_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let put_f64 b x = Buffer.add_int64_be b (Int64.bits_of_float x)

let unsigned (v : int32) = Int32.to_int v land 0xFFFF_FFFF

let get_u32 s off =
  if off + 4 > String.length s then parse_fail "truncated u32";
  unsigned (String.get_int32_be s off)

let get_f64 s off =
  if off + 8 > String.length s then parse_fail "truncated f64";
  Int64.float_of_bits (String.get_int64_be s off)

let frame tag payload =
  let b = Buffer.create (String.length payload + 5) in
  put_u32 b (String.length payload + 1);
  Buffer.add_char b tag;
  Buffer.add_string b payload;
  Buffer.contents b

let encode_json s = frame tag_json s
let encode_grid body = frame tag_grid body

let grid_body ~meta ~grid =
  let meta_text = Sjson.to_string meta in
  let points = Array.length grid in
  let p, m = if points = 0 then (0, 0) else Cmat.dims grid.(0) in
  let b = Buffer.create (String.length meta_text + 16 + (points * p * m * 16)) in
  put_u32 b (String.length meta_text);
  Buffer.add_string b meta_text;
  put_u32 b points;
  put_u32 b p;
  put_u32 b m;
  Array.iter
    (fun h ->
      let hp, hm = Cmat.dims h in
      if hp <> p || hm <> m then parse_fail "grid matrices disagree on dims";
      for i = 0 to p - 1 do
        for j = 0 to m - 1 do
          let z = Cmat.get h i j in
          put_f64 b z.Cx.re;
          put_f64 b z.Cx.im
        done
      done)
    grid;
  Buffer.contents b

let results_json grid =
  Sjson.Arr
    (Array.to_list
       (Array.map
          (fun h ->
            let p, m = Cmat.dims h in
            Sjson.Arr
              (List.init p (fun i ->
                   Sjson.Arr
                     (List.init m (fun jc ->
                          let z = Cmat.get h i jc in
                          Sjson.Arr [ Sjson.Num z.Cx.re; Sjson.Num z.Cx.im ])))))
          grid))

(* The bytes of [Sjson.to_string (Obj (meta @ [("results",
   results_json grid)]))], written straight into one buffer.  An entry
   of 17-digit floats with its separator averages about 48 bytes on
   S-parameter grids, so 56 a piece leaves the buffer one allocation. *)
let grid_json ~meta ~grid =
  let entries = Array.fold_left (fun n (h : Cmat.t) -> n + (h.rows * h.cols)) 0 grid in
  let w = Sjson.writer (256 + (entries * 56)) in
  let b = Sjson.buffer w in
  Buffer.add_char b '{';
  List.iter
    (fun (k, v) ->
      Sjson.add w (Sjson.Str k);
      Buffer.add_string b ": ";
      Sjson.add w v;
      Buffer.add_string b ", ")
    meta;
  Buffer.add_string b "\"results\": [";
  Array.iteri
    (fun k (h : Cmat.t) ->
      if k > 0 then Buffer.add_string b ", ";
      Buffer.add_char b '[';
      for i = 0 to h.rows - 1 do
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_char b '[';
        for j = 0 to h.cols - 1 do
          if j > 0 then Buffer.add_string b ", ";
          (* column-major storage *)
          let e = i + (j * h.rows) in
          Buffer.add_char b '[';
          Sjson.add_num w h.re.(e);
          Buffer.add_string b ", ";
          Sjson.add_num w h.im.(e);
          Buffer.add_char b ']'
        done;
        Buffer.add_char b ']'
      done;
      Buffer.add_char b ']')
    grid;
  Buffer.add_string b "]}";
  Buffer.contents b

let decode_grid_body body =
  let meta_len = get_u32 body 0 in
  if 4 + meta_len > String.length body then parse_fail "truncated grid meta";
  let meta_text = String.sub body 4 meta_len in
  let meta =
    match Sjson.parse meta_text with
    | j -> j
    | exception Sjson.Parse_error m -> parse_fail ("grid meta: " ^ m)
  in
  let off = 4 + meta_len in
  let points = get_u32 body off in
  let p = get_u32 body (off + 4) in
  let m = get_u32 body (off + 8) in
  let off = off + 12 in
  if String.length body <> off + (points * p * m * 16) then
    parse_fail "grid payload length disagrees with its header";
  let grid =
    Array.init points (fun k ->
        let h = Cmat.zeros p m in
        let base = off + (k * p * m * 16) in
        for i = 0 to p - 1 do
          for j = 0 to m - 1 do
            let e = base + (((i * m) + j) * 16) in
            Cmat.set h i j { Cx.re = get_f64 body e; im = get_f64 body (e + 8) }
          done
        done;
        h)
  in
  (meta, grid)

(* ------------------------------------------------------------------ *)
(* Incremental reader *)

module Reader = struct
  (* The live bytes are [data.[start .. stop - 1]].  [scanned] (start <=
     scanned <= stop) is how far the search for '\n' has got: no
     newline lies in [start, scanned), so a line trickled in over many
     chunks is scanned once, and bytes are copied out only when a frame
     is complete. *)
  type t = {
    mutable data : bytes;
    mutable start : int;
    mutable stop : int;
    mutable scanned : int;
  }

  let create () = { data = Bytes.create 512; start = 0; stop = 0; scanned = 0 }
  let pending r = r.stop - r.start

  (* Make room for [k] more bytes: slide the live bytes to the front
     when that frees at least half the buffer, else double it.  Either
     way a byte is moved O(1) times on average. *)
  let reserve r k =
    let live = pending r and cap = Bytes.length r.data in
    if r.stop + k > cap then begin
      let data =
        if live + k <= cap / 2 then r.data
        else Bytes.create (Stdlib.max (2 * cap) (live + k))
      in
      Bytes.blit r.data r.start data 0 live;
      r.data <- data;
      r.scanned <- r.scanned - r.start;
      r.start <- 0;
      r.stop <- live
    end

  let add r chunk k =
    reserve r k;
    Bytes.blit chunk 0 r.data r.stop k;
    r.stop <- r.stop + k

  (* drop the first [n] live bytes *)
  let consume r n =
    r.start <- r.start + n;
    r.scanned <- Stdlib.max r.scanned r.start;
    if r.start = r.stop then begin
      r.start <- 0;
      r.stop <- 0;
      r.scanned <- 0
    end

  let take_rest r =
    let s = Bytes.sub_string r.data r.start (pending r) in
    consume r (pending r);
    s

  let rec find_newline r =
    if r.scanned >= r.stop then None
    else if Bytes.get r.data r.scanned = '\n' then Some r.scanned
    else begin
      r.scanned <- r.scanned + 1;
      find_newline r
    end

  let next_json r ~max_bytes =
    match find_newline r with
    | None -> if pending r > max_bytes then `Too_long else `None
    | Some i ->
      (* tolerate CRLF clients *)
      let len =
        if i > r.start && Bytes.get r.data (i - 1) = '\r' then i - 1 - r.start
        else i - r.start
      in
      let frame =
        if len > max_bytes then `Too_long
        else `Frame (Json_text (Bytes.sub_string r.data r.start len))
      in
      consume r (i + 1 - r.start);
      frame

  let next_binary r ~max_bytes =
    let have = pending r in
    if have < 4 then (if have > 0 && have > max_bytes then `Too_long else `None)
    else begin
      let n = unsigned (Bytes.get_int32_be r.data r.start) in
      if n < 1 then `Bad "binary frame with empty payload"
      else if n + 4 > max_bytes then `Too_long
      else if have < 4 + n then `None
      else begin
        let tag = Bytes.get r.data (r.start + 4) in
        let payload = Bytes.sub_string r.data (r.start + 5) (n - 1) in
        consume r (4 + n);
        if tag = tag_json then `Frame (Json_text payload)
        else if tag = tag_grid then `Frame (Grid_body payload)
        else `Bad (Printf.sprintf "unknown frame tag 0x%02x" (Char.code tag))
      end
    end

  let next r ~mode ~max_bytes =
    match mode with
    | Json -> next_json r ~max_bytes
    | Binary -> next_binary r ~max_bytes
end

(* ------------------------------------------------------------------ *)
(* Negotiation *)

let is_hello line =
  (* cheap reject first: almost every request is not a hello, and the
     transports probe every line *)
  let has_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let rec matches i j = j = n || (hay.[i + j] = needle.[j] && matches i (j + 1)) in
    let rec at i = i + n <= h && (matches i 0 || at (i + 1)) in
    at 0
  in
  if not (has_sub "hello" line) then None
  else
    match Sjson.parse line with
    | j ->
      (match Sjson.member "op" j with
       | Some (Sjson.Str "hello") ->
         (match Sjson.member "frames" j with
          | Some (Sjson.Str f) -> Some f
          | _ -> Some "")
       | _ -> None)
    | exception Sjson.Parse_error _ -> None

let hello_ack frames =
  Sjson.to_string
    (Sjson.Obj
       [ ("ok", Sjson.Bool true);
         ("op", Sjson.Str "hello");
         ("frames", Sjson.Str frames) ])
