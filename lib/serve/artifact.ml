open Linalg
open Mfti

type t = {
  name : string;
  created : float;
  fit_err : float;
  model : Engine.Model.t;
}

let v ?(name = "") ?(fit_err = Float.nan) ?created model =
  let created = match created with Some c -> c | None -> Unix.time () in
  { name; created; fit_err; model }

let magic = "MFTIART\x00"
let format_version = 2

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)
(* Encoding *)

let w_u32 b n =
  if n < 0 then invalid_arg "Artifact: negative length";
  Buffer.add_int32_le b (Int32.of_int n)

let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))
let w_f64 b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_floats b a =
  w_u32 b (Array.length a);
  Array.iter (w_f64 b) a

let w_cmat b m =
  let rows, cols = Cmat.dims m in
  w_u32 b rows;
  w_u32 b cols;
  let re = Cmat.unsafe_re m and im = Cmat.unsafe_im m in
  for k = 0 to (rows * cols) - 1 do
    w_f64 b re.(k);
    w_f64 b im.(k)
  done

let encode t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  w_u32 b format_version;
  w_str b t.name;
  w_f64 b t.created;
  let m = t.model in
  let sys = Engine.Model.descriptor m in
  w_u32 b (Engine.Model.order m);
  w_u32 b (Engine.Model.inputs m);
  w_u32 b (Engine.Model.outputs m);
  w_u32 b (Engine.Model.rank m);
  w_f64 b t.fit_err;
  w_floats b (Engine.Model.sigma m);
  let timings = Engine.Model.timings m in
  w_u32 b (List.length timings);
  List.iter
    (fun (name, dt) ->
      w_str b name;
      w_f64 b dt)
    timings;
  (match Engine.Model.stats m with
   | None -> w_u8 b 0
   | Some s ->
     w_u8 b 1;
     w_u32 b s.Engine.Model.selected_units;
     w_u32 b s.Engine.Model.total_units;
     w_u32 b s.Engine.Model.iterations;
     w_floats b s.Engine.Model.history);
  w_cmat b sys.Statespace.Descriptor.e;
  w_cmat b sys.Statespace.Descriptor.a;
  w_cmat b sys.Statespace.Descriptor.b;
  w_cmat b sys.Statespace.Descriptor.c;
  w_cmat b sys.Statespace.Descriptor.d;
  (* version 2: certification block, last so a v1 body is a prefix *)
  (match Engine.Model.certificate m with
   | None -> w_u8 b 0
   | Some c ->
     w_u8 b 1;
     w_u8 b (if c.Certify.Certificate.stable then 1 else 0);
     w_u8 b (if c.Certify.Certificate.passive then 1 else 0);
     w_u32 b c.Certify.Certificate.flipped;
     w_u32 b c.Certify.Certificate.repair_iterations;
     w_f64 b c.Certify.Certificate.worst_margin;
     w_f64 b c.Certify.Certificate.pre_margin;
     w_f64 b c.Certify.Certificate.fit_delta);
  let body = Buffer.contents b in
  let crc = crc32 body in
  let tail = Buffer.create 4 in
  Buffer.add_int32_le tail crc;
  body ^ Buffer.contents tail

let to_string t =
  let s = encode t in
  (* deterministic damage for the robustness tests *)
  if Fault.armed "artifact.truncate" then
    String.sub s 0 (Stdlib.max 0 (String.length s - 9))
  else if Fault.armed "artifact.corrupt" then begin
    let bytes = Bytes.of_string s in
    (* flip the last magic byte: header corruption, detected pre-CRC *)
    Bytes.set bytes 7 '\xff';
    Bytes.to_string bytes
  end
  else s

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Bad of string

let of_string ?source s =
  let n = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let pos = ref 0 in
  let need k what =
    if !pos + k > n then raise (Bad (Printf.sprintf "truncated %s" what))
  in
  let r_u32 what =
    need 4 what;
    let v = Int32.to_int (Bytes.get_int32_le bytes !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    if v < 0 || v > 0x7FFFFFF then
      raise (Bad (Printf.sprintf "implausible %s (%d)" what v));
    v
  in
  let r_u8 what =
    need 1 what;
    let v = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v
  in
  let r_f64 what =
    need 8 what;
    let v = Int64.float_of_bits (Bytes.get_int64_le bytes !pos) in
    pos := !pos + 8;
    v
  in
  let r_str what =
    let len = r_u32 (what ^ " length") in
    need len what;
    let v = String.sub s !pos len in
    pos := !pos + len;
    v
  in
  let r_floats what =
    let len = r_u32 (what ^ " count") in
    let a = Array.make len 0. in
    for i = 0 to len - 1 do
      a.(i) <- r_f64 what
    done;
    a
  in
  let r_cmat what =
    let rows = r_u32 (what ^ " rows") in
    let cols = r_u32 (what ^ " cols") in
    let m = Cmat.create rows cols in
    let re = Cmat.unsafe_re m and im = Cmat.unsafe_im m in
    need (16 * rows * cols) what;
    for k = 0 to (rows * cols) - 1 do
      re.(k) <- Int64.float_of_bits (Bytes.get_int64_le bytes !pos);
      im.(k) <- Int64.float_of_bits (Bytes.get_int64_le bytes (!pos + 8));
      pos := !pos + 16
    done;
    m
  in
  match
    let ml = String.length magic in
    if n < ml + 4 + 4 then raise (Bad "truncated header");
    if String.sub s 0 ml <> magic then raise (Bad "bad magic");
    pos := ml;
    let ver = r_u32 "version" in
    if ver <> 1 && ver <> format_version then
      raise (Bad (Printf.sprintf "unsupported version %d (expected 1..%d)" ver
                    format_version));
    (* structural damage anywhere downstream surfaces here, before any
       field is trusted *)
    let stored =
      Int32.logand (Bytes.get_int32_le bytes (n - 4)) 0xFFFFFFFFl
    in
    let computed = crc32 (String.sub s 0 (n - 4)) in
    if stored <> computed then raise (Bad "checksum mismatch");
    let name = r_str "name" in
    let created = r_f64 "created" in
    let order = r_u32 "order" in
    let inputs = r_u32 "inputs" in
    let outputs = r_u32 "outputs" in
    let rank = r_u32 "rank" in
    let fit_err = r_f64 "fit_err" in
    let sigma = r_floats "sigma" in
    let ntimings = r_u32 "timings count" in
    let timings = ref [] in
    for _ = 1 to ntimings do
      let name = r_str "timing name" in
      let dt = r_f64 "timing value" in
      timings := (name, dt) :: !timings
    done;
    let timings = List.rev !timings in
    let stats =
      match r_u8 "stats flag" with
      | 0 -> None
      | 1 ->
        let selected_units = r_u32 "selected_units" in
        let total_units = r_u32 "total_units" in
        let iterations = r_u32 "iterations" in
        let history = r_floats "history" in
        Some
          { Engine.Model.selected_units; total_units; iterations; history }
      | k -> raise (Bad (Printf.sprintf "bad stats flag %d" k))
    in
    let e = r_cmat "E" in
    let a = r_cmat "A" in
    let b = r_cmat "B" in
    let c = r_cmat "C" in
    let d = r_cmat "D" in
    (* version-1 files simply end here: they load with no certificate *)
    let certificate =
      if ver < 2 then None
      else
        let r_bool what =
          match r_u8 what with
          | 0 -> false
          | 1 -> true
          | k -> raise (Bad (Printf.sprintf "bad %s %d" what k))
        in
        match r_u8 "certificate flag" with
        | 0 -> None
        | 1 ->
          let stable = r_bool "certificate stable" in
          let passive = r_bool "certificate passive" in
          let flipped = r_u32 "certificate flipped" in
          let repair_iterations = r_u32 "certificate repairs" in
          let worst_margin = r_f64 "certificate worst margin" in
          let pre_margin = r_f64 "certificate pre margin" in
          let fit_delta = r_f64 "certificate fit delta" in
          Some
            { Certify.Certificate.stable; passive; flipped; worst_margin;
              pre_margin; repair_iterations; fit_delta }
        | k -> raise (Bad (Printf.sprintf "bad certificate flag %d" k))
    in
    if !pos <> n - 4 then raise (Bad "trailing bytes");
    let sys =
      try Statespace.Descriptor.create ~e ~a ~b ~c ~d
      with Invalid_argument m -> raise (Bad ("inconsistent matrices: " ^ m))
    in
    if Statespace.Descriptor.order sys <> order
       || Statespace.Descriptor.inputs sys <> inputs
       || Statespace.Descriptor.outputs sys <> outputs
    then raise (Bad "header dimensions disagree with matrices");
    let model = Engine.Model.make ~sigma ?stats ?certificate ~timings ~rank sys in
    { name; created; fit_err; model }
  with
  | t -> Ok t
  | exception Bad message ->
    Error (Mfti_error.Parse { source; line = None; message })

(* ------------------------------------------------------------------ *)
(* Files *)

let temp_suffix = ".tmp"
let quarantine_suffix = ".quarantined"

let write_all fd s ~len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Crash-safe: the bytes land in [path ^ ".tmp"], are fsynced, and only
   then renamed over [path].  A crash at any point leaves either the old
   artifact intact or a torn ".tmp" orphan — never a torn ".mfti".  The
   ["serve.torn_write"] fault site simulates the crash: half the bytes
   are written, the temp file is left behind, and a typed error is
   raised without renaming. *)
let save path t =
  let data = to_string t in
  let tmp = path ^ temp_suffix in
  let fd =
    try Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (err, _, _) ->
      (* a missing or unwritable directory is a bad destination, not a
         crash *)
      Mfti_error.raise_error
        (Mfti_error.Validation
           { context = "artifact";
             message =
               Printf.sprintf "cannot write %s: %s" path (Unix.error_message err) })
  in
  (match
     if Fault.armed "serve.torn_write" then begin
       write_all fd data ~len:(String.length data / 2);
       Mfti_error.raise_error (Mfti_error.Fault_injected { site = "serve.torn_write" })
     end;
     write_all fd data ~len:(String.length data);
     Unix.fsync fd
   with
   | () -> Unix.close fd
   | exception e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.rename tmp path;
  (* best-effort directory fsync so the rename itself is durable *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
    (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
    (try Unix.close dirfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | s -> of_string ~source:path s
  | exception Sys_error m ->
    Error (Mfti_error.Parse { source = Some path; line = None; message = m })

let load_exn path =
  match load path with
  | Ok t -> t
  | Error e -> Mfti_error.raise_error e

(* ------------------------------------------------------------------ *)
(* Startup recovery *)

type quarantine = {
  original : string;
  quarantined : string;
  reason : Mfti_error.t;
}

(* Scan a model root for damage left by interrupted writers: orphaned
   ".mfti.tmp" files (a save that died before its rename) and torn or
   corrupt ".mfti" files (a legacy non-atomic writer, disk damage).
   Each is renamed aside with a ".quarantined" suffix — outside the
   servable namespace, which is exactly "*.mfti" — so a damaged model
   is never silently loaded, and the evidence survives for inspection. *)
let recover_root ?(verify = true) root =
  match Sys.readdir root with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort compare entries;
    Array.to_list entries
    |> List.filter_map (fun f ->
        let p = Filename.concat root f in
        let quarantine reason =
          let q = p ^ quarantine_suffix in
          match Sys.rename p q with
          | () -> Some { original = p; quarantined = q; reason }
          | exception Sys_error m ->
            (* the rename itself failed: report it, leave the file *)
            Some
              { original = p; quarantined = p;
                reason =
                  Mfti_error.Parse
                    { source = Some p; line = None;
                      message = "quarantine rename failed: " ^ m } }
        in
        if Filename.check_suffix f (".mfti" ^ temp_suffix) then
          quarantine
            (Mfti_error.Parse
               { source = Some p; line = None;
                 message = "orphaned temp file from an interrupted save" })
        else if Filename.check_suffix f ".mfti" && verify then
          match load p with Ok _ -> None | Error e -> quarantine e
        else None)
