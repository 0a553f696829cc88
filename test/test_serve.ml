(* Serving layer: artifact round-trips (bitwise), corrupt/truncated
   artifact detection, compiled pole-residue accuracy against direct
   descriptor evaluation, LRU cache accounting, and the line-delimited
   JSON protocol including its typed error paths. *)

open Linalg
open Statespace
open Serve

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let spec ports =
  { Random_sys.order = 16; ports; rank_d = ports; freq_lo = 1e2;
    freq_hi = 1e6; damping = 0.12; seed = 7 + ports }

let sys_of ports = Random_sys.generate (spec ports)

let model_of sys =
  Mfti.Engine.Model.make
    ~sigma:[| 3.0; 1.5; 0.25 |]
    ~stats:{ Mfti.Engine.Model.selected_units = 4; total_units = 9;
             iterations = 3; history = [| 0.5; 0.25; 0.125 |] }
    ~timings:[ ("ingest", 0.001); ("reduce", 0.002) ]
    ~rank:(Descriptor.order sys) sys

let artifact_of ?(name = "test-model") sys =
  Artifact.v ~name ~fit_err:3.25e-7 ~created:1.7e9 (model_of sys)

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mfti_serve_test_%d_%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* bitwise float comparison: IEEE bits, so NaN = NaN and -0. <> 0. *)
let same_float what x y =
  if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) then
    Alcotest.failf "%s: %h <> %h" what x y

let same_mat what x y =
  let dx = Cmat.dims x and dy = Cmat.dims y in
  Alcotest.(check (pair int int)) (what ^ " dims") dx dy;
  let xr = Cmat.unsafe_re x and xi = Cmat.unsafe_im x in
  let yr = Cmat.unsafe_re y and yi = Cmat.unsafe_im y in
  Array.iteri (fun k v -> same_float (Printf.sprintf "%s re[%d]" what k) v yr.(k)) xr;
  Array.iteri (fun k v -> same_float (Printf.sprintf "%s im[%d]" what k) v yi.(k)) xi

let rel_err got exact =
  Cmat.norm_fro (Cmat.sub got exact)
  /. Stdlib.max (Cmat.norm_fro exact) 1e-300

let expect_parse what = function
  | Error (Mfti_error.Parse _) -> ()
  | Error e ->
    Alcotest.failf "%s: expected Parse error, got %s" what
      (Mfti_error.to_string e)
  | Ok _ -> Alcotest.failf "%s: damaged artifact was accepted" what

(* ------------------------------------------------------------------ *)
(* Artifact *)

let test_artifact_round_trip () =
  let sys = sys_of 3 in
  let art = artifact_of sys in
  match Artifact.of_string (Artifact.to_string art) with
  | Error e -> Alcotest.failf "decode failed: %s" (Mfti_error.to_string e)
  | Ok got ->
    Alcotest.(check string) "name" art.Artifact.name got.Artifact.name;
    same_float "created" art.Artifact.created got.Artifact.created;
    same_float "fit_err" art.Artifact.fit_err got.Artifact.fit_err;
    let m = art.Artifact.model and m' = got.Artifact.model in
    Alcotest.(check int) "rank" (Mfti.Engine.Model.rank m)
      (Mfti.Engine.Model.rank m');
    Array.iteri
      (fun i v -> same_float (Printf.sprintf "sigma[%d]" i) v
          (Mfti.Engine.Model.sigma m').(i))
      (Mfti.Engine.Model.sigma m);
    Alcotest.(check (list (pair string (float 0.)))) "timings"
      (Mfti.Engine.Model.timings m) (Mfti.Engine.Model.timings m');
    (match Mfti.Engine.Model.stats m, Mfti.Engine.Model.stats m' with
     | Some s, Some s' ->
       Alcotest.(check int) "selected" s.Mfti.Engine.Model.selected_units
         s'.Mfti.Engine.Model.selected_units;
       Alcotest.(check int) "iterations" s.Mfti.Engine.Model.iterations
         s'.Mfti.Engine.Model.iterations
     | _ -> Alcotest.fail "stats lost in round trip");
    let d = Mfti.Engine.Model.descriptor m
    and d' = Mfti.Engine.Model.descriptor m' in
    same_mat "E" d.Descriptor.e d'.Descriptor.e;
    same_mat "A" d.Descriptor.a d'.Descriptor.a;
    same_mat "B" d.Descriptor.b d'.Descriptor.b;
    same_mat "C" d.Descriptor.c d'.Descriptor.c;
    same_mat "D" d.Descriptor.d d'.Descriptor.d

(* NaN fit error (the "unknown" marker) must survive the raw-bits path *)
let test_artifact_nan_fit_err () =
  let art = Artifact.v ~name:"n" (model_of (sys_of 1)) in
  match Artifact.of_string (Artifact.to_string art) with
  | Error e -> Alcotest.failf "decode failed: %s" (Mfti_error.to_string e)
  | Ok got ->
    Alcotest.(check bool) "fit_err is nan" true
      (Float.is_nan got.Artifact.fit_err)

let test_artifact_byte_stable () =
  let art = artifact_of (sys_of 2) in
  let s1 = Artifact.to_string art in
  match Artifact.of_string s1 with
  | Error e -> Alcotest.failf "decode failed: %s" (Mfti_error.to_string e)
  | Ok got ->
    let s2 = Artifact.to_string got in
    Alcotest.(check int) "encoded length" (String.length s1) (String.length s2);
    Alcotest.(check bool) "decode/encode is the identity on bytes" true
      (String.equal s1 s2)

let test_artifact_fault_corrupt () =
  let art = artifact_of (sys_of 2) in
  let s = Fault.with_spec "artifact.corrupt" (fun () -> Artifact.to_string art) in
  expect_parse "corrupt header" (Artifact.of_string s)

let test_artifact_fault_truncate () =
  let art = artifact_of (sys_of 2) in
  let s = Fault.with_spec "artifact.truncate" (fun () -> Artifact.to_string art) in
  expect_parse "truncated" (Artifact.of_string s)

let test_artifact_payload_bitflip () =
  let art = artifact_of (sys_of 2) in
  let s = Artifact.to_string art in
  (* flip one bit in the middle of the payload: only the CRC can see it *)
  let b = Bytes.of_string s in
  let k = String.length s / 2 in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0x10));
  expect_parse "payload bit flip" (Artifact.of_string (Bytes.to_string b))

let test_artifact_bad_version () =
  let art = artifact_of (sys_of 2) in
  let s = Artifact.to_string art in
  let b = Bytes.of_string s in
  Bytes.set b 8 '\x63';  (* version field follows the 8-byte magic *)
  expect_parse "future version" (Artifact.of_string (Bytes.to_string b));
  expect_parse "trailing garbage" (Artifact.of_string (s ^ "!!"));
  expect_parse "empty" (Artifact.of_string "");
  expect_parse "not an artifact" (Artifact.of_string "MFTIART\x00 nope")

let test_artifact_file_round_trip () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "m.mfti" in
  let art = artifact_of (sys_of 2) in
  Artifact.save path art;
  let got = Artifact.load_exn path in
  Alcotest.(check string) "name" art.Artifact.name got.Artifact.name;
  same_mat "A"
    (Mfti.Engine.Model.descriptor art.Artifact.model).Descriptor.a
    (Mfti.Engine.Model.descriptor got.Artifact.model).Descriptor.a;
  expect_parse "missing file" (Artifact.load (Filename.concat dir "no.mfti"))

(* property: encoding is deterministic and self-inverse across systems *)
let prop_artifact_round_trip =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun ports ->
      int_range 1 10 >>= fun order ->
      int_bound 1000 >|= fun seed -> (ports, order, seed))
  in
  let arb =
    QCheck.make gen ~print:(fun (p, n, s) ->
        Printf.sprintf "ports=%d order=%d seed=%d" p n s)
  in
  QCheck.Test.make ~name:"artifact byte-stability across random systems"
    ~count:25 arb
    (fun (ports, order, seed) ->
      let sys =
        Random_sys.generate
          { Random_sys.order; ports; rank_d = ports; freq_lo = 10.;
            freq_hi = 1e5; damping = 0.2; seed }
      in
      let art = Artifact.v ~name:"prop" (Mfti.Engine.Model.make ~rank:order sys) in
      let s1 = Artifact.to_string art in
      match Artifact.of_string s1 with
      | Error _ -> false
      | Ok got -> String.equal s1 (Artifact.to_string got))

(* ------------------------------------------------------------------ *)
(* Compiled *)

let eval_tol = 1e-10

let test_compiled_accuracy () =
  List.iter
    (fun ports ->
      let sys = sys_of ports in
      let c = Compiled.of_descriptor sys in
      Alcotest.(check bool)
        (Printf.sprintf "ports=%d compiles to pole-residue" ports)
        true (Compiled.mode c = Compiled.Pole_residue);
      Alcotest.(check int) "pole count" (Descriptor.order sys)
        (Array.length (Compiled.poles c));
      Array.iter
        (fun f ->
          let e = rel_err (Compiled.eval_freq c f) (Descriptor.eval_freq sys f) in
          if e > eval_tol then
            Alcotest.failf "ports=%d f=%g: rel err %.3e > %.0e" ports f e
              eval_tol)
        (Sampling.logspace 1e1 1e7 64))
    [ 1; 2; 4; 8 ]

let test_compiled_grid_matches_single () =
  let c = Compiled.of_descriptor (sys_of 2) in
  let freqs = Sampling.logspace 1e2 1e6 33 in
  let grid = Compiled.eval_grid c freqs in
  Array.iteri
    (fun i f -> same_mat (Printf.sprintf "point %d" i) grid.(i)
        (Compiled.eval_freq c f))
    freqs

let test_compiled_grid_domain_invariant () =
  let c = Compiled.of_descriptor (sys_of 4) in
  let freqs = Sampling.logspace 1e2 1e6 257 in
  let pooled = Compiled.eval_grid c freqs in
  let sequential = Parallel.with_sequential (fun () -> Compiled.eval_grid c freqs) in
  Array.iteri
    (fun i _ -> same_mat (Printf.sprintf "point %d" i) pooled.(i) sequential.(i))
    freqs

let test_compiled_defective_fault () =
  let sys = sys_of 2 in
  let (c, diag) =
    Fault.with_spec "compiled.defective" (fun () ->
        Diag.with_collector (fun () -> Compiled.of_descriptor sys))
  in
  Alcotest.(check bool) "direct mode" true (Compiled.mode c = Compiled.Direct);
  Alcotest.(check int) "no poles" 0 (Array.length (Compiled.poles c));
  Alcotest.(check bool) "fallback recorded" true
    (Diag.recorded diag "compiled.defective_fallback");
  (* Direct mode serves the certifier's Hessenberg-triangular sweep *)
  let f = 1.5e3 in
  let got = Compiled.eval_freq c f in
  same_mat "direct eval = eval_grid" got (Descriptor.eval_grid sys [| f |]).(0);
  let e = rel_err got (Descriptor.eval_freq sys f) in
  if e > eval_tol then
    Alcotest.failf "direct eval: rel err %.3e against Descriptor.eval" e

(* Direct-mode models: the fault-forced random system, and the 4-port
   PDN fit from a 100-point Touchstone round trip (what `gen pdn` then
   `fit --out` produce), whose nearly singular E fails the pole-residue
   probe. *)
let pdn_fit =
  lazy
    (let board =
       { Rf.Pdn.default_spec with ports = 4; decaps = 2; nx = 3; ny = 3; seed = 1 }
     in
     let path = Filename.concat (fresh_dir ()) "pdn.s4p" in
     Rf.Touchstone.write_file path
       { Rf.Touchstone.parameter = Rf.Touchstone.S; z0 = 50.;
         samples = Rf.Pdn.scattering board ~z0:50. (Sampling.logspace 1e6 3e9 100) };
     let data = Rf.Touchstone.read_file path in
     Mfti.Engine.Model.of_fit
       (Mfti.Engine.fit (Mfti.Tangential.trim_even data.Rf.Touchstone.samples)))

let direct_cases () =
  let forced = sys_of 2 in
  let pdn = Mfti.Engine.Model.descriptor (Lazy.force pdn_fit) in
  [ ( "fault-forced sys_of 2",
      Fault.with_spec "compiled.defective" (fun () -> Compiled.of_descriptor forced),
      forced,
      Sampling.logspace 1e2 1e6 64 );
    ( "round-tripped PDN fit",
      Compiled.of_model (Lazy.force pdn_fit),
      pdn,
      Sampling.logspace 1e6 3e9 64 ) ]

let test_compiled_direct_hessenberg () =
  List.iter
    (fun (what, c, sys, freqs) ->
      Alcotest.(check bool) (what ^ ": direct mode") true
        (Compiled.mode c = Compiled.Direct);
      let grid = Compiled.eval_grid c freqs in
      let sweep = Descriptor.eval_grid sys freqs in
      let sequential = Parallel.with_sequential (fun () -> Compiled.eval_grid c freqs) in
      Array.iteri
        (fun i f ->
          let at = Printf.sprintf "%s point %d" what i in
          same_mat (at ^ " = Descriptor.eval_grid") grid.(i) sweep.(i);
          same_mat (at ^ " = eval_freq") (Compiled.eval_grid c [| f |]).(0)
            (Compiled.eval_freq c f);
          same_mat (at ^ " pooled = sequential") grid.(i) sequential.(i);
          let e = rel_err grid.(i) (Descriptor.eval_freq sys f) in
          if e > eval_tol then
            Alcotest.failf "%s: rel err %.3e against Descriptor.eval" at e)
        freqs)
    (direct_cases ())

let test_compiled_direct_complex () =
  (* a complex (legacy) realization has no real Hessenberg-triangular
     form: every point is Descriptor.eval's LU *)
  let real = sys_of 2 in
  let sys =
    Descriptor.create ~e:real.Descriptor.e ~a:real.Descriptor.a
      ~b:(Cmat.scale { Cx.re = 0.6; im = 0.8 } real.Descriptor.b)
      ~c:real.Descriptor.c ~d:real.Descriptor.d
  in
  Alcotest.(check bool) "no real form" true (Descriptor.hessenberg sys = None);
  let c = Fault.with_spec "compiled.defective" (fun () -> Compiled.of_descriptor sys) in
  Alcotest.(check bool) "direct mode" true (Compiled.mode c = Compiled.Direct);
  let freqs = Sampling.logspace 1e2 1e6 17 in
  let grid = Compiled.eval_grid c freqs in
  Array.iteri
    (fun i f ->
      same_mat (Printf.sprintf "point %d" i) grid.(i) (Descriptor.eval_freq sys f))
    freqs

let test_compiled_direct_zero_pivot () =
  (* poles at +-j w0 on the axis: the elimination meets an exact zero
     pivot at f0, and the point goes to Descriptor.eval, whose LU takes
     the column-pivoted QR fallback *)
  let f0 = 3. in
  let w0 = 2. *. Float.pi *. f0 in
  let sys =
    Descriptor.of_state_space
      ~a:(Cmat.of_rows [ [ Cx.zero; { Cx.re = -.w0; im = 0. } ];
                         [ { Cx.re = w0; im = 0. }; Cx.zero ] ])
      ~b:(Cmat.identity 2) ~c:(Cmat.identity 2) ~d:(Cmat.zeros 2 2)
  in
  let form = Option.get (Descriptor.hessenberg sys) in
  Alcotest.(check bool) "zero pivot at f0" true
    (Descriptor.hessenberg_eval form (Cx.jw w0) = None);
  let c = Fault.with_spec "compiled.defective" (fun () -> Compiled.of_descriptor sys) in
  let grid, diag = Diag.with_collector (fun () -> Compiled.eval_grid c [| 1.; f0 |]) in
  let exact = Descriptor.eval_freq sys f0 in
  Alcotest.(check bool) "QR fallback recorded" true
    (Diag.recorded diag "lu.qr_fallback");
  Alcotest.(check bool) "finite" true (Cmat.is_finite grid.(1));
  same_mat "grid = Descriptor.eval" grid.(1) exact;
  same_mat "eval_freq = Descriptor.eval" (Compiled.eval_freq c f0) exact;
  same_mat "regular point = eval_grid" grid.(0)
    (Descriptor.eval_grid sys [| 1. |]).(0)

let test_compiled_static () =
  let d = Cmat.create 2 2 in
  Cmat.set d 0 0 { Cx.re = 0.5; im = 0. };
  Cmat.set d 1 1 { Cx.re = -0.25; im = 0. };
  let sys =
    Descriptor.create ~e:(Cmat.create 0 0) ~a:(Cmat.create 0 0)
      ~b:(Cmat.create 0 2) ~c:(Cmat.create 2 0) ~d
  in
  let c = Compiled.of_descriptor sys in
  Alcotest.(check bool) "pole-residue" true
    (Compiled.mode c = Compiled.Pole_residue);
  Alcotest.(check int) "no poles" 0 (Array.length (Compiled.poles c));
  same_mat "H = D" (Compiled.eval c (Cx.jw 42.)) d

(* the acceptance-gate headline: pack, reload, recompile, evaluate —
   every float identical to serving the in-memory model *)
let test_pack_load_eval_bit_identical () =
  let sys = sys_of 4 in
  let art = artifact_of sys in
  let dir = fresh_dir () in
  let path = Filename.concat dir "bit.mfti" in
  Artifact.save path art;
  let loaded = Artifact.load_exn path in
  let c0 = Compiled.of_model art.Artifact.model in
  let c1 = Compiled.of_model loaded.Artifact.model in
  Alcotest.(check bool) "same mode" true
    (Compiled.mode c0 = Compiled.mode c1);
  let freqs = Sampling.logspace 1e2 1e6 48 in
  let g0 = Compiled.eval_grid c0 freqs and g1 = Compiled.eval_grid c1 freqs in
  Array.iteri
    (fun i _ -> same_mat (Printf.sprintf "point %d" i) g0.(i) g1.(i))
    freqs

(* ------------------------------------------------------------------ *)
(* LRU *)

let test_lru_eviction_order () =
  let cache = Lru.create ~budget:100 in
  Lru.insert cache "a" ~bytes:40 0;
  Lru.insert cache "b" ~bytes:40 1;
  Lru.insert cache "c" ~bytes:40 2;
  Alcotest.(check bool) "a evicted" false (Lru.mem cache "a");
  Alcotest.(check (list string)) "recency order" [ "c"; "b" ]
    (Lru.keys_by_recency cache);
  Alcotest.(check int) "bytes" 80 (Lru.resident_bytes cache);
  Alcotest.(check int) "evictions" 1 (Lru.stats cache).Lru.evictions

let test_lru_find_bumps_recency () =
  let cache = Lru.create ~budget:100 in
  Lru.insert cache "a" ~bytes:40 0;
  Lru.insert cache "b" ~bytes:40 1;
  Alcotest.(check (option int)) "hit" (Some 0) (Lru.find cache "a");
  Lru.insert cache "c" ~bytes:40 2;
  (* b, not a, is now the LRU victim *)
  Alcotest.(check bool) "a kept" true (Lru.mem cache "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem cache "b");
  let s = Lru.stats cache in
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "count" 2 s.Lru.count

let test_lru_oversize () =
  let cache = Lru.create ~budget:100 in
  Lru.insert cache "a" ~bytes:40 0;
  Lru.insert cache "huge" ~bytes:101 1;
  Alcotest.(check bool) "oversize not cached" false (Lru.mem cache "huge");
  Alcotest.(check bool) "existing entry untouched" true (Lru.mem cache "a");
  Alcotest.(check int) "oversize counted" 1 (Lru.stats cache).Lru.oversize;
  Alcotest.(check int) "no eviction charged" 0 (Lru.stats cache).Lru.evictions

let test_lru_replace_releases_bytes () =
  let cache = Lru.create ~budget:100 in
  Lru.insert cache "a" ~bytes:60 0;
  Lru.insert cache "a" ~bytes:30 1;
  Alcotest.(check int) "bytes after replace" 30 (Lru.resident_bytes cache);
  Alcotest.(check (option int)) "new value" (Some 1) (Lru.find cache "a");
  Lru.remove cache "a";
  Alcotest.(check int) "bytes after remove" 0 (Lru.resident_bytes cache);
  Alcotest.(check int) "still no evictions" 0 (Lru.stats cache).Lru.evictions

(* ------------------------------------------------------------------ *)
(* Server protocol *)

let j_mem k j =
  match Sjson.member k j with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S in %s" k (Sjson.to_string j)

let j_bool k j =
  match j_mem k j with
  | Sjson.Bool b -> b
  | _ -> Alcotest.failf "%S is not a bool" k

let j_num k j =
  match j_mem k j with
  | Sjson.Num x -> x
  | _ -> Alcotest.failf "%S is not a number" k

let j_str k j =
  match j_mem k j with
  | Sjson.Str s -> s
  | _ -> Alcotest.failf "%S is not a string" k

let request srv line =
  let text, stop = Server.handle_line srv line in
  (Sjson.parse text, stop)

let expect_error srv ~kind line =
  let j, stop = request srv line in
  Alcotest.(check bool) "not ok" false (j_bool "ok" j);
  Alcotest.(check bool) "does not stop the loop" false stop;
  Alcotest.(check string) "error kind" kind (j_str "kind" (j_mem "error" j))

(* one root with two models, shared across the protocol tests *)
let server_root =
  lazy
    (let dir = fresh_dir () in
     Artifact.save (Filename.concat dir "alpha.mfti")
       (artifact_of ~name:"alpha" (sys_of 2));
     Artifact.save (Filename.concat dir "beta.mfti")
       (artifact_of ~name:"beta" (sys_of 1));
     dir)

let make_server ?cache_bytes () =
  Server.create ?cache_bytes ~root:(Lazy.force server_root) ()

let test_server_list_models () =
  let srv = make_server () in
  let j, _ = request srv {|{"op":"list-models"}|} in
  Alcotest.(check bool) "ok" true (j_bool "ok" j);
  match j_mem "models" j with
  | Sjson.Arr models ->
    Alcotest.(check (list string)) "ids" [ "alpha"; "beta" ]
      (List.map (j_str "id") models);
    List.iter
      (fun m -> Alcotest.(check bool) "not yet cached" false (j_bool "cached" m))
      models
  | _ -> Alcotest.fail "models is not an array"

let test_server_model_info () =
  let srv = make_server () in
  let j, _ = request srv {|{"op":"model-info","model":"alpha"}|} in
  Alcotest.(check bool) "ok" true (j_bool "ok" j);
  Alcotest.(check string) "name" "alpha" (j_str "name" j);
  Alcotest.(check (float 0.)) "order" 16. (j_num "order" j);
  Alcotest.(check (float 0.)) "inputs" 2. (j_num "inputs" j);
  Alcotest.(check string) "mode" "pole-residue" (j_str "mode" j);
  Alcotest.(check bool) "first hit is a miss" false (j_bool "cached" j);
  let j2, _ = request srv {|{"op":"model-info","model":"alpha"}|} in
  Alcotest.(check bool) "second hit is cached" true (j_bool "cached" j2)

let test_server_eval_bit_exact () =
  let srv = make_server () in
  let freqs = [ 1.5e3; 2.5e4; 7.25e5 ] in
  let line =
    Sjson.to_string
      (Sjson.Obj
         [ ("op", Sjson.Str "eval-grid"); ("model", Sjson.Str "alpha");
           ("freqs", Sjson.Arr (List.map (fun f -> Sjson.Num f) freqs)) ])
  in
  let j, _ = request srv line in
  Alcotest.(check bool) "ok" true (j_bool "ok" j);
  Alcotest.(check (float 0.)) "points" 3. (j_num "points" j);
  (* reference: compile the artifact in-process *)
  let art = Artifact.load_exn
      (Filename.concat (Lazy.force server_root) "alpha.mfti") in
  let c = Compiled.of_model art.Artifact.model in
  let grid = Compiled.eval_grid c (Array.of_list freqs) in
  match j_mem "results" j with
  | Sjson.Arr pts ->
    List.iteri
      (fun k rows ->
        let h = grid.(k) in
        match rows with
        | Sjson.Arr rows ->
          List.iteri
            (fun i cols ->
              match cols with
              | Sjson.Arr cols ->
                List.iteri
                  (fun jc z ->
                    let exact = Cmat.get h i jc in
                    match z with
                    | Sjson.Arr [ Sjson.Num re; Sjson.Num im ] ->
                      same_float "re over the wire" exact.Cx.re re;
                      same_float "im over the wire" exact.Cx.im im
                    | _ -> Alcotest.fail "entry is not an [re, im] pair")
                  cols
              | _ -> Alcotest.fail "row is not an array")
            rows
        | _ -> Alcotest.fail "point is not a matrix")
      pts
  | _ -> Alcotest.fail "results is not an array"

(* One eval-grid response captured before the number printer changed:
   the text the server sends, and the text the router re-renders from a
   replica's binary frame, must both still be these bytes. *)
let golden_request =
  {|{"op":"eval-grid","model":"alpha","freqs":[1500,0,0.001,0.1,3.3,59999.99,123456.789,725000,1000000,314159.2653589793,2e9,100,1e-300,1e12]}|}

let golden_response =
  lazy
    (let path =
       Filename.concat (Filename.dirname Sys.executable_name)
         "eval_grid.golden.json"
     in
     let ic = open_in_bin path in
     let text = input_line ic in
     close_in ic;
     text)

let test_server_golden () =
  match Server.handle_request (make_server ()) ~binary:false golden_request with
  | Server.Text text, false ->
    Alcotest.(check string) "bytes" (Lazy.force golden_response) text
  | _ -> Alcotest.fail "eval-grid did not answer in JSON"

let test_server_error_paths () =
  let srv = make_server () in
  expect_error srv ~kind:"validation" {|{"op":"model-info","model":"nope"}|};
  expect_error srv ~kind:"validation" {|{"op":"model-info","model":"../evil"}|};
  expect_error srv ~kind:"validation" {|{"op":"launch-missiles"}|};
  expect_error srv ~kind:"validation" {|{"op":"eval-grid","model":"alpha"}|};
  expect_error srv ~kind:"validation"
    {|{"op":"eval-grid","model":"alpha","freqs":[]}|};
  expect_error srv ~kind:"validation"
    {|{"op":"eval-grid","model":"alpha","freqs":["x"]}|};
  expect_error srv ~kind:"validation" {|{"no_op_at_all":1}|};
  expect_error srv ~kind:"parse" {|{"op": truncated|};
  expect_error srv ~kind:"parse" "not json at all";
  (* a corrupt artifact in the root is a typed response, not a crash *)
  let bad = Filename.concat (Lazy.force server_root) "damaged.mfti" in
  let oc = open_out_bin bad in
  output_string oc "MFTIART\x00 this is not a model";
  close_out oc;
  expect_error srv ~kind:"parse" {|{"op":"model-info","model":"damaged"}|};
  Sys.remove bad;
  (* the loop survived all of the above *)
  let j, _ = request srv {|{"op":"list-models"}|} in
  Alcotest.(check bool) "server still serves" true (j_bool "ok" j)

let test_server_stats_and_shutdown () =
  let srv = make_server () in
  ignore (request srv {|{"op":"model-info","model":"alpha"}|});
  ignore (request srv {|{"op":"model-info","model":"alpha"}|});
  ignore (request srv {|{"op":"nonsense"}|});
  let j, stop = request srv {|{"op":"stats"}|} in
  Alcotest.(check bool) "stats do not stop" false stop;
  Alcotest.(check (float 0.)) "requests" 4. (j_num "requests" j);
  Alcotest.(check (float 0.)) "errors" 1. (j_num "errors" j);
  let cache = j_mem "cache" j in
  Alcotest.(check (float 0.)) "one miss" 1. (j_num "misses" cache);
  Alcotest.(check (float 0.)) "one hit" 1. (j_num "hits" cache);
  Alcotest.(check (float 0.)) "one resident model" 1. (j_num "models" cache);
  Alcotest.(check bool) "bytes flowed" true (j_num "bytes_out" j > 0.);
  let info = j_mem "model-info" (j_mem "by_op" j) in
  Alcotest.(check (float 0.)) "per-op count" 2. (j_num "count" info);
  let j, stop = request srv {|{"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown acknowledged" true (j_bool "ok" j);
  Alcotest.(check bool) "loop stops" true stop

let test_server_cache_eviction () =
  let bytes =
    (Unix.stat (Filename.concat (Lazy.force server_root) "alpha.mfti"))
      .Unix.st_size
  in
  (* budget fits exactly one artifact: loading the second evicts the first *)
  let srv = make_server ~cache_bytes:(bytes + 16) () in
  ignore (request srv {|{"op":"model-info","model":"alpha"}|});
  ignore (request srv {|{"op":"model-info","model":"beta"}|});
  let j, _ = request srv {|{"op":"stats"}|} in
  let cache = j_mem "cache" j in
  Alcotest.(check (float 0.)) "eviction happened" 1. (j_num "evictions" cache);
  Alcotest.(check (float 0.)) "one resident" 1. (j_num "models" cache);
  let j, _ = request srv {|{"op":"model-info","model":"alpha"}|} in
  Alcotest.(check bool) "evicted model reloads" true (j_bool "ok" j)

let test_server_channels () =
  let srv = make_server () in
  let dir = fresh_dir () in
  let req_path = Filename.concat dir "requests" in
  let resp_path = Filename.concat dir "responses" in
  let oc = open_out req_path in
  output_string oc
    "{\"op\":\"list-models\"}\n\n{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n\
     {\"op\":\"after-shutdown-is-never-read\"}\n";
  close_out oc;
  let ic = open_in req_path and oc = open_out resp_path in
  let outcome = Server.serve_channels srv ic oc in
  close_in ic;
  close_out oc;
  Alcotest.(check bool) "stopped by shutdown" true (outcome = `Stop);
  let ic = open_in resp_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "three responses, blank line skipped" 3
    (List.length lines);
  List.iter
    (fun l -> Alcotest.(check bool) "each response is ok" true
        (j_bool "ok" (Sjson.parse l)))
    lines

(* ------------------------------------------------------------------ *)
(* Sjson fuzz: deterministic byte mutations of valid frames.  Every
   mutation must either parse to a value or raise [Sjson.Parse_error] —
   no other exception may escape the parser.  Seeded SplitMix64, no
   [Random] at runtime, so a failure replays exactly. *)

let fuzz_seed_frames =
  [ "{\"op\":\"eval-grid\",\"model\":\"alpha\",\"freqs\":[1e3,2.5e4,-0.0]}";
    "{\"op\":\"model-info\",\"model\":\"beta\",\"extra\":null}";
    "{\"a\":[true,false,null,[],{}],\"b\":{\"c\":[1,2,3]}}";
    "{\"s\":\"esc \\\" \\\\ \\/ \\b \\f \\n \\r \\t \\u0041 end\"}";
    "[1.5e-300,\"\\u00e9\",{\"k\":\"v\"},[[[0]]]]" ]

let test_sjson_fuzz () =
  let rng = Rng.create 0xC0FFEE in
  let parses = ref 0 and rejects = ref 0 in
  List.iter
    (fun frame ->
      for _ = 1 to 1500 do
        let b = Bytes.of_string frame in
        let muts = 1 + Rng.int rng 3 in
        for _ = 1 to muts do
          Bytes.set b (Rng.int rng (Bytes.length b))
            (Char.chr (Rng.int rng 256))
        done;
        let s = Bytes.to_string b in
        match Sjson.parse s with
        | _ -> incr parses
        | exception Sjson.Parse_error _ -> incr rejects
        | exception e ->
          Alcotest.failf "parser escape on %S: %s" s (Printexc.to_string e)
      done)
    fuzz_seed_frames;
  (* the corpus must actually exercise both outcomes *)
  Alcotest.(check bool) "some mutations still parse" true (!parses > 0);
  Alcotest.(check bool) "some mutations are rejected" true (!rejects > 0)

(* ------------------------------------------------------------------ *)
(* Sjson number printer: the same bytes as the three-try cascade it
   replaced (%.6g, then %.12g, then %.17g, each parse-checked). *)

let cascade_repr x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.6g" x in
    if float_of_string s = x then s
    else
      let s = Printf.sprintf "%.12g" x in
      if float_of_string s = x then s else Printf.sprintf "%.17g" x

let check_printer x =
  let got = Sjson.to_string (Sjson.Num x) and want = cascade_repr x in
  if got <> want then Alcotest.failf "%h: printed %s, cascade %s" x got want;
  got

(* 2M seeded inputs.  Random bit patterns (every exponent, subnormals
   included) are the costliest to print, so they are one draw in eight;
   uniform [-1, 1) draws are three, m * 10^k and short decimals two
   each, since those land on the short candidates. *)
let test_sjson_printer_cascade () =
  let rng = Rng.create 0x5EED_F10A in
  let inputs = 2_000_000 in
  let short = ref 0 in
  let digits n =
    String.init n (fun i ->
        "0123456789".[if i = 0 then 1 + Rng.int rng 9 else Rng.int rng 10])
  in
  for i = 1 to inputs do
    let x =
      match i mod 8 with
      | 0 -> Int64.float_of_bits (Rng.bits rng)
      | 1 | 2 | 3 -> Rng.range rng (-1.) 1.
      | 4 | 5 ->
        (* m * 10^k, rounded once (parsed) or twice (multiplied) *)
        let m = Rng.int rng 1_000_000 and k = Rng.int rng 61 - 30 in
        if i mod 8 = 4 then float_of_string (Printf.sprintf "%de%d" m k)
        else float_of_int m *. (10. ** float_of_int k)
      | _ ->
        (* a decimal of 1-17 significant digits *)
        float_of_string
          (Printf.sprintf "%s0.%se%d" (if Rng.int rng 2 = 0 then "" else "-")
             (digits (1 + Rng.int rng 17)) (Rng.int rng 80 - 40))
    in
    let s = check_printer x in
    if Float.is_finite x && String.length s < 17 then incr short
  done;
  (* the draw must exercise the short candidates, not only %.17g *)
  Alcotest.(check bool) "many short outputs" true (!short > inputs / 4)

let test_sjson_printer_edges () =
  List.iter
    (fun x ->
      List.iter
        (fun x ->
          let s = check_printer x in
          same_float ("round trip of " ^ s) x (float_of_string s))
        [ x; -.x ])
    [ 5e-324; 1e-310; Float.min_float; Float.max_float; 0.; 0.1; 0.3; 1e-5;
      1e15; 1e22; 1e23; 9007199254740993.; 0.1234565; 9.9999995; 999999.5;
      1e300; 1e-300;
      (* the %.0f integer path and its edge *)
      1e15 -. 1.; 999999999999999.5; Float.pred 1e15; Float.succ 1e15;
      (2. ** 53.) -. 1.; 2. ** 53.; (2. ** 53.) +. 2.; 1e16; 1e17; 1e21;
      (* %g's switch from fixed to exponent notation *)
      1e-4; Float.pred 1e-4; Float.succ 1e-4; 1e-5; Float.pred 1e-5;
      123456.5; 0.30000000000000004;
      (* extreme normal and subnormal values *)
      Float.pred Float.max_float; Float.succ Float.min_float;
      Float.pred Float.min_float; 2. *. 5e-324 ];
  List.iter
    (fun (want, x) ->
      Alcotest.(check string) want want (Sjson.to_string (Sjson.Num x)))
    [ ("-0", -0.); ("4.94066e-324", 5e-324); ("999999999999999", 1e15 -. 1.);
      ("1e+15", 1e15); ("999999999999999.5", 999999999999999.5);
      ("9007199254740991", (2. ** 53.) -. 1.); ("9007199254740992", 2. ** 53.);
      ("1e+16", 1e16); ("1e+17", 1e17); ("1e+21", 1e21); ("0.0001", 1e-4);
      ("1e-05", 1e-5); ("123456.5", 123456.5);
      ("0.30000000000000004", 0.30000000000000004);
      ("1.7976931348623157e+308", Float.max_float);
      ("2.2250738585072014e-308", Float.min_float);
      ("2.2250738585072009e-308", Float.pred Float.min_float) ]

(* ------------------------------------------------------------------ *)
(* Crash-safe artifact store *)

let test_artifact_atomic_save () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "m.mfti" in
  let art = artifact_of ~name:"m" (sys_of 1) in
  Artifact.save path art;
  Alcotest.(check bool) "no temp file left" false
    (Sys.file_exists (path ^ ".tmp"));
  (match Artifact.load path with
   | Ok got -> Alcotest.(check string) "loads back" "m" got.Artifact.name
   | Error e -> Alcotest.failf "load failed: %s" (Mfti_error.to_string e));
  (* overwrite is atomic too *)
  Artifact.save path (artifact_of ~name:"m2" (sys_of 1));
  match Artifact.load path with
  | Ok got -> Alcotest.(check string) "overwritten" "m2" got.Artifact.name
  | Error e -> Alcotest.failf "reload failed: %s" (Mfti_error.to_string e)

let test_artifact_torn_write () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "torn.mfti" in
  let art = artifact_of ~name:"torn" (sys_of 1) in
  (match
     Fault.with_spec "serve.torn_write" (fun () -> Artifact.save path art)
   with
   | () -> Alcotest.fail "torn write did not raise"
   | exception Mfti_error.Error (Mfti_error.Fault_injected _) -> ()
   | exception e ->
     Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  Alcotest.(check bool) "no final artifact appears" false
    (Sys.file_exists path);
  Alcotest.(check bool) "torn temp file left behind" true
    (Sys.file_exists (path ^ ".tmp"));
  (* a crash mid-overwrite must leave the previous version intact *)
  Artifact.save path art;
  (match
     Fault.with_spec "serve.torn_write" (fun () ->
         Artifact.save path (artifact_of ~name:"newer" (sys_of 1)))
   with
   | () -> Alcotest.fail "torn overwrite did not raise"
   | exception Mfti_error.Error _ -> ());
  match Artifact.load path with
  | Ok got ->
    Alcotest.(check string) "previous version intact" "torn"
      got.Artifact.name
  | Error e -> Alcotest.failf "load failed: %s" (Mfti_error.to_string e)

let test_recovery_quarantine () =
  let dir = fresh_dir () in
  let good = Filename.concat dir "good.mfti" in
  Artifact.save good (artifact_of ~name:"good" (sys_of 1));
  (* orphaned temp from a killed writer *)
  (try
     Fault.with_spec "serve.torn_write" (fun () ->
         Artifact.save (Filename.concat dir "orphan.mfti")
           (artifact_of ~name:"orphan" (sys_of 1)))
   with Mfti_error.Error _ -> ());
  (* a torn *final* file, as if rename won but an ancient writer was
     not atomic: half the encoded bytes under the servable name *)
  let torn = Filename.concat dir "halved.mfti" in
  let bytes = Artifact.to_string (artifact_of ~name:"halved" (sys_of 1)) in
  let oc = open_out_bin torn in
  output_string oc (String.sub bytes 0 (String.length bytes / 2));
  close_out oc;
  let qs = Artifact.recover_root dir in
  Alcotest.(check int) "two files quarantined" 2 (List.length qs);
  List.iter
    (fun (q : Artifact.quarantine) ->
      Alcotest.(check bool) "moved aside" true
        (Sys.file_exists q.Artifact.quarantined);
      Alcotest.(check bool) "gone from servable namespace" false
        (Sys.file_exists q.Artifact.original);
      match q.Artifact.reason with
      | Mfti_error.Parse _ -> ()
      | e ->
        Alcotest.failf "expected Parse diagnostic, got %s"
          (Mfti_error.to_string e))
    qs;
  Alcotest.(check bool) "good artifact untouched" true
    (Sys.file_exists good);
  (* a server over this root sees only the healthy model *)
  let srv = Server.create ~root:dir () in
  Alcotest.(check int) "nothing left to quarantine" 0
    (List.length (Server.quarantined srv));
  let j, _ = request srv "{\"op\":\"list-models\"}" in
  (match j_mem "models" j with
   | Sjson.Arr models ->
     Alcotest.(check (list string)) "only the good model served" [ "good" ]
       (List.map (j_str "id") models)
   | _ -> Alcotest.fail "models not an array");
  (* the torn file is never silently loadable *)
  let j, _ =
    request srv "{\"op\":\"model-info\",\"model\":\"halved\"}"
  in
  Alcotest.(check bool) "torn model not servable" false (j_bool "ok" j)

let test_server_startup_recovery () =
  let dir = fresh_dir () in
  Artifact.save (Filename.concat dir "ok.mfti")
    (artifact_of ~name:"ok" (sys_of 1));
  (try
     Fault.with_spec "serve.torn_write" (fun () ->
         Artifact.save (Filename.concat dir "dead.mfti")
           (artifact_of ~name:"dead" (sys_of 1)))
   with Mfti_error.Error _ -> ());
  let srv = Server.create ~root:dir () in
  Alcotest.(check int) "startup scan quarantined the orphan" 1
    (List.length (Server.quarantined srv));
  let j, _ = request srv "{\"op\":\"stats\"}" in
  Alcotest.(check (float 0.)) "stats reports quarantine count" 1.
    (j_num "quarantined" j)

(* ------------------------------------------------------------------ *)
(* Socket-path race (satellite: bind_unix ownership semantics) *)

let test_bind_unix_race () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "sock" in
  let addr = Listener.Unix_path path in
  let fd, _ = Listener.bind addr in
  (* a live socket must be refused with a typed error, not unlinked *)
  (match Listener.bind addr with
   | _ -> Alcotest.fail "second bind on a live socket succeeded"
   | exception Mfti_error.Error (Mfti_error.Validation _) -> ());
  Alcotest.(check bool) "live socket not deleted" true (Sys.file_exists path);
  Listener.release addr fd;
  Alcotest.(check bool) "release removes the path" false
    (Sys.file_exists path);
  (* a stale file from a dead process is cleaned up and rebound *)
  let fd2, _ = Listener.bind addr in
  Listener.release addr fd2;
  (* a non-socket at the path is never deleted *)
  let oc = open_out path in
  output_string oc "not a socket";
  close_out oc;
  (match Listener.bind addr with
   | fd3, _ ->
     Listener.release addr fd3;
     Alcotest.fail "bound over a regular file"
   | exception Mfti_error.Error (Mfti_error.Validation _) -> ());
  Alcotest.(check bool) "regular file preserved" true (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* LRU under concurrent access: N domains hammer one server whose cache
   holds exactly one model, forcing hit/miss/eviction churn.  The
   accounting must come out exact — the mutex guard means no lost
   updates, no approximate counters. *)

let test_lru_concurrent_exact () =
  let alpha_bytes =
    (Unix.stat (Filename.concat (Lazy.force server_root) "alpha.mfti"))
      .Unix.st_size
  in
  let srv = make_server ~cache_bytes:(alpha_bytes + 16) () in
  let cycle =
    [| "{\"op\":\"model-info\",\"model\":\"alpha\"}";
       "{\"op\":\"model-info\",\"model\":\"beta\"}";
       "{\"op\":\"eval-grid\",\"model\":\"alpha\",\"freqs\":[1e3,1e4]}";
       "{\"op\":\"model-info\",\"model\":\"alpha\"}" |]
  in
  let domains = 4 and per_domain = 40 in
  let failures = Atomic.make 0 in
  let body () =
    (* worker domains must not submit to the shared kernel pool
       concurrently; serialize evaluations exactly as the supervisor
       tier does *)
    Parallel.with_sequential @@ fun () ->
    for k = 0 to per_domain - 1 do
      let text, _ = Server.handle_line srv cycle.(k mod Array.length cycle) in
      match Sjson.parse text with
      | j -> if not (j_bool "ok" j) then Atomic.incr failures
      | exception Sjson.Parse_error _ -> Atomic.incr failures
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn body) in
  List.iter Domain.join ds;
  Alcotest.(check int) "every request succeeded" 0 (Atomic.get failures);
  let j, _ = request srv "{\"op\":\"stats\"}" in
  let cache = j_mem "cache" j in
  let hits = j_num "hits" cache and misses = j_num "misses" cache in
  (* one model lookup per request: the books must balance exactly *)
  Alcotest.(check (float 0.)) "hits + misses = total lookups"
    (float_of_int (domains * per_domain))
    (hits +. misses);
  Alcotest.(check bool) "cache thrashed between models" true
    (j_num "evictions" cache > 0.);
  Alcotest.(check (float 0.)) "single-slot cache holds one model" 1.
    (j_num "models" cache);
  Alcotest.(check (float 0.)) "no request was dropped"
    (float_of_int ((domains * per_domain) + 1))
    (j_num "requests" j)

(* ------------------------------------------------------------------ *)
(* Streaming fit sessions over the protocol *)

let stream_sys = lazy (sys_of 2)

let stream_samples freqs =
  let sys = Lazy.force stream_sys in
  Array.map
    (fun f -> { Sampling.freq = f; s = Descriptor.eval_freq sys f })
    freqs

let sample_json (s : Sampling.sample) =
  let p, m = Cmat.dims s.Sampling.s in
  Sjson.Obj
    [ ("freq", Sjson.Num s.Sampling.freq);
      ( "s",
        Sjson.Arr
          (List.init p (fun i ->
               Sjson.Arr
                 (List.init m (fun j ->
                      let z = Cmat.get s.Sampling.s i j in
                      Sjson.Arr [ Sjson.Num z.Cx.re; Sjson.Num z.Cx.im ])))) ) ]

let add_line ?(holdout = false) session samples =
  Sjson.to_string
    (Sjson.Obj
       ([ ("op", Sjson.Str "fit-add-samples");
          ("session", Sjson.Str session);
          ( "samples",
            Sjson.Arr (Array.to_list (Array.map sample_json samples)) ) ]
        @ if holdout then [ ("holdout", Sjson.Bool true) ] else []))

let session_server ?session_limits () =
  Server.create ?session_limits ~root:(fresh_dir ()) ()

let open_session ?(extra = []) srv =
  let j, _ =
    request srv
      (Sjson.to_string
         (Sjson.Obj
            ([ ("op", Sjson.Str "fit-open"); ("ports", Sjson.Num 2.) ]
             @ extra)))
  in
  Alcotest.(check bool) "fit-open ok" true (j_bool "ok" j);
  j_str "session" j

let test_session_stream_roundtrip () =
  let srv = session_server () in
  let sid = open_session ~extra:[ ("certify", Sjson.Str "check") ] srv in
  let fit = stream_samples (Sampling.logspace 1e2 1e6 24) in
  let held = stream_samples (Sampling.logspace 1.7e2 0.7e6 5) in
  (* two fit batches: the first ends mid-pair, so a sample waits in the
     pending slot until the second batch completes it *)
  let j1, _ = request srv (add_line sid (Array.sub fit 0 9)) in
  Alcotest.(check bool) "batch 1 ok" true (j_bool "ok" j1);
  Alcotest.(check bool) "odd batch leaves a pending sample" true
    (j_bool "pending" j1);
  Alcotest.(check (float 0.)) "completed pairs only" 8. (j_num "samples" j1);
  let j2, _ =
    request srv (add_line sid (Array.sub fit 9 (Array.length fit - 9)))
  in
  Alcotest.(check bool) "batch 2 ok" true (j_bool "ok" j2);
  Alcotest.(check (float 0.)) "all samples in" 24. (j_num "samples" j2);
  Alcotest.(check string) "stage assembled" "assembled" (j_str "stage" j2);
  let jh, _ = request srv (add_line ~holdout:true sid held) in
  Alcotest.(check (float 0.)) "hold-out in" 5. (j_num "holdout_samples" jh);
  (* status with refit reports a finite hold-out error *)
  let js, _ =
    request srv
      (Printf.sprintf
         "{\"op\":\"fit-status\",\"session\":%S,\"refit\":true}" sid)
  in
  Alcotest.(check bool) "status ok" true (j_bool "ok" js);
  Alcotest.(check string) "stage reduced" "reduced" (j_str "stage" js);
  Alcotest.(check bool) "hold-out err reported" true
    (match j_mem "holdout_err" js with
     | Sjson.Num e -> Float.is_finite e && e >= 0.
     | _ -> false);
  let c = j_mem "counters" js in
  Alcotest.(check (float 0.)) "appended counter" 24. (j_num "appended" c);
  Alcotest.(check (float 0.)) "held-out counter" 5. (j_num "held_out" c);
  (* adaptive suggestions come back best-first, inside the band *)
  let jg, _ =
    request srv
      (Printf.sprintf
         "{\"op\":\"fit-suggest\",\"session\":%S,\"count\":3}" sid)
  in
  Alcotest.(check bool) "suggest ok" true (j_bool "ok" jg);
  (match j_mem "suggestions" jg with
   | Sjson.Arr (_ :: _ as ss) ->
     Alcotest.(check bool) "at most 3" true (List.length ss <= 3);
     let scores = List.map (j_num "score") ss in
     Alcotest.(check bool) "descending scores" true
       (List.for_all2 ( >= ) scores (List.tl scores @ [ -1. ]));
     List.iter
       (fun s ->
         let f = j_num "freq" s in
         Alcotest.(check bool) "inside the sampled band" true
           (f >= 1e2 && f <= 1e6))
       ss
   | _ -> Alcotest.fail "no suggestions");
  (* finalize packs a loadable artifact carrying the check certificate *)
  let jf, _ =
    request srv
      (Printf.sprintf
         "{\"op\":\"fit-finalize\",\"session\":%S,\"model\":\"streamed\"}"
         sid)
  in
  Alcotest.(check bool) "finalize ok" true (j_bool "ok" jf);
  Alcotest.(check bool) "certificate present" true
    (match j_mem "certificate" jf with Sjson.Obj _ -> true | _ -> false);
  let ji, _ =
    request srv "{\"op\":\"model-info\",\"model\":\"streamed\"}"
  in
  Alcotest.(check bool) "packed model servable" true (j_bool "ok" ji);
  Alcotest.(check (float 0.)) "ports" 2. (j_num "inputs" ji);
  (* the session is gone: its id no longer resolves *)
  expect_error srv ~kind:"validation"
    (Printf.sprintf "{\"op\":\"fit-status\",\"session\":%S}" sid);
  (* and the books balance *)
  let jt, _ = request srv "{\"op\":\"stats\"}" in
  let sess = j_mem "sessions" jt in
  Alcotest.(check (float 0.)) "opened" 1. (j_num "opened" sess);
  Alcotest.(check (float 0.)) "finalized" 1. (j_num "finalized" sess);
  Alcotest.(check (float 0.)) "none open" 0. (j_num "open" sess);
  Alcotest.(check (float 0.)) "appended samples" 29.
    (j_num "appended_samples" sess);
  Alcotest.(check (float 0.)) "suggest calls" 1. (j_num "suggest_calls" sess)

let test_session_slot_budget () =
  let srv =
    session_server
      ~session_limits:{ Server.default_session_limits with max_sessions = 1 }
      ()
  in
  let _sid = open_session srv in
  expect_error srv ~kind:"budget" "{\"op\":\"fit-open\",\"ports\":2}";
  let jt, _ = request srv "{\"op\":\"stats\"}" in
  let sess = j_mem "sessions" jt in
  Alcotest.(check (float 0.)) "refusal counted" 1. (j_num "refused" sess);
  Alcotest.(check (float 0.)) "one open" 1. (j_num "open" sess)

let test_session_byte_budget () =
  let srv =
    session_server
      ~session_limits:{ Server.default_session_limits with session_bytes = 300 }
      ()
  in
  let sid = open_session srv in
  (* 2x2 complex samples cost 80 bytes each: the first batch of three
     fits, a second overruns the 300-byte budget and is refused whole *)
  let fit = stream_samples (Sampling.logspace 1e2 1e6 8) in
  let j1, _ = request srv (add_line sid (Array.sub fit 0 3)) in
  Alcotest.(check bool) "under budget accepted" true (j_bool "ok" j1);
  expect_error srv ~kind:"budget" (add_line sid (Array.sub fit 3 3));
  (* the refused batch changed nothing *)
  let js, _ =
    request srv (Printf.sprintf "{\"op\":\"fit-status\",\"session\":%S}" sid)
  in
  Alcotest.(check (float 0.)) "samples unchanged" 2. (j_num "samples" js);
  Alcotest.(check (float 0.)) "bytes unchanged" 240. (j_num "bytes" js)

let test_session_ttl_expiry () =
  let srv =
    session_server
      ~session_limits:
        { Server.default_session_limits with session_ttl_s = 0.05 }
      ()
  in
  let sid = open_session srv in
  Unix.sleepf 0.12;
  expect_error srv ~kind:"validation"
    (Printf.sprintf "{\"op\":\"fit-status\",\"session\":%S}" sid);
  let jt, _ = request srv "{\"op\":\"stats\"}" in
  let sess = j_mem "sessions" jt in
  Alcotest.(check (float 0.)) "expiry counted" 1. (j_num "expired" sess);
  Alcotest.(check (float 0.)) "none open" 0. (j_num "open" sess)

let test_session_drain_refusal () =
  let srv = session_server () in
  let sid = open_session srv in
  Server.set_draining srv true;
  (* no new sessions while draining... *)
  expect_error srv ~kind:"validation" "{\"op\":\"fit-open\",\"ports\":2}";
  (* ...but the live session streams and finalizes *)
  let fit = stream_samples (Sampling.logspace 1e2 1e6 12) in
  let j1, _ = request srv (add_line sid fit) in
  Alcotest.(check bool) "live session still appends" true (j_bool "ok" j1);
  let jf, _ =
    request srv
      (Printf.sprintf
         "{\"op\":\"fit-finalize\",\"session\":%S,\"model\":\"drained\"}"
         sid)
  in
  Alcotest.(check bool) "live session finalizes" true (j_bool "ok" jf);
  Server.set_draining srv false;
  let sid2 = open_session srv in
  Alcotest.(check bool) "fit-open works again" true (String.length sid2 > 0)

let test_session_protocol_errors () =
  let srv = session_server () in
  expect_error srv ~kind:"validation"
    "{\"op\":\"fit-status\",\"session\":\"nope\"}";
  expect_error srv ~kind:"validation" "{\"op\":\"fit-open\",\"ports\":0}";
  expect_error srv ~kind:"validation"
    "{\"op\":\"fit-open\",\"ports\":2,\"certify\":\"sometimes\"}";
  (* the engine checks the rank rule: a tolerance outside (0, 1) is
     refused.  JSON has no NaN or infinity; 1e999 parses to infinity,
     and null is not a number at all *)
  List.iter
    (fun tol ->
      expect_error srv ~kind:"validation"
        (Printf.sprintf "{\"op\":\"fit-open\",\"ports\":2,\"rank-tol\":%s}"
           tol))
    [ "1.5"; "1e999"; "0"; "-0.1"; "null" ];
  let sid = open_session srv in
  expect_error srv ~kind:"validation"
    (Printf.sprintf
       "{\"op\":\"fit-add-samples\",\"session\":%S,\"samples\":[{\"freq\":1e3}]}"
       sid);
  expect_error srv ~kind:"validation"
    (Printf.sprintf
       "{\"op\":\"fit-add-samples\",\"session\":%S,\"samples\":[]}" sid);
  (* a 3x3 sample into a 2x2 session: vetted by the session, refused whole *)
  let wrong =
    Array.map
      (fun (s : Sampling.sample) -> { s with Sampling.s = Cmat.zeros 3 3 })
      (stream_samples [| 1e3; 2e3 |])
  in
  expect_error srv ~kind:"validation" (add_line sid wrong);
  (* finalizing an empty session is refused, the id survives *)
  expect_error srv ~kind:"validation"
    (Printf.sprintf
       "{\"op\":\"fit-finalize\",\"session\":%S,\"model\":\"empty\"}" sid);
  let js, _ =
    request srv (Printf.sprintf "{\"op\":\"fit-status\",\"session\":%S}" sid)
  in
  Alcotest.(check bool) "session survives refused finalize" true
    (j_bool "ok" js)

let test_session_fault_sites () =
  let srv = session_server () in
  let sid = open_session srv in
  let fit = stream_samples (Sampling.logspace 1e2 1e6 12) in
  Fault.with_spec "session.stale_append" (fun () ->
      expect_error srv ~kind:"validation" (add_line sid fit));
  let j1, _ = request srv (add_line sid fit) in
  Alcotest.(check bool) "append works once disarmed" true (j_bool "ok" j1);
  Fault.with_spec "session.finalize_race" (fun () ->
      expect_error srv ~kind:"validation"
        (Printf.sprintf
           "{\"op\":\"fit-finalize\",\"session\":%S,\"model\":\"raced\"}"
           sid));
  let jf, _ =
    request srv
      (Printf.sprintf
         "{\"op\":\"fit-finalize\",\"session\":%S,\"model\":\"raced\"}" sid)
  in
  Alcotest.(check bool) "finalize works once disarmed" true (j_bool "ok" jf)

(* ------------------------------------------------------------------ *)
(* Frame codec: binary grid bodies, incremental reader, negotiation *)

let test_frame_grid_body_roundtrip () =
  let meta =
    Sjson.Obj
      [ ("ok", Sjson.Bool true);
        ("op", Sjson.Str "eval-grid");
        ("model", Sjson.Str "alpha");
        ("points", Sjson.Num 3.) ]
  in
  let mk seed =
    let m = Cmat.zeros 2 3 in
    for i = 0 to 1 do
      for j = 0 to 2 do
        Cmat.set m i j
          (Cx.make
             (float_of_int ((seed * 7) + (i * 3) + j) *. 1.25e-3)
             (-1. /. float_of_int (seed + i + j + 1)))
      done
    done;
    m
  in
  let grid = [| mk 1; mk 2; mk 3 |] in
  (* adversarial floats must survive bitwise: -0., denormal, huge *)
  Cmat.set grid.(0) 0 0 (Cx.make (-0.) 4.9e-324);
  Cmat.set grid.(1) 1 2 (Cx.make 1.797e308 (-2.2250738585072014e-308));
  let body = Frame.grid_body ~meta ~grid in
  let meta', grid' = Frame.decode_grid_body body in
  Alcotest.(check string) "meta text survives" (Sjson.to_string meta)
    (Sjson.to_string meta');
  Alcotest.(check int) "points survive" 3 (Array.length grid');
  Array.iteri
    (fun k m -> same_mat (Printf.sprintf "grid[%d]" k) m grid'.(k))
    grid;
  (* a damaged body is a typed parse error, never an escaping exception *)
  (match Frame.decode_grid_body (String.sub body 0 (String.length body - 5)) with
   | _ -> Alcotest.fail "truncated grid body accepted"
   | exception Mfti_error.Error (Mfti_error.Parse _) -> ());
  match Frame.decode_grid_body "xy" with
  | _ -> Alcotest.fail "garbage grid body accepted"
  | exception Mfti_error.Error (Mfti_error.Parse _) -> ()

(* The tree-free JSON writer against the tree it replaced: the same
   bytes for empty, 1x1 and non-square grids, and for the values the
   number printer treats specially. *)
let test_frame_grid_json () =
  let meta =
    [ ("ok", Sjson.Bool true);
      ("op", Sjson.Str "eval-grid");
      ("model", Sjson.Str "a \"quoted\" id");
      ("points", Sjson.Num 3.);
      ("cached", Sjson.Bool false) ]
  in
  let check what meta grid =
    Alcotest.(check string) what
      (Sjson.to_string (Sjson.Obj (meta @ [ ("results", Frame.results_json grid) ])))
      (Frame.grid_json ~meta ~grid)
  in
  let mat p m f = Cmat.init p m (fun i j -> f ((i * m) + j)) in
  check "0 points" meta [||];
  check "0 points, no meta" [] [||];
  check "1x1" meta [| Cmat.scalar (Cx.make 0.25 (-1.5e-3)) |];
  let special =
    [| nan; infinity; neg_infinity; -0.; 0.; 5e-324; 1e-310; -2.2250738585072009e-308;
       1e15; -1e15; 999999999999999.; 9007199254740993.; 1e16; 1e21; 1.5e300;
       0.1; 1. /. 3.; -123456.5 |]
  in
  let n = Array.length special in
  check "2x3, special values" meta
    (Array.init 4 (fun k ->
         mat 2 3 (fun e ->
             Cx.make special.(((k * 6) + e) mod n) special.(((k * 6) + e + 7) mod n))));
  (* per-point dimensions, as the tree renders them *)
  check "3x2 then 1x1" meta
    [| mat 3 2 (fun e -> Cx.make (float_of_int e *. 0.1) (-.float_of_int e));
       Cmat.scalar (Cx.make nan 2.) |];
  (* non-finite entries are JSON null *)
  let text = Frame.grid_json ~meta:[] ~grid:[| Cmat.scalar (Cx.make nan infinity) |] in
  Alcotest.(check string) "null entries" {|{"results": [[[[null, null]]]]}|} text

let feed_bytes r s =
  (* one byte at a time: the reader must reassemble across any split *)
  String.iter
    (fun c -> Frame.Reader.add r (Bytes.make 1 c) 1)
    s

let test_frame_reader_json () =
  let r = Frame.Reader.create () in
  feed_bytes r "{\"op\": \"ping\"}\r\n{\"op\": \"stats\"}\ntail";
  (match Frame.Reader.next r ~mode:Frame.Json ~max_bytes:1024 with
   | `Frame (Frame.Json_text "{\"op\": \"ping\"}") -> ()
   | _ -> Alcotest.fail "CRLF line not stripped and framed");
  (match Frame.Reader.next r ~mode:Frame.Json ~max_bytes:1024 with
   | `Frame (Frame.Json_text "{\"op\": \"stats\"}") -> ()
   | _ -> Alcotest.fail "second line not framed");
  (match Frame.Reader.next r ~mode:Frame.Json ~max_bytes:1024 with
   | `None -> ()
   | _ -> Alcotest.fail "incomplete line must wait for more bytes");
  Alcotest.(check string) "EOF drains the unterminated tail" "tail"
    (Frame.Reader.take_rest r);
  (* an endless unterminated line trips the cap instead of buffering *)
  let r = Frame.Reader.create () in
  feed_bytes r (String.make 64 'x');
  (match Frame.Reader.next r ~mode:Frame.Json ~max_bytes:32 with
   | `Too_long -> ()
   | _ -> Alcotest.fail "oversized line not rejected")

let test_frame_reader_binary () =
  let r = Frame.Reader.create () in
  feed_bytes r (Frame.encode_json "{\"a\": 1}" ^ Frame.encode_grid "BODY");
  (match Frame.Reader.next r ~mode:Frame.Binary ~max_bytes:1024 with
   | `Frame (Frame.Json_text "{\"a\": 1}") -> ()
   | _ -> Alcotest.fail "json frame not reassembled from byte dribble");
  (match Frame.Reader.next r ~mode:Frame.Binary ~max_bytes:1024 with
   | `Frame (Frame.Grid_body "BODY") -> ()
   | _ -> Alcotest.fail "grid frame not reassembled");
  (match Frame.Reader.next r ~mode:Frame.Binary ~max_bytes:1024 with
   | `None -> ()
   | _ -> Alcotest.fail "empty buffer must report `None");
  (* unknown tag and empty payload are malformed, typed `Bad *)
  let r = Frame.Reader.create () in
  feed_bytes r "\x00\x00\x00\x02Zp";
  (match Frame.Reader.next r ~mode:Frame.Binary ~max_bytes:1024 with
   | `Bad _ -> ()
   | _ -> Alcotest.fail "unknown tag accepted");
  let r = Frame.Reader.create () in
  feed_bytes r "\x00\x00\x00\x00";
  (match Frame.Reader.next r ~mode:Frame.Binary ~max_bytes:1024 with
   | `Bad _ -> ()
   | _ -> Alcotest.fail "empty payload accepted");
  (* a frame larger than the cap is rejected before it is buffered *)
  let r = Frame.Reader.create () in
  feed_bytes r "\x00\x10\x00\x00J";
  (match Frame.Reader.next r ~mode:Frame.Binary ~max_bytes:1024 with
   | `Too_long -> ()
   | _ -> Alcotest.fail "oversized frame not rejected")

let test_frame_hello () =
  Alcotest.(check (option string)) "binary hello"
    (Some "binary")
    (Frame.is_hello "{\"op\": \"hello\", \"frames\": \"binary\"}");
  Alcotest.(check (option string)) "json hello"
    (Some "json")
    (Frame.is_hello "{\"op\": \"hello\", \"frames\": \"json\"}");
  Alcotest.(check (option string)) "missing frames field"
    (Some "")
    (Frame.is_hello "{\"op\": \"hello\"}");
  Alcotest.(check (option string)) "not a hello"
    None
    (Frame.is_hello "{\"op\": \"ping\"}");
  Alcotest.(check (option string)) "hello as a value only"
    None
    (Frame.is_hello "{\"op\": \"eval\", \"model\": \"hello\"}");
  let ack = Frame.hello_ack "binary" in
  (match Sjson.parse ack with
   | j ->
     Alcotest.(check bool) "ack ok" true
       (Sjson.member "ok" j = Some (Sjson.Bool true));
     Alcotest.(check bool) "ack frames" true
       (Sjson.member "frames" j = Some (Sjson.Str "binary"))
   | exception Sjson.Parse_error m -> Alcotest.failf "bad ack: %s" m)

(* a line trickled in small chunks, polled after each one, costs the
   reader linear work: it allocates a small multiple of the line, not a
   copy of the buffer per poll *)
let test_frame_reader_linear () =
  let line_bytes = 256 * 1024 and step = 64 in
  List.iter
    (fun (mode, wire, expect) ->
      let r = Frame.Reader.create () in
      let chunk = Bytes.create step in
      let got = ref None in
      let before = Gc.allocated_bytes () in
      let off = ref 0 in
      while !off < String.length wire do
        let k = Stdlib.min step (String.length wire - !off) in
        Bytes.blit_string wire !off chunk 0 k;
        Frame.Reader.add r chunk k;
        off := !off + k;
        match Frame.Reader.next r ~mode ~max_bytes:(8 lsl 20) with
        | `None -> ()
        | `Frame p -> got := Some p
        | _ -> Alcotest.fail "reader refused a well-formed frame"
      done;
      let allocated = Gc.allocated_bytes () -. before in
      if !got <> Some expect then Alcotest.fail "frame not reassembled";
      if allocated >= float_of_int (8 * line_bytes) then
        Alcotest.failf "reader allocated %.0f bytes for a %d-byte frame"
          allocated line_bytes)
    [ (let line = String.make line_bytes 'x' in
       (Frame.Json, line ^ "\n", Frame.Json_text line));
      (let body = String.make line_bytes 'g' in
       (Frame.Binary, Frame.encode_grid body, Frame.Grid_body body)) ]

(* two back-to-back frames, split into two chunks at every offset *)
let test_frame_reader_splits () =
  List.iter
    (fun (mode, wire, expect) ->
      for cut = 0 to String.length wire do
        let r = Frame.Reader.create () in
        let got = ref [] in
        let rec drain () =
          match Frame.Reader.next r ~mode ~max_bytes:1024 with
          | `Frame p ->
            got := p :: !got;
            drain ()
          | `None -> ()
          | _ -> Alcotest.failf "cut at %d: frame refused" cut
        in
        Frame.Reader.add r (Bytes.of_string (String.sub wire 0 cut)) cut;
        drain ();
        let rest = String.length wire - cut in
        Frame.Reader.add r (Bytes.of_string (String.sub wire cut rest)) rest;
        drain ();
        if List.rev !got <> expect then
          Alcotest.failf "cut at %d: frames differ" cut;
        Alcotest.(check int) "nothing left over" 0 (Frame.Reader.pending r)
      done)
    [ ( Frame.Json,
        "{\"op\": \"ping\"}\r\n{\"op\": \"stats\"}\n",
        [ Frame.Json_text "{\"op\": \"ping\"}";
          Frame.Json_text "{\"op\": \"stats\"}" ] );
      ( Frame.Binary,
        Frame.encode_json "{\"a\": 1}" ^ Frame.encode_grid "BODY\n",
        [ Frame.Json_text "{\"a\": 1}"; Frame.Grid_body "BODY\n" ] ) ]

(* ------------------------------------------------------------------ *)
(* Transports: TCP listener, binary negotiation end-to-end, drops *)

let send_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* pull the next frame through a client-side Frame.Reader *)
let next_frame ?(timeout = 10.0) fd r ~mode =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Frame.Reader.next r ~mode ~max_bytes:(1 lsl 24) with
    | `Frame p -> p
    | `Too_long -> Alcotest.fail "client reader: frame too long"
    | `Bad m -> Alcotest.failf "client reader: %s" m
    | `None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Alcotest.fail "no frame within deadline"
      else (
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ ->
          (match Unix.read fd chunk 0 (Bytes.length chunk) with
           | 0 -> Alcotest.fail "connection closed mid-frame"
           | k ->
             Frame.Reader.add r chunk k;
             go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let expect_text what = function
  | Frame.Json_text s -> s
  | Frame.Grid_body _ -> Alcotest.failf "%s: unexpected grid frame" what

let transport_config =
  { Supervisor.default_config with
    workers = 2; queue = 8; request_timeout_ms = 4_000;
    idle_timeout_ms = 10_000; drain_ms = 500 }

let with_transport listen f =
  let dir = fresh_dir () in
  Artifact.save (Filename.concat dir "alpha.mfti")
    (artifact_of ~name:"alpha" (sys_of 3));
  let srv = Server.create ~root:dir () in
  let sup = Supervisor.start ~config:transport_config srv ~listen in
  Fun.protect
    ~finally:(fun () -> try Supervisor.stop sup with _ -> ())
    (fun () -> f sup)

let test_supervisor_tcp () =
  with_transport (Supervisor.Tcp ("127.0.0.1", 0)) @@ fun sup ->
  let port =
    match Supervisor.bound_port sup with
    | Some p -> p
    | None -> Alcotest.fail "TCP listener reported no bound port"
  in
  if port <= 0 then Alcotest.failf "nonsense bound port %d" port;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      let r = Frame.Reader.create () in
      (* ping is answered without touching any model *)
      send_all fd "{\"op\": \"ping\"}\n";
      let l = expect_text "ping" (next_frame fd r ~mode:Frame.Json) in
      let j = Sjson.parse l in
      Alcotest.(check bool) "ping ok" true
        (Sjson.member "ok" j = Some (Sjson.Bool true));
      Alcotest.(check bool) "ping not draining" true
        (Sjson.member "draining" j = Some (Sjson.Bool false));
      (* a real model round-trip over TCP *)
      send_all fd "{\"op\": \"model-info\", \"model\": \"alpha\"}\n";
      let l = expect_text "model-info" (next_frame fd r ~mode:Frame.Json) in
      let j = Sjson.parse l in
      Alcotest.(check bool) "model-info ok" true
        (Sjson.member "ok" j = Some (Sjson.Bool true)))

let test_supervisor_binary_negotiation () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "b.sock" in
  with_transport (Supervisor.Unix_path path) @@ fun _sup ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let r = Frame.Reader.create () in
      let grid_req =
        "{\"op\": \"eval-grid\", \"model\": \"alpha\", \"freqs\": [1e3, 1e5]}"
      in
      (* reference response in plain JSON-lines mode (warm the cache
         first so the cached flag matches across framings) *)
      send_all fd (grid_req ^ "\n");
      ignore (expect_text "warm" (next_frame fd r ~mode:Frame.Json));
      send_all fd (grid_req ^ "\n");
      let json_line =
        expect_text "json grid" (next_frame fd r ~mode:Frame.Json)
      in
      (* negotiate: ack arrives in the OLD framing *)
      send_all fd "{\"op\": \"hello\", \"frames\": \"binary\"}\n";
      let ack =
        expect_text "hello ack" (next_frame fd r ~mode:Frame.Json)
      in
      Alcotest.(check string) "ack text" (Frame.hello_ack "binary") ack;
      (* same request as a binary frame; response is a grid frame whose
         re-rendered JSON is byte-identical to the JSON-lines response *)
      send_all fd (Frame.encode_json grid_req);
      (match next_frame fd r ~mode:Frame.Binary with
       | Frame.Grid_body body ->
         let meta, grid = Frame.decode_grid_body body in
         let fields =
           match meta with
           | Sjson.Obj fs -> fs
           | _ -> Alcotest.fail "grid meta is not an object"
         in
         let rendered =
           Sjson.to_string
             (Sjson.Obj (fields @ [ ("results", Frame.results_json grid) ]))
         in
         Alcotest.(check string)
           "binary grid re-renders byte-identical to the JSON response"
           json_line rendered;
         let frame_bytes = String.length (Frame.encode_grid body)
         and json_bytes = String.length json_line + 1 in
         Alcotest.(check bool)
           (Printf.sprintf "grid frame %d bytes < JSON line %d bytes"
              frame_bytes json_bytes)
           true (frame_bytes < json_bytes)
       | Frame.Json_text l ->
         Alcotest.failf "expected a grid frame, got text: %s" l);
      (* non-grid ops stay JSON text, framed *)
      send_all fd (Frame.encode_json "{\"op\": \"ping\"}");
      let l = expect_text "binary ping" (next_frame fd r ~mode:Frame.Binary) in
      let j = Sjson.parse l in
      Alcotest.(check bool) "binary ping ok" true
        (Sjson.member "ok" j = Some (Sjson.Bool true));
      (* switch back: ack arrives as a binary frame, then plain lines *)
      send_all fd (Frame.encode_json "{\"op\": \"hello\", \"frames\": \"json\"}");
      let ack =
        expect_text "json ack" (next_frame fd r ~mode:Frame.Binary)
      in
      Alcotest.(check string) "ack back" (Frame.hello_ack "json") ack;
      send_all fd "{\"op\": \"ping\"}\n";
      let l = expect_text "line ping" (next_frame fd r ~mode:Frame.Json) in
      Alcotest.(check bool) "line ping ok" true
        (Sjson.member "ok" (Sjson.parse l) = Some (Sjson.Bool true));
      (* an unknown framing is a typed refusal, mode unchanged *)
      send_all fd "{\"op\": \"hello\", \"frames\": \"morse\"}\n";
      let l = expect_text "bad hello" (next_frame fd r ~mode:Frame.Json) in
      let j = Sjson.parse l in
      (match Sjson.member "error" j with
       | Some err ->
         Alcotest.(check bool) "typed validation" true
           (Sjson.member "kind" err = Some (Sjson.Str "validation"))
       | None -> Alcotest.failf "bad hello not refused: %s" l))

let test_supervisor_conn_drop_typed () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "d.sock" in
  with_transport (Supervisor.Unix_path path) @@ fun _sup ->
  (* request a grid big enough to guarantee chunked writes (> 64 KiB),
     then slam the connection before reading: the server's write hits
     EPIPE/ECONNRESET mid-stream and must record a typed conn drop *)
  let freqs =
    String.concat ", " (List.init 3000 (fun i -> Printf.sprintf "%d" (1000 + i)))
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  send_all fd
    (Printf.sprintf "{\"op\": \"eval-grid\", \"model\": \"alpha\", \"freqs\": [%s]}\n"
       freqs);
  Unix.close fd;
  (* the drop lands asynchronously; poll stats until it is counted *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec poll () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let drops =
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          let r = Frame.Reader.create () in
          send_all fd "{\"op\": \"stats\"}\n";
          let l = expect_text "stats" (next_frame fd r ~mode:Frame.Json) in
          match Sjson.member "conn_drops" (Sjson.parse l) with
          | Some (Sjson.Num n) -> int_of_float n
          | _ -> Alcotest.failf "stats missing conn_drops: %s" l)
    in
    if drops >= 1 then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.fail "connection drop never counted"
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  poll ()

(* ------------------------------------------------------------------ *)

let test_router_golden () =
  let dir = fresh_dir () in
  let replica = Filename.concat dir "r.sock" in
  let sup =
    Supervisor.start ~config:transport_config
      (Server.create ~root:(Lazy.force server_root) ())
      ~listen:(Supervisor.Unix_path replica)
  in
  let router =
    Router.start
      ~config:{ Router.default_config with request_timeout_ms = 4_000 }
      ~listen:(Supervisor.Unix_path (Filename.concat dir "rt.sock"))
      ~replicas:[ replica ] ()
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      try Supervisor.stop sup with _ -> ())
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX (Filename.concat dir "rt.sock"));
      send_all fd (golden_request ^ "\n");
      let text =
        expect_text "routed eval-grid"
          (next_frame fd (Frame.Reader.create ()) ~mode:Frame.Json)
      in
      Alcotest.(check string) "bytes" (Lazy.force golden_response) text)

(* The golden file pins a pole-residue model.  A Direct one (the
   4-port PDN fit, served from its Hessenberg-triangular form) must
   also answer with the same bytes served directly and through the
   router's re-render of a binary replica frame. *)
let test_router_direct_identical () =
  let dir = fresh_dir () in
  Artifact.save (Filename.concat dir "pdn.mfti")
    (Artifact.v ~name:"pdn" ~fit_err:1e-9 ~created:1.7e9 (Lazy.force pdn_fit));
  let info, _ =
    request (Server.create ~root:dir ()) {|{"op":"model-info","model":"pdn"}|}
  in
  Alcotest.(check string) "served in Direct mode" "direct" (j_str "mode" info);
  let req =
    Sjson.to_string
      (Sjson.Obj
         [ ("op", Sjson.Str "eval-grid");
           ("model", Sjson.Str "pdn");
           ("freqs",
            Sjson.Arr
              (Array.to_list
                 (Array.map (fun f -> Sjson.Num f) (Sampling.logspace 1e6 3e9 16)))) ])
  in
  let direct =
    match Server.handle_request (Server.create ~root:dir ()) ~binary:false req with
    | Server.Text text, false -> text
    | _ -> Alcotest.fail "eval-grid did not answer in JSON"
  in
  Alcotest.(check bool) "direct answer is ok" true (j_bool "ok" (Sjson.parse direct));
  let replica = Filename.concat dir "r.sock" and front = Filename.concat dir "rt.sock" in
  let sup =
    Supervisor.start ~config:transport_config (Server.create ~root:dir ())
      ~listen:(Supervisor.Unix_path replica)
  in
  let router =
    Router.start
      ~config:{ Router.default_config with request_timeout_ms = 4_000 }
      ~listen:(Supervisor.Unix_path front) ~replicas:[ replica ] ()
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      try Supervisor.stop sup with _ -> ())
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX front);
      send_all fd (req ^ "\n");
      let routed =
        expect_text "routed eval-grid"
          (next_frame fd (Frame.Reader.create ()) ~mode:Frame.Json)
      in
      Alcotest.(check string) "routed bytes = direct bytes" direct routed)

let () =
  Alcotest.run "serve"
    [ ("artifact",
       [ Alcotest.test_case "round trip" `Quick test_artifact_round_trip;
         Alcotest.test_case "nan fit_err" `Quick test_artifact_nan_fit_err;
         Alcotest.test_case "byte stable" `Quick test_artifact_byte_stable;
         Alcotest.test_case "fault: corrupt" `Quick test_artifact_fault_corrupt;
         Alcotest.test_case "fault: truncate" `Quick
           test_artifact_fault_truncate;
         Alcotest.test_case "payload bit flip" `Quick
           test_artifact_payload_bitflip;
         Alcotest.test_case "bad version / framing" `Quick
           test_artifact_bad_version;
         Alcotest.test_case "file round trip" `Quick
           test_artifact_file_round_trip;
         QCheck_alcotest.to_alcotest prop_artifact_round_trip ]);
      ("compiled",
       [ Alcotest.test_case "accuracy across ports" `Quick
           test_compiled_accuracy;
         Alcotest.test_case "grid = single points" `Quick
           test_compiled_grid_matches_single;
         Alcotest.test_case "grid domain invariance" `Quick
           test_compiled_grid_domain_invariant;
         Alcotest.test_case "fault: defective pencil" `Quick
           test_compiled_defective_fault;
         Alcotest.test_case "direct: Hessenberg-triangular serving" `Quick
           test_compiled_direct_hessenberg;
         Alcotest.test_case "direct: complex realization" `Quick
           test_compiled_direct_complex;
         Alcotest.test_case "direct: zero pivot" `Quick
           test_compiled_direct_zero_pivot;
         Alcotest.test_case "static system" `Quick test_compiled_static;
         Alcotest.test_case "pack/load/eval bit-identical" `Quick
           test_pack_load_eval_bit_identical ]);
      ("lru",
       [ Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
         Alcotest.test_case "find bumps recency" `Quick
           test_lru_find_bumps_recency;
         Alcotest.test_case "oversize rejected" `Quick test_lru_oversize;
         Alcotest.test_case "replace releases bytes" `Quick
           test_lru_replace_releases_bytes ]);
      ("server",
       [ Alcotest.test_case "list models" `Quick test_server_list_models;
         Alcotest.test_case "model info + cache" `Quick test_server_model_info;
         Alcotest.test_case "golden eval-grid" `Quick test_server_golden;
         Alcotest.test_case "eval bit-exact over the wire" `Quick
           test_server_eval_bit_exact;
         Alcotest.test_case "typed error paths" `Quick test_server_error_paths;
         Alcotest.test_case "stats + shutdown" `Quick
           test_server_stats_and_shutdown;
         Alcotest.test_case "cache eviction" `Quick test_server_cache_eviction;
         Alcotest.test_case "channel loop" `Quick test_server_channels ]);
      ("sjson",
       [ Alcotest.test_case "byte-mutation fuzz" `Quick test_sjson_fuzz;
         Alcotest.test_case "printer = cascade" `Quick
           test_sjson_printer_cascade;
         Alcotest.test_case "printer edge cases" `Quick
           test_sjson_printer_edges ]);
      ("crash-safety",
       [ Alcotest.test_case "atomic save" `Quick test_artifact_atomic_save;
         Alcotest.test_case "torn write" `Quick test_artifact_torn_write;
         Alcotest.test_case "recovery quarantine" `Quick
           test_recovery_quarantine;
         Alcotest.test_case "server startup recovery" `Quick
           test_server_startup_recovery ]);
      ("sessions",
       [ Alcotest.test_case "stream / suggest / finalize" `Quick
           test_session_stream_roundtrip;
         Alcotest.test_case "slot budget" `Quick test_session_slot_budget;
         Alcotest.test_case "byte budget" `Quick test_session_byte_budget;
         Alcotest.test_case "ttl expiry" `Quick test_session_ttl_expiry;
         Alcotest.test_case "drain refuses fit-open" `Quick
           test_session_drain_refusal;
         Alcotest.test_case "typed protocol errors" `Quick
           test_session_protocol_errors;
         Alcotest.test_case "fault sites" `Quick test_session_fault_sites ]);
      ("concurrency",
       [ Alcotest.test_case "bind_unix race" `Quick test_bind_unix_race;
         Alcotest.test_case "lru exact under domains" `Quick
           test_lru_concurrent_exact ]);
      ("frame",
       [ Alcotest.test_case "grid body bitwise round trip" `Quick
           test_frame_grid_body_roundtrip;
         Alcotest.test_case "grid json = tree" `Quick test_frame_grid_json;
         Alcotest.test_case "json reader" `Quick test_frame_reader_json;
         Alcotest.test_case "binary reader" `Quick test_frame_reader_binary;
         Alcotest.test_case "hello negotiation parsing" `Quick
           test_frame_hello;
         Alcotest.test_case "reader allocation linear" `Quick
           test_frame_reader_linear;
         Alcotest.test_case "reader splits at every cut" `Quick
           test_frame_reader_splits ]);
      ("transport",
       [ Alcotest.test_case "tcp listener end-to-end" `Quick
           test_supervisor_tcp;
         Alcotest.test_case "binary frames bit-identical" `Quick
           test_supervisor_binary_negotiation;
         Alcotest.test_case "client drop counted typed" `Quick
           test_supervisor_conn_drop_typed;
         Alcotest.test_case "golden eval-grid via router" `Quick
           test_router_golden;
         Alcotest.test_case "Direct eval-grid via router" `Quick
           test_router_direct_identical ]) ]
