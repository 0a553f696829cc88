(* Serving benchmark: compiled pole-residue evaluation against the
   naive per-point LU solve of (sE - A), on the grid sizes an
   evaluation server actually sees.

   Three arms over the same frequency grid:
     - direct_lu            one LU factorization + solve per point
     - compiled_domains1    pole-residue evaluation, sequential
     - compiled_domainsN    pole-residue evaluation over the domain pool

   Correctness is gated before timing: the compiled evaluator must
   reproduce the direct evaluation to 1e-10 relative error at every
   grid point, and must actually be in pole-residue mode — timing a
   fallback that secretly runs the baseline would report 1.00x as if it
   were meaningful.

   Timing methodology matches bench/engine_bench.ml: every repetition
   runs all arms back-to-back and the reported speedup is the median of
   the per-repetition paired ratios against the direct-LU baseline.

   The server path is measured too: a packed artifact served from a
   temp root through Server.handle_line, cold (cache miss: disk load +
   checksum + compile) vs warm (cache hit).

   Writes BENCH_serve.json (or BENCH_serve.smoke.json with --smoke,
   which also re-parses the report and validates its fields). *)

open Statespace
open Linalg

module Json = Bjson

let wall f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let run ?(smoke = false) () =
  Util.heading
    (if smoke then "serving benchmark (smoke)" else "serving benchmark");
  let reps = if smoke then 2 else 5 in
  let ndom = if smoke then 2 else 4 in
  let ports = if smoke then 2 else 8 in
  let order = if smoke then 12 else 40 in
  let npoints = if smoke then 64 else 1024 in
  let sys =
    Random_sys.generate
      { Random_sys.order; ports; rank_d = ports / 2;
        freq_lo = 1e6; freq_hi = 1e10; damping = 0.05; seed = 42 }
  in
  let freqs = Sampling.logspace 1e6 1e10 npoints in
  Printf.printf "%d-port system, order %d, %d grid points\n%!"
    ports order npoints;

  (* ---------------------------------------------------------------- *)
  (* correctness gate *)

  let compiled = Serve.Compiled.of_descriptor sys in
  (match Serve.Compiled.mode compiled with
   | Serve.Compiled.Pole_residue -> ()
   | Serve.Compiled.Direct ->
     failwith
       "serve bench: compilation fell back to the direct \
        Hessenberg-triangular solve");
  let direct_grid () = Array.map (Descriptor.eval_freq sys) freqs in
  let exact = direct_grid () in
  let got = Serve.Compiled.eval_grid compiled freqs in
  let worst = ref 0. in
  Array.iteri
    (fun i h ->
      let e =
        Cmat.norm_fro (Cmat.sub got.(i) h)
        /. Stdlib.max (Cmat.norm_fro h) 1e-300
      in
      if e > !worst then worst := e)
    exact;
  if !worst > 1e-10 then
    failwith
      (Printf.sprintf "serve bench: compiled eval off by %.3e (> 1e-10)"
         !worst);
  Printf.printf "  check %-28s max rel err %.2e over %d points\n%!"
    "compiled vs direct LU" !worst npoints;

  (* ---------------------------------------------------------------- *)
  (* paired timing *)

  let compiled_grid () = Serve.Compiled.eval_grid compiled freqs in
  let direct_t = Array.make reps 0.
  and seq_t = Array.make reps 0.
  and par_t = Array.make reps 0. in
  Parallel.set_domain_count ndom;
  ignore (Sys.opaque_identity (compiled_grid ()));  (* pool spin-up *)
  for rep = 0 to reps - 1 do
    direct_t.(rep) <- wall direct_grid;
    seq_t.(rep) <- wall (fun () -> Parallel.with_sequential compiled_grid);
    par_t.(rep) <- wall compiled_grid
  done;
  let direct_s = median direct_t
  and seq_s = median seq_t
  and par_s = median par_t in
  let ratio num den = median (Array.init reps (fun r -> num.(r) /. den.(r))) in
  let seq_speedup = ratio direct_t seq_t in
  let par_speedup = ratio direct_t par_t in
  let size = Printf.sprintf "order%d_%dports_%dpoints" order ports npoints in
  Util.print_table
    ~header:[ "op"; "size"; "domains"; "median"; "speedup" ]
    [ [ "direct_lu"; size; "1"; Printf.sprintf "%.3f ms" (direct_s *. 1e3);
        "1.00x" ];
      [ "compiled_domains1"; size; "1";
        Printf.sprintf "%.3f ms" (seq_s *. 1e3);
        Printf.sprintf "%.2fx" seq_speedup ];
      [ Printf.sprintf "compiled_domains%d" ndom; size; string_of_int ndom;
        Printf.sprintf "%.3f ms" (par_s *. 1e3);
        Printf.sprintf "%.2fx" par_speedup ] ];

  (* ---------------------------------------------------------------- *)
  (* server path: cold load vs cache hit through the protocol *)

  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mfti_serve_bench_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let art =
    Serve.Artifact.v ~name:"bench" ~fit_err:0.
      (Mfti.Engine.Model.make ~rank:order sys)
  in
  Serve.Artifact.save (Filename.concat root "bench.mfti") art;
  let eval_req =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "eval-grid");
           ("model", Json.Str "bench");
           ( "freqs",
             Json.Arr
               (Array.to_list (Array.map (fun f -> Json.Num f) freqs)) ) ])
  in
  let request srv line =
    let response, _ = Serve.Server.handle_line srv line in
    if not (String.length response >= 11 && String.sub response 0 11 = {|{"ok": true|})
    then failwith ("serve bench: request failed: " ^ response)
  in
  let cold () =
    let srv = Serve.Server.create ~root () in
    request srv {|{"op":"model-info","model":"bench"}|}
  in
  let warm_srv = Serve.Server.create ~root () in
  request warm_srv {|{"op":"model-info","model":"bench"}|};
  let cold_t = Array.init reps (fun _ -> wall cold) in
  let hit_t =
    Array.init reps (fun _ ->
        wall (fun () ->
            request warm_srv {|{"op":"model-info","model":"bench"}|}))
  in
  let eval_t = Array.init reps (fun _ -> wall (fun () -> request warm_srv eval_req)) in
  let cold_s = median cold_t and hit_s = median hit_t in
  let eval_s = median eval_t in
  Printf.printf
    "\n  server: cold load %.3f ms, cache hit %.3f ms, eval-grid %.3f ms\n%!"
    (cold_s *. 1e3) (hit_s *. 1e3) (eval_s *. 1e3);
  Sys.remove (Filename.concat root "bench.mfti");
  (try Unix.rmdir root with Unix.Unix_error _ -> ());

  (* ---------------------------------------------------------------- *)
  (* report *)

  let row op domains med spd =
    Json.Obj
      [ ("op", Json.Str op);
        ("size", Json.Str size);
        ("domains", Json.Num (float_of_int domains));
        ("median_ns", Json.Num (Float.round (med *. 1e9)));
        ("speedup", Json.Num spd) ]
  in
  let json =
    Json.Obj
      (Json.std_header ~schema:"mfti-bench-serve/1"
         ~tool:"bench/main.exe serve" ~smoke
      @ [ ("reps", Json.Num (float_of_int reps));
        ("domains", Json.Num (float_of_int ndom));
        ("ports", Json.Num (float_of_int ports));
        ("order", Json.Num (float_of_int order));
        ("grid_points", Json.Num (float_of_int npoints));
        ("max_rel_err", Json.Num !worst);
        ("direct_s", Json.Num direct_s);
        ("compiled_seq_s", Json.Num seq_s);
        ("compiled_par_s", Json.Num par_s);
        ("compiled_speedup", Json.Num seq_speedup);
        ("parallel_speedup", Json.Num par_speedup);
        ("server_cold_s", Json.Num cold_s);
        ("server_hit_s", Json.Num hit_s);
        ("server_eval_s", Json.Num eval_s);
        ( "results",
          Json.Arr
            [ row "direct_lu" 1 direct_s 1.0;
              row "compiled_domains1" 1 seq_s seq_speedup;
              row (Printf.sprintf "compiled_domains%d" ndom) ndom par_s
                par_speedup ] ) ])
  in
  let path = if smoke then "BENCH_serve.smoke.json" else "BENCH_serve.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (compiled %.2fx, parallel %.2fx)\n%!" path
    seq_speedup par_speedup;
  if smoke then begin
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let parsed = Json.parse text in
    List.iter
      (fun field ->
        if Json.member field parsed = None then
          failwith ("serve bench: JSON missing " ^ field))
      [ "schema"; "grid_points"; "max_rel_err"; "direct_s"; "compiled_seq_s";
        "compiled_par_s"; "compiled_speedup"; "parallel_speedup";
        "server_cold_s"; "server_hit_s" ];
    (match Json.member "schema" parsed with
     | Some (Json.Str "mfti-bench-serve/1") -> ()
     | _ -> failwith "serve bench: wrong schema tag");
    (match Json.member "results" parsed with
     | Some (Json.Arr (_ :: _ as rs)) ->
       List.iter
         (fun r ->
           List.iter
             (fun field ->
               if Json.member field r = None then
                 failwith ("serve bench: JSON row missing " ^ field))
             [ "op"; "size"; "domains"; "median_ns"; "speedup" ])
         rs
     | _ -> failwith "serve bench: JSON missing results array");
    Printf.printf "smoke: JSON parses, all rows well-formed\n%!"
  end;
  Parallel.set_domain_count 1
