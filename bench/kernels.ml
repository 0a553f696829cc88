(* Kernel-level perf trajectory: GEMM, Loewner assembly, Jacobi SVD and
   the frequency sweep, each timed against its sequential baseline for
   1 and N domains, written to BENCH_kernels.json.

   Methodology: machine throughput drifts, so every repetition times all
   arms of one op back-to-back (baseline first) and the reported speedup
   is the *median of the per-repetition paired ratios* — robust against
   drift between repetitions in a way the ratio of medians is not.
   [median_ns] is still the plain per-arm median for absolute context.

   Baselines:
     - gemm / gemm_cn: the seed scalar kernels, still exported as
       [Cmat.mul_reference] / [Cmat.mul_cn_reference].
     - loewner: the seed per-pair assembly (small products + block
       copies), reimplemented below exactly as it stood.
     - svd_jacobi / freq_sweep: the same code forced sequential via
       [Parallel.with_sequential] (there is no separate seed kernel).

   Wall-clock time via [Unix.gettimeofday]: [Sys.time] counts CPU time
   summed over domains, which is the wrong metric for a parallel run. *)

open Statespace
open Mfti
open Linalg

(* Shared JSON reader/writer lives in [Bjson]. *)
module Json = Bjson

(* ------------------------------------------------------------------ *)
(* Seed Loewner assembly, kept verbatim as the benchmark baseline: one
   small product, scale and block copy per (left, right) block pair. *)

let loewner_baseline (data : Tangential.t) =
  let right = data.Tangential.right and left = data.Tangential.left in
  let right_sizes = Tangential.right_sizes data in
  let left_sizes = Tangential.left_sizes data in
  let kr = Array.fold_left ( + ) 0 right_sizes in
  let kl = Array.fold_left ( + ) 0 left_sizes in
  let col_off = Array.make (Array.length right_sizes) 0 in
  for i = 1 to Array.length right_sizes - 1 do
    col_off.(i) <- col_off.(i - 1) + right_sizes.(i - 1)
  done;
  let row_off = Array.make (Array.length left_sizes) 0 in
  for i = 1 to Array.length left_sizes - 1 do
    row_off.(i) <- row_off.(i - 1) + left_sizes.(i - 1)
  done;
  let ll = Cmat.zeros kl kr and sll = Cmat.zeros kl kr in
  Array.iteri
    (fun i (lb : Tangential.left_block) ->
      Array.iteri
        (fun j (rb : Tangential.right_block) ->
          let denom = Cx.sub lb.Tangential.mu rb.Tangential.lambda in
          if Cx.abs denom = 0. then
            invalid_arg "loewner_baseline: coincident points";
          let inv = Cx.inv denom in
          let vr = Cmat.mul lb.Tangential.v rb.Tangential.r in
          let lw = Cmat.mul lb.Tangential.l rb.Tangential.w in
          let blk = Cmat.scale inv (Cmat.sub vr lw) in
          let sblk =
            Cmat.scale inv
              (Cmat.sub
                 (Cmat.scale lb.Tangential.mu vr)
                 (Cmat.scale rb.Tangential.lambda lw))
          in
          Cmat.set_sub ll ~r:row_off.(i) ~c:col_off.(j) blk;
          Cmat.set_sub sll ~r:row_off.(i) ~c:col_off.(j) sblk)
        right)
    left;
  (ll, sll)

(* ------------------------------------------------------------------ *)
(* Paired timing *)

let wall f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

type row = {
  op : string;
  size : string;
  domains : int;
  median_ns : float;
  speedup : float;
}

(* [arms] = (op, domains, thunk) list; the first arm is the baseline the
   speedups refer to.  Every rep runs all arms once, in order. *)
let time_arms ~reps ~size arms =
  List.iter (fun (_, _, f) -> ignore (Sys.opaque_identity (f ()))) arms;
  let narm = List.length arms in
  let times = Array.make_matrix narm reps 0. in
  for rep = 0 to reps - 1 do
    List.iteri (fun ai (_, _, f) -> times.(ai).(rep) <- wall f) arms
  done;
  List.mapi
    (fun ai (op, domains, _) ->
      let med = median times.(ai) in
      let speedup =
        if ai = 0 then 1.0
        else
          median (Array.init reps (fun r -> times.(0).(r) /. times.(ai).(r)))
      in
      { op; size; domains; median_ns = med *. 1e9; speedup })
    arms

(* ------------------------------------------------------------------ *)

let check label diff scale =
  let rel = if scale > 0. then diff /. scale else diff in
  if rel > 1e-10 then
    failwith (Printf.sprintf "kernels: %s mismatch (rel %g)" label rel);
  Printf.printf "  check %-28s rel diff %.2e\n%!" label rel

let run ?(smoke = false) () =
  Util.heading
    (if smoke then "kernel benchmarks (smoke)" else "kernel benchmarks");
  let reps = if smoke then 3 else 9 in
  let ndom = if smoke then 2 else 4 in
  Parallel.set_domain_count ndom;
  let rng = Rng.create 20260806 in
  let rows = ref [] in
  let emit rs = rows := !rows @ rs in

  (* --- complex GEMM ------------------------------------------------ *)
  let gemm_sizes = if smoke then [ 40 ] else [ 60; 120; 240 ] in
  List.iter
    (fun sz ->
      let a = Cmat.random rng sz sz and b = Cmat.random rng sz sz in
      let reference = Cmat.mul_reference a b in
      let blocked = Cmat.mul a b in
      check
        (Printf.sprintf "gemm %d" sz)
        (Cmat.norm_fro (Cmat.sub reference blocked))
        (Cmat.norm_fro reference);
      let size = Printf.sprintf "%dx%dx%d" sz sz sz in
      emit
        (time_arms ~reps ~size
           [ ("gemm_reference", 1, fun () -> Cmat.mul_reference a b);
             ( "gemm",
               1,
               fun () -> Parallel.with_sequential (fun () -> Cmat.mul a b) );
             ("gemm", ndom, fun () -> Cmat.mul a b) ]))
    gemm_sizes;

  (* --- conjugate-transpose GEMM ------------------------------------ *)
  let cn_sizes = if smoke then [ (40, 40, 40) ] else [ (240, 180, 200) ] in
  List.iter
    (fun (k, m, n) ->
      let a = Cmat.random rng k m and b = Cmat.random rng k n in
      let reference = Cmat.mul_cn_reference a b in
      check
        (Printf.sprintf "gemm_cn %dx%dx%d" k m n)
        (Cmat.norm_fro (Cmat.sub reference (Cmat.mul_cn a b)))
        (Cmat.norm_fro reference);
      let size = Printf.sprintf "%dx%dx%d" k m n in
      emit
        (time_arms ~reps ~size
           [ ("gemm_cn_reference", 1, fun () -> Cmat.mul_cn_reference a b);
             ( "gemm_cn",
               1,
               fun () -> Parallel.with_sequential (fun () -> Cmat.mul_cn a b)
             );
             ("gemm_cn", ndom, fun () -> Cmat.mul_cn a b) ]))
    cn_sizes;

  (* --- Loewner assembly -------------------------------------------- *)
  let loewner_cases =
    if smoke then [ (2, 8, 8) ] else [ (4, 16, 16); (8, 32, 24) ]
  in
  List.iter
    (fun (ports, nsamples, order) ->
      let sys =
        Random_sys.generate
          { Random_sys.order; ports; rank_d = ports / 2;
            freq_lo = 100.; freq_hi = 1e5; damping = 0.08; seed = 7 }
      in
      let samples =
        Sampling.sample_system sys (Sampling.logspace 100. 1e5 nsamples)
      in
      let data = Tangential.build samples in
      let pencil = Loewner.build data in
      let bll, bsll = loewner_baseline data in
      check
        (Printf.sprintf "loewner %dp x %ds (LL)" ports nsamples)
        (Cmat.norm_fro (Cmat.sub pencil.Loewner.ll bll))
        (Cmat.norm_fro bll);
      check
        (Printf.sprintf "loewner %dp x %ds (sLL)" ports nsamples)
        (Cmat.norm_fro (Cmat.sub pencil.Loewner.sll bsll))
        (Cmat.norm_fro bsll);
      let kl = Cmat.rows pencil.Loewner.ll
      and kr = Cmat.cols pencil.Loewner.ll in
      let size = Printf.sprintf "%dports_%dsamples_%dx%d" ports nsamples kl kr in
      emit
        (time_arms ~reps ~size
           [ ( "loewner_reference",
               1,
               fun () -> ignore (Sys.opaque_identity (loewner_baseline data)) );
             ( "loewner",
               1,
               fun () ->
                 Parallel.with_sequential (fun () ->
                     ignore (Sys.opaque_identity (Loewner.build data))) );
             ( "loewner",
               ndom,
               fun () -> ignore (Sys.opaque_identity (Loewner.build data)) ) ]))
    loewner_cases;

  (* --- one-sided Jacobi SVD ---------------------------------------- *)
  let svd_cases = if smoke then [ (24, 16) ] else [ (96, 64); (160, 96) ] in
  List.iter
    (fun (m, n) ->
      let a = Cmat.random rng m n in
      let seq =
        Parallel.with_sequential (fun () ->
            Svd.decompose ~algorithm:Svd.Jacobi a)
      in
      let par = Svd.decompose ~algorithm:Svd.Jacobi a in
      let sdiff =
        Array.fold_left max 0.
          (Array.map2 (fun x y -> abs_float (x -. y)) seq.Svd.sigma
             par.Svd.sigma)
      in
      check (Printf.sprintf "svd_jacobi %dx%d" m n) sdiff seq.Svd.sigma.(0);
      let size = Printf.sprintf "%dx%d" m n in
      emit
        (time_arms ~reps ~size
           [ ( "svd_jacobi",
               1,
               fun () ->
                 Parallel.with_sequential (fun () ->
                     Svd.decompose ~algorithm:Svd.Jacobi a) );
             ("svd_jacobi", ndom, fun () -> Svd.decompose ~algorithm:Svd.Jacobi a)
           ]))
    svd_cases;

  (* --- randomized tall-pencil reduce (Example-1 scale) ------------- *)
  (* The reduce stage on a pencil past the size rule's cutoff, which
     sketches it with the certified randomized range finder, against
     the exact path.  The exact rank and spectrum come from the same
     reduce with the ["svd.rsvd.degrade"] fault refusing the sketch.
     The timed baseline is the two exact stacked factorizations
     themselves (Golub-Kahan at these sizes): under the fault the
     reduce would time the refused sketch as well.  rsvd's win over
     it is algorithmic — the pencil rank (Lemma 3.3) caps the sketch —
     and the sketch GEMMs also scale with domains where the exact path
     cannot. *)
  let reduce_cases = if smoke then [ (12, 30, 20) ] else [ (30, 150, 24) ] in
  List.iter
    (fun (ports, order, nsamples) ->
      let sys =
        Random_sys.generate
          { Random_sys.order; ports; rank_d = ports / 2;
            freq_lo = 100.; freq_hi = 1e5; damping = 0.08; seed = 7 }
      in
      let samples =
        Sampling.sample_system sys (Sampling.logspace 100. 1e5 nsamples)
      in
      (* realified as every engine path does (Lemma 3.2): the reduce
         takes only an exactly real pencil *)
      let t = Realify.apply (Loewner.build (Tangential.build samples)) in
      let reduce () = Svd_reduce.reduce t in
      let ll = Cmat.real_part t.Loewner.ll
      and sll = Cmat.real_part t.Loewner.sll in
      let exact_factors () =
        ignore
          (Sys.opaque_identity
             (Svd.right_real (Rmat.transpose (Rmat.hcat ll sll))));
        ignore (Sys.opaque_identity (Svd.right_real (Rmat.vcat ll sll)))
      in
      let exact =
        Fault.with_spec "svd.rsvd.degrade" (fun () ->
            Parallel.with_sequential reduce)
      in
      let rand = reduce () in
      let reduce_once () = ignore (Sys.opaque_identity (reduce ())) in
      if Array.length rand.Svd_reduce.sigma >= Cmat.cols t.Loewner.ll then
        failwith
          (Printf.sprintf
             "kernels: %d-port order-%d pencil did not keep the rsvd sketch"
             ports order);
      if exact.Svd_reduce.rank <> rand.Svd_reduce.rank then
        failwith
          (Printf.sprintf
             "kernels: rsvd rank decision %d != exact %d on %d-port order-%d \
              pencil"
             rand.Svd_reduce.rank exact.Svd_reduce.rank ports order);
      let sdiff = ref 0. in
      for i = 0 to rand.Svd_reduce.rank - 1 do
        sdiff :=
          Stdlib.max !sdiff
            (abs_float
               (exact.Svd_reduce.sigma.(i) -. rand.Svd_reduce.sigma.(i)))
      done;
      (* the certificate allows a 1e-10 |A|_F perturbation of the
         retained values, so the agreement bar is looser than [check] *)
      if !sdiff > 1e-8 *. exact.Svd_reduce.sigma.(0) then
        failwith
          (Printf.sprintf "kernels: rsvd retained spectrum drifted (abs %g)"
             !sdiff);
      Printf.printf "  check %-28s rel diff %.2e (rank %d)\n%!"
        (Printf.sprintf "rsvd reduce %dp order%d" ports order)
        (!sdiff /. exact.Svd_reduce.sigma.(0))
        rand.Svd_reduce.rank;
      let kl = Cmat.rows t.Loewner.ll and kr = Cmat.cols t.Loewner.ll in
      let size = Printf.sprintf "%dports_order%d_%dx%d" ports order kl kr in
      (* the exact arm is tens of seconds at Example-1 scale *)
      let reps = Stdlib.max 3 (reps / 3) in
      emit
        (time_arms ~reps ~size
           [ ( "rsvd_exact_reference",
               1,
               fun () -> Parallel.with_sequential exact_factors );
             ( "rsvd",
               1,
               fun () -> Parallel.with_sequential reduce_once );
             ("rsvd", ndom, reduce_once) ]))
    reduce_cases;

  (* --- frequency sweep --------------------------------------------- *)
  let sweep_cases = if smoke then [ (8, 2, 6) ] else [ (40, 4, 64) ] in
  List.iter
    (fun (order, ports, nfreq) ->
      let sys =
        Random_sys.generate
          { Random_sys.order; ports; rank_d = Stdlib.max 1 (ports / 2);
            freq_lo = 100.; freq_hi = 1e6; damping = 0.05; seed = 3 }
      in
      let freqs = Sampling.logspace 100. 1e6 nfreq in
      let seq =
        Parallel.with_sequential (fun () -> Sampling.sample_system sys freqs)
      in
      let par = Sampling.sample_system sys freqs in
      let diff =
        Array.fold_left max 0.
          (Array.map2
             (fun (a : Sampling.sample) (b : Sampling.sample) ->
               Cmat.norm_fro (Cmat.sub a.Sampling.s b.Sampling.s))
             seq par)
      in
      check (Printf.sprintf "freq_sweep n%d x %df" order nfreq) diff 1.0;
      let size = Printf.sprintf "order%d_%dfreqs" order nfreq in
      emit
        (time_arms ~reps ~size
           [ ( "freq_sweep",
               1,
               fun () ->
                 Parallel.with_sequential (fun () ->
                     Sampling.sample_system sys freqs) );
             ("freq_sweep", ndom, fun () -> Sampling.sample_system sys freqs)
           ]))
    sweep_cases;

  (* --- report ------------------------------------------------------ *)
  let rows = !rows in
  Util.print_table
    ~header:[ "op"; "size"; "domains"; "median"; "speedup" ]
    (List.map
       (fun r ->
         [ r.op; r.size; string_of_int r.domains;
           Printf.sprintf "%.3f ms" (r.median_ns /. 1e6);
           Printf.sprintf "%.2fx" r.speedup ])
       rows);
  let json =
    Json.Obj
      (Json.std_header ~schema:"mfti-bench-kernels/1"
         ~tool:"bench/main.exe kernels" ~smoke
      @ [ ("reps", Json.Num (float_of_int reps));
        ("domains", Json.Num (float_of_int ndom));
        ( "results",
          Json.Arr
            (List.map
               (fun r ->
                 Json.Obj
                   [ ("op", Json.Str r.op);
                     ("size", Json.Str r.size);
                     ("domains", Json.Num (float_of_int r.domains));
                     ("median_ns", Json.Num (Float.round r.median_ns));
                     ("speedup", Json.Num r.speedup) ])
               rows) ) ])
  in
  let path = if smoke then "BENCH_kernels.smoke.json" else "BENCH_kernels.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d rows)\n%!" path (List.length rows);
  (* The smoke run validates the emitted JSON round-trips through the
     parser with the fields downstream tooling keys on. *)
  if smoke then begin
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let parsed = Json.parse text in
    (match Json.member "results" parsed with
     | Some (Json.Arr (_ :: _ as rs)) ->
       List.iter
         (fun r ->
           List.iter
             (fun field ->
               if Json.member field r = None then
                 failwith ("kernels: JSON row missing " ^ field))
             [ "op"; "size"; "domains"; "median_ns"; "speedup" ])
         rs
     | _ -> failwith "kernels: JSON missing results array");
    Printf.printf "smoke: JSON parses, all rows well-formed\n%!";
    (* The committed full report must carry a multi-domain randomized
       reduce row, and the tall-pencil reduce must not have regressed
       to the serial path: its speedup (vs the exact sequential
       baseline arm) must stay > 1. *)
    let committed =
      List.find_opt Sys.file_exists
        [ "BENCH_kernels.json"; "../BENCH_kernels.json" ]
    in
    (match committed with
     | None -> failwith "kernels: committed BENCH_kernels.json not found"
     | Some path ->
       let ic = open_in path in
       let len = in_channel_length ic in
       let text = really_input_string ic len in
       close_in ic;
       let parsed = Json.parse text in
       let rows =
         match Json.member "results" parsed with
         | Some (Json.Arr rs) -> rs
         | _ -> failwith "kernels: committed report missing results array"
       in
       let field_str r k =
         match Json.member k r with Some (Json.Str s) -> Some s | _ -> None
       in
       let field_num r k =
         match Json.member k r with Some (Json.Num x) -> Some x | _ -> None
       in
       let rsvd_multi =
         List.filter
           (fun r ->
             field_str r "op" = Some "rsvd"
             && (match field_num r "domains" with
                 | Some d -> d > 1.
                 | None -> false))
           rows
       in
       (match rsvd_multi with
        | [] ->
          failwith
            "kernels: committed BENCH_kernels.json lacks a multi-domain \
             rsvd row"
        | rs ->
          List.iter
            (fun r ->
              match field_num r "speedup" with
              | Some s when s > 1. -> ()
              | Some s ->
                failwith
                  (Printf.sprintf
                     "kernels: tall-pencil reduce regressed to serial \
                      (rsvd multi-domain speedup %.2fx <= 1)"
                     s)
              | None -> failwith "kernels: rsvd row missing speedup")
            rs);
       Printf.printf
         "smoke: committed BENCH_kernels.json has rsvd entries, reduce \
          still parallel\n%!")
  end;
  Parallel.set_domain_count 1
