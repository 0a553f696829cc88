(* Ablations over the design choices DESIGN.md calls out:
   - direction generator (orthonormal / identity-cycling / random unit)
   - SVD projection flavour (stacked vs pencil, real shift)
   - block width t on a noisy fit (speed/accuracy trade-off)
   - Algorithm 2 batch size (selection granularity)

   Run on a mid-size system so each cell takes milliseconds. *)

open Statespace
open Mfti

let spec =
  { Random_sys.order = 40; ports = 5; rank_d = 5; freq_lo = 100.;
    freq_hi = 1e6; damping = 0.06; seed = 11 }

let sys = Random_sys.generate spec

let validation = Sampling.sample_system sys (Sampling.logspace 150. 0.9e6 31)

let samples k = Sampling.sample_system sys (Sampling.logspace 100. 1e6 k)

let noisy k = Rf.Noise.add_relative ~seed:3 ~level:0.01 (samples k)

let fit_err options smps =
  let (r, dt) = Util.time_it (fun () -> Engine.fit ~options smps) in
  (Metrics.err r.Engine.model validation, r.Engine.rank, dt)

let run () =
  Util.heading "Ablations";

  Util.subheading "direction generator (10 samples, noise-free)";
  let rows =
    List.map
      (fun (name, directions) ->
        let e, rank, dt =
          fit_err { Engine.default_options with directions } (samples 10)
        in
        [ name; string_of_int rank; Util.fmt_sci e; Util.fmt_time dt ])
      [ ("orthonormal (default)", Direction.Orthonormal 0);
        ("identity cycling", Direction.Identity_cycle);
        ("random unit columns", Direction.Random_unit 0) ]
  in
  Util.print_table ~header:[ "directions"; "order"; "validation ERR"; "time(s)" ] rows;

  Util.subheading "SVD projection flavour (10 samples, noise-free, realified)";
  let pencil = Realify.apply (Loewner.build (Tangential.build (samples 10))) in
  let rows =
    List.map
      (fun (name, mode) ->
        let r, dt = Util.time_it (fun () -> Svd_reduce.reduce ~mode pencil) in
        [ name; string_of_int r.Svd_reduce.rank;
          Util.fmt_sci (Metrics.err r.Svd_reduce.model validation);
          Util.fmt_time dt ])
      [ ("stacked [LL sLL] (default)", Svd_reduce.Stacked);
        ("pencil |lambda_0|*LL - sLL (lemma 3.4)", Svd_reduce.Pencil None) ]
  in
  Util.print_table ~header:[ "projection"; "order"; "validation ERR"; "time(s)" ] rows;

  Util.subheading "block width t on noisy data (40 samples, 1% noise)";
  (* With noise there is no sharp singular-value drop; the rank decision
     keeps everything above (a fraction of) the noise floor. *)
  let noisy_rank = Svd_reduce.Tol 1e-3 in
  let noisy40 = noisy 40 in
  let rows =
    List.map
      (fun t ->
        let e, rank, dt =
          fit_err
            { Engine.default_options with
              weight = Tangential.Uniform t;
              rank_rule = noisy_rank }
            noisy40
        in
        [ string_of_int t; string_of_int rank; Util.fmt_sci e; Util.fmt_time dt ])
      [ 1; 2; 3; 4; 5 ]
  in
  Util.print_table ~header:[ "t"; "order"; "validation ERR"; "time(s)" ] rows;
  Printf.printf
    "(cost grows with t; validation ERR does not fall monotonically with t \
     at 1%% noise, and the order grows with t)\n";

  Util.subheading "SVD backend on a Loewner pencil (Jacobi vs Golub-Kahan)";
  let pencil =
    Realify.apply (Loewner.build (Tangential.build (samples 12)))
  in
  let stacked = Linalg.Cmat.hcat pencil.Loewner.ll pencil.Loewner.sll in
  let dj, tj =
    Util.time_it (fun () ->
        Linalg.Svd.decompose ~algorithm:Linalg.Svd.Jacobi stacked)
  in
  let dg, tg =
    Util.time_it (fun () ->
        Linalg.Svd.decompose ~algorithm:Linalg.Svd.Golub_kahan stacked)
  in
  let worst = ref 0. in
  Array.iteri
    (fun i s ->
      worst := Stdlib.max !worst
          (abs_float (s -. dg.Linalg.Svd.sigma.(i)) /. (1. +. s)))
    dj.Linalg.Svd.sigma;
  Util.print_table
    ~header:[ "backend"; "pencil"; "time(s)"; "max sigma deviation" ]
    [ [ "one-sided Jacobi";
        Printf.sprintf "%dx%d" (Linalg.Cmat.rows stacked) (Linalg.Cmat.cols stacked);
        Util.fmt_time tj; "(reference)" ];
      [ "Golub-Kahan";
        Printf.sprintf "%dx%d" (Linalg.Cmat.rows stacked) (Linalg.Cmat.cols stacked);
        Util.fmt_time tg; Util.fmt_sci !worst ] ];

  Util.subheading "rank tolerance under noise (40 samples, 1% noise, t=2)";
  let rows =
    List.map
      (fun tol ->
        let e, rank, dt =
          fit_err
            { Engine.default_options with
              weight = Tangential.Uniform 2;
              rank_rule = Svd_reduce.Tol tol }
            noisy40
        in
        [ Util.fmt_sci tol; string_of_int rank; Util.fmt_sci e; Util.fmt_time dt ])
      [ 1e-1; 3e-2; 1e-2; 3e-3; 1e-3; 1e-4 ]
  in
  Util.print_table ~header:[ "tol"; "order"; "validation ERR"; "time(s)" ] rows;
  Printf.printf
    "(too large truncates real modes; too small keeps noise modes)\n";

  Util.subheading "per-sample weighting on an ill-conditioned grid";
  (* The paper's Test 2 weights earlier (well-spread) samples more
     heavily ("t_i >= t_j for i < j").  On this workload uniform widths
     match or beat front-loaded ones — the trade-off is data-dependent,
     which is why Tangential.Per_sample exists as a knob. *)
  let clustered_freqs =
    Statespace.Sampling.clustered ~lo:100. ~hi:1e6 ~split:1e5 ~fraction:0.8 40
  in
  let clustered_noisy =
    Rf.Noise.add_relative ~seed:3 ~level:0.01
      (Statespace.Sampling.sample_system sys clustered_freqs)
  in
  let rows =
    List.map
      (fun (name, weight) ->
        let e, rank, dt =
          fit_err
            { Engine.default_options with weight; rank_rule = noisy_rank }
            clustered_noisy
        in
        [ name; string_of_int rank; Util.fmt_sci e; Util.fmt_time dt ])
      [ ("uniform t=2", Tangential.Uniform 2);
        ("uniform t=3", Tangential.Uniform 3);
        ("front-loaded 3/1", Tangential.Per_sample
           (Array.init 40 (fun i -> if i < 20 then 3 else 1)));
        ("front-loaded 4/2", Tangential.Per_sample
           (Array.init 40 (fun i -> if i < 20 then 4 else 2))) ]
  in
  Util.print_table ~header:[ "weighting"; "order"; "validation ERR"; "time(s)" ] rows;

  Util.subheading "Algorithm 2 batch size (40 noisy samples, t=2)";
  let rows =
    List.map
      (fun batch ->
        let options =
          { Engine.default_recursive_options with
            weight = Tangential.Uniform 2; batch; threshold = 0.03;
            rank_rule = noisy_rank }
        in
        let (r, dt) =
          Util.time_it (fun () ->
              Engine.fit ~strategy:(Engine.Recursive Engine.Incremental)
                ~options noisy40)
        in
        let e = Metrics.err r.Engine.model validation in
        [ string_of_int batch;
          Printf.sprintf "%d/%d" r.Engine.selected_units r.Engine.total_units;
          string_of_int r.Engine.rank; Util.fmt_sci e; Util.fmt_time dt ])
      [ 2; 5; 10; 20 ]
  in
  Util.print_table
    ~header:[ "batch k0"; "units used"; "order"; "validation ERR"; "time(s)" ] rows;
  Printf.printf "%!"
