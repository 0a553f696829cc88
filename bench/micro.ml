(* Bechamel micro-benchmarks.

   One Test.make per paper table/figure pipeline, each on a scaled-down
   instance so bechamel can sample it repeatedly for tight statistics
   (the full-scale reproductions run in the fig1/fig2/table1/minsample
   harnesses, which print the paper-shaped output and wall-clock times). *)

open Bechamel
open Toolkit
open Statespace
open Mfti

(* shared fixtures, built once *)
let sys12 =
  Random_sys.generate
    { Random_sys.order = 12; ports = 3; rank_d = 3; freq_lo = 100.;
      freq_hi = 1e5; damping = 0.08; seed = 42 }

let samples12 = Sampling.sample_system sys12 (Sampling.logspace 100. 1e5 8)

let noisy12 = Rf.Noise.add_relative ~seed:5 ~level:0.01 samples12

let pdn_small = { Rf.Pdn.default_spec with nx = 4; ny = 4; ports = 4; decaps = 3 }

let pdn_model = Rf.Pdn.scattering_model pdn_small ~z0:50.

let pdn_samples =
  Sampling.sample_system pdn_model (Sampling.logspace 1e6 1e9 20)

let tangential12 = Tangential.build samples12

let touchstone_text =
  Rf.Touchstone.print
    { Rf.Touchstone.parameter = Rf.Touchstone.S; z0 = 50.; samples = pdn_samples }

let rng_matrix =
  let rng = Linalg.Rng.create 1 in
  Linalg.Cmat.random rng 60 60

let tests =
  Test.make_grouped ~name:"mfti" ~fmt:"%s %s"
    [ Test.make ~name:"fig1:loewner-build"
        (Staged.stage (fun () -> ignore (Loewner.build tangential12)));
      Test.make ~name:"fig1:svd-60x60"
        (Staged.stage (fun () -> ignore (Linalg.Svd.decompose rng_matrix)));
      Test.make ~name:"fig2:algorithm1-fit"
        (Staged.stage (fun () -> ignore (Engine.fit samples12)));
      Test.make ~name:"fig2:vfti-fit"
        (Staged.stage (fun () ->
             ignore (Engine.fit ~strategy:Engine.Vector samples12)));
      Test.make ~name:"table1:mfti2-recursive"
        (Staged.stage (fun () ->
             let options =
               { Engine.default_recursive_options with
                 weight = Tangential.Uniform 2; batch = 4; threshold = 0.03 }
             in
             ignore
               (Engine.fit ~strategy:(Engine.Recursive Engine.Incremental)
                  ~options noisy12)));
      Test.make ~name:"table1:vector-fitting-n12"
        (Staged.stage (fun () ->
             let options =
               { Vfit.Vf.default_options with n_poles = 12; iterations = 3 }
             in
             ignore (Vfit.Vf.fit ~options noisy12)));
      Test.make ~name:"table1:pdn-sampling"
        (Staged.stage (fun () ->
             ignore (Sampling.sample_system pdn_model [| 1e8; 5e8 |])));
      Test.make ~name:"substrate:mna-assembly"
        (Staged.stage (fun () ->
             ignore (Rf.Mna.to_descriptor (Rf.Pdn.build pdn_small))));
      Test.make ~name:"substrate:touchstone-parse"
        (Staged.stage (fun () ->
             ignore (Rf.Touchstone.parse ~nports:4 touchstone_text))) ]

let benchmark () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10)
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  results

let run () =
  Util.heading "Bechamel micro-benchmarks (scaled-down pipelines)";
  let results = benchmark () in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (value :: _) -> value
        | Some [] | None -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) !rows in
  Util.print_table
    ~header:[ "benchmark"; "time per run" ]
    (List.map
       (fun (name, ns) ->
         let pretty =
           if Float.is_nan ns then "n/a"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; pretty ])
       rows)
