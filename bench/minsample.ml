(* Example 1's sampling claim and Theorem 3.5.

   Paper: MFTI recovers the order-150 / 30-port / rank-30-D system from
   6 matrix samples ((150+30)/30), while VFTI needs about 180 — a factor
   of 30 (the port count). *)

open Statespace
open Mfti

let validation sys = Sampling.sample_system sys (Sampling.logspace 15. 0.9e5 25)

let run () =
  Util.heading "Minimal sampling (Theorem 3.5 / Example 1 claim)";
  let sys = Random_sys.example1 () in
  let vgrid = validation sys in
  Printf.printf "theorem 3.5 estimate: k_min = %d matrix samples for MFTI\n%!"
    (Svd_reduce.minimal_samples ~order:150 ~rank_d:30 ~inputs:30 ~outputs:30);

  Util.subheading "MFTI: validation ERR vs number of matrix samples";
  let rows =
    List.map
      (fun k ->
        let samples = Sampling.sample_system sys (Sampling.logspace 10. 1e5 k) in
        let (result, dt) = Util.time_it (fun () -> Engine.fit samples) in
        let e = Metrics.err result.Engine.model vgrid in
        [ string_of_int k; string_of_int result.Engine.rank;
          Util.fmt_sci e; Util.fmt_time dt ])
      [ 2; 4; 6; 8 ]
  in
  Util.print_table ~header:[ "samples"; "model order"; "validation ERR"; "time(s)" ] rows;
  Printf.printf "(expect failure below 6 samples, recovery at 6+)\n";

  Util.subheading "VFTI: validation ERR vs number of matrix samples";
  let rows =
    List.map
      (fun k ->
        let samples = Sampling.sample_system sys (Sampling.logspace 10. 1e5 k) in
        let (result, dt) =
          Util.time_it (fun () -> Engine.fit ~strategy:Engine.Vector samples)
        in
        let e = Metrics.err result.Engine.model vgrid in
        [ string_of_int k; string_of_int result.Engine.rank;
          Util.fmt_sci e; Util.fmt_time dt ])
      [ 60; 120; 170; 180; 200 ]
  in
  Util.print_table ~header:[ "samples"; "model order"; "validation ERR"; "time(s)" ] rows;
  Printf.printf "(expect recovery only near 180 samples: ~30x the MFTI count)\n%!";

  Util.subheading "Theorem 3.5 scan over smaller systems";
  let scan order ports rank_d =
    let spec =
      { Random_sys.order; ports; rank_d; freq_lo = 100.; freq_hi = 1e5;
        damping = 0.08; seed = 5 }
    in
    let sys = Random_sys.generate spec in
    let vgrid = Sampling.sample_system sys (Sampling.logspace 150. 0.9e5 21) in
    let kmin =
      Svd_reduce.minimal_samples ~order ~rank_d ~inputs:ports ~outputs:ports
    in
    let err_at k =
      let samples = Sampling.sample_system sys (Sampling.logspace 100. 1e5 k) in
      let result = Engine.fit samples in
      Metrics.err result.Engine.model vgrid
    in
    let before = err_at (Stdlib.max 2 (kmin - 2)) in
    let at = err_at kmin in
    [ Printf.sprintf "order %d, %d ports, rank D %d" order ports rank_d;
      string_of_int kmin; Util.fmt_sci before; Util.fmt_sci at ]
  in
  Util.print_table
    ~header:[ "system"; "k_min (thm)"; "ERR at k_min - 2"; "ERR at k_min" ]
    [ scan 12 3 3; scan 20 4 0; scan 30 5 5; scan 24 6 2 ];
  Printf.printf "(expect ERR to collapse to ~1e-10 exactly at k_min)\n%!"
