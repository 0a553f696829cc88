(* Large-scale macromodeling: a 20x20-grid PDN (~1200 MNA states).

   At this size dense per-frequency solves are already painful — the
   sparse Gilbert-Peierls path samples the board in a fraction of a
   second per point.  MFTI then compresses the sampled band behaviour
   into a compact state-space macromodel: the underlying circuit has
   ~1200 states, but its responses over the band of interest need far
   fewer, and the Loewner singular values reveal exactly how many.

   Run with: dune exec examples/large_scale.exe *)

open Statespace
open Mfti

let () =
  let spec =
    { Rf.Pdn.default_spec with nx = 20; ny = 20; ports = 8; decaps = 10;
      seed = 20 }
  in
  let circuit = Rf.Pdn.build spec in
  Printf.printf "PDN: %d MNA states, %d ports\n" (Rf.Mna.num_states circuit)
    (Rf.Mna.num_ports circuit);

  (* sample through the sparse solver *)
  let k = 120 in
  let freqs = Sampling.logspace 1e6 2e9 k in
  let samples, t_sample =
    (fun f -> let t0 = Sys.time () in let r = f () in (r, Sys.time () -. t0))
      (fun () -> Rf.Pdn.scattering_sparse spec ~z0:50. freqs)
  in
  Printf.printf "sampled %d points in %.2f s (%.1f ms/point, sparse LU)\n" k
    t_sample (1000. *. t_sample /. float_of_int k);

  (* fit a band-limited macromodel *)
  let options =
    { Engine.default_options with weight = Tangential.Uniform 6 }
  in
  let fit, t_fit =
    (fun f -> let t0 = Sys.time () in let r = f () in (r, Sys.time () -. t0))
      (fun () -> Engine.fit ~options samples)
  in
  Printf.printf "MFTI fit in %.2f s: macromodel order %d (circuit had %d)\n"
    t_fit fit.Engine.rank (Rf.Mna.num_states circuit);

  (* validate against fresh sparse samples off the fitting grid *)
  let vfreqs = Sampling.logspace 1.5e6 1.8e9 31 in
  let validation = Rf.Pdn.scattering_sparse spec ~z0:50. vfreqs in
  Printf.printf "%s\n"
    (Metrics.report ~name:"macromodel" fit.Engine.model validation);
  Printf.printf
    "\nthe macromodel is ~%dx smaller than the netlist and reproduces the\n\
     whole band to %.2g%% RMS relative error\n"
    (Rf.Mna.num_states circuit / Stdlib.max fit.Engine.rank 1)
    (100. *. Metrics.err fit.Engine.model validation)
