(* Reusing a fitted macromodel in the time domain.

   Macromodels exist to be dropped into circuit simulation.  This example
   fits an MFTI model to a sampled interconnect, then runs a trapezoidal
   transient analysis of both the original netlist model and the
   macromodel under the same step stimulus, and reports how closely the
   waveforms agree.

   Run with: dune exec examples/transient.exe *)

open Linalg
open Statespace
open Mfti

let () =
  (* the device: a terminated RLC line *)
  let spec = { Rf.Ladder.default_spec with sections = 8 } in
  let dut = Rf.Ladder.scattering_model spec ~z0:50. in

  (* frequency-domain fit *)
  let samples = Sampling.sample_system dut (Sampling.logspace 1e6 3e10 20) in
  let fit = Engine.fit samples in
  Printf.printf "fitted macromodel: order %d (original %d)\n"
    fit.Engine.rank (Descriptor.order dut);

  (* transient: step on port 1, watch the transmitted wave at port 2 *)
  let dt = 2e-12 and steps = 2000 in
  let run sys = Timedomain.step_response sys ~port:0 ~dt ~steps in
  let original = run dut in
  let model = run fit.Engine.model in

  let worst = ref 0. in
  let at k r = (Cmat.get r.Timedomain.outputs 1 k).Cx.re in
  for k = 0 to steps do
    worst := Stdlib.max !worst (abs_float (at k original -. at k model))
  done;
  Printf.printf "step response: worst |y_model - y_original| = %.3e over %g ns\n"
    !worst (float_of_int steps *. dt *. 1e9);

  Printf.printf "\n%8s %12s %12s\n" "t (ps)" "original" "macromodel";
  List.iter
    (fun k ->
      Printf.printf "%8.0f %12.6f %12.6f\n"
        (original.Timedomain.times.(k) *. 1e12) (at k original) (at k model))
    [ 0; 50; 100; 200; 400; 800; 1600; 2000 ];

  if !worst < 1e-3 then
    Printf.printf "\nmacromodel is transient-accurate: safe to hand to a simulator\n"
  else
    Printf.printf "\nWARNING: transient mismatch above 1e-3\n"
