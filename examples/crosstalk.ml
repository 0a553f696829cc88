(* Crosstalk analysis with a fitted macromodel.

   Three coupled interconnect lines: drive the middle line (aggressor)
   and watch the noise induced on a neighbour (victim).  We fit an MFTI
   macromodel from sampled S-parameters, verify it reproduces the
   frequency-domain crosstalk, then launch a fast pulse through the
   macromodel and measure the far-end victim noise in the time domain —
   the workflow the paper's introduction motivates.

   Run with: dune exec examples/crosstalk.exe *)

open Linalg
open Statespace
open Mfti

let () =
  let spec = Rf.Coupled_lines.default_spec in
  let dut = Rf.Coupled_lines.scattering_model spec ~z0:50. in
  Printf.printf "3 coupled lines: %d states, %d ports\n" (Descriptor.order dut)
    (Descriptor.inputs dut);

  (* fit from samples *)
  let samples = Sampling.sample_system dut (Sampling.logspace 1e7 4e10 30) in
  let fit = Engine.fit samples in
  let model = fit.Engine.model in
  Printf.printf "macromodel: order %d, validation %s\n\n" fit.Engine.rank
    (Metrics.report ~name:"MFTI"
       model
       (Sampling.sample_system dut (Sampling.logspace 2e7 3e10 25)));

  (* frequency-domain crosstalk: aggressor = middle line (1) *)
  let aggressor = Rf.Coupled_lines.near_port spec ~line:1 in
  let victim_near = Rf.Coupled_lines.near_port spec ~line:0 in
  let victim_far = Rf.Coupled_lines.far_port spec ~line:0 in
  Printf.printf "crosstalk (dB) at spot frequencies:\n";
  Printf.printf "%12s %12s %12s %12s %12s\n" "freq (Hz)" "NEXT(dut)"
    "NEXT(model)" "FEXT(dut)" "FEXT(model)";
  List.iter
    (fun f ->
      let db s i j =
        20. *. log10 (Cx.abs (Cmat.get (Descriptor.eval_freq s f) i j))
      in
      Printf.printf "%12.2e %12.2f %12.2f %12.2f %12.2f\n" f
        (db dut victim_near aggressor) (db model victim_near aggressor)
        (db dut victim_far aggressor) (db model victim_far aggressor))
    [ 1e8; 1e9; 5e9; 2e10 ];

  (* time-domain: 100 ps rise pulse on the aggressor, victim far end *)
  let dt = 2e-12 and steps = 1500 in
  let wave =
    Timedomain.Waveform.pulse ~t0:20e-12 ~rise:100e-12 ~width:1e-9 ()
  in
  let input =
    Timedomain.Waveform.on_port ~ports:(Descriptor.inputs model)
      ~port:aggressor wave
  in
  let run sys = Timedomain.simulate ~method_:Timedomain.Bdf2 sys ~input ~dt ~steps in
  let r_dut = run dut and r_model = run model in
  let peak r port =
    let worst = ref 0. in
    for k = 0 to steps do
      worst :=
        Stdlib.max !worst (abs_float (Cmat.get r.Timedomain.outputs port k).Cx.re)
    done;
    !worst
  in
  Printf.printf "\npulse test (100 ps rise):\n";
  Printf.printf "  far-end victim noise peak: dut %.4f V, macromodel %.4f V\n"
    (peak r_dut victim_far) (peak r_model victim_far);
  let worst_diff = ref 0. in
  for k = 0 to steps do
    let a = (Cmat.get r_dut.Timedomain.outputs victim_far k).Cx.re in
    let b = (Cmat.get r_model.Timedomain.outputs victim_far k).Cx.re in
    worst_diff := Stdlib.max !worst_diff (abs_float (a -. b))
  done;
  Printf.printf "  worst waveform deviation:  %.2e V\n" !worst_diff;
  if !worst_diff < 1e-3 then
    Printf.printf "  macromodel reproduces the crosstalk transient\n"
