(* Eye-diagram analysis of an interconnect macromodel.

   Drive a fitted channel model with a PRBS stream and fold the received
   waveform modulo the bit period: the vertical opening between the
   worst "1" and the worst "0" at each sampling phase is the classic
   signal-integrity "eye".  Everything runs through the macromodel,
   which is the point — the designer never re-simulates the netlist.

   Run with: dune exec examples/eye_diagram.exe *)

open Linalg
open Statespace
open Mfti

let () =
  (* the channel: a lossy line, fit from frequency samples *)
  let spec =
    { Rf.Ladder.default_spec with sections = 12; series_r = 1.2;
      termination = 50. }
  in
  let dut = Rf.Ladder.scattering_model spec ~z0:50. in
  let samples = Sampling.sample_system dut (Sampling.logspace 1e6 4e10 26) in
  let fit = Engine.fit samples in
  let channel = fit.Engine.model in
  Printf.printf "channel macromodel: order %d, ERR %.1e\n" fit.Engine.rank
    (Metrics.err channel samples);

  let dt = 10e-12 in

  (* measure the propagation delay from the step response: time for the
     far end to reach half its settled value *)
  let step = Timedomain.step_response channel ~port:0 ~dt ~steps:800 in
  let settled = (Cmat.get step.Timedomain.outputs 1 800).Cx.re in
  let delay = ref 0. in
  (try
     for k = 0 to 800 do
       if (Cmat.get step.Timedomain.outputs 1 k).Cx.re >= settled /. 2. then begin
         delay := step.Timedomain.times.(k);
         raise Exit
       end
     done
   with Exit -> ());
  Printf.printf "measured channel delay: %.0f ps; settled level %.3f V\n"
    (!delay *. 1e12) settled;

  let eye_at bit_period =
    let rise = 60e-12 in
    let bits = 400 in
    let per_bit = int_of_float (bit_period /. dt) in
    let steps = bits * per_bit in
    let wave = Timedomain.Waveform.prbs ~seed:7 ~bit_period ~rise () in
    let input = Timedomain.Waveform.on_port ~ports:2 ~port:0 wave in
    let r =
      Timedomain.simulate ~method_:Timedomain.Bdf2 channel ~input ~dt ~steps
    in
    (* classify each received sample by the bit that was on the wire one
       channel delay earlier, sampled mid-bit *)
    let hi = Array.make per_bit infinity and lo = Array.make per_bit neg_infinity in
    let settle = 20 * per_bit in
    for k = settle to steps do
      let t = r.Timedomain.times.(k) in
      let sent = wave (t -. !delay) in
      (* skip samples launched during an edge *)
      let launch = t -. !delay in
      let frac = launch -. (Float.floor (launch /. bit_period) *. bit_period) in
      if frac > rise then begin
        let phase = k mod per_bit in
        let y = (Cmat.get r.Timedomain.outputs 1 k).Cx.re in
        if sent > 0.5 then hi.(phase) <- Stdlib.min hi.(phase) y
        else lo.(phase) <- Stdlib.max lo.(phase) y
      end
    done;
    let best = ref neg_infinity in
    for p = 0 to per_bit - 1 do
      if Float.is_finite hi.(p) && Float.is_finite lo.(p) then
        best := Stdlib.max !best (hi.(p) -. lo.(p))
    done;
    (* no clean bit ever launched (period under the rise time), or the
       worst-1 dips below the worst-0: the eye is closed *)
    if Float.is_finite !best then Stdlib.max 0. (!best /. settled) else 0.
  in

  Printf.printf "\n%12s %14s\n" "bit period" "eye height";
  List.iter
    (fun bp ->
      let eye = eye_at bp in
      let bar =
        if eye > 0. then String.make (int_of_float (30. *. eye)) '#' else ""
      in
      Printf.printf "%9.0f ps %13.1f%% %s\n" (bp *. 1e12) (100. *. eye) bar)
    [ 1600e-12; 400e-12; 100e-12; 50e-12 ];
  Printf.printf
    "\nthe eye collapses as the bit period approaches the channel delay\n\
     and rise time — all computed from the order-%d macromodel\n"
    fit.Engine.rank
