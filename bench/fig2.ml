(* Paper Fig. 2: Bode magnitude (input 1 -> output 1) of the original
   order-150 30-port system and the models recovered by MFTI and VFTI
   from the same 8 matrix samples.

   Expected shape: the MFTI model overlays the original; the VFTI model
   (rank limited to 8) does not. *)

open Linalg
open Statespace
open Mfti

let run () =
  Util.heading "Figure 2: Bode magnitude of original vs MFTI vs VFTI models";
  let sys = Random_sys.example1 () in
  let samples = Sampling.sample_system sys (Sampling.logspace 10. 1e5 8) in

  let mfti, t_mfti = Util.time_it (fun () -> Engine.fit samples) in
  let vfti, t_vfti =
    Util.time_it (fun () -> Engine.fit ~strategy:Engine.Vector samples)
  in
  Printf.printf "MFTI model: order %d (%.2f s); VFTI model: order %d (%.2f s)\n%!"
    mfti.Engine.rank t_mfti vfti.Engine.rank t_vfti;

  let grid = Sampling.logspace 10. 1e5 120 in
  Printf.printf "# columns: freq_hz |H11_original| |H11_mfti| |H11_vfti|\n";
  Array.iter
    (fun f ->
      let h s = Cx.abs (Cmat.get (Descriptor.eval_freq s f) 0 0) in
      Printf.printf "%.6e %.6e %.6e %.6e\n" f (h sys)
        (h mfti.Engine.model) (h vfti.Engine.model))
    grid;
  let curve name model =
    { Plot.Svg.label = name;
      points =
        Array.map
          (fun f ->
            (f, Cx.abs (Cmat.get (Descriptor.eval_freq model f) 0 0)))
          grid }
  in
  if not (Sys.file_exists "figures") then Sys.mkdir "figures" 0o755;
  Plot.Svg.write_file "figures/fig2_bode.svg"
    ~title:"Fig. 2: |H11| of original vs recovered models (8 samples)"
    ~xlabel:"frequency (Hz)" ~ylabel:"magnitude"
    ~xaxis:Plot.Svg.Log ~yaxis:Plot.Svg.Log
    [ curve "original" sys;
      curve "MFTI model" mfti.Engine.model;
      curve "VFTI model" vfti.Engine.model ];
  Printf.printf "wrote figures/fig2_bode.svg\n";
  let validation = Sampling.sample_system sys grid in
  let err_mfti = Metrics.err mfti.Engine.model validation
  and err_vfti = Metrics.err vfti.Engine.model validation in
  Printf.printf "\nvalidation ERR over the plotted band:\n";
  Util.claim
    (Printf.sprintf "MFTI ERR %.3e <= 1e-9 (machine precision)" err_mfti)
    (err_mfti <= 1e-9);
  Util.claim
    (Printf.sprintf "VFTI ERR %.3e >= 1 (8 samples are inadequate)" err_vfti)
    (err_vfti >= 1.)
