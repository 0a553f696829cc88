(* Example-1 scenario: modeling a massive-port package model from very
   few samples.

   An order-150, 30-port system is sampled at just 8 frequencies — far
   too few for vector-format interpolation (which sees one direction per
   sample) but comfortably above MFTI's minimal sampling bound
   (150+30)/30 = 6.  We fit both and print the side-by-side accuracy,
   reproducing the situation of the paper's Figures 1-2 (the bench
   harness prints the full curves; this example is the narrative
   version).

   Run with: dune exec examples/interconnect.exe *)

open Linalg
open Statespace
open Mfti

let () =
  let sys = Random_sys.example1 () in
  Printf.printf "package model: order %d, %d ports\n" (Descriptor.order sys)
    (Descriptor.inputs sys);
  let samples = Sampling.sample_system sys (Sampling.logspace 10. 1e5 8) in
  Printf.printf "sampling: 8 matrices across 10 Hz - 100 kHz\n\n";

  Printf.printf "fitting MFTI (every entry of every sample used)...\n%!";
  let mfti = Engine.fit samples in
  Printf.printf "  -> order %d\n%!" mfti.Engine.rank;

  Printf.printf "fitting VFTI (one direction per sample)...\n%!";
  let vfti = Engine.fit ~strategy:Engine.Vector samples in
  Printf.printf "  -> order %d\n\n%!" vfti.Engine.rank;

  let validation = Sampling.sample_system sys (Sampling.logspace 20. 0.8e5 25) in
  Printf.printf "%s\n"
    (Metrics.report ~name:"MFTI" mfti.Engine.model validation);
  Printf.printf "%s\n\n"
    (Metrics.report ~name:"VFTI" vfti.Engine.model validation);

  (* a few spot values of the port 1 -> 1 response, like Fig. 2 *)
  Printf.printf "|H11| spot checks:\n";
  Printf.printf "%12s %14s %14s %14s\n" "freq (Hz)" "original" "MFTI" "VFTI";
  List.iter
    (fun f ->
      let mag s = Cx.abs (Cmat.get (Descriptor.eval_freq s f) 0 0) in
      Printf.printf "%12.3e %14.6e %14.6e %14.6e\n" f (mag sys)
        (mag mfti.Engine.model) (mag vfti.Engine.model))
    [ 30.; 300.; 3e3; 3e4 ];
  Printf.printf
    "\nMFTI tracks the original; VFTI cannot, since 8 vector samples span\n\
     rank 8 while the system needs order %d + rank(D) %d = 180.\n"
    150 30
