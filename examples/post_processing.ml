(* Post-processing macromodels: balanced truncation, stabilization and
   passivity verification.

   Four stages a production flow chains after (or before) fitting:
   1. balanced truncation with its guaranteed H-infinity error bound —
      demonstrated on the PDN's impedance model, whose Hankel spectrum
      collapses after ~2/3 of the states;
   2. MFTI fitting of noisy scattering data with a noise-matched rank
      cut, plus pole reflection for any unstable stragglers;
   3. the Hamiltonian passivity test, which pinpoints every frequency
      where sigma_max(S) crosses 1;
   4. the one-call certification pipeline (Certify.run) that chains 2
      and 3 with perturbative repair and emits the typed certificate
      the serving layer's admission policy checks.

   Run with: dune exec examples/post_processing.exe *)

open Statespace
open Mfti

let spec = { Rf.Pdn.default_spec with nx = 5; ny = 5; ports = 6; decaps = 5 }

let () =
  (* --- 1. balanced truncation of the impedance model --------------- *)
  let z_model = Rf.Mna.to_descriptor (Rf.Pdn.build spec) in
  Printf.printf "PDN impedance model: %d states\n" (Descriptor.order z_model);
  let reduced = Reduction.balanced_truncation ~rtol:1e-7 z_model in
  let freqs = Sampling.logspace 1e6 2e9 40 in
  let worst =
    Array.fold_left
      (fun acc f ->
        let d =
          Linalg.Cmat.sub
            (Descriptor.eval_freq z_model f)
            (Descriptor.eval_freq reduced.Reduction.model f)
        in
        Stdlib.max acc (Linalg.Svd.norm2 d))
      0. freqs
  in
  Printf.printf
    "balanced truncation: %d -> %d states; H-inf bound %.2e, observed %.2e\n"
    (Descriptor.order z_model) reduced.Reduction.retained
    reduced.Reduction.error_bound worst;
  Printf.printf "Hankel spectrum around the cut:";
  Array.iteri
    (fun i h ->
      if i >= reduced.Reduction.retained - 2
         && i <= reduced.Reduction.retained + 2 then
        Printf.printf " [%d]=%.2e" i h)
    reduced.Reduction.hankel;
  Printf.printf
    "\n(scattering models resist this: S-parameters are near-unitary, so\n\
     their Hankel values are all close to 1 — reduce in the Z domain)\n\n";

  (* --- 2. fit noisy S-data, stabilize ------------------------------ *)
  let truth = Rf.Pdn.scattering_model spec ~z0:50. in
  let grid = Sampling.linspace 1e6 2e9 80 in
  let clean = Sampling.sample_system truth grid in
  let noisy = Rf.Noise.add_relative ~seed:12 ~level:1e-3 clean in
  (* Cut the rank at the noise floor.  Cutting far below it (Tol 1e-4
     here) keeps scores of noise modes — half of them unstable — and no
     post-processing can rescue that model. *)
  let options =
    { Engine.default_options with
      weight = Tangential.Uniform 3;
      rank_rule = Svd_reduce.Tol 3e-3 }
  in
  let fit = Engine.fit ~options noisy in
  Printf.printf "fitted model: %s\n"
    (Metrics.report ~name:"MFTI" fit.Engine.model clean);
  let stab = Stabilize.reflect fit.Engine.model in
  Printf.printf "stabilization: %d poles reflected\n\n" stab.Stabilize.flipped;

  (* --- 3. passivity gate ------------------------------------------- *)
  let report name model =
    match Rf.Passivity.check model with
    | Rf.Passivity.Passive -> Printf.printf "%s: passive\n" name
    | Rf.Passivity.Feedthrough_violation s ->
      Printf.printf "%s: NOT passive at infinite frequency (sigma D = %.4f)\n"
        name s
    | Rf.Passivity.Violations fs ->
      Printf.printf
        "%s: sigma_max(S) crosses 1 at %d frequencies, first %.3e Hz\n" name
        (List.length fs) (List.hd fs)
  in
  report "original PDN    " truth;
  report "fitted model    " fit.Engine.model;
  report "stabilized model" stab.Stabilize.model;
  Printf.printf
    "(a fitted model can be mildly non-passive where noise pushed\n\
     sigma_max above 1 — the check tells the designer exactly where)\n\n";

  (* --- 4. one-call certification ----------------------------------- *)
  (* Stages 2 and 3 as the serving layer runs them: check, repair
     perturbatively, re-check, and emit the evidence record that a
     strict admission policy demands before a model is served. *)
  let sample_freqs = Array.map (fun s -> s.Sampling.freq) noisy in
  (match Certify.run ~freqs:sample_freqs fit.Engine.model with
   | Ok (certified, Some cert) ->
     Printf.printf "certify: %s\n" (Certify.Certificate.to_string cert);
     Printf.printf "certified model: %s\n"
       (Metrics.report ~name:"certified" certified clean)
   | Ok (_, None) -> Printf.printf "certify: skipped (mode = Off)\n"
   | Error e ->
     Printf.printf "certify: refused — %s\n" (Linalg.Mfti_error.to_string e))
