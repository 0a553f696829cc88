(* Paper Table 1: interpolation of noisy data from a 14-port power
   distribution network.

   The paper uses measured INC-board data [10] (proprietary); we use the
   synthetic PDN of Rf.Pdn (see DESIGN.md) plus 1% multiplicative
   measurement noise.  Test 1 = 100 uniformly spaced samples; Test 2 =
   100 samples concentrated in the high-frequency band (ill-conditioned).

   Compared algorithms, as in the paper: vector fitting with 10
   iterations at n = 140 and n = 280; VFTI; MFTI-1 with two weightings;
   recursive MFTI-2.  Reported: reduced order, CPU time, relative error
   ERR against the (noisy) data — plus ERR against the noise-free truth,
   which the paper could not know but we can. *)

open Statespace
open Mfti

let z0 = 50.
let noise_level = 0.001 (* -60 dB measurement noise (VNA-grade) *)
let f_lo = 1e6
let f_hi = 3e9

(* no sharp singular-value drop under noise: keep everything above a
   fraction of the noise floor (paper: "use the singular values to
   determine the regular part") *)
let noisy_rank = Mfti.Svd_reduce.Tol 3e-3
(* hand-calibrated against the noise floor, exactly as the paper sets its
   threshold "manually to trade off between speed and accuracy" *)

type row = {
  label : string;
  order : int;
  seconds : float;
  err_data : float;
  err_truth : float;
}

let row_of label order seconds err_data err_truth =
  { label; order; seconds; err_data; err_truth }

(* ERR of a generic evaluator against samples *)
let err_of eval samples =
  let errs =
    Array.map
      (fun smp ->
        let h = eval smp.Sampling.freq in
        let denom = Linalg.Svd.norm2 smp.Sampling.s in
        let num = Linalg.Svd.norm2 (Linalg.Cmat.sub h smp.Sampling.s) in
        if denom = 0. then num else num /. denom)
      samples
  in
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. errs)
  /. sqrt (float_of_int (Array.length errs))

let vf_row ~n ~noisy ~clean =
  let options = { Vfit.Vf.default_options with n_poles = n; iterations = 10 } in
  let (model, _), dt = Util.time_it (fun () -> Vfit.Vf.fit ~options noisy) in
  row_of
    (Printf.sprintf "VF (10 iter), n=%d" n)
    (Vfit.Vf.order model) dt
    (err_of (Vfit.Vf.eval_freq model) noisy)
    (err_of (Vfit.Vf.eval_freq model) clean)

let model_row label fit ~noisy ~clean =
  let (model, rank), dt = Util.time_it fit in
  row_of label rank dt
    (err_of (Descriptor.eval_freq model) noisy)
    (err_of (Descriptor.eval_freq model) clean)

let mfti1_row ~label ~weight ~noisy ~clean =
  model_row label
    (fun () ->
      let options =
        { Engine.default_options with weight; rank_rule = noisy_rank }
      in
      let r = Engine.fit ~options noisy in
      (r.Engine.model, r.Engine.rank))
    ~noisy ~clean

let vfti_row ~noisy ~clean =
  model_row "VFTI"
    (fun () ->
      let options = { Engine.default_options with rank_rule = noisy_rank } in
      let r = Engine.fit ~strategy:Engine.Vector ~options noisy in
      (r.Engine.model, r.Engine.rank))
    ~noisy ~clean

let mfti2_row ~noisy ~clean =
  model_row "MFTI-2 (recursive)"
    (fun () ->
      let options =
        { Engine.default_recursive_options with
          weight = Tangential.Uniform 2;
          batch = 10;
          threshold = 10. *. noise_level;
          rank_rule = noisy_rank }
      in
      let r =
        Engine.fit ~strategy:(Engine.Recursive Engine.Incremental) ~options
          noisy
      in
      (r.Engine.model, r.Engine.rank))
    ~noisy ~clean

let run_test ~name ~freqs ~truth =
  Util.subheading name;
  let clean = Sampling.sample_system truth freqs in
  let noisy = Rf.Noise.add_relative ~seed:77 ~level:noise_level clean in
  let rows =
    [ vf_row ~n:140 ~noisy ~clean;
      vf_row ~n:280 ~noisy ~clean;
      vfti_row ~noisy ~clean;
      mfti1_row ~label:"MFTI-1, t=2 (weight 1)" ~weight:(Tangential.Uniform 2)
        ~noisy ~clean;
      mfti1_row ~label:"MFTI-1, t=3 (weight 2)" ~weight:(Tangential.Uniform 3)
        ~noisy ~clean;
      (* beyond the paper's table: wider blocks keep averaging the noise *)
      mfti1_row ~label:"MFTI-1, t=6 (extra)" ~weight:(Tangential.Uniform 6)
        ~noisy ~clean;
      mfti2_row ~noisy ~clean ]
  in
  Util.print_table
    ~header:[ "algorithm"; "reduced order"; "time(s)"; "ERR vs data"; "ERR vs truth" ]
    (List.map
       (fun r ->
         [ r.label; string_of_int r.order; Util.fmt_time r.seconds;
           Util.fmt_sci r.err_data; Util.fmt_sci r.err_truth ])
       rows);
  rows

let run () =
  Util.heading "Table 1: interpolation of noisy 14-port PDN data";
  let truth = Rf.Pdn.scattering_model Rf.Pdn.example2_spec ~z0 in
  Printf.printf
    "workload: synthetic 14-port PDN (order %d), 100 samples, %.0f dB noise\n%!"
    (Descriptor.order truth)
    (-20. *. log10 noise_level);
  let test1 =
    run_test ~name:"Test 1 (uniform sampling)"
      ~freqs:(Sampling.linspace f_lo f_hi 100) ~truth
  in
  let test2 =
    run_test ~name:"Test 2 (samples concentrated in the high band)"
      ~freqs:
        (Sampling.clustered ~lo:f_lo ~hi:f_hi ~split:(f_hi /. 10.)
           ~fraction:0.85 100)
      ~truth
  in
  Util.subheading "shape checks (paper's qualitative claims)";
  let find rows prefix =
    List.find (fun r -> String.length r.label >= String.length prefix
                        && String.sub r.label 0 (String.length prefix) = prefix) rows
  in
  List.iter
    (fun (tag, rows) ->
      (* n=280 skips its degenerate pole iteration, so n=140 is the
         meaningful VF timing *)
      let vf = find rows "VF (10 iter), n=140" in
      let vfti = find rows "VFTI" in
      let m2 = find rows "MFTI-1, t=2" in
      let m3 = find rows "MFTI-1, t=3" in
      let mr = find rows "MFTI-2" in
      let beats_vfti r =
        Util.claim
          (Printf.sprintf "%s: %s ERR %s < VFTI ERR %s" tag r.label
             (Util.fmt_sci r.err_data) (Util.fmt_sci vfti.err_data))
          (r.err_data < vfti.err_data)
      in
      beats_vfti m2;
      Util.claim
        (Printf.sprintf "%s: t=3 ERR %s <= t=2 ERR %s" tag
           (Util.fmt_sci m3.err_data) (Util.fmt_sci m2.err_data))
        (m3.err_data <= m2.err_data);
      beats_vfti mr;
      Util.observe (tag ^ ": MFTI-1 (t=3) faster than VF n=140")
        (m3.seconds < vf.seconds);
      Util.observe (tag ^ ": VFTI faster than MFTI-1 (t=2)")
        (vfti.seconds <= m2.seconds))
    [ ("Test 1", test1); ("Test 2", test2) ]
