(* Tests for the descriptor-system substrate. *)

open Linalg
open Statespace

let check_small ?(tol = 1e-9) msg x =
  if abs_float x > tol then Alcotest.failf "%s: |%.3g| exceeds tol %.1g" msg x tol

let check_close ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let cx re im = Cx.make re im

(* ------------------------------------------------------------------ *)
(* Descriptor *)

let siso ~pole ~residue ~direct =
  Descriptor.of_state_space
    ~a:(Cmat.scalar (Cx.of_float pole))
    ~b:(Cmat.scalar Cx.one)
    ~c:(Cmat.scalar (Cx.of_float residue))
    ~d:(Cmat.scalar (Cx.of_float direct))

let test_eval_siso () =
  let sys = siso ~pole:(-2.) ~residue:3. ~direct:0.5 in
  (* H(s) = 3/(s+2) + 0.5 *)
  let h = Descriptor.eval sys (Cx.of_float 1.) in
  check_close "H(1)" (3. /. 3. +. 0.5) (Cmat.get h 0 0).Cx.re;
  let h0 = Descriptor.dc_gain sys in
  check_close "H(0)" 2. (Cmat.get h0 0 0).Cx.re;
  let hj = Descriptor.eval sys Cx.j in
  (* 3/(j+2) + 0.5 = 3(2-j)/5 + 0.5 *)
  check_close "H(j) re" ((6. /. 5.) +. 0.5) (Cmat.get hj 0 0).Cx.re;
  check_close "H(j) im" (-3. /. 5.) (Cmat.get hj 0 0).Cx.im

let test_create_validation () =
  let bad () =
    Descriptor.create
      ~e:(Cmat.identity 2) ~a:(Cmat.identity 3)
      ~b:(Cmat.zeros 2 1) ~c:(Cmat.zeros 1 2) ~d:(Cmat.zeros 1 1)
  in
  (match bad () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "dimension mismatch accepted");
  let bad_d () =
    Descriptor.create
      ~e:(Cmat.identity 2) ~a:(Cmat.identity 2)
      ~b:(Cmat.zeros 2 1) ~c:(Cmat.zeros 1 2) ~d:(Cmat.zeros 2 2)
  in
  match bad_d () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad D accepted"

let test_eval_conjugate_symmetry () =
  let sys = Random_sys.generate { Random_sys.default_spec with seed = 5 } in
  let freqs = Sampling.logspace 10. 1e5 7 in
  check_small ~tol:1e-10 "H(-jw) = conj H(jw)"
    (Sampling.max_conjugate_mismatch sys freqs)

let test_singular_e_descriptor () =
  (* E = diag(1, 0): second state is algebraic, x2 = -b2 u / a22 acts as
     feedthrough.  H(s) = c1 b1 / (s - a11) - c2 b2 / a22. *)
  let e = Cmat.of_rows [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.zero ] ] in
  let a = Cmat.of_rows [ [ cx (-1.) 0.; Cx.zero ]; [ Cx.zero; cx (-2.) 0. ] ] in
  let b = Cmat.of_rows [ [ Cx.one ]; [ Cx.one ] ] in
  let c = Cmat.of_rows [ [ cx 4. 0.; cx 6. 0. ] ] in
  let d = Cmat.zeros 1 1 in
  let sys = Descriptor.create ~e ~a ~b ~c ~d in
  (* H(s) = 4/(s+1) + 6/2 = 4/(s+1) + 3 *)
  let h0 = (Cmat.get (Descriptor.dc_gain sys) 0 0).Cx.re in
  check_close "singular-E dc" 7. h0;
  let poles = Poles.finite_poles sys in
  Alcotest.(check int) "one finite pole" 1 (Array.length poles);
  check_close ~tol:1e-8 "pole at -1" (-1.) (Cx.re poles.(0));
  check_small ~tol:1e-8 "pole imaginary" (Cx.im poles.(0))

let test_is_real () =
  let sys = Random_sys.generate Random_sys.default_spec in
  Alcotest.(check bool) "random system is real" true (Descriptor.is_real sys);
  let complex_sys =
    Descriptor.of_state_space
      ~a:(Cmat.scalar (cx (-1.) 1.)) ~b:(Cmat.scalar Cx.one)
      ~c:(Cmat.scalar Cx.one) ~d:(Cmat.scalar Cx.zero)
  in
  Alcotest.(check bool) "complex flagged" false (Descriptor.is_real complex_sys)

let test_to_proper () =
  (* singular-E system: H(s) = 4/(s+1) + 3; to_proper must expose D = 3 *)
  let e = Cmat.of_rows [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.zero ] ] in
  let a = Cmat.of_rows [ [ cx (-1.) 0.; Cx.zero ]; [ Cx.zero; cx (-2.) 0. ] ] in
  let b = Cmat.of_rows [ [ Cx.one ]; [ Cx.one ] ] in
  let c = Cmat.of_rows [ [ cx 4. 0.; cx 6. 0. ] ] in
  let sys = Descriptor.create ~e ~a ~b ~c ~d:(Cmat.zeros 1 1) in
  let proper = Descriptor.to_proper sys in
  Alcotest.(check int) "order reduced" 1 (Descriptor.order proper);
  check_close "explicit feedthrough" 3. (Cmat.get proper.Descriptor.d 0 0).Cx.re;
  List.iter
    (fun f ->
      let h1 = Descriptor.eval_freq sys f and h2 = Descriptor.eval_freq proper f in
      check_small ~tol:1e-12 "transfer preserved"
        (Cmat.norm_fro (Cmat.sub h1 h2)))
    [ 0.001; 0.1; 5. ];
  (* full-rank E is returned untouched *)
  let full = Random_sys.generate Random_sys.default_spec in
  let same = Descriptor.to_proper full in
  Alcotest.(check int) "no-op on regular E" (Descriptor.order full)
    (Descriptor.order same)

let test_to_proper_higher_index_rejected () =
  (* E = [[0,1],[0,0]]-style nilpotent with singular algebraic block *)
  let e = Cmat.of_rows [ [ Cx.zero; Cx.one ]; [ Cx.zero; Cx.zero ] ] in
  let a = Cmat.identity 2 in
  let a = Cmat.mapi (fun i jcol x -> if i = 1 && jcol = 1 then Cx.zero else x) a in
  let sys =
    Descriptor.create ~e ~a ~b:(Cmat.of_rows [ [ Cx.one ]; [ Cx.one ] ])
      ~c:(Cmat.of_rows [ [ Cx.one; Cx.one ] ]) ~d:(Cmat.zeros 1 1)
  in
  match Descriptor.to_proper sys with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "higher-index descriptor accepted"

(* ------------------------------------------------------------------ *)
(* Sampling *)

let test_linspace () =
  let g = Sampling.linspace 1. 5. 5 in
  Alcotest.(check int) "count" 5 (Array.length g);
  check_close "first" 1. g.(0);
  check_close "last" 5. g.(4);
  check_close "step" 2. g.(1) ~tol:1.

let test_logspace () =
  let g = Sampling.logspace 1. 1e4 5 in
  check_close "first" 1. g.(0);
  check_close ~tol:1e-9 "last" 1e4 g.(4);
  check_close ~tol:1e-9 "middle" 100. g.(2)

let test_clustered () =
  let g = Sampling.clustered ~lo:10. ~hi:1e5 ~split:1e4 ~fraction:0.8 100 in
  Alcotest.(check int) "count" 100 (Array.length g);
  let high = Array.to_list g |> List.filter (fun f -> f > 1e4) in
  Alcotest.(check bool) "concentrated high" true (List.length high >= 75);
  Array.iter (fun f -> Alcotest.(check bool) "in range" true (f >= 10. && f <= 1e5)) g

let test_sample_system_dims () =
  let sys = Random_sys.generate { Random_sys.default_spec with ports = 3 } in
  let samples = Sampling.sample_system sys (Sampling.logspace 10. 1e5 4) in
  Alcotest.(check int) "count" 4 (Array.length samples);
  Alcotest.(check (pair int int)) "dims" (3, 3) (Sampling.port_dims samples)

let test_port_dims_errors () =
  (match Sampling.port_dims [||] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty accepted");
  let mixed =
    [| { Sampling.freq = 1.; s = Cmat.identity 2 };
       { Sampling.freq = 2.; s = Cmat.identity 3 } |]
  in
  match Sampling.port_dims mixed with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inconsistent accepted"

let test_interpolate () =
  (* a linear-in-frequency fake response interpolates exactly *)
  let samples =
    Array.init 5 (fun k ->
        let f = float_of_int (k + 1) *. 100. in
        { Sampling.freq = f; s = Cmat.scalar (cx f (2. *. f)) })
  in
  let out = Sampling.interpolate samples [| 150.; 320.; 500. |] in
  check_close ~tol:1e-9 "mid 150" 150. (Cmat.get out.(0).Sampling.s 0 0).Cx.re;
  check_close ~tol:1e-9 "mid 320 im" 640. (Cmat.get out.(1).Sampling.s 0 0).Cx.im;
  check_close ~tol:1e-9 "endpoint" 500. (Cmat.get out.(2).Sampling.s 0 0).Cx.re;
  (* clamping outside the band *)
  let out = Sampling.interpolate samples [| 10.; 9999. |] in
  check_close "clamp low" 100. (Cmat.get out.(0).Sampling.s 0 0).Cx.re;
  check_close "clamp high" 500. (Cmat.get out.(1).Sampling.s 0 0).Cx.re;
  (* unsorted rejected *)
  let bad = [| samples.(2); samples.(0) |] in
  match Sampling.interpolate bad [| 150. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted accepted"

let test_symmetrize () =
  let s = Cmat.of_rows [ [ cx 1. 0.; cx 2. 1. ]; [ cx 4. (-1.); cx 5. 0. ] ] in
  let out = Sampling.symmetrize [| { Sampling.freq = 1.; s } |] in
  let sym = out.(0).Sampling.s in
  check_small ~tol:1e-12 "symmetric"
    (Cmat.norm_fro (Cmat.sub sym (Cmat.transpose sym)));
  check_close "off-diagonal average" 3. (Cmat.get sym 0 1).Cx.re

(* ------------------------------------------------------------------ *)
(* Random_sys *)

let test_random_sys_shape () =
  let spec = { Random_sys.default_spec with order = 17; ports = 4; rank_d = 2 } in
  let sys = Random_sys.generate spec in
  Alcotest.(check int) "order" 17 (Descriptor.order sys);
  Alcotest.(check int) "inputs" 4 (Descriptor.inputs sys);
  Alcotest.(check int) "outputs" 4 (Descriptor.outputs sys)

let test_random_sys_stable () =
  let sys = Random_sys.generate { Random_sys.default_spec with order = 30; seed = 9 } in
  Alcotest.(check bool) "stable" true (Poles.is_stable sys);
  let abscissa =
    Array.fold_left (fun acc p -> Stdlib.max acc (Cx.re p)) neg_infinity
      (Poles.finite_poles sys)
  in
  Alcotest.(check bool) "abscissa negative" true (abscissa < 0.)

let test_random_sys_rank_d () =
  let spec = { Random_sys.default_spec with ports = 5; rank_d = 3; seed = 2 } in
  let sys = Random_sys.generate spec in
  let d = Svd.decompose sys.Descriptor.d in
  Alcotest.(check int) "rank D" 3 (Svd.rank ~rtol:1e-10 d)

let test_random_sys_reproducible () =
  let s1 = Random_sys.generate { Random_sys.default_spec with seed = 77 } in
  let s2 = Random_sys.generate { Random_sys.default_spec with seed = 77 } in
  Alcotest.(check bool) "same A" true
    (Cmat.equal ~tol:0. s1.Descriptor.a s2.Descriptor.a);
  Alcotest.(check bool) "same B" true
    (Cmat.equal ~tol:0. s1.Descriptor.b s2.Descriptor.b)

let test_example1_spec () =
  let sys = Random_sys.example1 () in
  Alcotest.(check int) "order 150" 150 (Descriptor.order sys);
  Alcotest.(check int) "30 ports" 30 (Descriptor.inputs sys);
  let d = Svd.decompose sys.Descriptor.d in
  Alcotest.(check int) "full-rank D" 30 (Svd.rank ~rtol:1e-10 d);
  Alcotest.(check bool) "stable" true (Poles.is_stable sys)

(* ------------------------------------------------------------------ *)
(* Poles *)

let test_poles_match_eigenvalues () =
  let sys = Random_sys.generate { Random_sys.default_spec with order = 12; seed = 3 } in
  let poles = Poles.finite_poles sys in
  let eigs = Eig.eigenvalues sys.Descriptor.a in
  Alcotest.(check int) "count" 12 (Array.length poles);
  (* conjugate pairs share a modulus, so match each pole to its nearest
     eigenvalue rather than relying on a sort order *)
  Array.iter
    (fun p ->
      let best =
        Array.fold_left
          (fun acc e -> Stdlib.min acc (Cx.abs (Cx.sub p e)))
          infinity eigs
      in
      check_small ~tol:1e-6 "pole matches eig" (best /. (1. +. Cx.abs p)))
    poles

(* ------------------------------------------------------------------ *)
(* Timedomain *)

let test_step_response_rc () =
  (* x' = -x/tau + u/tau, y = x: first-order lag, step -> 1 - exp(-t/tau) *)
  let tau = 0.5 in
  let sys =
    Descriptor.of_state_space
      ~a:(Cmat.scalar (Cx.of_float (-1. /. tau)))
      ~b:(Cmat.scalar (Cx.of_float (1. /. tau)))
      ~c:(Cmat.scalar Cx.one)
      ~d:(Cmat.scalar Cx.zero)
  in
  let dt = 0.001 and steps = 1000 in
  let r = Timedomain.step_response sys ~port:0 ~dt ~steps in
  Alcotest.(check int) "length" (steps + 1) (Array.length r.Timedomain.times);
  for k = 0 to steps do
    let t = r.Timedomain.times.(k) in
    let expected = 1. -. exp (-.t /. tau) in
    let got = (Cmat.get r.Timedomain.outputs 0 k).Cx.re in
    check_small ~tol:2e-4 "rc step" (got -. expected)
  done

let test_simulate_input_validation () =
  let sys = siso ~pole:(-1.) ~residue:1. ~direct:0. in
  (match Timedomain.simulate sys ~input:(fun _ -> Cmat.zeros 2 1) ~dt:0.1 ~steps:2 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "wrong input dims accepted");
  match Timedomain.simulate sys ~input:(fun _ -> Cmat.zeros 1 1) ~dt:(-1.) ~steps:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative dt accepted"

let test_simulate_sine_steady_state () =
  (* drive a stable SISO system with a sine; after transients the output
     amplitude must match |H(jw)|. *)
  let sys = siso ~pole:(-10.) ~residue:10. ~direct:0. in
  let w = 5. in
  let input t = Cmat.scalar (Cx.of_float (sin (w *. t))) in
  let dt = 0.002 and steps = 4000 in
  let r = Timedomain.simulate sys ~input ~dt ~steps in
  (* steady-state amplitude in the last quarter of the run *)
  let amp = ref 0. in
  for k = 3 * steps / 4 to steps do
    amp := Stdlib.max !amp (abs_float (Cmat.get r.Timedomain.outputs 0 k).Cx.re)
  done;
  let h = Descriptor.eval sys (Cx.jw w) in
  let expected = Cx.abs (Cmat.get h 0 0) in
  check_small ~tol:0.01 "steady-state gain" (!amp -. expected)

let test_integrator_agreement () =
  (* all three integrators converge to the same trajectory; the 2nd-order
     ones are markedly more accurate at a coarse step *)
  let sys = siso ~pole:(-10.) ~residue:10. ~direct:0. in
  let analytic t = 1. -. exp (-10. *. t) in
  let error method_ dt =
    let steps = int_of_float (0.5 /. dt) in
    let r = Timedomain.step_response ~method_ sys ~port:0 ~dt ~steps in
    (* skip the region polluted by the shared backward-Euler startup *)
    let worst = ref 0. in
    for k = 20 to steps do
      let t = r.Timedomain.times.(k) in
      let y = (Cmat.get r.Timedomain.outputs 0 k).Cx.re in
      worst := Stdlib.max !worst (abs_float (y -. analytic t))
    done;
    !worst
  in
  let dt = 0.01 in
  let e_trap = error Timedomain.Trapezoidal dt in
  let e_be = error Timedomain.Backward_euler dt in
  let e_bdf2 = error Timedomain.Bdf2 dt in
  Alcotest.(check bool)
    (Printf.sprintf "trapezoidal (%.1e) beats BE (%.1e)" e_trap e_be)
    true (e_trap < e_be /. 3.);
  Alcotest.(check bool)
    (Printf.sprintf "bdf2 (%.1e) beats BE (%.1e)" e_bdf2 e_be)
    true (e_bdf2 < e_be /. 3.);
  check_small ~tol:2e-3 "bdf2 accurate" e_bdf2

let test_integrator_convergence_order () =
  (* halving dt must cut the BDF2 error by ~4x and BE by ~2x *)
  let sys = siso ~pole:(-3.) ~residue:3. ~direct:0. in
  let analytic t = 1. -. exp (-3. *. t) in
  let error method_ dt =
    let steps = int_of_float (1.0 /. dt) in
    let r = Timedomain.step_response ~method_ sys ~port:0 ~dt ~steps in
    let y = (Cmat.get r.Timedomain.outputs 0 steps).Cx.re in
    abs_float (y -. analytic r.Timedomain.times.(steps))
  in
  let ratio method_ = error method_ 0.02 /. error method_ 0.01 in
  Alcotest.(check bool) "BE is first order" true
    (ratio Timedomain.Backward_euler > 1.6 && ratio Timedomain.Backward_euler < 2.6);
  Alcotest.(check bool) "BDF2 is second order" true
    (ratio Timedomain.Bdf2 > 3. && ratio Timedomain.Bdf2 < 5.5)

let test_waveforms () =
  let open Timedomain.Waveform in
  let s = step ~t0:1. () in
  check_close "step before" 0. (s 0.5);
  check_close "step after" 1. (s 1.5);
  let p = pulse ~t0:0. ~rise:1. ~width:2. () in
  check_close "pulse mid-rise" 0.5 (p 0.5);
  check_close "pulse top" 1. (p 2.);
  check_close "pulse mid-fall" 0.5 (p 3.5);
  check_close "pulse done" 0. (p 5.);
  let r = ramp ~rise:2. ~amplitude:4. () in
  check_close "ramp mid" 2. (r 1.);
  check_close "ramp saturated" 4. (r 10.);
  let w = sine ~freq:1. ~amplitude:2. () in
  check_close ~tol:1e-12 "sine quarter" 2. (w 0.25);
  (* prbs: levels stay in [0, amplitude]; deterministic *)
  let b1 = prbs ~seed:3 ~bit_period:1. ~rise:0.1 () in
  let b2 = prbs ~seed:3 ~bit_period:1. ~rise:0.1 () in
  for k = 0 to 50 do
    let t = 0.13 *. float_of_int k in
    check_close "prbs deterministic" (b1 t) (b2 t);
    Alcotest.(check bool) "prbs in range" true (b1 t >= 0. && b1 t <= 1.)
  done;
  let u = on_port ~ports:3 ~port:1 s in
  let v = u 2. in
  check_close "on_port hit" 1. (Cmat.get v 1 0).Cx.re;
  check_close "on_port miss" 0. (Cmat.get v 0 0).Cx.re

(* ------------------------------------------------------------------ *)
(* Reduction (balanced truncation) *)

let reduction_system =
  Random_sys.generate
    { Random_sys.order = 30; ports = 2; rank_d = 2; freq_lo = 100.;
      freq_hi = 1e4; damping = 0.15; seed = 55 }

let sampled_max_error a b freqs =
  Array.fold_left
    (fun acc f ->
      let ha = Descriptor.eval_freq a f and hb = Descriptor.eval_freq b f in
      Stdlib.max acc (Svd.norm2 (Cmat.sub ha hb)))
    0. freqs

let test_reduction_bound () =
  let r = Reduction.balanced_truncation ~order:12 reduction_system in
  Alcotest.(check int) "retained" 12 r.Reduction.retained;
  Alcotest.(check int) "model order" 12 (Descriptor.order r.Reduction.model);
  (* H-infinity bound holds at every sampled frequency *)
  let freqs = Sampling.logspace 1. 1e6 60 in
  let worst = sampled_max_error reduction_system r.Reduction.model freqs in
  Alcotest.(check bool)
    (Printf.sprintf "error %.3e within bound %.3e" worst r.Reduction.error_bound)
    true (worst <= r.Reduction.error_bound +. 1e-12)

let test_reduction_hankel_descending () =
  let r = Reduction.balanced_truncation ~order:5 reduction_system in
  let h = r.Reduction.hankel in
  Alcotest.(check int) "all values" 30 (Array.length h);
  for i = 0 to Array.length h - 2 do
    Alcotest.(check bool) "descending" true (h.(i) >= h.(i + 1))
  done

let test_reduction_auto_is_accurate () =
  (* default rtol keeps everything numerically relevant: near-exact *)
  let r = Reduction.balanced_truncation reduction_system in
  let freqs = Sampling.logspace 10. 1e5 25 in
  let worst = sampled_max_error reduction_system r.Reduction.model freqs in
  check_small ~tol:1e-6 "near exact" worst;
  Alcotest.(check bool) "reduced or equal" true (r.Reduction.retained <= 30)

let test_reduction_stability_preserved () =
  (* balanced truncation of a stable system is stable *)
  let r = Reduction.balanced_truncation ~order:7 reduction_system in
  Alcotest.(check bool) "stable" true (Poles.is_stable r.Reduction.model)

let test_reduction_singular_e_via_proper () =
  (* the algebraic state is eliminated by to_proper; the reduced model
     must keep the exact transfer (4/(s+1) + 3 from the singular-E test
     system above) including the implicit feedthrough *)
  let e = Cmat.of_rows [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.zero ] ] in
  let sys =
    Descriptor.create ~e
      ~a:(Cmat.of_rows [ [ cx (-1.) 0.; Cx.zero ]; [ Cx.zero; cx (-2.) 0. ] ])
      ~b:(Cmat.of_rows [ [ Cx.one ]; [ Cx.one ] ])
      ~c:(Cmat.of_rows [ [ cx 4. 0.; cx 6. 0. ] ])
      ~d:(Cmat.zeros 1 1)
  in
  let r = Reduction.balanced_truncation sys in
  Alcotest.(check int) "one dynamic state" 1 r.Reduction.retained;
  List.iter
    (fun f ->
      check_small ~tol:1e-9 "transfer preserved"
        (sampled_max_error sys r.Reduction.model [| f |]))
    [ 0.01; 0.3; 2. ]

let test_reduction_scaled_e_equivalent () =
  (* E = 2I is absorbed exactly *)
  let s = reduction_system in
  let sys2 =
    Descriptor.create
      ~e:(Cmat.scale_float 2. (Cmat.identity 30))
      ~a:(Cmat.scale_float 2. s.Descriptor.a)
      ~b:(Cmat.scale_float 2. s.Descriptor.b)
      ~c:s.Descriptor.c ~d:s.Descriptor.d
  in
  let r1 = Reduction.balanced_truncation ~order:10 s in
  let r2 = Reduction.balanced_truncation ~order:10 sys2 in
  let freqs = Sampling.logspace 10. 1e5 9 in
  check_small ~tol:1e-7 "same reduced transfer"
    (sampled_max_error r1.Reduction.model r2.Reduction.model freqs)

(* ------------------------------------------------------------------ *)
(* Stabilize *)

let test_stabilize_flips () =
  (* one unstable real pole and one unstable pair *)
  let a = Cmat.of_rows
      [ [ cx 2. 0.; Cx.zero; Cx.zero ];
        [ Cx.zero; cx 0.5 0.; cx 30. 0. ];
        [ Cx.zero; cx (-30.) 0.; cx 0.5 0. ] ]
  in
  let sys =
    Descriptor.of_state_space ~a ~b:(Cmat.of_rows [ [ Cx.one ]; [ Cx.one ]; [ Cx.zero ] ])
      ~c:(Cmat.of_rows [ [ Cx.one; Cx.one; Cx.one ] ]) ~d:(Cmat.zeros 1 1)
  in
  let r = Stabilize.reflect sys in
  Alcotest.(check int) "three flips" 3 r.Stabilize.flipped;
  Alcotest.(check bool) "now stable" true (Poles.is_stable r.Stabilize.model);
  (* reflected poles keep their imaginary parts and |Re| *)
  let poles = Poles.finite_poles r.Stabilize.model in
  Alcotest.(check bool) "mirror of +2" true
    (Array.exists (fun p -> Cx.abs (Cx.sub p (cx (-2.) 0.)) < 1e-6) poles);
  Alcotest.(check bool) "mirror of 0.5+30j" true
    (Array.exists (fun p -> Cx.abs (Cx.sub p (cx (-0.5) 30.)) < 1e-4) poles)

let test_stabilize_noop_when_stable () =
  let sys = reduction_system in
  let r = Stabilize.reflect sys in
  Alcotest.(check int) "no flips" 0 r.Stabilize.flipped;
  let freqs = Sampling.logspace 10. 1e5 7 in
  check_small ~tol:1e-9 "transfer unchanged"
    (sampled_max_error sys r.Stabilize.model freqs)

let test_stabilize_preserves_far_response () =
  (* a mildly unstable mode buried among stable ones: after flipping,
     the response away from that resonance barely changes *)
  let base = reduction_system in
  let a = Cmat.copy base.Descriptor.a in
  (* replace the last resonant pair with an unstable one: 100 +- 1e4 j *)
  Cmat.set a 28 28 (cx 100. 0.);
  Cmat.set a 28 29 (cx 1e4 0.);
  Cmat.set a 29 28 (cx (-1e4) 0.);
  Cmat.set a 29 29 (cx 100. 0.);
  let sys =
    Descriptor.of_state_space ~a ~b:base.Descriptor.b ~c:base.Descriptor.c
      ~d:base.Descriptor.d
  in
  let r = Stabilize.reflect sys in
  Alcotest.(check bool) "stable" true (Poles.is_stable r.Stabilize.model);
  Alcotest.(check bool) "some flips" true (r.Stabilize.flipped >= 1)

let test_stabilize_residual_refusal () =
  (* a near-defective unstable pair (eigenvalues 1 and 1 + 1e-8 coupled
     by 1e8): the eigenvector matrix is catastrophically conditioned,
     so the modal reconstruction residual cannot be small and a
     reflection built on it would be untrustworthy.  With a trust
     threshold set, the refusal must be the typed error — never
     [Invalid_argument], never a silently wrong model. *)
  let a =
    Cmat.of_rows [ [ cx 1. 0.; cx 1e8 0. ]; [ Cx.zero; cx (1. +. 1e-8) 0. ] ]
  in
  let sys =
    Descriptor.of_state_space ~a
      ~b:(Cmat.of_rows [ [ Cx.one ]; [ Cx.one ] ])
      ~c:(Cmat.of_rows [ [ Cx.one; Cx.one ] ])
      ~d:(Cmat.zeros 1 1)
  in
  (match Stabilize.reflect ~max_residual:1e-12 sys with
   | _ -> Alcotest.fail "untrustworthy modal decomposition accepted"
   | exception Mfti_error.Error (Mfti_error.Numerical_breakdown nb) ->
     Alcotest.(check string) "context" "stabilize" nb.context;
     (match nb.condition with
      | Some r -> Alcotest.(check bool) "residual reported" true (r > 1e-12)
      | None -> Alcotest.fail "residual missing from the error"));
  (* the default threshold (infinity) keeps legacy callers working *)
  let r = Stabilize.reflect sys in
  Alcotest.(check bool) "default threshold still flips" true
    (r.Stabilize.flipped >= 1)

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let prop_simulation_linearity =
  let gen =
    QCheck.Gen.(int_range 2 10 >>= fun order -> int_bound 10_000 >|= fun s ->
                (order, s))
  in
  QCheck.Test.make ~name:"transient response is linear in the input"
    ~count:15
    (QCheck.make gen ~print:(fun (o, s) -> Printf.sprintf "order=%d seed=%d" o s))
    (fun (order, seed) ->
      let sys =
        Random_sys.generate
          { Random_sys.default_spec with order; ports = 1; rank_d = 1; seed }
      in
      let wave = Timedomain.Waveform.sine ~freq:1e3 () in
      let dt = 1e-5 and steps = 50 in
      let run scale =
        Timedomain.simulate sys
          ~input:(fun t -> Cmat.scalar (Cx.of_float (scale *. wave t)))
          ~dt ~steps
      in
      let r1 = run 1. and r3 = run 3. in
      let ok = ref true in
      for k = 0 to steps do
        let y1 = (Cmat.get r1.Timedomain.outputs 0 k).Cx.re in
        let y3 = (Cmat.get r3.Timedomain.outputs 0 k).Cx.re in
        if abs_float (y3 -. (3. *. y1)) > 1e-8 *. (1. +. abs_float y3) then
          ok := false
      done;
      !ok)

let prop_eval_conjugate =
  QCheck.Test.make ~name:"H(conj s) = conj H(s) for random real systems"
    ~count:20
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let sys = Random_sys.generate { Random_sys.default_spec with seed } in
      let s = Cx.jw 12345.6 in
      let hp = Descriptor.eval sys s and hm = Descriptor.eval sys (Cx.conj s) in
      Cmat.norm_fro (Cmat.sub hm (Cmat.conj hp))
      <= 1e-9 *. (1. +. Cmat.norm_fro hp))

let statespace_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_simulation_linearity; prop_eval_conjugate ]

let () =
  Alcotest.run "statespace"
    [ ("descriptor",
       [ Alcotest.test_case "eval siso" `Quick test_eval_siso;
         Alcotest.test_case "create validation" `Quick test_create_validation;
         Alcotest.test_case "conjugate symmetry" `Quick test_eval_conjugate_symmetry;
         Alcotest.test_case "singular E" `Quick test_singular_e_descriptor;
         Alcotest.test_case "to_proper" `Quick test_to_proper;
         Alcotest.test_case "to_proper index check" `Quick test_to_proper_higher_index_rejected;
         Alcotest.test_case "is_real" `Quick test_is_real ]);
      ("sampling",
       [ Alcotest.test_case "linspace" `Quick test_linspace;
         Alcotest.test_case "logspace" `Quick test_logspace;
         Alcotest.test_case "clustered" `Quick test_clustered;
         Alcotest.test_case "sample dims" `Quick test_sample_system_dims;
         Alcotest.test_case "port_dims errors" `Quick test_port_dims_errors;
         Alcotest.test_case "interpolate" `Quick test_interpolate;
         Alcotest.test_case "symmetrize" `Quick test_symmetrize ]);
      ("random_sys",
       [ Alcotest.test_case "shape" `Quick test_random_sys_shape;
         Alcotest.test_case "stability" `Quick test_random_sys_stable;
         Alcotest.test_case "rank of D" `Quick test_random_sys_rank_d;
         Alcotest.test_case "reproducible" `Quick test_random_sys_reproducible;
         Alcotest.test_case "example1 spec" `Quick test_example1_spec ]);
      ("poles",
       [ Alcotest.test_case "match eigenvalues" `Quick test_poles_match_eigenvalues ]);
      ("timedomain",
       [ Alcotest.test_case "rc step response" `Quick test_step_response_rc;
         Alcotest.test_case "input validation" `Quick test_simulate_input_validation;
         Alcotest.test_case "sine steady state" `Quick test_simulate_sine_steady_state;
         Alcotest.test_case "integrator agreement" `Quick test_integrator_agreement;
         Alcotest.test_case "convergence order" `Quick test_integrator_convergence_order;
         Alcotest.test_case "waveforms" `Quick test_waveforms ]);
      ("reduction",
       [ Alcotest.test_case "error bound" `Quick test_reduction_bound;
         Alcotest.test_case "hankel descending" `Quick test_reduction_hankel_descending;
         Alcotest.test_case "auto accuracy" `Quick test_reduction_auto_is_accurate;
         Alcotest.test_case "stability preserved" `Quick test_reduction_stability_preserved;
         Alcotest.test_case "singular E via to_proper" `Quick test_reduction_singular_e_via_proper;
         Alcotest.test_case "scaled E equivalent" `Quick test_reduction_scaled_e_equivalent ]);
      ("stabilize",
       [ Alcotest.test_case "flips unstable" `Quick test_stabilize_flips;
         Alcotest.test_case "no-op when stable" `Quick test_stabilize_noop_when_stable;
         Alcotest.test_case "buried unstable mode" `Quick test_stabilize_preserves_far_response;
         Alcotest.test_case "untrustworthy residual refusal" `Quick test_stabilize_residual_refusal ]);
      ("properties", statespace_props) ]
