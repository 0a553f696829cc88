(* Tests for the RF substrate: MNA, conversions, generators, Touchstone. *)

open Linalg
open Statespace
open Rf

let check_small ?(tol = 1e-9) msg x =
  if abs_float x > tol then Alcotest.failf "%s: |%.3g| exceeds tol %.1g" msg x tol

let check_close ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_cx ?(tol = 1e-9) msg (expected : Cx.t) (actual : Cx.t) =
  if Cx.abs (Cx.sub expected actual) > tol then
    Alcotest.failf "%s: expected %s, got %s" msg (Cx.to_string expected)
      (Cx.to_string actual)

let cx re im = Cx.make re im

(* ------------------------------------------------------------------ *)
(* Mna *)

let z_at circuit f = (Mna.impedance circuit [| f |]).(0).Sampling.s

let test_mna_resistor () =
  let c = Mna.create ~nodes:2 in
  let c = Mna.add c (Mna.Resistor { a = 1; b = 0; ohms = 75. }) in
  let _, c = Mna.add_port c ~plus:1 ~minus:0 in
  let z = z_at c 1e3 in
  check_cx "Z = R" (cx 75. 0.) (Cmat.get z 0 0)

let test_mna_capacitor () =
  let cap = 1e-9 in
  let c = Mna.create ~nodes:2 in
  let c = Mna.add c (Mna.Capacitor { a = 1; b = 0; farads = cap }) in
  let _, c = Mna.add_port c ~plus:1 ~minus:0 in
  let f = 1e6 in
  let z = z_at c f in
  let w = 2. *. Float.pi *. f in
  (* Z = 1/(jwC) = -j/(wC) *)
  check_cx ~tol:1e-6 "Z = 1/jwC" (cx 0. (-1. /. (w *. cap))) (Cmat.get z 0 0)

let test_mna_rl_branch () =
  let r = 5. and l = 1e-6 in
  let c = Mna.create ~nodes:2 in
  let c = Mna.add c (Mna.Rl_branch { a = 1; b = 0; ohms = r; henries = l }) in
  let _, c = Mna.add_port c ~plus:1 ~minus:0 in
  let f = 1e5 in
  let z = z_at c f in
  let w = 2. *. Float.pi *. f in
  check_cx ~tol:1e-8 "Z = R + jwL" (cx r (w *. l)) (Cmat.get z 0 0)

let test_mna_inductor_matches_rl () =
  (* a pure Inductor and an Rl_branch with tiny R agree *)
  let l = 2e-6 and f = 3e4 in
  let c1 = Mna.create ~nodes:2 in
  let c1 = Mna.add c1 (Mna.Inductor { a = 1; b = 0; henries = l }) in
  let _, c1 = Mna.add_port c1 ~plus:1 ~minus:0 in
  let z = Cmat.get (z_at c1 f) 0 0 in
  let w = 2. *. Float.pi *. f in
  check_cx ~tol:1e-8 "Z = jwL" (cx 0. (w *. l)) z

let test_mna_rc_two_port () =
  (* R between ports, C at port 2: Z11 = R + Zc, Z12 = Z21 = Z22 = Zc *)
  let r = 100. and cap = 1e-9 and f = 1e5 in
  let c = Mna.create ~nodes:3 in
  let c = Mna.add c (Mna.Resistor { a = 1; b = 2; ohms = r }) in
  let c = Mna.add c (Mna.Capacitor { a = 2; b = 0; farads = cap }) in
  let _, c = Mna.add_port c ~plus:1 ~minus:0 in
  let _, c = Mna.add_port c ~plus:2 ~minus:0 in
  let z = z_at c f in
  let w = 2. *. Float.pi *. f in
  let zc = cx 0. (-1. /. (w *. cap)) in
  check_cx ~tol:1e-6 "Z11" (Cx.add (cx r 0.) zc) (Cmat.get z 0 0);
  check_cx ~tol:1e-6 "Z12" zc (Cmat.get z 0 1);
  check_cx ~tol:1e-6 "Z21" zc (Cmat.get z 1 0);
  check_cx ~tol:1e-6 "Z22" zc (Cmat.get z 1 1)

let test_mna_series_rlc_resonance () =
  let r = 2. and l = 1e-6 and cap = 1e-9 in
  let c = Mna.create ~nodes:3 in
  let c = Mna.add c (Mna.Rl_branch { a = 1; b = 2; ohms = r; henries = l }) in
  let c = Mna.add c (Mna.Capacitor { a = 2; b = 0; farads = cap }) in
  let _, c = Mna.add_port c ~plus:1 ~minus:0 in
  let f0 = 1. /. (2. *. Float.pi *. sqrt (l *. cap)) in
  let z = Cmat.get (z_at c f0) 0 0 in
  (* at series resonance the reactances cancel: Z = R *)
  check_close ~tol:1e-6 "resonant |Z| = R" r (Cx.abs z);
  check_small ~tol:1e-6 "resonant phase" (Cx.im z)

let test_mna_mutual () =
  (* two coupled inductors to ground at separate ports:
     Z11 = jwL1, Z22 = jwL2, Z12 = Z21 = jwM *)
  let l1 = 1e-6 and l2 = 2e-6 and m = 0.5e-6 and f = 1e5 in
  let c = Mna.create ~nodes:3 in
  let c = Mna.add c (Mna.Inductor { a = 1; b = 0; henries = l1 }) in
  let c = Mna.add c (Mna.Inductor { a = 2; b = 0; henries = l2 }) in
  let c = Mna.add c (Mna.Mutual { k1 = 0; k2 = 1; henries = m }) in
  let _, c = Mna.add_port c ~plus:1 ~minus:0 in
  let _, c = Mna.add_port c ~plus:2 ~minus:0 in
  let z = z_at c f in
  let w = 2. *. Float.pi *. f in
  check_cx ~tol:1e-8 "Z11 = jwL1" (cx 0. (w *. l1)) (Cmat.get z 0 0);
  check_cx ~tol:1e-8 "Z22 = jwL2" (cx 0. (w *. l2)) (Cmat.get z 1 1);
  check_cx ~tol:1e-8 "Z12 = jwM" (cx 0. (w *. m)) (Cmat.get z 0 1);
  check_cx ~tol:1e-8 "Z21 = jwM" (cx 0. (w *. m)) (Cmat.get z 1 0)

let test_mna_validation () =
  let c = Mna.create ~nodes:2 in
  (match Mna.add c (Mna.Resistor { a = 1; b = 5; ohms = 1. }) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "bad node accepted");
  (match Mna.add c (Mna.Resistor { a = 1; b = 0; ohms = -3. }) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative R accepted");
  match Mna.add_port c ~plus:1 ~minus:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "degenerate port accepted"

let test_mna_state_count () =
  let c = Mna.create ~nodes:4 in
  let c = Mna.add c (Mna.Resistor { a = 1; b = 2; ohms = 1. }) in
  let c = Mna.add c (Mna.Inductor { a = 2; b = 3; henries = 1e-9 }) in
  let c = Mna.add c (Mna.Rl_branch { a = 3; b = 0; ohms = 1.; henries = 1e-9 }) in
  (* 3 non-ground nodes + 2 inductive branches *)
  Alcotest.(check int) "states" 5 (Mna.num_states c)

let test_mna_sparse_matches_dense () =
  (* the sparse path must produce the same impedances as the dense one *)
  let circuit = Pdn.build { Pdn.default_spec with seed = 8 } in
  let freqs = [| 1e7; 1e8; 1e9 |] in
  let dense = Mna.impedance circuit freqs in
  let sparse = Mna.impedance_sparse circuit freqs in
  Array.iteri
    (fun k smp ->
      check_small ~tol:1e-8 "sparse = dense"
        (Cmat.norm_fro (Cmat.sub smp.Sampling.s sparse.(k).Sampling.s)
         /. (1. +. Cmat.norm_fro smp.Sampling.s)))
    dense

let test_mna_sparse_assembly () =
  let circuit = Ladder.build Ladder.default_spec in
  let g, c = Mna.to_sparse circuit in
  let sys = Mna.to_descriptor circuit in
  (* G = -A, C = E *)
  check_small ~tol:1e-12 "sparse G"
    (Cmat.norm_fro (Cmat.sub (Sparse.Scsr.to_dense g) (Cmat.neg sys.Descriptor.a)));
  check_small ~tol:1e-12 "sparse C"
    (Cmat.norm_fro (Cmat.sub (Sparse.Scsr.to_dense c) sys.Descriptor.e))

(* ------------------------------------------------------------------ *)
(* Sparams *)

let random_z rng n =
  (* a plausible passive-ish impedance matrix: diagonally dominant with
     positive real part *)
  let base = Cmat.random rng n n in
  Cmat.add (Cmat.scale_float 60. (Cmat.identity n)) (Cmat.scale_float 5. base)

let test_z_s_round_trip () =
  let rng = Rng.create 13 in
  let z = random_z rng 4 in
  let s = Sparams.z_to_s ~z0:50. z in
  let z' = Sparams.s_to_z ~z0:50. s in
  check_small ~tol:1e-9 "roundtrip" (Cmat.norm_fro (Cmat.sub z z'))

let test_y_s_round_trip () =
  let rng = Rng.create 14 in
  let z = random_z rng 3 in
  let y = Sparams.z_to_y z in
  let s1 = Sparams.y_to_s ~z0:50. y in
  let s2 = Sparams.z_to_s ~z0:50. z in
  check_small ~tol:1e-9 "y path = z path" (Cmat.norm_fro (Cmat.sub s1 s2));
  let y' = Sparams.s_to_y ~z0:50. s1 in
  check_small ~tol:1e-10 "s_to_y roundtrip" (Cmat.norm_fro (Cmat.sub y y'))

let test_z_y_inverse () =
  let rng = Rng.create 15 in
  let z = random_z rng 5 in
  let y = Sparams.z_to_y z in
  let id = Cmat.mul z y in
  check_small ~tol:1e-10 "Z Y = I" (Cmat.norm_fro (Cmat.sub id (Cmat.identity 5)))

let test_matched_load_s_zero () =
  (* a 50-ohm resistor seen through a 50-ohm reference: S = 0 *)
  let z = Cmat.scalar (cx 50. 0.) in
  let s = Sparams.z_to_s ~z0:50. z in
  check_small ~tol:1e-12 "matched" (Cmat.norm_fro s)

let test_descriptor_z_to_s_matches_sampled () =
  (* algebraic S-model must equal sample-wise conversion *)
  let circuit = Ladder.build Ladder.default_spec in
  let sys_z = Mna.to_descriptor circuit in
  let sys_s = Sparams.descriptor_z_to_s ~z0:50. sys_z in
  let freqs = Sampling.logspace 1e6 5e9 9 in
  Array.iter
    (fun f ->
      let z = Descriptor.eval_freq sys_z f in
      let s_direct = Sparams.z_to_s ~z0:50. z in
      let s_model = Descriptor.eval_freq sys_s f in
      check_small ~tol:1e-8 "S model matches conversion"
        (Cmat.norm_fro (Cmat.sub s_direct s_model)))
    freqs

let test_rc_passivity () =
  let spec = { Ladder.default_spec with sections = 5 } in
  let samples = Ladder.scattering spec ~z0:50. (Sampling.logspace 1e6 1e9 12) in
  Array.iter
    (fun smp ->
      Alcotest.(check bool) "passive sample" true
        (Sparams.is_passive_sample ~tol:1e-6 smp.Sampling.s))
    samples;
  Alcotest.(check bool) "max sv <= 1" true
    (Sparams.max_singular_value samples <= 1. +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Ladder / Pdn generators *)

let test_ladder_model () =
  let model = Ladder.scattering_model Ladder.default_spec ~z0:50. in
  Alcotest.(check int) "two ports" 2 (Descriptor.inputs model);
  Alcotest.(check bool) "stable" true (Poles.is_stable model);
  (* DC: the ladder is resistive; S must be real at DC *)
  let s0 = Descriptor.dc_gain model in
  check_small ~tol:1e-9 "real at DC" (Cmat.max_imag s0)

let test_ladder_transmission () =
  (* a short lossless-ish line passes low frequencies: |S21| ~ near 1,
     and transmission drops at high frequency.  No explicit termination:
     the S-parameter reference impedance already terminates port 2. *)
  let spec =
    { Ladder.default_spec with sections = 20; series_r = 0.05; termination = 0. }
  in
  let samples = Ladder.scattering spec ~z0:50. [| 1e5; 3e10 |] in
  let s21_low = Cx.abs (Cmat.get samples.(0).Sampling.s 1 0) in
  let s21_high = Cx.abs (Cmat.get samples.(1).Sampling.s 1 0) in
  Alcotest.(check bool) "passes low" true (s21_low > 0.9);
  Alcotest.(check bool) "blocks high" true (s21_high < 0.2)

let test_ladder_matches_abcd_chain () =
  (* the same ladder built two independent ways must agree: Mna and
     descriptor vs chained ABCD sections, each a series impedance
     [[1, Z]; [0, 1]] times a shunt admittance [[1, 0]; [Y, 1]] *)
  let spec = { Ladder.default_spec with sections = 6; termination = 0. } in
  let f = 2e9 and z0 = 50. in
  let w = 2. *. Float.pi *. f in
  let z = cx spec.Ladder.series_r (w *. spec.Ladder.series_l) in
  let y = cx 0. (w *. spec.Ladder.shunt_c) in
  let cell =
    Cmat.mul
      (Cmat.of_rows [ [ Cx.one; z ]; [ Cx.zero; Cx.one ] ])
      (Cmat.of_rows [ [ Cx.one; Cx.zero ]; [ y; Cx.one ] ])
  in
  let abcd = List.fold_left Cmat.mul cell (List.init 5 (fun _ -> cell)) in
  (* ABCD -> S at a real reference impedance z0 *)
  let a = Cmat.get abcd 0 0 and b = Cx.scale (1. /. z0) (Cmat.get abcd 0 1) in
  let c = Cx.scale z0 (Cmat.get abcd 1 0) and d = Cmat.get abcd 1 1 in
  let inv = Cx.inv (Cx.add (Cx.add a b) (Cx.add c d)) in
  let det = Cx.sub (Cx.mul a d) (Cx.mul b c) in
  let s_chain =
    Cmat.of_rows
      [ [ Cx.mul inv (Cx.sub (Cx.add a b) (Cx.add c d));
          Cx.mul inv (Cx.scale 2. det) ];
        [ Cx.scale 2. inv; Cx.mul inv (Cx.add (Cx.sub b a) (Cx.sub d c)) ] ]
  in
  let s_mna = (Ladder.scattering spec ~z0 [| f |]).(0).Sampling.s in
  check_small ~tol:1e-9 "chain = MNA" (Cmat.norm_fro (Cmat.sub s_chain s_mna))

let test_pdn_shape () =
  let spec = Pdn.example2_spec in
  let model = Pdn.scattering_model spec ~z0:50. in
  Alcotest.(check int) "14 ports" 14 (Descriptor.inputs model);
  Alcotest.(check bool) "order is substantial" true (Descriptor.order model >= 120);
  Alcotest.(check bool) "stable" true (Poles.is_stable model)

let test_pdn_conjugate_symmetry () =
  let model = Pdn.scattering_model { Pdn.default_spec with seed = 4 } ~z0:50. in
  check_small ~tol:1e-10 "real impulse response"
    (Sampling.max_conjugate_mismatch model (Sampling.logspace 1e6 1e9 5))

let test_pdn_passive_samples () =
  let samples =
    Pdn.scattering { Pdn.default_spec with seed = 6 } ~z0:50.
      (Sampling.logspace 1e6 1e9 8)
  in
  Alcotest.(check bool) "passive" true
    (Sparams.max_singular_value samples <= 1. +. 1e-6)

let test_pdn_sparse_scattering_matches () =
  let spec = { Pdn.default_spec with seed = 5 } in
  let freqs = [| 1e7; 5e8 |] in
  let dense = Pdn.scattering spec ~z0:50. freqs in
  let sparse = Pdn.scattering_sparse spec ~z0:50. freqs in
  Array.iteri
    (fun k smp ->
      check_small ~tol:1e-9 "sparse scattering"
        (Cmat.norm_fro (Cmat.sub smp.Sampling.s sparse.(k).Sampling.s)))
    dense

let test_pdn_reproducible () =
  let s1 = Pdn.scattering Pdn.default_spec ~z0:50. [| 1e8 |] in
  let s2 = Pdn.scattering Pdn.default_spec ~z0:50. [| 1e8 |] in
  Alcotest.(check bool) "deterministic" true
    (Cmat.equal ~tol:0. s1.(0).Sampling.s s2.(0).Sampling.s)

let test_coupled_lines_shape () =
  let spec = Coupled_lines.default_spec in
  let model = Coupled_lines.scattering_model spec ~z0:50. in
  Alcotest.(check int) "ports" 6 (Descriptor.inputs model);
  Alcotest.(check bool) "stable" true (Poles.is_stable model);
  Alcotest.(check int) "near port" 1 (Coupled_lines.near_port spec ~line:1);
  Alcotest.(check int) "far port" 4 (Coupled_lines.far_port spec ~line:1)

let test_coupled_lines_reciprocity () =
  (* an RLC(+mutual) network is reciprocal: S must be symmetric *)
  let model = Coupled_lines.scattering_model Coupled_lines.default_spec ~z0:50. in
  List.iter
    (fun f ->
      let s = Descriptor.eval_freq model f in
      check_small ~tol:1e-9 "S = S^T"
        (Cmat.norm_fro (Cmat.sub s (Cmat.transpose s))))
    [ 1e8; 1e9; 1e10 ]

let test_coupled_lines_crosstalk_grows_with_coupling () =
  let xtalk k =
    let spec = { Coupled_lines.default_spec with coupling_k = k } in
    let model = Coupled_lines.scattering_model spec ~z0:50. in
    let s = Descriptor.eval_freq model 2e9 in
    Cx.abs (Cmat.get s 0 1)  (* near-end victim from aggressor *)
  in
  let weak = xtalk 0.05 and strong = xtalk 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "stronger coupling, more crosstalk (%.3f vs %.3f)" weak strong)
    true (strong > 2. *. weak)

let test_coupled_lines_passive () =
  let samples =
    Coupled_lines.scattering Coupled_lines.default_spec ~z0:50.
      (Sampling.logspace 1e7 4e10 10)
  in
  Alcotest.(check bool) "passive" true
    (Sparams.max_singular_value samples <= 1. +. 1e-6)

let test_coupled_lines_validation () =
  (match Coupled_lines.build { Coupled_lines.default_spec with lines = 1 } with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "single line accepted");
  match Coupled_lines.build { Coupled_lines.default_spec with coupling_k = 1.5 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "coupling >= 1 accepted"

(* ------------------------------------------------------------------ *)
(* Passivity *)

let test_passivity_ladder () =
  let model = Ladder.scattering_model Ladder.default_spec ~z0:50. in
  (match Passivity.check model with
   | Passivity.Passive -> ()
   | Passivity.Feedthrough_violation s ->
     Alcotest.failf "feedthrough violation %.3f on a passive RLC" s
   | Passivity.Violations fs ->
     Alcotest.failf "false violations (%d) on a passive RLC" (List.length fs));
  Alcotest.(check bool) "sampled check agrees" true
    (Passivity.max_violation model ~freqs:(Sampling.logspace 1e5 1e11 40) < 0.)

let test_passivity_analytic_crossing () =
  (* S(s) = 2/(s+1): |S(jw)| = 2/sqrt(1+w^2) crosses 1 at w = sqrt 3 *)
  let sys =
    Descriptor.of_state_space
      ~a:(Cmat.scalar (cx (-1.) 0.)) ~b:(Cmat.scalar Cx.one)
      ~c:(Cmat.scalar (cx 2. 0.)) ~d:(Cmat.scalar Cx.zero)
  in
  (match Passivity.check sys with
   | Passivity.Violations [ f ] ->
     check_close ~tol:1e-5 "crossing frequency (gamma margin shifts it slightly)"
       (sqrt 3. /. (2. *. Float.pi)) f
   | Passivity.Violations fs ->
     Alcotest.failf "expected one crossing, got %d" (List.length fs)
   | Passivity.Passive -> Alcotest.fail "non-passive model declared passive"
   | Passivity.Feedthrough_violation _ -> Alcotest.fail "wrong verdict");
  Alcotest.(check bool) "sampled violation positive" true
    (Passivity.max_violation sys ~freqs:[| 1e-3; 0.01; 0.1 |] > 0.)

let test_passivity_feedthrough () =
  let sys =
    Descriptor.of_state_space
      ~a:(Cmat.scalar (cx (-1.) 0.)) ~b:(Cmat.scalar Cx.one)
      ~c:(Cmat.scalar (cx 0.1 0.)) ~d:(Cmat.scalar (cx 1.5 0.))
  in
  match Passivity.check sys with
  | Passivity.Feedthrough_violation s -> check_close ~tol:1e-12 "sigma D" 1.5 s
  | Passivity.Passive | Passivity.Violations _ ->
    Alcotest.fail "amplifying feedthrough not flagged"

let test_passivity_pdn () =
  let model = Pdn.scattering_model { Pdn.default_spec with seed = 2 } ~z0:50. in
  match Passivity.check model with
  | Passivity.Passive -> ()
  | Passivity.Feedthrough_violation s -> Alcotest.failf "feedthrough %.3f" s
  | Passivity.Violations fs ->
    (* tiny numerical grazings are tolerable; anything sampled above
       1 + 1e-6 is not *)
    Alcotest.(check bool)
      (Printf.sprintf "grazing only (%d crossings)" (List.length fs))
      true
      (Passivity.max_violation model ~freqs:(Sampling.logspace 1e5 1e10 60) < 1e-6)

let test_passivity_lossless_boundary () =
  (* all-pass S(s) = (s-1)/(s+1): |S(jw)| = 1 at every frequency and
     sigma_max D = 1 exactly — the lossless boundary.  The default
     gamma margin must keep it on the passive side; scaled just past
     the margin, the feedthrough precondition itself trips. *)
  let sys =
    Descriptor.of_state_space
      ~a:(Cmat.scalar (cx (-1.) 0.)) ~b:(Cmat.scalar Cx.one)
      ~c:(Cmat.scalar (cx (-2.) 0.)) ~d:(Cmat.scalar Cx.one)
  in
  (match Passivity.check sys with
   | Passivity.Passive -> ()
   | Passivity.Feedthrough_violation s ->
     Alcotest.failf "lossless boundary flagged at infinity (sigma D = %.12g)" s
   | Passivity.Violations fs ->
     Alcotest.failf "lossless boundary flagged with %d crossings"
       (List.length fs));
  check_small ~tol:1e-9 "sampled margin sits on the boundary"
    (Passivity.max_violation sys ~freqs:(Sampling.logspace 1e-3 1e3 25));
  (* just above the margin, the feedthrough precondition itself trips *)
  let k = 1. +. 2e-6 in
  let sys =
    Descriptor.of_state_space
      ~a:(Cmat.scalar (cx (-1.) 0.)) ~b:(Cmat.scalar Cx.one)
      ~c:(Cmat.scalar (cx (-2. *. k) 0.)) ~d:(Cmat.scalar (cx k 0.))
  in
  match Passivity.check sys with
  | Passivity.Feedthrough_violation s -> check_close ~tol:1e-12 "sigma D" k s
  | Passivity.Passive | Passivity.Violations _ ->
    Alcotest.fail "sigma D above 1 + margin must trip the feedthrough precondition"

let test_passivity_singular_e_descriptor () =
  (* index-1: one algebraic state (zero row of E) that Kron reduction
     solves out, leaving S(s) = 0.2/(s+1) + 0.09 — well inside the
     unit ball, so the Hamiltonian test must pass on the reduced
     proper model *)
  let e = Cmat.of_rows [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.zero ] ] in
  let a =
    Cmat.of_rows [ [ cx (-1.) 0.; Cx.zero ]; [ Cx.zero; cx (-1.) 0. ] ]
  in
  let b = Cmat.of_rows [ [ Cx.one ]; [ cx 0.3 0. ] ] in
  let c = Cmat.of_rows [ [ cx 0.2 0.; cx 0.3 0. ] ] in
  let sys = Descriptor.create ~e ~a ~b ~c ~d:(Cmat.zeros 1 1) in
  check_close ~tol:1e-12 "reduced DC gain" 0.29
    (Cx.abs (Cmat.get (Descriptor.eval sys Cx.zero) 0 0));
  (match Passivity.check sys with
   | Passivity.Passive -> ()
   | Passivity.Feedthrough_violation s ->
     Alcotest.failf "index-1 descriptor: spurious feedthrough %.3g" s
   | Passivity.Violations fs ->
     Alcotest.failf "index-1 descriptor: %d spurious crossings"
       (List.length fs));
  (* index-2 (nilpotent E coupling): a loud precondition failure, not a
     silently wrong verdict *)
  let e2 = Cmat.of_rows [ [ Cx.zero; Cx.one ]; [ Cx.zero; Cx.zero ] ] in
  let sys2 =
    Descriptor.create ~e:e2 ~a:(Cmat.identity 2) ~b ~c ~d:(Cmat.zeros 1 1)
  in
  match Passivity.check sys2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "index-2 descriptor accepted"

(* ------------------------------------------------------------------ *)
(* Noise *)

let flat_samples n =
  Array.init n (fun k ->
      { Sampling.freq = float_of_int (k + 1);
        s = Cmat.init 2 2 (fun i jcol -> cx (float_of_int (1 + i + jcol)) 0.5) })

let test_noise_zero_level () =
  let samples = flat_samples 3 in
  let noisy = Noise.add_relative ~seed:1 ~level:0. samples in
  Array.iteri
    (fun k smp ->
      Alcotest.(check bool) "unchanged" true
        (Cmat.equal ~tol:0. smp.Sampling.s noisy.(k).Sampling.s))
    samples

let test_noise_statistics () =
  let samples = flat_samples 200 in
  let level = 0.05 in
  let noisy = Noise.add_relative ~seed:3 ~level samples in
  (* average relative perturbation should be about `level` *)
  let total = ref 0. and count = ref 0 in
  Array.iteri
    (fun k smp ->
      let diff = Cmat.sub noisy.(k).Sampling.s smp.Sampling.s in
      Cmat.iteri
        (fun i jcol d ->
          let base = Cx.abs (Cmat.get smp.Sampling.s i jcol) in
          total := !total +. (Cx.abs d /. base);
          incr count)
        diff)
    samples;
  let mean = !total /. float_of_int !count in
  (* mean |g1 + j g2|/sqrt2 = sqrt(pi)/2 / sqrt(2) ~ 0.627 of level *)
  Alcotest.(check bool) "noise scale plausible" true
    (mean > 0.4 *. level && mean < 0.9 *. level)

let test_noise_determinism () =
  let samples = flat_samples 5 in
  let n1 = Noise.add_relative ~seed:9 ~level:0.01 samples in
  let n2 = Noise.add_relative ~seed:9 ~level:0.01 samples in
  Array.iteri
    (fun k smp ->
      Alcotest.(check bool) "same noise" true
        (Cmat.equal ~tol:0. smp.Sampling.s n2.(k).Sampling.s))
    n1;
  let n3 = Noise.add_floor ~seed:10 ~sigma:0.01 samples in
  let n4 = Noise.add_floor ~seed:11 ~sigma:0.01 samples in
  Alcotest.(check bool) "different seeds differ" false
    (Cmat.equal ~tol:0. n3.(0).Sampling.s n4.(0).Sampling.s)

let test_snr_conversion () =
  check_close ~tol:1e-12 "40 dB" 0.01 (Noise.snr_db_to_level 40.);
  check_close ~tol:1e-12 "20 dB" 0.1 (Noise.snr_db_to_level 20.)

(* ------------------------------------------------------------------ *)
(* Touchstone *)

let sample_data n k =
  let rng = Rng.create (100 + n) in
  Array.init k (fun i ->
      { Sampling.freq = 1e9 *. float_of_int (i + 1);
        s = Cmat.random rng n n })

let round_trip ?format n =
  let data = { Touchstone.parameter = Touchstone.S; z0 = 50.; samples = sample_data n 4 } in
  let text = Touchstone.print ?format data in
  let back = Touchstone.parse ~nports:n text in
  Alcotest.(check int) "sample count" 4 (Array.length back.Touchstone.samples);
  Array.iteri
    (fun k smp ->
      let orig = data.samples.(k) in
      check_small ~tol:1e-7 "freq" (smp.Sampling.freq -. orig.Sampling.freq);
      Alcotest.(check bool)
        (Printf.sprintf "%d-port matrices match" n)
        true
        (Cmat.equal ~tol:1e-6 smp.Sampling.s orig.Sampling.s))
    back.Touchstone.samples

let test_touchstone_round_trip_ri () = round_trip ~format:Touchstone.Ri 3
let test_touchstone_round_trip_ma () = round_trip ~format:Touchstone.Ma 2
let test_touchstone_round_trip_db () = round_trip ~format:Touchstone.Db 1
let test_touchstone_round_trip_large () = round_trip ~format:Touchstone.Ri 5

let test_touchstone_option_line () =
  let text = "! comment\n# MHz Z RI R 75\n1 1 0\n2 2 0\n" in
  let t = Touchstone.parse ~nports:1 text in
  Alcotest.(check bool) "parameter Z" true (t.Touchstone.parameter = Touchstone.Z);
  check_close "z0" 75. t.Touchstone.z0;
  check_close "MHz scaling" 1e6 t.Touchstone.samples.(0).Sampling.freq;
  check_close "entry" 1. (Cx.re (Cmat.get t.Touchstone.samples.(0).Sampling.s 0 0))

let test_touchstone_default_options () =
  (* no option line: GHz S MA R 50 *)
  let text = "1.0 0.5 0\n" in
  let t = Touchstone.parse ~nports:1 text in
  check_close "GHz default" 1e9 t.Touchstone.samples.(0).Sampling.freq;
  check_close "MA magnitude" 0.5
    (Cx.abs (Cmat.get t.Touchstone.samples.(0).Sampling.s 0 0))

let test_touchstone_two_port_order () =
  (* v1 2-port order is S11 S21 S12 S22 *)
  let text = "# HZ S RI R 50\n1 11 0 21 0 12 0 22 0\n" in
  let t = Touchstone.parse ~nports:2 text in
  let s = t.Touchstone.samples.(0).Sampling.s in
  check_close "S11" 11. (Cx.re (Cmat.get s 0 0));
  check_close "S21" 21. (Cx.re (Cmat.get s 1 0));
  check_close "S12" 12. (Cx.re (Cmat.get s 0 1));
  check_close "S22" 22. (Cx.re (Cmat.get s 1 1))

let test_touchstone_errors () =
  (match Touchstone.parse ~nports:1 "# HZ S RI R 50\n1 2\n" with
   | exception Touchstone.Parse_error _ -> ()
   | _ -> Alcotest.fail "truncated record accepted");
  (match Touchstone.parse ~nports:1 "# HZ S RI R 50\n1 2 bogus\n" with
   | exception Touchstone.Parse_error _ -> ()
   | _ -> Alcotest.fail "junk token accepted");
  match Touchstone.ports_of_filename "foo.txt" with
  | exception Touchstone.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad extension accepted"

let test_touchstone_ports_of_filename () =
  Alcotest.(check int) "s2p" 2 (Touchstone.ports_of_filename "meas.s2p");
  Alcotest.(check int) "s14p" 14 (Touchstone.ports_of_filename "/tmp/board.S14P")

let test_touchstone_file_io () =
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir "mfti_test.s3p" in
  let data = { Touchstone.parameter = Touchstone.S; z0 = 50.; samples = sample_data 3 5 } in
  Touchstone.write_file path data ~comment:"unit test";
  let back = Touchstone.read_file path in
  Sys.remove path;
  Alcotest.(check int) "count" 5 (Array.length back.Touchstone.samples);
  Alcotest.(check bool) "content" true
    (Cmat.equal ~tol:1e-6 back.Touchstone.samples.(2).Sampling.s
       data.samples.(2).Sampling.s)

let test_touchstone_line_endings () =
  (* CRLF (Windows) and lone-'\r' (classic Mac) files both parse *)
  let unix = "# HZ S RI R 50\n1 2 0\n2 3 0\n" in
  let crlf = "# HZ S RI R 50\r\n1 2 0\r\n2 3 0\r\n" in
  let mac = "# HZ S RI R 50\r1 2 0\r2 3 0\r" in
  let reference = Touchstone.parse ~nports:1 unix in
  List.iter
    (fun (name, text) ->
      let t = Touchstone.parse ~nports:1 text in
      Alcotest.(check int) (name ^ " count") 2
        (Array.length t.Touchstone.samples);
      Array.iteri
        (fun i smp ->
          check_close (name ^ " freq")
            reference.Touchstone.samples.(i).Sampling.freq smp.Sampling.freq;
          Alcotest.(check bool) (name ^ " data") true
            (Cmat.equal ~tol:0. reference.Touchstone.samples.(i).Sampling.s
               smp.Sampling.s))
        t.Touchstone.samples)
    [ ("crlf", crlf); ("mac", mac) ]

let test_touchstone_uppercase_extension () =
  Alcotest.(check int) ".S2P" 2 (Touchstone.ports_of_filename "MEAS.S2P");
  Alcotest.(check int) ".s2P" 2 (Touchstone.ports_of_filename "meas.s2P")

let test_touchstone_trailing_comments () =
  let text = "# HZ S RI R 50 ! options\n1 2 0 ! first point\n2 3 0!glued\n" in
  let t = Touchstone.parse ~nports:1 text in
  Alcotest.(check int) "count" 2 (Array.length t.Touchstone.samples);
  check_close "second entry" 3.
    (Cx.re (Cmat.get t.Touchstone.samples.(1).Sampling.s 0 0))

let test_touchstone_error_line_numbers () =
  match Touchstone.parse ~nports:1 "# HZ S RI R 50\n1 2 0\n2 bogus 0\n" with
  | exception Touchstone.Parse_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "line number in %S" msg)
      true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 3:")
  | _ -> Alcotest.fail "junk token accepted"

let lenient_parse text =
  Linalg.Diag.with_collector (fun () ->
      match
        Touchstone.parse_result ~policy:Touchstone.Lenient ~nports:1 text
      with
      | Ok t -> t
      | Error e -> Alcotest.failf "lenient parse failed: %s"
                     (Linalg.Mfti_error.to_string e))

let test_touchstone_lenient_recovery () =
  (* garbage line dropped whole *)
  let t, diag = lenient_parse "# HZ S RI R 50\n1 2 0\nwhat is this\n2 3 0\n" in
  Alcotest.(check int) "garbage line dropped" 2
    (Array.length t.Touchstone.samples);
  Alcotest.(check bool) "recovery recorded" true
    (Linalg.Diag.recorded diag "touchstone.lenient");
  (* truncated trailing record discarded *)
  let t, _ = lenient_parse "# HZ S RI R 50\n1 2 0\n2 3\n" in
  Alcotest.(check int) "truncated tail dropped" 1
    (Array.length t.Touchstone.samples);
  (* non-finite record scrubbed *)
  let t, _ = lenient_parse "# HZ S RI R 50\n1 2 0\n2 nan 0\n3 4 0\n" in
  Alcotest.(check int) "NaN record scrubbed" 2
    (Array.length t.Touchstone.samples);
  (* duplicate frequency deduplicated, first wins *)
  let t, _ = lenient_parse "# HZ S RI R 50\n1 2 0\n1 9 0\n2 3 0\n" in
  Alcotest.(check int) "duplicate freq dropped" 2
    (Array.length t.Touchstone.samples);
  check_close "first wins" 2.
    (Cx.re (Cmat.get t.Touchstone.samples.(0).Sampling.s 0 0))

let test_touchstone_strict_rejects_nan () =
  match Touchstone.parse ~nports:1 "# HZ S RI R 50\n1 nan 0\n" with
  | exception Touchstone.Parse_error _ -> ()
  | _ -> Alcotest.fail "strict parse accepted a NaN record"

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let gen_circuit =
  QCheck.Gen.(
    int_range 3 7 >>= fun nodes ->
    int_range 4 14 >>= fun elements ->
    int_bound 100_000 >|= fun seed -> (nodes, elements, seed))

let arb_circuit =
  QCheck.make gen_circuit ~print:(fun (n, e, s) ->
      Printf.sprintf "nodes=%d elements=%d seed=%d" n e s)

let build_random_circuit (nodes, elements, seed) =
  let rng = Rng.create seed in
  let circuit = ref (Mna.create ~nodes) in
  for _ = 1 to elements do
    let a = Rng.int rng nodes and b = Rng.int rng nodes in
    if a <> b then begin
      let v = 10. ** Rng.range rng (-1.) 2. in
      let e =
        match Rng.int rng 3 with
        | 0 -> Mna.Resistor { a; b; ohms = v }
        | 1 -> Mna.Capacitor { a; b; farads = v *. 1e-12 }
        | _ -> Mna.Rl_branch { a; b; ohms = 0.1; henries = v *. 1e-9 }
      in
      circuit := Mna.add !circuit e
    end
  done;
  (* ground every node resistively so the MNA system is nonsingular *)
  for n = 1 to nodes - 1 do
    circuit := Mna.add !circuit (Mna.Resistor { a = n; b = 0; ohms = 1e4 })
  done;
  let _, c = Mna.add_port !circuit ~plus:1 ~minus:0 in
  let _, c = Mna.add_port c ~plus:(nodes - 1) ~minus:0 in
  c

let prop_mna_reciprocity =
  QCheck.Test.make ~name:"random RLC circuits are reciprocal (Z = Z^T)"
    ~count:30 arb_circuit (fun params ->
      let circuit = build_random_circuit params in
      let z = (Mna.impedance circuit [| 1e8 |]).(0).Sampling.s in
      Cmat.norm_fro (Cmat.sub z (Cmat.transpose z))
      <= 1e-8 *. (1. +. Cmat.norm_fro z))

let prop_mna_dc_symmetry =
  QCheck.Test.make ~name:"Z(conj s) = conj Z(s) for random circuits"
    ~count:30 arb_circuit (fun params ->
      let circuit = build_random_circuit params in
      let sys = Mna.to_descriptor circuit in
      let s = Cx.jw (2. *. Float.pi *. 3e7) in
      let zp = Descriptor.eval sys s in
      let zm = Descriptor.eval sys (Cx.conj s) in
      Cmat.norm_fro (Cmat.sub zm (Cmat.conj zp))
      <= 1e-8 *. (1. +. Cmat.norm_fro zp))

let prop_z_s_round_trip =
  let gen =
    QCheck.Gen.(int_range 1 6 >>= fun n -> int_bound 100_000 >|= fun s -> (n, s))
  in
  QCheck.Test.make
    ~name:"z_to_s / s_to_z round trip"
    ~count:40
    (QCheck.make gen ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let z = random_z rng n in
      let s = Sparams.z_to_s ~z0:50. z in
      let z' = Sparams.s_to_z ~z0:50. s in
      Cmat.norm_fro (Cmat.sub z z') <= 1e-8 *. (1. +. Cmat.norm_fro z))

let rf_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mna_reciprocity; prop_mna_dc_symmetry; prop_z_s_round_trip ]

let () =
  Alcotest.run "rf"
    [ ("mna",
       [ Alcotest.test_case "resistor" `Quick test_mna_resistor;
         Alcotest.test_case "capacitor" `Quick test_mna_capacitor;
         Alcotest.test_case "rl branch" `Quick test_mna_rl_branch;
         Alcotest.test_case "inductor" `Quick test_mna_inductor_matches_rl;
         Alcotest.test_case "rc two-port" `Quick test_mna_rc_two_port;
         Alcotest.test_case "series rlc resonance" `Quick test_mna_series_rlc_resonance;
         Alcotest.test_case "mutual inductance" `Quick test_mna_mutual;
         Alcotest.test_case "validation" `Quick test_mna_validation;
         Alcotest.test_case "state count" `Quick test_mna_state_count;
         Alcotest.test_case "sparse assembly" `Quick test_mna_sparse_assembly;
         Alcotest.test_case "sparse = dense" `Quick test_mna_sparse_matches_dense ]);
      ("sparams",
       [ Alcotest.test_case "z-s roundtrip" `Quick test_z_s_round_trip;
         Alcotest.test_case "y-s roundtrip" `Quick test_y_s_round_trip;
         Alcotest.test_case "z-y inverse" `Quick test_z_y_inverse;
         Alcotest.test_case "matched load" `Quick test_matched_load_s_zero;
         Alcotest.test_case "descriptor conversion" `Quick test_descriptor_z_to_s_matches_sampled;
         Alcotest.test_case "rc passivity" `Quick test_rc_passivity ]);
      ("generators",
       [ Alcotest.test_case "ladder model" `Quick test_ladder_model;
         Alcotest.test_case "ladder transmission" `Quick test_ladder_transmission;
         Alcotest.test_case "matches MNA ladder" `Quick test_ladder_matches_abcd_chain;
         Alcotest.test_case "pdn shape" `Quick test_pdn_shape;
         Alcotest.test_case "pdn conjugate symmetry" `Quick test_pdn_conjugate_symmetry;
         Alcotest.test_case "pdn passivity" `Quick test_pdn_passive_samples;
         Alcotest.test_case "pdn sparse scattering" `Quick test_pdn_sparse_scattering_matches;
         Alcotest.test_case "pdn reproducible" `Quick test_pdn_reproducible ]);
      ("coupled lines",
       [ Alcotest.test_case "shape" `Quick test_coupled_lines_shape;
         Alcotest.test_case "reciprocity" `Quick test_coupled_lines_reciprocity;
         Alcotest.test_case "coupling strength" `Quick test_coupled_lines_crosstalk_grows_with_coupling;
         Alcotest.test_case "passivity" `Quick test_coupled_lines_passive;
         Alcotest.test_case "validation" `Quick test_coupled_lines_validation ]);
      ("passivity",
       [ Alcotest.test_case "passive ladder" `Quick test_passivity_ladder;
         Alcotest.test_case "analytic crossing" `Quick test_passivity_analytic_crossing;
         Alcotest.test_case "feedthrough" `Quick test_passivity_feedthrough;
         Alcotest.test_case "pdn" `Quick test_passivity_pdn;
         Alcotest.test_case "lossless boundary" `Quick
           test_passivity_lossless_boundary;
         Alcotest.test_case "singular-E descriptor" `Quick
           test_passivity_singular_e_descriptor ]);
      ("noise",
       [ Alcotest.test_case "zero level" `Quick test_noise_zero_level;
         Alcotest.test_case "statistics" `Quick test_noise_statistics;
         Alcotest.test_case "determinism" `Quick test_noise_determinism;
         Alcotest.test_case "snr conversion" `Quick test_snr_conversion ]);
      ("touchstone",
       [ Alcotest.test_case "roundtrip RI 3-port" `Quick test_touchstone_round_trip_ri;
         Alcotest.test_case "roundtrip MA 2-port" `Quick test_touchstone_round_trip_ma;
         Alcotest.test_case "roundtrip DB 1-port" `Quick test_touchstone_round_trip_db;
         Alcotest.test_case "roundtrip 5-port" `Quick test_touchstone_round_trip_large;
         Alcotest.test_case "option line" `Quick test_touchstone_option_line;
         Alcotest.test_case "default options" `Quick test_touchstone_default_options;
         Alcotest.test_case "2-port order" `Quick test_touchstone_two_port_order;
         Alcotest.test_case "errors" `Quick test_touchstone_errors;
         Alcotest.test_case "ports of filename" `Quick test_touchstone_ports_of_filename;
         Alcotest.test_case "file io" `Quick test_touchstone_file_io;
         Alcotest.test_case "CRLF and classic-Mac line endings" `Quick
           test_touchstone_line_endings;
         Alcotest.test_case "uppercase extension" `Quick
           test_touchstone_uppercase_extension;
         Alcotest.test_case "trailing comments" `Quick
           test_touchstone_trailing_comments;
         Alcotest.test_case "error line numbers" `Quick
           test_touchstone_error_line_numbers;
         Alcotest.test_case "lenient recovery" `Quick
           test_touchstone_lenient_recovery;
         Alcotest.test_case "strict rejects NaN" `Quick
           test_touchstone_strict_rejects_nan ]);
      ("properties", rf_props) ]
