(* Tests for the MFTI core: tangential data, Loewner pencil,
   realification, SVD reduction, Algorithm 1/2, VFTI baseline. *)

open Linalg
open Statespace
open Mfti

let check_small ?(tol = 1e-9) msg x =
  if abs_float x > tol then Alcotest.failf "%s: |%.3g| exceeds tol %.1g" msg x tol

(* A modest test system: order 12, 3 ports, full-rank D. *)
let test_spec =
  { Random_sys.order = 12; ports = 3; rank_d = 3; freq_lo = 100.;
    freq_hi = 1e5; damping = 0.08; seed = 42 }

let test_system = Random_sys.generate test_spec

(* order + rank_d = 15; with 3 ports Theorem 3.5 says 6 samples suffice. *)
let recursive = Engine.Recursive Engine.Incremental

let sample_freqs k = Sampling.logspace 100. 1e5 k
let samples k = Sampling.sample_system test_system (sample_freqs k)

(* validation grid deliberately off the sampling grid *)
let validation_samples =
  Sampling.sample_system test_system (Sampling.logspace 150. 0.9e5 41)

(* ------------------------------------------------------------------ *)
(* Tangential *)

let test_tangential_structure () =
  let data = Tangential.build (samples 6) in
  Alcotest.(check int) "right blocks" 6 (Array.length data.Tangential.right);
  Alcotest.(check int) "left blocks" 6 (Array.length data.Tangential.left);
  Alcotest.(check int) "right width" 18 (Tangential.right_width data);
  Alcotest.(check int) "left width" 18 (Tangential.left_width data);
  (* conjugate pairs adjacent *)
  for g = 0 to 2 do
    let b0 = data.Tangential.right.(2 * g) in
    let b1 = data.Tangential.right.((2 * g) + 1) in
    check_small "lambda conjugate"
      (Cx.abs (Cx.sub b1.Tangential.lambda (Cx.conj b0.Tangential.lambda)));
    Alcotest.(check bool) "shared direction" true
      (Cmat.equal ~tol:0. b0.Tangential.r b1.Tangential.r);
    Alcotest.(check bool) "conjugated data" true
      (Cmat.equal ~tol:0. b1.Tangential.w (Cmat.conj b0.Tangential.w))
  done

let test_tangential_data_consistency () =
  (* W = S R and V = L S at the matching frequencies *)
  let smps = samples 6 in
  let data = Tangential.build smps in
  for g = 0 to 2 do
    let rb = data.Tangential.right.(2 * g) in
    let s = smps.(2 * g).Sampling.s in
    check_small "W = S R"
      (Cmat.norm_fro (Cmat.sub rb.Tangential.w (Cmat.mul s rb.Tangential.r)));
    let lb = data.Tangential.left.(2 * g) in
    let s' = smps.((2 * g) + 1).Sampling.s in
    check_small "V = L S"
      (Cmat.norm_fro (Cmat.sub lb.Tangential.v (Cmat.mul lb.Tangential.l s')))
  done

let test_tangential_validation () =
  (match Tangential.build (samples 5) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "odd sample count accepted");
  (match Tangential.build [| (samples 2).(0) |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "single sample accepted");
  (match Tangential.build ~weight:(Tangential.Uniform 7) (samples 6) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "oversized width accepted");
  (match Tangential.build ~weight:(Tangential.Per_sample [| 1; 2 |]) (samples 6) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "wrong weight length accepted");
  let dup = [| (samples 2).(0); (samples 2).(0) |] in
  match Tangential.build dup with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate frequency accepted"

let test_trim_even () =
  let s = samples 6 in
  let odd = Array.sub s 0 5 in
  Alcotest.(check int) "trimmed" 4 (Array.length (Tangential.trim_even odd));
  Alcotest.(check int) "even untouched" 6 (Array.length (Tangential.trim_even s))

let test_tangential_weights () =
  let data = Tangential.build ~weight:(Tangential.Uniform 2) (samples 6) in
  Alcotest.(check int) "uniform width" 12 (Tangential.right_width data);
  let data =
    Tangential.build ~weight:(Tangential.Per_sample [| 1; 2; 3; 1; 2; 3 |]) (samples 6)
  in
  (* samples 0,2,4 are right: widths 1,3,2 -> with conjugates: 12 *)
  Alcotest.(check int) "per-sample width" 12 (Tangential.right_width data);
  Alcotest.(check (list int)) "right sizes"
    [ 1; 1; 3; 3; 2; 2 ]
    (Array.to_list (Tangential.right_sizes data))

let test_vector_build () =
  let data = Tangential.build_vector (samples 8) in
  Alcotest.(check int) "vector width" 8 (Tangential.right_width data);
  Array.iter
    (fun b -> Alcotest.(check int) "width 1" 1 (Cmat.cols b.Tangential.r))
    data.Tangential.right

(* ------------------------------------------------------------------ *)
(* Loewner *)

let test_loewner_shape () =
  let data = Tangential.build (samples 6) in
  let p = Loewner.build data in
  Alcotest.(check (pair int int)) "LL dims" (18, 18) (Cmat.dims p.Loewner.ll);
  Alcotest.(check (pair int int)) "W dims" (3, 18) (Cmat.dims p.Loewner.w);
  Alcotest.(check (pair int int)) "V dims" (18, 3) (Cmat.dims p.Loewner.v)

let test_loewner_sylvester () =
  let data = Tangential.build (samples 6) in
  let p = Loewner.build data in
  let r1, r2 = Loewner.sylvester_residuals p in
  let scale = Cmat.norm_fro p.Loewner.sll +. 1. in
  check_small ~tol:1e-10 "Sylvester (13) for LL" (r1 /. scale);
  check_small ~tol:1e-10 "Sylvester (13) for sLL" (r2 /. scale)

let test_loewner_matches_sylvester_solve () =
  let data = Tangential.build ~weight:(Tangential.Uniform 2) (samples 6) in
  let p = Loewner.build data in
  let ll2 = Loewner.ll_via_sylvester p in
  check_small ~tol:1e-10 "divided differences = Sylvester solve"
    (Cmat.norm_fro (Cmat.sub ll2 p.Loewner.ll) /. (1. +. Cmat.norm_fro p.Loewner.ll))

let test_loewner_rank_bound () =
  (* Lemma 3.3: rank(x LL - sLL) <= order + rank D = 15 even though the
     pencil is 18x18. *)
  let data = Tangential.build (samples 6) in
  let p = Loewner.build data in
  let _, _, pencil_sigma = Svd_reduce.fig1_singular_values p in
  Alcotest.(check int) "pencil size" 18 (Array.length pencil_sigma);
  let rank =
    Array.fold_left (fun acc s -> if s > 1e-8 *. pencil_sigma.(0) then acc + 1 else acc)
      0 pencil_sigma
  in
  Alcotest.(check int) "rank = order + rank D" 15 rank

let test_loewner_ll_rank () =
  (* empirical observation in the paper: rank(LL) ~ order *)
  let data = Tangential.build (samples 6) in
  let p = Loewner.build data in
  let ll_sigma, _, _ = Svd_reduce.fig1_singular_values p in
  let rank =
    Array.fold_left (fun acc s -> if s > 1e-8 *. ll_sigma.(0) then acc + 1 else acc)
      0 ll_sigma
  in
  Alcotest.(check int) "rank LL = order" 12 rank

(* ------------------------------------------------------------------ *)
(* Realify *)

let test_transform_unitary () =
  let t = Realify.transform_matrix [| 2; 2; 3; 3 |] in
  Alcotest.(check (pair int int)) "dims" (10, 10) (Cmat.dims t);
  let id = Cmat.mul_cn t t in
  check_small ~tol:1e-12 "unitary" (Cmat.norm_fro (Cmat.sub id (Cmat.identity 10)))

let test_transform_validation () =
  (match Realify.transform_matrix [| 2; 3 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "unequal pair accepted");
  match Realify.transform_matrix [| 2; 2; 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "odd block count accepted"

let test_realify_matches_dense_transform () =
  (* the O(K^2) pairwise application must equal the dense T products *)
  let data = Tangential.build ~weight:(Tangential.Per_sample [| 2; 1; 3; 2; 1; 3 |])
      (samples 6)
  in
  let p = Loewner.build data in
  let fast = Realify.apply p in
  let tr = Realify.transform_matrix p.Loewner.right_sizes in
  let tl = Realify.transform_matrix p.Loewner.left_sizes in
  let dense = Cmat.mul (Cmat.ctranspose tl) (Cmat.mul p.Loewner.ll tr) in
  check_small ~tol:1e-10 "pairwise = dense (LL)"
    (Cmat.norm_fro (Cmat.sub fast.Loewner.ll dense)
     /. (1. +. Cmat.norm_fro dense));
  let dense_w = Cmat.mul p.Loewner.w tr in
  check_small ~tol:1e-10 "pairwise = dense (W)"
    (Cmat.norm_fro (Cmat.sub fast.Loewner.w dense_w)
     /. (1. +. Cmat.norm_fro dense_w));
  let dense_v = Cmat.mul (Cmat.ctranspose tl) p.Loewner.v in
  check_small ~tol:1e-10 "pairwise = dense (V)"
    (Cmat.norm_fro (Cmat.sub fast.Loewner.v dense_v)
     /. (1. +. Cmat.norm_fro dense_v))

let test_realify_produces_real () =
  (* Lemma 3.2 holds exactly, not to roundoff: the reduce refuses any
     block with a nonzero imaginary entry *)
  List.iter
    (fun (name, directions, weight, k) ->
      let data = Tangential.build ~directions ~weight (samples k) in
      let p = Realify.apply (Loewner.build data) in
      List.iter
        (fun (m, x) ->
          Alcotest.(check (float 0.)) (name ^ " " ^ m ^ " imaginary part") 0.
            (Cmat.max_imag x))
        [ ("LL", p.Loewner.ll); ("sLL", p.Loewner.sll); ("V", p.Loewner.v);
          ("W", p.Loewner.w) ])
    [ ("full", Direction.Orthonormal 0, Tangential.Full, 6);
      ("uniform 1", Direction.Orthonormal 0, Tangential.Uniform 1, 6);
      ("uniform 2", Direction.Orthonormal 0, Tangential.Uniform 2, 6);
      ( "per-sample 20x30", Direction.Orthonormal 0,
        Tangential.Per_sample [| 3; 2; 3; 2; 3; 2; 3; 2; 3; 2 |], 10 );
      ("identity cycle", Direction.Identity_cycle, Tangential.Full, 6) ]

let test_realify_preserves_singular_values () =
  (* T is unitary, so the pencil's singular values are invariant *)
  let data = Tangential.build (samples 6) in
  let p = Loewner.build data in
  let pr = Realify.apply p in
  let s1 = Svd.values p.Loewner.ll and s2 = Svd.values pr.Loewner.ll in
  Array.iteri
    (fun i s ->
      check_small ~tol:1e-9 "invariant sigma" ((s -. s2.(i)) /. (1. +. s)))
    s1

(* ------------------------------------------------------------------ *)
(* Algorithm 1: recovery *)

let fit_default k = Engine.fit (samples k)

(* The pencil as the engine reduces it: assembled, then realified. *)
let realified k = Realify.apply (Loewner.build (Tangential.build (samples k)))

let test_minimal_samples_estimate () =
  Alcotest.(check int) "theorem 3.5"
    6 (Svd_reduce.minimal_samples ~order:12 ~rank_d:3 ~inputs:3 ~outputs:3);
  Alcotest.(check int) "example 1 numbers"
    6 (Svd_reduce.minimal_samples ~order:150 ~rank_d:30 ~inputs:30 ~outputs:30)

let test_exact_recovery () =
  let result = fit_default 6 in
  Alcotest.(check int) "detected order" 15 result.Engine.rank;
  (* interpolation conditions (10) *)
  let resid = Tangential.max_residual result.Engine.model result.Engine.data in
  check_small ~tol:1e-6 "tangential residual" resid;
  (* true recovery: error off the sampling grid *)
  let verr = Metrics.err result.Engine.model validation_samples in
  check_small ~tol:1e-7 "validation ERR" verr

let test_full_matrix_interpolation () =
  (* Lemma 3.1: with t = m = p and full-rank directions the whole matrix
     is matched at every sample frequency. *)
  let smps = samples 6 in
  let result = Engine.fit smps in
  Array.iter
    (fun smp ->
      let h = Descriptor.eval_freq result.Engine.model smp.Sampling.freq in
      check_small ~tol:1e-6 "H(j2pifi) = S(fi)"
        (Cmat.norm_fro (Cmat.sub h smp.Sampling.s)
         /. (1. +. Cmat.norm_fro smp.Sampling.s)))
    smps

let test_pencil_mode_recovery () =
  let reduced = Svd_reduce.reduce ~mode:(Svd_reduce.Pencil None) (realified 6) in
  Alcotest.(check int) "rank at x0 = |lambda0|" 15 reduced.Svd_reduce.rank;
  let verr = Metrics.err reduced.Svd_reduce.model validation_samples in
  check_small ~tol:1e-7 "pencil-mode validation ERR" verr

let test_unrealified_refused () =
  (* the assembled pencil is complex until Realify.apply (Lemma 3.2) *)
  let p = Loewner.build (Tangential.build (samples 6)) in
  List.iter
    (fun (name, mode) ->
      match Svd_reduce.reduce ~mode p with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s reduced a complex pencil" name)
    [ ("stacked", Svd_reduce.Stacked); ("pencil", Svd_reduce.Pencil None) ]

let test_undersampled_fails () =
  (* 4 samples -> K = 12 < 15: recovery impossible *)
  let result = fit_default 4 in
  let verr = Metrics.err result.Engine.model validation_samples in
  Alcotest.(check bool) "undersampled is inaccurate" true (verr > 1e-3)

let test_uniform_weight_recovery () =
  (* t = 2: 16 samples give K = 32 >= 15 *)
  let options =
    { Engine.default_options with weight = Tangential.Uniform 2 }
  in
  let result = Engine.fit ~options (samples 16) in
  let verr = Metrics.err result.Engine.model validation_samples in
  check_small ~tol:1e-6 "t=2 validation ERR" verr

let test_identity_directions_recovery () =
  let options =
    { Engine.default_options with directions = Direction.Identity_cycle }
  in
  let result = Engine.fit ~options (samples 6) in
  let verr = Metrics.err result.Engine.model validation_samples in
  check_small ~tol:1e-7 "identity directions" verr

let test_determinism () =
  let r1 = fit_default 6 and r2 = fit_default 6 in
  Alcotest.(check bool) "same sigma" true
    (r1.Engine.sigma = r2.Engine.sigma);
  Alcotest.(check bool) "same E" true
    (Cmat.equal ~tol:0. r1.Engine.model.Descriptor.e
       r2.Engine.model.Descriptor.e)

let test_fixed_rank_rule () =
  let options =
    { Engine.default_options with rank_rule = Svd_reduce.Fixed 10 }
  in
  let result = Engine.fit ~options (samples 6) in
  Alcotest.(check int) "clipped order" 10 result.Engine.rank;
  Alcotest.(check int) "model order" 10
    (Descriptor.order result.Engine.model)

let test_per_sample_weights_recovery () =
  (* uneven widths produce a non-square Loewner pencil; the projection
     must still recover the system when enough columns are present *)
  let weight = Tangential.Per_sample [| 3; 2; 3; 2; 3; 2; 3; 2; 3; 2 |] in
  let options = { Engine.default_options with weight } in
  let result = Engine.fit ~options (samples 10) in
  let p = result.Engine.loewner in
  Alcotest.(check bool) "non-square pencil" true
    (Cmat.rows p.Loewner.ll <> Cmat.cols p.Loewner.ll);
  let verr = Metrics.err result.Engine.model validation_samples in
  check_small ~tol:1e-6 "non-square recovery" verr

let test_pencil_explicit_x0 () =
  let pencil = realified 6 in
  (* the real shift x0 = |mu_0| must also satisfy Lemma 3.4 *)
  let x0 = Cx.abs pencil.Loewner.mu.(0) in
  let reduced =
    Svd_reduce.reduce ~mode:(Svd_reduce.Pencil (Some x0)) pencil
  in
  Alcotest.(check int) "rank at x0 = |mu0|" 15 reduced.Svd_reduce.rank;
  let verr = Metrics.err reduced.Svd_reduce.model validation_samples in
  check_small ~tol:1e-7 "x0 = |mu0| recovery" verr

let test_model_transient_matches_original () =
  (* end-to-end: the fitted macromodel must track the original system in
     the time domain, not just at the sample frequencies *)
  let result = fit_default 8 in
  let dt = 1e-7 and steps = 400 in
  let original = Timedomain.step_response test_system ~port:0 ~dt ~steps in
  let fitted =
    Timedomain.step_response result.Engine.model ~port:0 ~dt ~steps
  in
  let worst = ref 0. in
  for k = 0 to steps do
    let a = Cmat.get original.Timedomain.outputs 1 k in
    let b = Cmat.get fitted.Timedomain.outputs 1 k in
    worst := Stdlib.max !worst (Cx.abs (Cx.sub a b))
  done;
  check_small ~tol:1e-5 "transient agreement" !worst

let test_metrics_err_vector () =
  let smps = samples 4 in
  let e = Metrics.err_vector test_system smps in
  Alcotest.(check int) "length" 4 (Array.length e);
  Array.iter (fun x -> check_small ~tol:1e-12 "truth err" x) e;
  (* a deliberately wrong model: scaled system *)
  let wrong =
    Descriptor.create ~e:test_system.Descriptor.e ~a:test_system.Descriptor.a
      ~b:test_system.Descriptor.b
      ~c:(Cmat.scale_float 2. test_system.Descriptor.c)
      ~d:(Cmat.scale_float 2. test_system.Descriptor.d)
  in
  Array.iter
    (fun x -> check_small ~tol:1e-9 "relative error of 2x model" (x -. 1.))
    (Metrics.err_vector wrong smps)

(* ------------------------------------------------------------------ *)
(* VFTI baseline *)

let test_vfti_undersampled () =
  (* 8 vector samples only span rank 8 < 15: cannot recover *)
  let result = Engine.fit ~strategy:Engine.Vector (samples 8) in
  Alcotest.(check bool) "rank capped by samples" true (result.Engine.rank <= 8);
  let verr = Metrics.err result.Engine.model validation_samples in
  Alcotest.(check bool) "VFTI under-sampled fails" true (verr > 1e-3)

let test_vfti_with_enough_samples () =
  let result = Engine.fit ~strategy:Engine.Vector (samples 40) in
  let verr = Metrics.err result.Engine.model validation_samples in
  check_small ~tol:1e-5 "VFTI recovers with 40 samples" verr

let test_mfti_beats_vfti_undersampled () =
  let k = 8 in
  let m = Engine.fit (samples k) in
  let v = Engine.fit ~strategy:Engine.Vector (samples k) in
  let em = Metrics.err m.Engine.model validation_samples in
  let ev = Metrics.err v.Engine.model validation_samples in
  Alcotest.(check bool) "MFTI better by 1000x" true (em *. 1000. < ev)

(* ------------------------------------------------------------------ *)
(* Algorithm 2 *)

let test_algorithm2_noise_free () =
  let options =
    { Engine.default_recursive_options with
      weight = Tangential.Full; batch = 4; threshold = 1e-8 }
  in
  let result = Engine.fit ~strategy:recursive ~options (samples 12) in
  Alcotest.(check bool) "subset selected" true
    (result.Engine.selected_units <= result.Engine.total_units);
  let verr = Metrics.err result.Engine.model validation_samples in
  check_small ~tol:1e-6 "recursive recovery" verr

let test_algorithm2_stops_early () =
  (* loose threshold: should stop well before consuming all units *)
  let options =
    { Engine.default_recursive_options with
      weight = Tangential.Full; batch = 3; threshold = 1e-6 }
  in
  let result = Engine.fit ~strategy:recursive ~options (samples 20) in
  Alcotest.(check bool) "early stop" true
    (result.Engine.selected_units < result.Engine.total_units);
  Alcotest.(check bool) "history recorded" true
    (Array.length result.Engine.history >= 1)

let test_algorithm2_exhausts_on_impossible_threshold () =
  let options =
    { Engine.default_recursive_options with
      weight = Tangential.Uniform 1; batch = 64; threshold = 0.;
      max_iterations = 3 }
  in
  let result = Engine.fit ~strategy:recursive ~options (samples 8) in
  (* batch 64 > total units: single iteration consumes everything *)
  Alcotest.(check int) "all units" result.Engine.total_units
    result.Engine.selected_units;
  Alcotest.(check int) "one iteration" 1 result.Engine.iterations

let test_algorithm2_validation () =
  (* bad options surface as typed validation errors, raised by
     Engine.fit and returned by fit_result *)
  (match
     Engine.fit ~strategy:recursive
       ~options:{ Engine.default_recursive_options with batch = 0 }
       (samples 6)
   with
   | exception Mfti_error.Error (Mfti_error.Validation _) -> ()
   | _ -> Alcotest.fail "batch 0 accepted");
  List.iter
    (fun (name, options) ->
      match Engine.fit_result ~strategy:recursive ~options (samples 6) with
      | Error (Mfti_error.Validation _) -> ()
      | _ -> Alcotest.failf "%s accepted" name)
    [ ("max_iterations 0",
       { Engine.default_recursive_options with max_iterations = 0 });
      ("threshold nan",
       { Engine.default_recursive_options with threshold = Float.nan });
      ("threshold -1",
       { Engine.default_recursive_options with threshold = -1. }) ]

(* ------------------------------------------------------------------ *)
(* Stacked reduce on a noisy pencil.  Left to its own test, the
   randomized sketch stops at its half-width cap.  Under [Tol] the
   reduce keeps the first round whose residual brackets prove the
   rule's rank, and otherwise the exact fallback runs the real
   one-sided SVD of each side; the complex two-sided SVD factors give
   the same model to roundoff. *)

let noisy_pdn_freqs = Sampling.logspace 1e6 1e9 40

(* A noisy 4-port 40-point PDN, assembled and realified as the Direct
   engine does: a 320 x 160 stacked pencil that measured noise makes
   numerically full rank. *)
let noisy_pdn_board =
  { Rf.Pdn.default_spec with ports = 4; decaps = 2; nx = 3; ny = 3; seed = 7 }

let noisy_pdn ~seed ~level =
  let clean = Rf.Pdn.scattering noisy_pdn_board ~z0:50. noisy_pdn_freqs in
  let noisy = Rf.Noise.add_relative ~seed ~level clean in
  let ok what = function
    | Ok x -> x
    | Error e -> Alcotest.failf "%s: %s" what (Mfti_error.to_string e)
  in
  let st =
    ok "ingest"
      (Engine.ingest ~strategy:Engine.Direct
         (Dataset.trim_even (Dataset.of_samples noisy)))
  in
  ok "assemble" (Engine.assemble st);
  Realify.apply (Option.get (Engine.pencil st))

let noisy_pdn_pencil = lazy (noisy_pdn ~seed:1000 ~level:1e-3)

let row_side p = Cmat.ctranspose (Cmat.hcat p.Loewner.ll p.Loewner.sll)
let column_side p = Cmat.vcat p.Loewner.ll p.Loewner.sll

let test_stacked_sketch_capped () =
  let p = Lazy.force noisy_pdn_pencil in
  List.iter
    (fun (what, a) ->
      Alcotest.(check (pair int int)) (what ^ " dims") (320, 160) (Cmat.dims a);
      let r = Rsvd.decompose_adaptive (Cmat.real_part a) in
      Alcotest.(check bool) (what ^ " not certified") false r.Rsvd.certified;
      Alcotest.(check int) (what ^ " spectrum") 160 r.Rsvd.total;
      Alcotest.(check bool)
        (Printf.sprintf "%s sketch %d <= 80" what r.Rsvd.sketch)
        true (r.Rsvd.sketch <= 80))
    [ ("row side", row_side p); ("column side", column_side p) ]

let stacked_tol ~tol p =
  Diag.with_collector (fun () ->
      Svd_reduce.reduce ~mode:Svd_reduce.Stacked
        ~rank_rule:(Svd_reduce.Tol tol) p)

let fallbacks diag =
  List.filter (fun e -> e.Diag.site = "svd.rsvd.fallback") (Diag.events diag)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_details what needles events =
  List.iter
    (fun e ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names %S" what e.Diag.detail needle)
            true (contains ~needle e.Diag.detail))
        needles)
    events

(* The exact path spelled out: {!Svd.right_real} of the real sides,
   projected in real arithmetic at the rank [Tol tol] picks on the
   exact row spectrum. *)
let exact_reference ~tol p =
  let ll = Cmat.real_part p.Loewner.ll and sll = Cmat.real_part p.Loewner.sll in
  let sigma, y =
    Svd.right_real (Rmat.vcat (Rmat.transpose ll) (Rmat.transpose sll))
  in
  let _, x = Svd.right_real (Rmat.vcat ll sll) in
  let rank = Stdlib.max 1 (Svd.rank_of_values ~rtol:tol sigma) in
  let first m = Rmat.sub_matrix m ~r:0 ~c:0 ~rows:m.Rmat.rows ~cols:rank in
  let y = first y and x = first x in
  let project m = Cmat.of_real (Rmat.mul_tn y (Rmat.mul m x)) in
  let e = Cmat.neg (project ll) and a = Cmat.neg (project sll) in
  let b = Cmat.of_real (Rmat.mul_tn y (Cmat.real_part p.Loewner.v)) in
  let c = Cmat.of_real (Rmat.mul (Cmat.real_part p.Loewner.w) x) in
  let d = Cmat.zeros (Cmat.rows c) (Cmat.cols b) in
  (rank, Descriptor.create ~e ~a ~b ~c ~d)

(* An independent oracle: two-sided complex exact factors, projected as
   Lemma 3.4 does, at the rank [Tol tol] picks on the exact row
   spectrum. *)
let two_sided_reference ~tol p =
  let row = Svd.decompose (Cmat.hcat p.Loewner.ll p.Loewner.sll) in
  let col = Svd.decompose (column_side p) in
  let rank = Stdlib.max 1 (Svd.rank ~rtol:tol row) in
  let first k m = Cmat.sub_matrix m ~r:0 ~c:0 ~rows:(Cmat.rows m) ~cols:k in
  let y = first rank row.Svd.u and x = first rank col.Svd.v in
  let e = Cmat.neg (Cmat.mul_cn y (Cmat.mul p.Loewner.ll x)) in
  let a = Cmat.neg (Cmat.mul_cn y (Cmat.mul p.Loewner.sll x)) in
  let b = Cmat.mul_cn y p.Loewner.v in
  let c = Cmat.mul p.Loewner.w x in
  let d = Cmat.zeros (Cmat.rows c) (Cmat.cols b) in
  (rank, Descriptor.create ~e ~a ~b ~c ~d)

let check_bit_identical what (got : Descriptor.t) (want : Descriptor.t) =
  List.iter
    (fun (m, g, w) ->
      Alcotest.(check bool) (Printf.sprintf "%s %s bit-identical" what m) true
        (Cmat.equal ~tol:0. g w))
    [ ("E", got.Descriptor.e, want.Descriptor.e);
      ("A", got.Descriptor.a, want.Descriptor.a);
      ("B", got.Descriptor.b, want.Descriptor.b);
      ("C", got.Descriptor.c, want.Descriptor.c) ]

(* H within 1e-10 relative of [reference]'s at every sample frequency. *)
let check_response what ~against reference (r : Svd_reduce.result) =
  Array.iter
    (fun f ->
      let want = Descriptor.eval_freq reference f in
      let got = Descriptor.eval_freq r.Svd_reduce.model f in
      let rel = Cmat.norm_fro (Cmat.sub got want) /. Cmat.norm_fro want in
      if not (rel <= 1e-10) then
        Alcotest.failf "%s: H(j2pi %.4g) differs from the %s model by %.3g"
          what f against rel)
    noisy_pdn_freqs

(* Same rank as the two-sided oracle, and the same response. *)
let check_two_sided what ~tol p (r : Svd_reduce.result) =
  let rank, reference = two_sided_reference ~tol p in
  Alcotest.(check int) (what ^ " rank = two-sided rank") rank r.Svd_reduce.rank;
  check_response what ~against:"two-sided" reference r

let test_stacked_tol_certified () =
  (* At tol 3e-3 the sketch proves rank 6 on both sides: no exact SVD
     runs, and the model agrees with the exact one. *)
  let p = Lazy.force noisy_pdn_pencil in
  let r, diag = stacked_tol ~tol:3e-3 p in
  Alcotest.(check int) "no fallback" 0 (List.length (fallbacks diag));
  Alcotest.(check int) "no retry" 0 diag.Diag.retries;
  check_two_sided "sketch" ~tol:3e-3 p r

let test_stacked_tol_first_round () =
  (* The spectral residual bound proves rank 6 at tol 3e-3 on the
     quarter-width first round of both sides, at every noise seed: the
     sketch stops at 40 of 160 columns, no exact SVD runs, and the
     model has the exact path's rank and response. *)
  let tol = 3e-3 in
  List.iter
    (fun seed ->
      let what = Printf.sprintf "seed %d" seed in
      let p = noisy_pdn ~seed ~level:1e-3 in
      let accept ?ranked r =
        Result.is_ok (Svd_reduce.tol_certificate ~tol ?ranked r)
      in
      let row =
        Rsvd.decompose_adaptive ~accept (Cmat.real_part (row_side p))
      in
      let col =
        Rsvd.decompose_adaptive ~accept:(accept ~ranked:row.Rsvd.sigma)
          (Cmat.real_part (column_side p))
      in
      List.iter
        (fun (side, (r : Rsvd.t)) ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s %s sketch/total" what side)
            (40, 160) (r.Rsvd.sketch, r.Rsvd.total))
        [ ("row", row); ("column", col) ];
      let r, diag = stacked_tol ~tol p in
      Alcotest.(check int) (what ^ " no fallback") 0
        (List.length (fallbacks diag));
      let rank, reference = exact_reference ~tol p in
      Alcotest.(check int) (what ^ " rank = exact rank") rank r.Svd_reduce.rank;
      check_response what ~against:"exact-path" reference r)
    [ 3000; 3001; 5000; 5001; 5002; 5003; 5004 ]

let test_stacked_fallback_bit_identical () =
  (* At tol 1e-4 the residual exceeds the threshold, so neither side
     can prove its rank: both fall back, and the diagnostic names the
     cap and the failed condition. *)
  let p = Lazy.force noisy_pdn_pencil in
  let r, diag = stacked_tol ~tol:1e-4 p in
  let fallbacks = fallbacks diag in
  Alcotest.(check int) "two fallbacks" 2 (List.length fallbacks);
  check_details "fallback"
    [ "sketch 80/160 capped at n/2, tol 0.0001 rank ";
      " not certified: residual "; " > tol*sigma_1 "; "; exact cascade" ]
    fallbacks;
  let rank, reference = exact_reference ~tol:1e-4 p in
  Alcotest.(check int) "rank" rank r.Svd_reduce.rank;
  check_bit_identical "fallback" r.Svd_reduce.model reference;
  check_two_sided "fallback" ~tol:1e-4 p r

let test_stacked_tol_straddle () =
  (* A prescribed spectrum (seeded orthonormal factors): rank 6 above
     tol, sigma_7 just under it, and a plateau whose residual pushes
     sigma_7's upper bracket across tol sigma_1.  The plateau is heavy
     enough (5e-4, so even the spectral bound of the half-width sketch
     is about 1.5e-3) that the bracket straddles: the sketch cannot
     tell 6 from 7, so both sides must fall back. *)
  let n = 160 and tol = 3e-3 in
  let sigma =
    Array.init n (fun i ->
        if i < 6 then 0.5 ** float_of_int i
        else if i = 6 then 0.95 *. tol
        else 5e-4)
  in
  let rng = Rng.create 42 in
  let u = Qr.orthonormalize (Cmat.random_real rng n n) in
  let v = Qr.orthonormalize (Cmat.random_real rng n n) in
  let us = Cmat.init n n (fun i j -> Cx.scale sigma.(j) (Cmat.get u i j)) in
  let p0 = Lazy.force noisy_pdn_pencil in
  let p = { p0 with Loewner.ll = Cmat.mul us (Cmat.ctranspose v);
                    sll = Cmat.zeros n n } in
  let r, diag = stacked_tol ~tol p in
  let fallbacks = fallbacks diag in
  Alcotest.(check int) "two fallbacks" 2 (List.length fallbacks);
  check_details "straddle"
    [ "tol 0.003 rank 6 not certified: sigma_7 in [";
      "] straddles tol*sigma_1 in [" ]
    fallbacks;
  let rank, reference = exact_reference ~tol p in
  Alcotest.(check int) "rank" rank r.Svd_reduce.rank;
  check_bit_identical "straddle" r.Svd_reduce.model reference;
  check_two_sided "straddle" ~tol p r

let test_stacked_tol_degrade () =
  (* The degrade fault poisons the residual, so the rule refuses even
     where it certifies unfaulted. *)
  let p = Lazy.force noisy_pdn_pencil in
  let r, diag = Fault.with_spec "svd.rsvd.degrade" (fun () -> stacked_tol ~tol:3e-3 p) in
  let fallbacks = fallbacks diag in
  Alcotest.(check int) "two fallbacks" 2 (List.length fallbacks);
  check_details "degrade" [ "not certified: residual inf > tol*sigma_1 " ] fallbacks;
  let rank, reference = exact_reference ~tol:3e-3 p in
  Alcotest.(check int) "rank" rank r.Svd_reduce.rank;
  check_bit_identical "degrade" r.Svd_reduce.model reference;
  check_two_sided "degrade" ~tol:3e-3 p r

(* The reduce at 1 and 4 domains, bit for bit, with [expect] sides
   falling back; the degrade [fault] forces the exact real SVD. *)
let domain_invariant ?fault ~expect () =
  let p = Lazy.force noisy_pdn_pencil in
  let reduce () = stacked_tol ~tol:3e-3 p in
  let at domains =
    Parallel.set_domain_count domains;
    Fun.protect
      ~finally:(fun () -> Parallel.set_domain_count 1)
      (fun () ->
        match fault with None -> reduce () | Some f -> Fault.with_spec f reduce)
  in
  let r1, d1 = at 1 and r4, d4 = at 4 in
  Alcotest.(check int) "fallbacks at 1" expect (List.length (fallbacks d1));
  Alcotest.(check int) "fallbacks at 4" expect (List.length (fallbacks d4));
  check_bit_identical "1 vs 4 domains" r4.Svd_reduce.model r1.Svd_reduce.model

let test_stacked_tol_domains = domain_invariant ~expect:0
let test_stacked_exact_domains = domain_invariant ~fault:"svd.rsvd.degrade" ~expect:2

(* CI's noisy board, `mfti gen pdn --ports 4 --points 80 --f-lo 1e6
   --f-hi 2e9 --noise 0.001` (3x3 RL plane, seed 0, 80 log-spaced
   points):
   its sides are 640 x 320, and [Tol 3e-3] keeps the quarter-width
   first round (80 of 320 columns).  The certificate proves the rank,
   not the accuracy of the kept subspace, so this board gets a looser
   bar than the 40-point one: the sketched and the fault-forced exact
   fit must have one rank and agree in H to 1e-6 relative at every
   sample, both as reduced ([Check]) and after [Repair]. *)
let test_ci_board_sketch_vs_exact () =
  let freqs = Sampling.logspace 1e6 2e9 80 in
  let board = { noisy_pdn_board with Rf.Pdn.seed = 0 } in
  let noisy =
    Rf.Noise.add_relative ~seed:0 ~level:1e-3
      (Rf.Pdn.scattering board ~z0:50. freqs)
  in
  List.iter
    (fun (what, certify) ->
      let options =
        { Engine.default_options with
          rank_rule = Svd_reduce.Tol 3e-3; certify }
      in
      let fit () = Engine.fit ~options noisy in
      let sketch = fit () and exact = Fault.with_spec "svd.rsvd.degrade" fit in
      Alcotest.(check int) (what ^ " sketch kept") 0
        (List.length (fallbacks sketch.Engine.diagnostics));
      Alcotest.(check int) (what ^ " exact forced") 2
        (List.length (fallbacks exact.Engine.diagnostics));
      Alcotest.(check int) (what ^ " rank") exact.Engine.rank sketch.Engine.rank;
      let worst =
        Array.fold_left
          (fun acc f ->
            let want = Descriptor.eval_freq exact.Engine.model f in
            let got = Descriptor.eval_freq sketch.Engine.model f in
            Float.max acc
              (Cmat.norm_fro (Cmat.sub got want) /. Cmat.norm_fro want))
          0. freqs
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: H differs by %.2g <= 1e-6" what worst)
        true (worst <= 1e-6))
    [ ("check", Certify.Check); ("repair", Certify.Repair) ]

(* Every path realifies its pencil and the reduce runs in real
   arithmetic, so every model is exactly real: one-shot (Direct,
   Vector), Algorithm 2 (both assemblies), a session, both projection
   modes, and the noisy PDN whether the sketch is kept or the degrade
   fault forces the exact SVD. *)
let test_models_real () =
  let check name (model : Descriptor.t) =
    List.iter
      (fun (m, x) ->
        Alcotest.(check (float 0.)) (name ^ " " ^ m ^ " exactly real") 0.
          (Cmat.max_imag x))
      Descriptor.[ ("E", model.e); ("A", model.a); ("B", model.b); ("C", model.c) ]
  in
  check "direct" (fit_default 6).Engine.model;
  check "vector" (Engine.fit ~strategy:Engine.Vector (samples 20)).Engine.model;
  List.iter
    (fun (name, assembly) ->
      check name
        (Engine.fit ~strategy:(Engine.Recursive assembly)
           ~options:{ Engine.default_recursive_options with batch = 2 }
           (samples 20)).Engine.model)
    [ ("recursive incremental", Engine.Incremental);
      ("recursive batch", Engine.Batch) ];
  let sess =
    Result.get_ok
      (Engine.Session.open_ ~inputs:test_spec.Random_sys.ports
         ~outputs:test_spec.Random_sys.ports ())
  in
  ignore (Result.get_ok (Engine.Session.append sess (samples 6)));
  check "session finalize"
    (Engine.Model.descriptor (Result.get_ok (Engine.Session.finalize sess)));
  let pencil = realified 6 in
  List.iter
    (fun (name, x0) ->
      check name
        (Svd_reduce.reduce ~mode:(Svd_reduce.Pencil x0) pencil).Svd_reduce.model)
    [ ("pencil |lambda0|", None);
      ("pencil |mu0|", Some (Cx.abs pencil.Loewner.mu.(0))) ];
  (* fit-touchstone-shaped data: the noisy 4-port 40-point PDN at the
     rank tolerance whose sketch the reduce keeps *)
  let noisy =
    Rf.Noise.add_relative ~seed:3000 ~level:1e-3
      (Rf.Pdn.scattering noisy_pdn_board ~z0:50. noisy_pdn_freqs)
  in
  let options =
    { Engine.default_options with rank_rule = Svd_reduce.Tol 3e-3 }
  in
  let reduce_noisy () =
    let st =
      Result.get_ok
        (Engine.ingest ~options ~strategy:Engine.Direct
           (Dataset.trim_even (Dataset.of_samples noisy)))
    in
    Result.get_ok (Engine.reduce st);
    st
  in
  let st = reduce_noisy () in
  Alcotest.(check bool) "pencil wide enough to sketch" true
    (Cmat.cols (Option.get (Engine.pencil st)).Loewner.ll >= 96);
  Alcotest.(check int) "sketch kept" 0
    (List.length (fallbacks (Engine.diagnostics st)));
  check "sketched" (Option.get (Engine.reduction st)).Svd_reduce.model;
  let st = Fault.with_spec "svd.rsvd.degrade" reduce_noisy in
  Alcotest.(check int) "sketch refused" 2
    (List.length (fallbacks (Engine.diagnostics st)));
  check "fault-forced exact" (Option.get (Engine.reduction st)).Svd_reduce.model

(* property: whenever the Tol certificate keeps the sketch, the rank is
   the one the rule picks on the exact spectrum *)
let prop_tol_rank_matches =
  let gen =
    QCheck.Gen.(
      triple (int_bound 10_000) (oneofl [ 1e-4; 1e-3; 1e-2 ])
        (oneofl [ 1e-3; 3e-3; 1e-2 ]))
  in
  let arb =
    QCheck.make gen ~print:(fun (seed, level, tol) ->
        Printf.sprintf "seed=%d noise=%g tol=%g" seed level tol)
  in
  QCheck.Test.make ~name:"tol certificate keeps the exact rank on noisy pencils"
    ~count:10 arb (fun (seed, level, tol) ->
      let p = noisy_pdn ~seed ~level in
      let r, diag = stacked_tol ~tol p in
      fallbacks diag <> []
      || r.Svd_reduce.rank
         = Stdlib.max 1 (Svd.rank_of_values ~rtol:tol (Svd.values (row_side p))))

(* property: exact recovery at the Theorem 3.5 minimal sampling, across
   random systems *)
let prop_minimal_recovery =
  let gen =
    QCheck.Gen.(
      int_range 2 5 >>= fun ports ->
      int_range 1 4 >>= fun blocks ->
      int_range 0 ports >>= fun rank_d ->
      int_bound 10_000 >|= fun seed -> (ports, 2 * blocks * ports, rank_d, seed))
  in
  let arb =
    QCheck.make gen ~print:(fun (p, n, r, s) ->
        Printf.sprintf "ports=%d order=%d rank_d=%d seed=%d" p n r s)
  in
  QCheck.Test.make ~name:"recovery at k_min across random systems" ~count:15 arb
    (fun (ports, order, rank_d, seed) ->
      let spec =
        { Random_sys.order; ports; rank_d; freq_lo = 100.; freq_hi = 1e5;
          damping = 0.1; seed }
      in
      let sys = Random_sys.generate spec in
      let k =
        Svd_reduce.minimal_samples ~order ~rank_d ~inputs:ports ~outputs:ports
      in
      (* a couple of extra samples buys margin for weakly observable modes *)
      let k = k + 2 in
      let smps = Sampling.sample_system sys (Sampling.logspace 100. 1e5 k) in
      let r = Engine.fit smps in
      let vgrid = Sampling.sample_system sys (Sampling.logspace 130. 0.9e5 11) in
      Metrics.err r.Engine.model vgrid < 1e-5)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_zero_for_truth () =
  check_small ~tol:1e-12 "ERR of the true system"
    (Metrics.err test_system validation_samples)

let test_metrics_report () =
  let s = Metrics.report ~name:"truth" test_system (samples 4) in
  Alcotest.(check bool) "mentions name" true
    (String.length s > 0 && String.sub s 0 5 = "truth")

(* ------------------------------------------------------------------ *)
(* Direction generators *)

let test_direction_orthonormal () =
  let r = Direction.right (Direction.Orthonormal 3) ~block:2 ~ports:5 ~size:3 in
  let g = Cmat.mul_cn r r in
  check_small ~tol:1e-10 "orthonormal columns"
    (Cmat.norm_fro (Cmat.sub g (Cmat.identity 3)));
  check_small "real" (Cmat.max_imag r)

let test_direction_identity_cycle () =
  let r = Direction.right Direction.Identity_cycle ~block:0 ~ports:3 ~size:3 in
  check_small "identity block 0"
    (Cmat.norm_fro (Cmat.sub r (Cmat.identity 3)));
  let r1 = Direction.right Direction.Identity_cycle ~block:1 ~ports:3 ~size:2 in
  (* block 1, size 2: columns e_2, e_0 *)
  check_small "cycled e2" (Cx.abs (Cx.sub (Cmat.get r1 2 0) Cx.one));
  check_small "cycled e0" (Cx.abs (Cx.sub (Cmat.get r1 0 1) Cx.one))

let test_direction_validation () =
  (match Direction.right Direction.Identity_cycle ~block:0 ~ports:3 ~size:4 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "oversize accepted");
  match Direction.left (Direction.Orthonormal 0) ~block:0 ~ports:3 ~size:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero size accepted"

let test_direction_left_shape () =
  let l = Direction.left (Direction.Orthonormal 1) ~block:0 ~ports:4 ~size:2 in
  Alcotest.(check (pair int int)) "left dims" (2, 4) (Cmat.dims l);
  let g = Cmat.mul l (Cmat.ctranspose l) in
  check_small ~tol:1e-10 "orthonormal rows"
    (Cmat.norm_fro (Cmat.sub g (Cmat.identity 2)))

let () =
  Alcotest.run "mfti"
    [ ("direction",
       [ Alcotest.test_case "orthonormal" `Quick test_direction_orthonormal;
         Alcotest.test_case "identity cycle" `Quick test_direction_identity_cycle;
         Alcotest.test_case "validation" `Quick test_direction_validation;
         Alcotest.test_case "left shape" `Quick test_direction_left_shape ]);
      ("tangential",
       [ Alcotest.test_case "structure" `Quick test_tangential_structure;
         Alcotest.test_case "data consistency" `Quick test_tangential_data_consistency;
         Alcotest.test_case "validation" `Quick test_tangential_validation;
         Alcotest.test_case "trim_even" `Quick test_trim_even;
         Alcotest.test_case "weights" `Quick test_tangential_weights;
         Alcotest.test_case "vector build" `Quick test_vector_build ]);
      ("loewner",
       [ Alcotest.test_case "shape" `Quick test_loewner_shape;
         Alcotest.test_case "sylvester identities" `Quick test_loewner_sylvester;
         Alcotest.test_case "sylvester construction" `Quick test_loewner_matches_sylvester_solve;
         Alcotest.test_case "rank bound (lemma 3.3)" `Quick test_loewner_rank_bound;
         Alcotest.test_case "LL rank = order" `Quick test_loewner_ll_rank ]);
      ("realify",
       [ Alcotest.test_case "transform unitary" `Quick test_transform_unitary;
         Alcotest.test_case "transform validation" `Quick test_transform_validation;
         Alcotest.test_case "pairwise = dense" `Quick test_realify_matches_dense_transform;
         Alcotest.test_case "produces real" `Quick test_realify_produces_real;
         Alcotest.test_case "preserves sigma" `Quick test_realify_preserves_singular_values ]);
      ("algorithm1",
       [ Alcotest.test_case "minimal samples (thm 3.5)" `Quick test_minimal_samples_estimate;
         Alcotest.test_case "exact recovery" `Quick test_exact_recovery;
         Alcotest.test_case "full-matrix interpolation (lemma 3.1)" `Quick test_full_matrix_interpolation;
         Alcotest.test_case "real model (lemma 3.2)" `Quick test_models_real;
         Alcotest.test_case "pencil mode (lemma 3.4)" `Quick test_pencil_mode_recovery;
         Alcotest.test_case "unrealified pencil refused" `Quick test_unrealified_refused;
         Alcotest.test_case "undersampled fails" `Quick test_undersampled_fails;
         Alcotest.test_case "uniform weight" `Quick test_uniform_weight_recovery;
         Alcotest.test_case "identity directions" `Quick test_identity_directions_recovery;
         Alcotest.test_case "determinism" `Quick test_determinism;
         Alcotest.test_case "fixed rank" `Quick test_fixed_rank_rule;
         Alcotest.test_case "per-sample weights" `Quick test_per_sample_weights_recovery;
         Alcotest.test_case "pencil explicit x0" `Quick test_pencil_explicit_x0;
         Alcotest.test_case "transient agreement" `Quick test_model_transient_matches_original ]);
      ("vfti",
       [ Alcotest.test_case "undersampled fails" `Quick test_vfti_undersampled;
         Alcotest.test_case "enough samples recover" `Quick test_vfti_with_enough_samples;
         Alcotest.test_case "MFTI beats VFTI" `Quick test_mfti_beats_vfti_undersampled ]);
      ("algorithm2",
       [ Alcotest.test_case "noise-free recovery" `Quick test_algorithm2_noise_free;
         Alcotest.test_case "early stop" `Quick test_algorithm2_stops_early;
         Alcotest.test_case "exhaustion" `Quick test_algorithm2_exhausts_on_impossible_threshold;
         Alcotest.test_case "validation" `Quick test_algorithm2_validation ]);
      ("metrics",
       [ Alcotest.test_case "zero for truth" `Quick test_metrics_zero_for_truth;
         Alcotest.test_case "err vector" `Quick test_metrics_err_vector;
         Alcotest.test_case "report" `Quick test_metrics_report ]);
      ("stacked",
       [ Alcotest.test_case "noisy sketch stops at half width" `Quick
           test_stacked_sketch_capped;
         Alcotest.test_case "tol certified = exact rank and response" `Quick
           test_stacked_tol_certified;
         Alcotest.test_case "tol certified on the first round" `Quick
           test_stacked_tol_first_round;
         Alcotest.test_case "fallback = two-sided factors (bit)" `Quick
           test_stacked_fallback_bit_identical;
         Alcotest.test_case "straddling bracket falls back" `Quick
           test_stacked_tol_straddle;
         Alcotest.test_case "degrade fault refuses under tol" `Quick
           test_stacked_tol_degrade;
         Alcotest.test_case "tol certified domain-invariant (bit)" `Quick
           test_stacked_tol_domains;
         Alcotest.test_case "exact path domain-invariant (bit)" `Quick
           test_stacked_exact_domains;
         Alcotest.test_case "80-point board sketch = exact (1e-6)" `Quick
           test_ci_board_sketch_vs_exact;
         QCheck_alcotest.to_alcotest prop_tol_rank_matches ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_minimal_recovery ]) ]
