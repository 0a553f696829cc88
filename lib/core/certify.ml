open Linalg
open Statespace

module Certificate = struct
  type t = {
    stable : bool;
    passive : bool;
    flipped : int;
    worst_margin : float;
    pre_margin : float;
    repair_iterations : int;
    fit_delta : float;
  }

  let passed c = c.stable && c.passive

  let fl x = if Float.is_nan x then "unknown" else Printf.sprintf "%.3g" x

  let to_string c =
    Printf.sprintf
      "%s (stable=%b passive=%b flipped=%d margin=%s pre=%s repairs=%d \
       delta=%s)"
      (if passed c then "certified" else "FAILED")
      c.stable c.passive c.flipped (fl c.worst_margin) (fl c.pre_margin)
      c.repair_iterations (fl c.fit_delta)

  let pp fmt c = Format.pp_print_string fmt (to_string c)
end

type mode = Off | Check | Repair

type options = {
  mode : mode;
  check_passivity : bool;
}

let default_options = { mode = Repair; check_passivity = true }

(* Passivity level [1 + gamma_margin], the same level
   [Rf.Passivity.check] tests; the margin keeps lossless boundary models
   passive. *)
let gamma_margin = 1e-6

(* Sampled margin sweep resolution. *)
let sweep_points = 128

(* Violations above this sampled margin are incurable. *)
let repair_limit = 0.25

(* Bounded repair retry loop length. *)
let max_repair = 8

(* Modal-decomposition trust threshold for pole reflection. *)
let max_reflect_residual = 1e-3

let breakdown ?condition message =
  Mfti_error.raise_error
    (Mfti_error.Numerical_breakdown
       { context = "certify"; message; condition })

(* ---- sweep grid ------------------------------------------------------ *)

let base_grid freqs =
  let usable =
    Array.to_list freqs
    |> List.filter (fun f -> Float.is_finite f && f >= 0.)
    |> List.sort_uniq compare
  in
  match usable with
  | [] ->
    (* no data grid (synthetic model): decade sweep over the RF band *)
    List.init (Stdlib.max 2 sweep_points) (fun i ->
        let t = float_of_int i /. float_of_int (sweep_points - 1) in
        10. ** (12. *. t))
  | fs ->
    let n = List.length fs in
    if n <= sweep_points then fs
    else
      let arr = Array.of_list fs in
      let stride = float_of_int (n - 1) /. float_of_int (sweep_points - 1) in
      List.init sweep_points (fun i ->
          arr.(int_of_float (Float.round (float_of_int i *. stride))))
      |> List.sort_uniq compare

(* Refine around the Hamiltonian test's crossing frequencies: the sampled
   margin must see the interior of each violation band, not just straddle
   it, or the repair scale factor underestimates the defect. *)
let refine grid crossings =
  let extra =
    List.concat_map
      (fun c -> if c > 0. then [ 0.97 *. c; c; 1.03 *. c ] else [ c ])
      crossings
  in
  let mids =
    let rec pairs = function
      | a :: (b :: _ as rest) ->
        (if a > 0. && b > 0. then [ sqrt (a *. b) ] else []) @ pairs rest
      | _ -> []
    in
    pairs (List.sort compare crossings)
  in
  List.sort_uniq compare (grid @ extra @ mids) |> Array.of_list

(* ---- measurements ---------------------------------------------------- *)

(* The exact Hamiltonian test; an index > 1 descriptor degrades to the
   sampled sweep alone (recorded, not fatal). *)
let hamiltonian sys =
  match Rf.Passivity.check sys with
  | v -> Some v
  | exception Invalid_argument _ ->
    Diag.record ~site:"certify.sweep_only"
      "index > 1 descriptor: Hamiltonian test unavailable, sampled sweep only";
    None

let crossings_of = function
  | Some (Rf.Passivity.Violations fs) -> fs
  | _ -> []

(* Sampled worst margin [max (sigma_max S(jw) - 1)] over the refined
   grid, floored by the feedthrough margin (the w = inf sample).  The
   "certify.passivity_violation" fault forces an incurable violation. *)
let sampled_margin grid sys verdict =
  let m =
    Rf.Passivity.max_violation sys ~freqs:(refine grid (crossings_of verdict))
  in
  let m = Stdlib.max m (Svd.norm2 sys.Descriptor.d -. 1.) in
  if Fault.armed "certify.passivity_violation" then
    1. +. 4. *. repair_limit
  else m

let passivity_ok verdict margin =
  (match verdict with
   | Some Rf.Passivity.Passive | None -> true
   | Some _ -> false)
  && margin <= gamma_margin

(* Relative RMS transfer-function change over the grid — the price the
   repair paid in fit accuracy. *)
let fit_delta grid before after =
  let grid = Array.of_list grid in
  let num = ref 0. and den = ref 0. in
  Array.iter2
    (fun h0 h1 ->
      let d = Cmat.norm_fro (Cmat.sub h1 h0) in
      let n0 = Cmat.norm_fro h0 in
      num := !num +. (d *. d);
      den := !den +. (n0 *. n0))
    (Descriptor.eval_grid before grid)
    (Descriptor.eval_grid after grid);
  if !den > 0. then sqrt (!num /. !den) else sqrt !num

(* ---- stability ------------------------------------------------------- *)

let stable_now sys =
  Poles.is_stable sys && not (Fault.armed "certify.unstable")

(* ---- the pipeline ---------------------------------------------------- *)

let check_only opts grid sys =
  let stable = stable_now sys in
  let passive, margin =
    if not opts.check_passivity then (true, nan)
    else
      let verdict = hamiltonian sys in
      let margin = sampled_margin grid sys verdict in
      (stable && passivity_ok verdict margin, margin)
  in
  { Certificate.stable; passive; flipped = 0; worst_margin = margin;
    pre_margin = margin; repair_iterations = 0; fit_delta = 0. }

let repair opts grid sys =
  (* stage 1: stability *)
  let sys', flipped =
    if stable_now sys then (sys, 0)
    else begin
      let r =
        Stabilize.reflect ~max_residual:max_reflect_residual sys
      in
      if not (stable_now r.Stabilize.model) then
        breakdown
          "model remains unstable after pole reflection \
           (site certify.unstable)";
      (r.Stabilize.model, r.Stabilize.flipped)
    end
  in
  (* stage 2+3: passivity, with bounded perturbative repair *)
  if not opts.check_passivity then
    ( sys',
      { Certificate.stable = true; passive = true; flipped;
        worst_margin = nan; pre_margin = nan; repair_iterations = 0;
        fit_delta =
          (if flipped = 0 then 0. else fit_delta grid sys sys') } )
  else begin
    let verdict0 = hamiltonian sys' in
    let pre_margin = sampled_margin grid sys' verdict0 in
    let cur = ref sys' in
    let iterations = ref 0 in
    let margin = ref pre_margin in
    let verdict = ref verdict0 in
    let ok = ref (passivity_ok !verdict !margin
                  && not (Fault.armed "certify.repair_stall")) in
    while (not !ok) && !iterations < max_repair do
      if !margin > repair_limit then
        breakdown ~condition:!margin
          (Printf.sprintf
             "passivity violation %.3g exceeds the perturbative repair \
              limit %.3g: incurable (site certify.passivity_violation)"
             !margin repair_limit);
      let s = !cur in
      let sd = Svd.norm2 s.Descriptor.d in
      let repaired =
        match !verdict with
        | Some (Rf.Passivity.Feedthrough_violation _) when sd > 0. ->
          (* violated only at w = inf: contracting D alone suffices *)
          Descriptor.create ~e:s.Descriptor.e ~a:s.Descriptor.a
            ~b:s.Descriptor.b ~c:s.Descriptor.c
            ~d:(Cmat.scale_float ((1. -. gamma_margin) /. sd)
                  s.Descriptor.d)
        | _ ->
          (* finite-frequency violation: contract the whole transfer
             function toward the bounded-real boundary *)
          let k = (1. -. gamma_margin) /. (1. +. Stdlib.max !margin 0.) in
          Descriptor.create ~e:s.Descriptor.e ~a:s.Descriptor.a
            ~b:s.Descriptor.b
            ~c:(Cmat.scale_float k s.Descriptor.c)
            ~d:(Cmat.scale_float k s.Descriptor.d)
      in
      cur := repaired;
      incr iterations;
      verdict := hamiltonian repaired;
      margin := sampled_margin grid repaired !verdict;
      ok := passivity_ok !verdict !margin
            && not (Fault.armed "certify.repair_stall")
    done;
    if not !ok then begin
      if !margin > repair_limit then
        breakdown ~condition:!margin
          (Printf.sprintf
             "passivity violation %.3g exceeds the perturbative repair \
              limit %.3g: incurable (site certify.passivity_violation)"
             !margin repair_limit);
      Mfti_error.raise_error
        (Mfti_error.Non_convergence
           { context = "certify";
             achieved = !margin;
             target = gamma_margin;
             iterations = !iterations })
    end;
    let touched = flipped > 0 || !iterations > 0 in
    ( !cur,
      { Certificate.stable = true; passive = true; flipped;
        worst_margin = !margin; pre_margin; repair_iterations = !iterations;
        fit_delta = (if touched then fit_delta grid sys !cur else 0.) } )
  end

let run ?(options = default_options) ~freqs sys =
  match options.mode with
  | Off -> Ok (sys, None)
  | Check ->
    Mfti_error.guard ~context:"certify" (fun () ->
        let grid = base_grid freqs in
        (sys, Some (check_only options grid sys)))
  | Repair ->
    Mfti_error.guard ~context:"certify" (fun () ->
        let grid = base_grid freqs in
        let sys', cert = repair options grid sys in
        (sys', Some cert))
