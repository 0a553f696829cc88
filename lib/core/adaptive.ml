open Linalg
open Statespace

type options = {
  surrogate : Engine.options;
  count : int;
}

let default_options =
  { surrogate = { Engine.default_options with certify = Certify.Off };
    count = 8 }

(* Candidate grid size when none is supplied, and the minimum spacing in
   decades between two suggestions and between a suggestion and an
   existing sample. *)
let grid = 64
let min_gap = 0.02

type score = {
  freq : float;
  disagreement : float;
  residual : float;
  score : float;
}

let context = "adaptive"

let invalid message =
  Mfti_error.raise_error (Mfti_error.Validation { context; message })

let tiny = 1e-300

(* Interleave by sample pair: pairs at even positions feed half A, odd
   positions half B.  Splitting whole pairs keeps each half a valid
   right/left tangential stream with an even sample count. *)
let halves samples =
  let npairs = Array.length samples / 2 in
  let a = ref [] and b = ref [] in
  for i = 0 to npairs - 1 do
    let dst = if i land 1 = 0 then a else b in
    dst := samples.((2 * i) + 1) :: samples.(2 * i) :: !dst
  done;
  (Array.of_list (List.rev !a), Array.of_list (List.rev !b))

(* Log-frequency linear interpolation of the measured responses onto
   [f]: the local data trend the surrogate consensus is scored against.
   Outside the sampled band the nearest sample is used as-is. *)
let interp_data sorted f =
  let n = Array.length sorted in
  let lo = sorted.(0) and hi = sorted.(n - 1) in
  if f <= lo.Sampling.freq then lo.Sampling.s
  else if f >= hi.Sampling.freq then hi.Sampling.s
  else begin
    let i = ref 0 in
    while sorted.(!i + 1).Sampling.freq < f do incr i done;
    let a = sorted.(!i) and b = sorted.(!i + 1) in
    let t =
      (log f -. log a.Sampling.freq)
      /. (log b.Sampling.freq -. log a.Sampling.freq)
    in
    Cmat.add (Cmat.scale_float (1. -. t) a.Sampling.s)
      (Cmat.scale_float t b.Sampling.s)
  end

let suggest ?(options = default_options) ?candidates samples =
  Mfti_error.guard ~context (fun () ->
      if options.count < 1 then invalid "count must be >= 1";
      if Array.length samples < 8 then
        invalid
          (Printf.sprintf
             "need at least 8 samples to cross-validate (got %d)"
             (Array.length samples));
      let sorted = Array.copy samples in
      Array.sort
        (fun a b -> compare a.Sampling.freq b.Sampling.freq)
        sorted;
      let f_lo = sorted.(0).Sampling.freq in
      let f_hi = sorted.(Array.length sorted - 1).Sampling.freq in
      let candidates =
        match candidates with
        | Some c ->
          if Array.length c = 0 then invalid "empty candidate grid";
          Array.iter
            (fun f ->
              if not (Float.is_finite f && f > 0.) then
                invalid
                  (Printf.sprintf "candidate %g must be finite and positive" f))
            c;
          c
        | None -> Sampling.logspace f_lo f_hi grid
      in
      (* drop candidates sitting on top of an existing sample *)
      let gap_ok f g = Float.abs (log10 f -. log10 g) >= min_gap in
      let fresh =
        Array.to_list candidates
        |> List.filter (fun f ->
               Array.for_all (fun s -> gap_ok f s.Sampling.freq) sorted)
      in
      if fresh = [] then
        invalid "every candidate is within min_gap of an existing sample";
      let sa, sb = halves samples in
      let strategy = Engine.Direct in
      let surrogate =
        { options.surrogate with certify = Certify.Off }
      in
      let fit_half which half =
        match Engine.fit_result ~options:surrogate ~strategy half with
        | Ok f -> f.Engine.model
        | Result.Error e ->
          Mfti_error.raise_error
            (Mfti_error.Numerical_breakdown
               { context;
                 message =
                   Printf.sprintf "surrogate %s failed: %s" which
                     (Mfti_error.to_string e);
                 condition = None })
      in
      let ma = fit_half "A" sa and mb = fit_half "B" sb in
      let scored =
        List.map
          (fun f ->
            let ha = Statespace.Descriptor.eval_freq ma f in
            let hb = Statespace.Descriptor.eval_freq mb f in
            let scale =
              0.5 *. (Cmat.norm_fro ha +. Cmat.norm_fro hb)
            in
            let disagreement =
              Cmat.norm_fro (Cmat.sub ha hb) /. Stdlib.max scale tiny
            in
            let hd = interp_data sorted f in
            let consensus =
              Cmat.scale_float 0.5 (Cmat.add ha hb)
            in
            let residual =
              Cmat.norm_fro (Cmat.sub consensus hd)
              /. Stdlib.max (Cmat.norm_fro hd) tiny
            in
            { freq = f; disagreement; residual;
              score = disagreement +. residual })
          fresh
      in
      (* best-first, with a minimum log spacing between picks so one
         sharp feature cannot absorb the whole budget *)
      let ranked =
        List.stable_sort (fun a b -> compare b.score a.score) scored
      in
      let picked = ref [] in
      List.iter
        (fun s ->
          if List.length !picked < options.count
             && List.for_all (fun p -> gap_ok s.freq p.freq) !picked
          then picked := s :: !picked)
        ranked;
      List.rev !picked)
