open Linalg

(* ------------------------------------------------------------------ *)
(* Options *)

type options = {
  weight : Tangential.weight;
  directions : Direction.kind;
  rank_rule : Svd_reduce.rank_rule;
  batch : int;
  threshold : float;
  max_iterations : int;
  divergence_factor : float;
  probe : int option;
  certify : Certify.mode;
}

let default_options =
  { weight = Tangential.Full;
    directions = Direction.Orthonormal 0;
    rank_rule = Svd_reduce.default_rank_rule;
    batch = 8;
    threshold = 1e-3;
    max_iterations = 64;
    divergence_factor = 1e3;
    probe = None;
    certify = Certify.Off }

let default_recursive_options =
  { default_options with weight = Tangential.Uniform 2 }

type assembly = Batch | Incremental
type strategy = Direct | Vector | Recursive of assembly
type stage = Ingested | Assembled | Realified | Reduced | Certified

let context_of_strategy = function
  | Direct -> "algorithm1"
  | Vector -> "vfti"
  | Recursive _ -> "algorithm2"

(* ------------------------------------------------------------------ *)
(* Downstream stages: realify -> reduce -> certify *)

(* The stages after assembly and their cached results.  One-shot fits,
   the Algorithm 2 loop and sessions all run them through the functions
   below, so a session's finalize is [run ~strategy:Direct] on the same
   pencil by construction. *)
type downstream = {
  mutable realified : Loewner.t option;
  mutable reduction : Svd_reduce.result option;
  mutable certified :
    (Statespace.Descriptor.t * Certify.Certificate.t option) option;
  mutable timings : (string * float) list;
}

let downstream () =
  { realified = None; reduction = None; certified = None; timings = [] }

(* Accumulate wall time per stage name; first hit fixes the display
   order. *)
let timed ds name f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let dt = Unix.gettimeofday () -. t0 in
  (if List.mem_assoc name ds.timings then
     ds.timings <-
       List.map
         (fun (n, v) -> if String.equal n name then (n, v +. dt) else (n, v))
         ds.timings
   else ds.timings <- ds.timings @ [ (name, dt) ]);
  x

(* The pencil changed: every cached stage is stale. *)
let invalidate ds =
  ds.realified <- None;
  ds.reduction <- None;
  ds.certified <- None

(* Cached stages, outermost first. *)
let cached ds =
  (if ds.certified <> None then [ Certified ] else [])
  @ (if ds.reduction <> None then [ Reduced ] else [])
  @ if ds.realified <> None then [ Realified ] else []

let stage_of ds ~assembled =
  match cached ds with
  | s :: _ -> s
  | [] -> if assembled then Assembled else Ingested

(* Each stage runs unless cached, after the stages before it; [pencil]
   yields the assembled pencil.  Every pencil the engine builds pairs
   each sample with its conjugate over real directions, so it can
   always be realified (Lemma 3.2), and the reduce of the realified
   pencil gives an exactly real model. *)
let check_finite ~context p =
  match Loewner.check_finite ~context p with
  | Ok () -> ()
  | Result.Error e -> Mfti_error.raise_error e

let realify_stage ~context ds pencil =
  if ds.realified = None then begin
    let p = pencil () in
    check_finite ~context p;
    ds.realified <- Some (timed ds "realify" (fun () -> Realify.apply p))
  end

let reduce_stage ~context ds o pencil =
  if ds.reduction = None then begin
    realify_stage ~context ds pencil;
    ds.reduction <-
      Some
        (timed ds "reduce" (fun () ->
             Svd_reduce.reduce ~rank_rule:o.rank_rule
               (Option.get ds.realified)))
  end

(* Certify the cached reduction against [freqs]; the reduce stage must
   have run.  With [Off] the model passes through uncertified. *)
let certify_stage ds o ~freqs =
  if ds.certified = None then begin
    let model = (Option.get ds.reduction).Svd_reduce.model in
    ds.certified <-
      Some
        (match o.certify with
         | Certify.Off -> (model, None)
         | mode ->
           let copts = { Certify.default_options with mode } in
           (match
              timed ds "certify" (fun () ->
                  Certify.run ~options:copts ~freqs model)
            with
            | Ok pair -> pair
            | Result.Error e -> Mfti_error.raise_error e))
  end

(* The certified model when certification ran, else the reduced one. *)
let current_model ds =
  match ds.certified with
  | Some pair -> pair
  | None -> ((Option.get ds.reduction).Svd_reduce.model, None)

(* ------------------------------------------------------------------ *)
(* State *)

type state = {
  options : options;
  strategy : strategy;
  context : string;
  dataset : Dataset.t;
  data : Tangential.t;
  diagnostics : Diag.t;
  down : downstream;
  mutable pencil : Loewner.t option;
  mutable selected_units : int;
  mutable total_units : int;
  mutable iterations : int;
  mutable history : float array;
}

let validate_options ~strategy o =
  (match o.rank_rule with
   | Svd_reduce.Tol tol when not (tol > 0. && tol < 1.) ->
     invalid_arg
       (Printf.sprintf "Engine: rank tolerance must be in (0, 1) (got %g)" tol)
   | Svd_reduce.Fixed k when k < 1 ->
     invalid_arg (Printf.sprintf "Engine: fixed rank must be >= 1 (got %d)" k)
   | _ -> ());
  (match strategy with
   | Recursive _ ->
     if o.batch < 1 then invalid_arg "Engine: batch must be >= 1";
     if not (o.threshold >= 0.) then
       invalid_arg
         (Printf.sprintf "Engine: threshold must be >= 0 (got %g)" o.threshold);
     if o.max_iterations < 1 then
       invalid_arg "Engine: max_iterations must be >= 1";
     if not (o.divergence_factor > 1.) then
       invalid_arg "Engine: divergence_factor must be > 1"
   | Direct | Vector -> ());
  match o.probe with
  | Some n when n < 1 -> invalid_arg "Engine: probe must be >= 1"
  | _ -> ()

let ingest ?(options = default_options) ?(strategy = Direct) dataset =
  let context = context_of_strategy strategy in
  let diagnostics = Diag.create () in
  Diag.using diagnostics (fun () ->
      let dataset = Dataset.fault_corrupt dataset in
      match Dataset.validate dataset with
      | Result.Error e -> Result.Error e
      | Ok () ->
        Mfti_error.guard ~context (fun () ->
            validate_options ~strategy options;
            let weight =
              match strategy with
              | Vector -> Tangential.Uniform 1
              | Direct | Recursive _ -> options.weight
            in
            let down = downstream () in
            let data =
              timed down "ingest" (fun () ->
                  Tangential.build ~directions:options.directions ~weight
                    (Dataset.fit_samples dataset))
            in
            { options; strategy; context; dataset; data; diagnostics; down;
              pencil = None; selected_units = 0; total_units = 0;
              iterations = 0; history = [||] }))

(* ------------------------------------------------------------------ *)
(* Single-pass stages (Direct / Vector / Recursive Batch full pencil) *)

let assemble_raw st =
  match st.pencil with
  | Some _ -> ()
  | None ->
    (match st.strategy with
     | Recursive Incremental ->
       (* the recursion grows its own builder; there is no full pencil *)
       ()
     | Direct | Vector | Recursive Batch ->
       st.pencil <-
         Some (timed st.down "assemble" (fun () -> Loewner.build st.data)))

let full_pencil st () =
  assemble_raw st;
  Option.get st.pencil

let realify_raw st =
  match st.strategy with
  | Recursive _ -> ()   (* sub-pencils are realified inside the loop *)
  | Direct | Vector -> realify_stage ~context:st.context st.down (full_pencil st)

(* ------------------------------------------------------------------ *)
(* Recursive selection (paper Algorithm 2) *)

(* One selectable unit: a width-1 tangential column with its conjugate
   partner, plus the aligned left row pair.  The four blocks are kept
   whole so the incremental assembly can append them directly. *)
type unit_data = {
  col_orig : int;
  col_conj : int;
  row_orig : int;
  row_conj : int;
  right_o : Tangential.right_block;
  right_c : Tangential.right_block;
  left_o : Tangential.left_block;
  left_c : Tangential.left_block;
  norm_u : float;   (* |w| + |v| for normalization *)
}

let block_offsets sizes =
  let off = Array.make (Array.length sizes) 0 in
  for i = 1 to Array.length sizes - 1 do
    off.(i) <- off.(i - 1) + sizes.(i - 1)
  done;
  off

let make_units (data : Tangential.t) =
  let rs = Tangential.right_sizes data and ls = Tangential.left_sizes data in
  let npairs = Array.length rs / 2 in
  if Array.length ls <> Array.length rs then
    invalid_arg "Engine: left/right block counts differ";
  let roff = block_offsets rs and loff = block_offsets ls in
  let units = ref [] in
  for g = 0 to npairs - 1 do
    let t_r = rs.(2 * g) and t_l = ls.(2 * g) in
    if t_r <> t_l then
      invalid_arg "Engine: left and right widths must match per block pair";
    let rb = data.Tangential.right.(2 * g) in
    let rbc = data.Tangential.right.((2 * g) + 1) in
    let lb = data.Tangential.left.(2 * g) in
    let lbc = data.Tangential.left.((2 * g) + 1) in
    for j = 0 to t_r - 1 do
      let right_o =
        { Tangential.lambda = rb.Tangential.lambda;
          r = Cmat.col rb.Tangential.r j;
          w = Cmat.col rb.Tangential.w j }
      in
      let right_c =
        { Tangential.lambda = rbc.Tangential.lambda;
          r = Cmat.col rbc.Tangential.r j;
          w = Cmat.col rbc.Tangential.w j }
      in
      let left_o =
        { Tangential.mu = lb.Tangential.mu;
          l = Cmat.row lb.Tangential.l j;
          v = Cmat.row lb.Tangential.v j }
      in
      let left_c =
        { Tangential.mu = lbc.Tangential.mu;
          l = Cmat.row lbc.Tangential.l j;
          v = Cmat.row lbc.Tangential.v j }
      in
      units :=
        { col_orig = roff.(2 * g) + j;
          col_conj = roff.((2 * g) + 1) + j;
          row_orig = loff.(2 * g) + j;
          row_conj = loff.((2 * g) + 1) + j;
          right_o; right_c; left_o; left_c;
          norm_u =
            Cmat.norm_fro right_o.Tangential.w
            +. Cmat.norm_fro left_o.Tangential.v }
        :: !units
    done
  done;
  Array.of_list (List.rev !units)

(* Strided initial visit order: [0, k0, 2k0, ..., 1, k0+1, ...]. *)
let strided_order n k0 =
  let order = Array.make n 0 in
  let pos = ref 0 in
  for r = 0 to k0 - 1 do
    let i = ref r in
    while !i < n do
      order.(!pos) <- !i;
      incr pos;
      i := !i + k0
    done
  done;
  order

let sub_pencil (pencil : Loewner.t) units selected =
  let n = List.length selected in
  let cols = Array.make (2 * n) 0 and rows = Array.make (2 * n) 0 in
  List.iteri
    (fun i u ->
      cols.(2 * i) <- units.(u).col_orig;
      cols.((2 * i) + 1) <- units.(u).col_conj;
      rows.(2 * i) <- units.(u).row_orig;
      rows.((2 * i) + 1) <- units.(u).row_conj)
    selected;
  let pick m = Cmat.select_rows (Cmat.select_cols m cols) rows in
  { Loewner.ll = pick pencil.Loewner.ll;
    sll = pick pencil.Loewner.sll;
    w = Cmat.select_cols pencil.Loewner.w cols;
    v = Cmat.select_rows pencil.Loewner.v rows;
    r = Cmat.select_cols pencil.Loewner.r cols;
    l = Cmat.select_rows pencil.Loewner.l rows;
    lambda = Array.map (fun c -> pencil.Loewner.lambda.(c)) cols;
    mu = Array.map (fun r -> pencil.Loewner.mu.(r)) rows;
    right_sizes = Array.make (2 * n) 1;
    left_sizes = Array.make (2 * n) 1 }

let unit_residual model u =
  let hr = Statespace.Descriptor.eval model u.right_o.Tangential.lambda in
  let right =
    Cmat.norm_fro
      (Cmat.sub (Cmat.mul hr u.right_o.Tangential.r) u.right_o.Tangential.w)
  in
  let hl = Statespace.Descriptor.eval model u.left_o.Tangential.mu in
  let left =
    Cmat.norm_fro
      (Cmat.sub (Cmat.mul u.left_o.Tangential.l hl) u.left_o.Tangential.v)
  in
  (right +. left) /. Stdlib.max u.norm_u 1e-300

let recurse st asm =
  let o = st.options in
  (match asm with
   | Batch -> check_finite ~context:st.context (Option.get st.pencil)
   | Incremental -> ());
  let units = make_units st.data in
  let total = Array.length units in
  let bld =
    match asm with
    | Incremental ->
      Some
        (Loewner.builder
           ~right_capacity:(2 * Stdlib.min total (2 * o.batch))
           ~left_capacity:(2 * Stdlib.min total (2 * o.batch))
           ~inputs:st.data.Tangential.inputs
           ~outputs:st.data.Tangential.outputs ())
    | Batch -> None
  in
  let remaining = ref (Array.to_list (strided_order total o.batch)) in
  let selected = ref [] in
  let history = ref [] in
  (* Best model over the recursion, by mean held-out residual: the
     divergence and iteration guards return it instead of the (worse)
     model of the iteration that tripped them. *)
  let best = ref None in
  let take n lst =
    let rec go n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> go (n - 1) (x :: acc) rest
    in
    go n [] lst
  in
  let best_or current =
    match !best with
    | Some (_, bm, br, bp, bi) -> (bm, br, bp, bi)
    | None -> current
  in
  let assemble_sub batch =
    match (asm, bld) with
    | Incremental, Some b ->
      (* O(selected * batch) new divided differences instead of the
         O(selected^2) re-selection the batch arm pays each round. *)
      timed st.down "assemble" (fun () ->
          List.iter
            (fun u ->
              let ud = units.(u) in
              Loewner.append_right b ud.right_o;
              Loewner.append_right b ud.right_c;
              Loewner.append_left b ud.left_o;
              Loewner.append_left b ud.left_c)
            batch;
          Loewner.snapshot b)
    | Batch, _ ->
      timed st.down "assemble" (fun () ->
          sub_pencil (Option.get st.pencil) units !selected)
    | Incremental, None -> assert false
  in
  let rec loop iter =
    let batch, rest = take o.batch !remaining in
    selected := !selected @ batch;
    remaining := rest;
    invalidate st.down;
    reduce_stage ~context:st.context st.down o (fun () -> assemble_sub batch);
    let subr = Option.get st.down.realified in
    let reduced = Option.get st.down.reduction in
    let model = reduced.Svd_reduce.model in
    match !remaining with
    | [] ->
      history := Float.nan :: !history;
      (model, reduced, subr, iter)
    | rest ->
      (* With [probe = Some n] only a strided subsample of the held-out
         units is scored — the reorder then ranks the probed units and
         keeps the rest in place.  [None] scores everything (exact
         Algorithm 2). *)
      let probed, unprobed =
        match o.probe with
        | Some n when List.length rest > n ->
          let len = List.length rest in
          let stride = (len + n - 1) / n in
          ( List.filteri (fun i _ -> i mod stride = 0) rest,
            List.filteri (fun i _ -> i mod stride <> 0) rest )
        | _ -> (rest, [])
      in
      let errs =
        timed st.down "evaluate" (fun () ->
            List.map (fun u -> (u, unit_residual model units.(u))) probed)
      in
      let mean =
        List.fold_left (fun acc (_, e) -> acc +. e) 0. errs
        /. float_of_int (List.length errs)
      in
      (* deterministic injection point for the recursion layer:
         residuals exploding across iterations *)
      let mean =
        if Fault.armed "algorithm2.diverge" then
          mean *. (10. ** float_of_int (10 * iter))
        else mean
      in
      history := mean :: !history;
      let improved =
        (not (Float.is_nan mean))
        && (match !best with
            | Some (m, _, _, _, _) -> mean < m
            | None -> true)
      in
      if improved then best := Some (mean, model, reduced, subr, iter);
      if mean <= o.threshold then (model, reduced, subr, iter)
      else begin
        let diverged =
          Float.is_nan mean
          || (match !best with
              | Some (bmean, _, _, _, _) ->
                mean > o.divergence_factor *. bmean
              | None -> false)
        in
        if diverged then begin
          Diag.record ~site:"algorithm2.divergence"
            (Printf.sprintf
               "held-out residual %.3g exploded past %g x best; returning \
                best-so-far model"
               mean o.divergence_factor);
          best_or (model, reduced, subr, iter)
        end
        else if iter >= o.max_iterations then begin
          Diag.record ~site:"algorithm2.max_iterations"
            (Printf.sprintf
               "threshold %.3g not reached after %d iterations (best \
                residual %.3g)"
               o.threshold iter
               (match !best with Some (m, _, _, _, _) -> m | None -> mean));
          best_or (model, reduced, subr, iter)
        end
        else begin
          (* Visit the worst-fitting held-out units next. *)
          let sorted = List.sort (fun (_, a) (_, b) -> compare b a) errs in
          remaining := List.map fst sorted @ unprobed;
          loop (iter + 1)
        end
      end
  in
  (* The loop caches each iteration's sub-pencil in [st.down]; a
     failure part-way must not leave one behind as the state's stage. *)
  let _model, reduced, subr, iterations =
    try loop 1 with e -> invalidate st.down; raise e
  in
  st.down.realified <- Some subr;
  st.down.reduction <- Some reduced;
  st.selected_units <- List.length !selected;
  st.total_units <- total;
  st.iterations <- iterations;
  st.history <- Array.of_list (List.rev !history)

let reduce_raw st =
  if st.down.reduction = None then
    match st.strategy with
    | Recursive asm ->
      (match asm with Batch -> assemble_raw st | Incremental -> ());
      recurse st asm
    | Direct | Vector ->
      reduce_stage ~context:st.context st.down st.options (full_pencil st);
      let width = Tangential.right_width st.data in
      st.selected_units <- width;
      st.total_units <- width;
      st.iterations <- 1;
      st.history <- [||]

let certify_raw st =
  reduce_raw st;
  certify_stage st.down st.options ~freqs:(Dataset.frequencies st.dataset)

(* ------------------------------------------------------------------ *)
(* Public stage wrappers *)

let staged st f =
  Diag.using st.diagnostics (fun () -> Mfti_error.guard ~context:st.context f)

let assemble st = staged st (fun () -> assemble_raw st)
let realify st = staged st (fun () -> realify_raw st)
let reduce st = staged st (fun () -> reduce_raw st)
let certify st = staged st (fun () -> certify_raw st)

let stage st = stage_of st.down ~assembled:(st.pencil <> None)

let tangential st = st.data
let dataset st = st.dataset
let pencil st = st.pencil
let reduction st = st.down.reduction
let diagnostics st = st.diagnostics
let timings st = st.down.timings

(* ------------------------------------------------------------------ *)
(* Unified fit record and model *)

type fit = {
  model : Statespace.Descriptor.t;
  rank : int;
  sigma : float array;
  data : Tangential.t;
  loewner : Loewner.t;
  selected_units : int;
  total_units : int;
  iterations : int;
  history : float array;
  certificate : Certify.Certificate.t option;
  diagnostics : Diag.t;
  timings : (string * float) list;
}

let fit_of_state st =
  let reduced = Option.get st.down.reduction in
  let model, certificate = current_model st.down in
  { model;
    rank = reduced.Svd_reduce.rank;
    sigma = reduced.Svd_reduce.sigma;
    data = st.data;
    loewner = Option.get st.down.realified;
    selected_units = st.selected_units;
    total_units = st.total_units;
    iterations = st.iterations;
    history = st.history;
    certificate;
    diagnostics = st.diagnostics;
    timings = st.down.timings }

module Model = struct
  type stats = {
    selected_units : int;
    total_units : int;
    iterations : int;
    history : float array;
  }

  type t = {
    descriptor : Statespace.Descriptor.t;
    rank : int;
    sigma : float array;
    stats : stats option;
    certificate : Certify.Certificate.t option;
    diagnostics : Diag.t;
    timings : (string * float) list;
  }

  let make ?(sigma = [||]) ?stats ?certificate ?diagnostics ?(timings = [])
      ~rank descriptor =
    let diagnostics =
      match diagnostics with Some d -> d | None -> Diag.create ()
    in
    { descriptor; rank; sigma; stats; certificate; diagnostics; timings }

  let of_fit f =
    { descriptor = f.model;
      rank = f.rank;
      sigma = f.sigma;
      stats =
        Some
          { selected_units = f.selected_units;
            total_units = f.total_units;
            iterations = f.iterations;
            history = f.history };
      certificate = f.certificate;
      diagnostics = f.diagnostics;
      timings = f.timings }

  let descriptor m = m.descriptor
  let rank m = m.rank
  let sigma m = m.sigma
  let stats m = m.stats
  let certificate m = m.certificate

  let certify ?options ~freqs m =
    match Certify.run ?options ~freqs m.descriptor with
    | Ok (descriptor, certificate) -> Ok { m with descriptor; certificate }
    | Result.Error e -> Result.Error e

  let diagnostics m = m.diagnostics
  let timings m = m.timings
  let order m = Statespace.Descriptor.order m.descriptor
  let inputs m = Statespace.Descriptor.inputs m.descriptor
  let outputs m = Statespace.Descriptor.outputs m.descriptor
  let eval m s = Statespace.Descriptor.eval m.descriptor s
  let eval_freq m f = Statespace.Descriptor.eval_freq m.descriptor f
  let poles m = Statespace.Poles.finite_poles m.descriptor
  let stable m = Statespace.Poles.is_stable m.descriptor
  let is_real m = Statespace.Descriptor.is_real m.descriptor
  let save path m = Statespace.Descriptor.save path m.descriptor
  let err m samples = Metrics.err m.descriptor samples
  let err_vector m samples = Metrics.err_vector m.descriptor samples
  let max_err m samples = Metrics.max_err m.descriptor samples
  let report ~name m samples = Metrics.report ~name m.descriptor samples
end

let model st =
  staged st (fun () ->
      certify_raw st;
      Model.of_fit (fit_of_state st))

(* ------------------------------------------------------------------ *)
(* One-shot drivers *)

let run ?options ?strategy dataset =
  match ingest ?options ?strategy dataset with
  | Result.Error e -> Result.Error e
  | Ok st ->
    staged st (fun () ->
        certify_raw st;
        fit_of_state st)

let run_exn ?options ?strategy dataset =
  match run ?options ?strategy dataset with
  | Ok f -> f
  | Result.Error e -> Mfti_error.raise_error e

let fit_result ?options ?strategy samples =
  run ?options ?strategy (Dataset.of_samples samples)

let fit ?options ?strategy samples =
  match fit_result ?options ?strategy samples with
  | Ok f -> f
  | Result.Error e -> Mfti_error.raise_error e

(* ------------------------------------------------------------------ *)
(* Streaming fit sessions *)

module Session = struct
  (* A session is the staged pipeline turned inside out: instead of one
     ingest fixing the sample set forever, samples stream in and the
     incremental Loewner builder absorbs each completed right/left pair
     as one O(k) append.  The assemble stage therefore never reruns;
     an append only invalidates the downstream realify/reduce/certify
     caches, and a refit replays exactly those.

     Bit-identity with the batch path rests on two facts: direction
     streams depend only on (seed, block index, side), so the [k]-th
     streamed pair produces exactly the blocks [Tangential.build] makes
     for position [k]; and every builder entry comes from the same
     fixed-order scalar formula regardless of append schedule, so the
     snapshot equals [Loewner.build] on the same data bitwise. *)

  type counters = {
    appended : int;    (** fit samples accepted over the session *)
    held_out : int;    (** hold-out samples accepted *)
    refits : int;      (** reduce-stage reruns *)
    suggests : int;    (** adaptive suggestions served (see {!record_suggest}) *)
  }

  type t = {
    s_options : options;
    s_inputs : int;
    s_outputs : int;
    s_right_width : int;
    s_left_width : int;
    s_diag : Diag.t;
    s_builder : Loewner.builder;
    s_freqs : (float, unit) Hashtbl.t;        (* fit + pending frequencies *)
    s_holdout_freqs : (float, unit) Hashtbl.t;
    mutable s_dataset : Dataset.t;            (* completed pairs + hold-out *)
    mutable s_pending : Statespace.Sampling.sample option;
    mutable s_blocks : int;                   (* completed pair count *)
    s_down : downstream;
    mutable s_finalized : bool;
    mutable s_invalidated : stage list;       (* dropped by the last append *)
    mutable s_appended : int;
    mutable s_held_out : int;
    mutable s_refits : int;
    mutable s_suggests : int;
  }

  let context = "session"

  let invalid message =
    Mfti_error.raise_error (Mfti_error.Validation { context; message })

  let guarded sess f =
    Diag.using sess.s_diag (fun () -> Mfti_error.guard ~context f)

  let open_ ?(options = default_options) ~inputs ~outputs () =
    Mfti_error.guard ~context (fun () ->
        validate_options ~strategy:Direct options;
        if inputs < 1 || outputs < 1 then
          invalid
            (Printf.sprintf "port dimensions must be positive (got %dx%d)"
               outputs inputs);
        let cap = Stdlib.min inputs outputs in
        let width =
          match options.weight with
          | Tangential.Full -> cap
          | Tangential.Uniform t ->
            if t < 1 || t > cap then
              invalid
                (Printf.sprintf "uniform width %d outside [1, %d]" t cap);
            t
          | Tangential.Per_sample _ ->
            invalid
              "Per_sample weights need the full sample count up front and \
               cannot drive a stream; use Full or Uniform"
        in
        { s_options = options;
          s_inputs = inputs;
          s_outputs = outputs;
          s_right_width = width;
          s_left_width = width;
          s_diag = Diag.create ();
          s_builder = Loewner.builder ~inputs ~outputs ();
          s_freqs = Hashtbl.create 64;
          s_holdout_freqs = Hashtbl.create 16;
          s_dataset = Dataset.of_samples [||];
          s_pending = None;
          s_blocks = 0;
          s_down = downstream ();
          s_finalized = false;
          s_invalidated = [];
          s_appended = 0;
          s_held_out = 0;
          s_refits = 0;
          s_suggests = 0 })

  let check_sample sess ~holdout (smp : Statespace.Sampling.sample) seen =
    let f = smp.Statespace.Sampling.freq in
    if not (Float.is_finite f && f > 0.) then
      invalid (Printf.sprintf "sample frequency %g must be finite and positive" f);
    let p = Cmat.rows smp.Statespace.Sampling.s in
    let m = Cmat.cols smp.Statespace.Sampling.s in
    if p <> sess.s_outputs || m <> sess.s_inputs then
      invalid
        (Printf.sprintf "sample is %dx%d, session is %dx%d" p m
           sess.s_outputs sess.s_inputs);
    for i = 0 to p - 1 do
      for j = 0 to m - 1 do
        let z = Cmat.get smp.Statespace.Sampling.s i j in
        if not (Float.is_finite z.Cx.re && Float.is_finite z.Cx.im) then
          invalid
            (Printf.sprintf "non-finite entry (%d,%d) in sample at %g Hz" i j f)
      done
    done;
    let table = if holdout then sess.s_holdout_freqs else sess.s_freqs in
    if Hashtbl.mem table f || List.mem f seen then
      invalid (Printf.sprintf "duplicate sample frequency %g" f);
    f :: seen

  (* Append a batch of samples.  All-or-nothing: the whole batch is
     vetted against the session (and itself) before any state changes,
     so a refused batch leaves the session exactly as it was. *)
  let append ?(holdout = false) sess samples =
    guarded sess (fun () ->
        if sess.s_finalized then
          invalid "session is finalized; open a new one to keep fitting";
        if Fault.armed "session.stale_append" then
          invalid
            "stale append: the session expired between suggest and append \
             (fault session.stale_append)";
        let seen = ref [] in
        Array.iter
          (fun smp -> seen := check_sample sess ~holdout smp !seen)
          samples;
        if holdout then begin
          Array.iter
            (fun (smp : Statespace.Sampling.sample) ->
              Hashtbl.replace sess.s_holdout_freqs smp.Statespace.Sampling.freq ())
            samples;
          sess.s_dataset <- Dataset.append_holdout samples sess.s_dataset;
          sess.s_held_out <- sess.s_held_out + Array.length samples;
          []
        end
        else begin
          let dropped =
            if Array.length samples = 0 then [] else cached sess.s_down
          in
          timed sess.s_down "assemble" (fun () ->
              Array.iter
                (fun (smp : Statespace.Sampling.sample) ->
                  Hashtbl.replace sess.s_freqs smp.Statespace.Sampling.freq ();
                  match sess.s_pending with
                  | None -> sess.s_pending <- Some smp
                  | Some sr ->
                    let (ro, rc), (lo, lc) =
                      Tangential.pair ~directions:sess.s_options.directions
                        ~block:sess.s_blocks
                        ~right_width:sess.s_right_width
                        ~left_width:sess.s_left_width sr smp
                    in
                    Loewner.append_right sess.s_builder ro;
                    Loewner.append_right sess.s_builder rc;
                    Loewner.append_left sess.s_builder lo;
                    Loewner.append_left sess.s_builder lc;
                    sess.s_dataset <-
                      Dataset.append_fit [| sr; smp |] sess.s_dataset;
                    sess.s_pending <- None;
                    sess.s_blocks <- sess.s_blocks + 1)
                samples);
          sess.s_appended <- sess.s_appended + Array.length samples;
          if Array.length samples > 0 then begin
            invalidate sess.s_down;
            sess.s_invalidated <- dropped
          end;
          dropped
        end)

  (* Downstream-only refit: snapshot the (already assembled) builder,
     then realify + reduce.  Never rebuilds divided differences. *)
  let reduce_raw sess =
    if sess.s_down.reduction = None then begin
      reduce_stage ~context sess.s_down sess.s_options (fun () ->
          if sess.s_blocks < 1 then
            invalid "no complete sample pair yet; append at least 2 samples";
          timed sess.s_down "snapshot" (fun () ->
              Loewner.snapshot sess.s_builder));
      sess.s_refits <- sess.s_refits + 1
    end

  let refit sess = guarded sess (fun () -> reduce_raw sess)

  let model_raw sess =
    reduce_raw sess;
    let reduced = Option.get sess.s_down.reduction in
    let descriptor, certificate = current_model sess.s_down in
    Model.make ~sigma:reduced.Svd_reduce.sigma ?certificate
      ~diagnostics:sess.s_diag ~timings:sess.s_down.timings
      ~rank:reduced.Svd_reduce.rank descriptor

  let model sess = guarded sess (fun () -> model_raw sess)

  (* Certify (per the session options) and close.  The result is
     bit-identical to [run ~strategy:Direct] on the same completed
     pairs: same tangential blocks, same pencil bits, same downstream
     stages on identical input. *)
  let finalize sess =
    guarded sess (fun () ->
        if sess.s_finalized then invalid "session already finalized";
        if Fault.armed "session.finalize_race" then
          invalid
            "finalize raced another finalize on this session \
             (fault session.finalize_race)";
        if sess.s_blocks < 1 then
          invalid "cannot finalize before the first complete sample pair";
        (match sess.s_pending with
         | Some smp ->
           Diag.record ~site:"session.trim_even"
             (Printf.sprintf
                "finalize with an unpaired trailing sample at %g Hz; dropped \
                 (tangential split needs an even count)"
                smp.Statespace.Sampling.freq)
         | None -> ());
        reduce_raw sess;
        certify_stage sess.s_down sess.s_options
          ~freqs:(Dataset.frequencies sess.s_dataset);
        sess.s_finalized <- true;
        model_raw sess)

  let stage sess = stage_of sess.s_down ~assembled:(sess.s_blocks > 0)

  let dataset sess = sess.s_dataset
  let fit_samples sess = Dataset.fit_samples sess.s_dataset
  let holdout_samples sess = Dataset.holdout_samples sess.s_dataset
  let options sess = sess.s_options
  let dims sess = (sess.s_outputs, sess.s_inputs)
  let size sess = Dataset.size sess.s_dataset
  let holdout_size sess = Dataset.holdout_size sess.s_dataset
  let pending sess = sess.s_pending <> None
  let finalized sess = sess.s_finalized
  let invalidated sess = sess.s_invalidated
  let diagnostics sess = sess.s_diag
  let timings sess = sess.s_down.timings
  let record_suggest sess = sess.s_suggests <- sess.s_suggests + 1

  let counters sess =
    { appended = sess.s_appended;
      held_out = sess.s_held_out;
      refits = sess.s_refits;
      suggests = sess.s_suggests }

  (* Hold-out error of the current model; [None] before the first pair
     or when no hold-out samples exist. *)
  let holdout_err sess =
    if sess.s_blocks < 1 || Dataset.holdout_size sess.s_dataset = 0 then
      Ok None
    else
      match model sess with
      | Ok m ->
        Ok (Some (Metrics.err (Model.descriptor m)
                    (Dataset.holdout_samples sess.s_dataset)))
      | Result.Error e -> Result.Error e
end
