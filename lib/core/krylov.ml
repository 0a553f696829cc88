open Linalg
open Statespace

(* Tangential rational Krylov pre-reduction: project the sparse MNA
   pencil (sC + G) onto the union of shifted-solve subspaces
   span{(sigma_i C + G)^{-1} B}, keeping the basis real so the reduced
   model goes through realify/certify unchanged.  One sparse LU per
   shift; the AMD ordering is computed once on the union pattern, and
   after the first shift each LU is a numeric-only refactorization on
   the same pivot sequence and pattern. *)

type system = {
  g : Sparse.Scsr.t;
  c : Sparse.Scsr.t;
  b : Cmat.t;
  l : Cmat.t;
}

let of_mna circuit =
  let g, c, b, l = Rf.Mna.sparse_system circuit in
  { g; c; b; l }

type options = {
  f_lo : float;
  f_hi : float;
  shifts : int;
  max_order : int;
  tol : float;
  holdout : int;
  z0 : float option;
}

let default_options =
  { f_lo = 1e4;
    f_hi = 1e10;
    shifts = 8;
    max_order = 240;
    tol = 1e-6;
    holdout = 9;
    z0 = None }

(* Shifts added per adaptive round, and adaptive rounds after the
   initial sweep. *)
let batch = 4
let max_rounds = 6

(* A basis candidate whose residual after re-orthogonalization falls
   below this fraction of its block norm deflates. *)
let deflation_tol = 1e-8

type reduction = {
  model : Engine.Model.t;
  order : int;
  shift_freqs : float array;
  history : float array;
  factorizations : int;
  timings : (string * float) list;
}

let context = "krylov"

let invalid message = Mfti_error.Validation { context; message }

let validate_options o =
  if not (Float.is_finite o.f_lo) || o.f_lo <= 0. then
    Error (invalid "f_lo must be positive and finite")
  else if not (Float.is_finite o.f_hi) || o.f_hi <= o.f_lo then
    Error (invalid "f_hi must exceed f_lo")
  else if o.shifts < 2 then Error (invalid "need at least 2 initial shifts")
  else if o.max_order < 2 then Error (invalid "max_order must be >= 2")
  else if not (o.tol > 0.) then Error (invalid "tol must be positive")
  else if o.holdout < 1 then Error (invalid "need at least 1 hold-out probe")
  else
    match o.z0 with
    | Some z0 when not (z0 > 0.) ->
      Error (invalid "z0 must be a positive reference impedance")
    | _ -> Ok ()

let validate_system sys =
  let n, nc = Sparse.Scsr.dims sys.g in
  let nc', nc'' = Sparse.Scsr.dims sys.c in
  let bn, _ = Cmat.dims sys.b in
  let _, ln = Cmat.dims sys.l in
  if n = 0 then Error (invalid "empty system")
  else if n <> nc || nc' <> n || nc'' <> n then
    Error (invalid "G and C must be square with matching dimension")
  else if bn <> n then Error (invalid "B row count must match the pencil")
  else if ln <> n then Error (invalid "L column count must match the pencil")
  else if
    not
      (Array.for_all (( = ) 0.) sys.g.Sparse.Scsr.im
       && Array.for_all (( = ) 0.) sys.c.Sparse.Scsr.im
       && Cmat.max_imag sys.b = 0.
       && Cmat.max_imag sys.l = 0.)
  then Error (invalid "the basis is real: G, C, B and L must be real")
  else Ok ()

(* ---- real column blocks ------------------------------------------- *)

(* [f lo hi] over the columns [j0, j1), one chunk per domain.  The
   vectorized kernels {!Rmat.dot_block} and {!Rmat.axpy_block} run on
   such column ranges of the growable blocks below, so the basis is
   orthogonalized and projected in place, and their per-entry
   reduction order never changes with the split. *)
let over_columns j0 j1 f =
  let nj = j1 - j0 in
  let dc = Parallel.domain_count () in
  Parallel.parallel_for ~chunk:(Stdlib.max 1 ((nj + dc - 1) / dc)) nj
    (fun lo hi -> f (j0 + lo) (j0 + hi))

(* [rows]-row real column-major block whose capacity grows
   geometrically: absorbing a shift writes its columns in place instead
   of copying every earlier column. *)
type block = { rows : int; mutable data : float array; mutable cols : int }

let block rows = { rows; data = [||]; cols = 0 }

let reserve b ~limit cols =
  let cap = Array.length b.data / Stdlib.max b.rows 1 in
  if cols > cap then begin
    let cap = Stdlib.max cols (Stdlib.min limit (2 * cap)) in
    let data = Array.make (b.rows * cap) 0. in
    Array.blit b.data 0 data 0 (b.rows * b.cols);
    b.data <- data
  end

let col_norm data rows j =
  let acc = ref 0. in
  for r = j * rows to ((j + 1) * rows) - 1 do
    acc := !acc +. (data.(r) *. data.(r))
  done;
  sqrt !acc

(* w(:, j0..j1) -= V(:, 0..upto) (V(:, 0..upto)^T w(:, j0..j1)), one
   classical Gram-Schmidt pass in dot and axpy form.  [coef] holds at
   least [upto * j1] entries. *)
let project_out v ~upto w ~j0 ~j1 coef =
  if upto > 0 then
    over_columns j0 j1 (fun lo hi ->
        Rmat.dot_block v.data w coef v.rows upto 0 upto lo hi;
        for k = lo * upto to (hi * upto) - 1 do
          coef.(k) <- -.coef.(k)
        done;
        Rmat.axpy_block v.data coef w v.rows upto 0 upto lo hi)

(* Extend the orthonormal basis [v] by the directions of [w] (an
   [n x b] column-major block, overwritten) that it does not already
   span:
   - block classical Gram-Schmidt against [v], twice;
   - per-column deflation relative to the pre-projection norms, capped
     at [room] survivors, each equilibrated to unit norm so the angle
     test below sees directions, not the norm disparity of nearly
     converged ones;
   - per-column Gram-Schmidt, twice, against [v] and the columns
     already accepted from this block; a column whose remaining norm
     clears [deflation_tol] is normalized and appended to [v] in place,
     the rest deflate.
   Returns how many columns were appended. *)
let extend_basis ~room ~limit v w =
  let n = v.rows in
  let b = Array.length w / n in
  let k = v.cols in
  let coef = Array.make ((k + b) * b) 0. in
  let norms0 = Array.init b (col_norm w n) in
  for _pass = 1 to 2 do
    project_out v ~upto:k w ~j0:0 ~j1:b coef
  done;
  let keep = ref [] in
  for j = b - 1 downto 0 do
    let nrm = col_norm w n j in
    if nrm > deflation_tol *. Float.max norms0.(j) 1e-300 && nrm > 0. then
      keep := (j, nrm) :: !keep
  done;
  let keep = List.filteri (fun i _ -> i < room) !keep in
  reserve v ~limit (k + List.length keep);
  List.iter
    (fun (j, nrm) ->
      let off = j * n in
      for r = off to off + n - 1 do
        w.(r) <- w.(r) /. nrm
      done;
      for _pass = 1 to 2 do
        project_out v ~upto:v.cols w ~j0:j ~j1:(j + 1) coef
      done;
      let nrm = col_norm w n j in
      if nrm > deflation_tol then begin
        let dst = v.cols * n in
        for r = 0 to n - 1 do
          v.data.(dst + r) <- w.(off + r) /. nrm
        done;
        v.cols <- v.cols + 1
      end)
    keep;
  v.cols - k

(* dst(:, j0..j1) = s * src(:, j0..j1); [s] is real (its imaginary
   part is zero, which [validate_system] checked). *)
let sparse_mul_into (s : Sparse.Scsr.t) src dst ~j0 ~j1 =
  let { Sparse.Scsr.rows = n; rowptr; colind; re; _ } = s in
  over_columns j0 j1 (fun lo hi ->
      for j = lo to hi - 1 do
        let off = j * n in
        for i = 0 to n - 1 do
          let acc = ref 0. in
          for p = rowptr.(i) to rowptr.(i + 1) - 1 do
            acc := !acc +. (re.(p) *. src.(off + colind.(p)))
          done;
          dst.(off + i) <- !acc
        done
      done)

(* ---- the reduction -------------------------------------------------- *)

let pencil_scale f = Cx.jw (2. *. Float.pi *. f)

(* Threshold of the probe sweep's full factorizations: keep the AMD
   order's diagonal pivot while it is at least this fraction of its
   column's largest candidate ({!Sparse.Slu.factorize} [~diagonal]).
   Partial pivoting at the top probe of an RL plane picks pivots that
   stop being safe lower in the band, and the refactor fallback there
   lands on a pattern up to ~23x the fill (24x24 plane, 1 MHz-3 GHz:
   19k -> 439k entries), which makes every later probe ~100x dearer.
   With 1e-2 the probes stepped down 1e4-1e10 Hz on 12x12-24x24 RL
   and resistive planes with at most one fallback, never slower than
   partial pivoting; 1e-1 fell back where partial pivoting did not.
   It leaves a factor of 10 before {!Sparse.Slu.refactor}'s own 1e-3
   pivot check trips.  The shift chain keeps partial pivoting, so the
   basis and the model keep their bits. *)
let probe_diagonal = 1e-2

(* Lane B of the first round: the exact samples L X at [freqs], highest
   first, each factored on the pivots of the probe above it through one
   {!Sparse.Slu.sweep}.  The pencil and the sweep's buffers are
   allocated here, and [lh] (L^H) by the caller, all on the calling
   domain; the returned closure may run on another domain, where it
   allocates little beyond its p x m samples, so that domain's malloc
   arena stays small.  It writes nothing shared: it returns the
   samples, the seconds spent factoring and solving, and the Diag
   events it recorded, for the caller to account after the join. *)
let probe_lane sys ~perm ~lh freqs =
  match freqs with
  | [] -> fun () -> ((Ok [], 0.), [])
  | top :: _ ->
    let pencil =
      Sparse.Scsr.scale_add ~alpha:(pencil_scale top) sys.c ~beta:Cx.one sys.g
    in
    let sweep =
      Sparse.Slu.sweep ~perm ~diagonal:probe_diagonal ~nrhs:(Cmat.cols sys.b)
        pencil
    in
    fun () ->
      Diag.hold (fun () ->
        let seconds = ref 0. in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | f :: rest ->
            Sparse.Scsr.scale_add_into pencil ~alpha:(pencil_scale f) sys.c
              ~beta:Cx.one sys.g;
            let t0 = Unix.gettimeofday () in
            let x = Sparse.Slu.sweep_solve sweep pencil sys.b in
            seconds := !seconds +. (Unix.gettimeofday () -. t0);
            (match x with
             | Error _ as e -> e
             | Ok x -> go ((f, Cmat.mul_cn lh x) :: acc) rest)
        in
        let samples = go [] freqs in
        (samples, !seconds))

let reduce ?(options = default_options) sys =
  match
    match validate_options options with
    | Error _ as e -> e
    | Ok () -> validate_system sys
  with
  | Error e -> Error e
  | Ok () ->
    let o = options in
    let n = Sparse.Scsr.rows sys.g in
    let m = Cmat.cols sys.b in
    let p = Cmat.rows sys.l in
    let max_order = Stdlib.min o.max_order n in
    let timings = Hashtbl.create 8 in
    let charge key dt =
      Hashtbl.replace timings key
        (dt +. Option.value ~default:0. (Hashtbl.find_opt timings key))
    in
    let timed key f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      charge key (Unix.gettimeofday () -. t0);
      r
    in
    let factorizations = ref 0 in
    (* One AMD ordering for the whole sweep: scale_add keeps the union
       pattern stable across (alpha, beta), so the permutation computed
       on C + G is valid for every shifted pencil. *)
    let chain_pencil =
      Sparse.Scsr.scale_add ~alpha:Cx.one sys.c ~beta:Cx.one sys.g
    in
    let perm = timed "ordering" (fun () -> Sparse.Ordering.amd chain_pencil) in
    (* x = (j 2 pi f C + G)^{-1} B, through one sweep whose buffers every
       shift reuses: the first shift gets a full sparse LU on the shared
       AMD order; every later one is a numeric-only refactorization on
       that pivot sequence and pattern, which falls back to (and
       rebases on) a full LU when a reused pivot degrades.  [x] lives
       until the next call. *)
    let chain = Sparse.Slu.sweep ~perm ~nrhs:m chain_pencil in
    let solve_at f =
      Sparse.Scsr.scale_add_into chain_pencil ~alpha:(pencil_scale f) sys.c
        ~beta:Cx.one sys.g;
      match
        timed "factor" (fun () ->
          Sparse.Slu.sweep_solve chain chain_pencil sys.b)
      with
      | Error _ as e -> e
      | Ok x ->
        incr factorizations;
        Ok x
    in
    (* L X as conj(L^H)^T X: [Cmat.mul]'s kernel on the transpose it
       would otherwise form per solve *)
    let lh = Cmat.ctranspose sys.l in
    (* Exact transfer samples, cached: shifts get theirs free from the
       basis solve, hold-out probes pay one factorization each, once
       (in lane B, or here for a probe that lane B left to a shift). *)
    let truth = Hashtbl.create 32 in
    let truth_at f =
      match Hashtbl.find_opt truth f with
      | Some h -> Ok h
      | None ->
        (match solve_at f with
         | Error _ as e -> e
         | Ok x ->
           let h = Cmat.mul_cn lh x in
           Hashtbl.add truth f h;
           Ok h)
    in
    (* Hold-out probes at the centres of equal log bins — never on the
       log-spaced shift grid, which sits on the bin edges. *)
    let span = Float.log10 (o.f_hi /. o.f_lo) in
    let holdout_freqs =
      Array.init o.holdout (fun i ->
        o.f_lo
        *. Float.pow 10.
             (span *. (2. *. float_of_int i +. 1.)
              /. (2. *. float_of_int o.holdout)))
    in
    (* The real basis V with C V and G V beside it, and the projected
       E_r = V^T C V, V^T G V (= -A_r), B_r = V^T B and C_r = L V, each
       column-major at its exact size.  Absorbing columns k..k' fills
       the new rows and columns of every projection with one kernel
       call each: entry (i, j) of E_r is always V(:,i) . CV(:,j). *)
    let v = block n and cv = block n and gv = block n in
    let er = ref [||] and gr = ref [||] in
    let br = ref [||] and cr = ref [||] in
    let bre = Cmat.unsafe_re sys.b and lre = Cmat.unsafe_re sys.l in
    let order () = v.cols in
    let absorb k =
      timed "project" (fun () ->
        let k' = v.cols in
        reserve cv ~limit:max_order k';
        reserve gv ~limit:max_order k';
        sparse_mul_into sys.c v.data cv.data ~j0:k ~j1:k';
        sparse_mul_into sys.g v.data gv.data ~j0:k ~j1:k';
        cv.cols <- k';
        gv.cols <- k';
        (* new columns k..k' in full, then new rows k..k' under the
           old columns *)
        let grow_square old x =
          let sq = Array.make (k' * k') 0. in
          for j = 0 to k - 1 do
            Array.blit old (j * k) sq (j * k') k
          done;
          over_columns k k' (fun lo hi ->
              Rmat.dot_block v.data x.data sq n k' 0 k' lo hi);
          over_columns 0 k (fun lo hi ->
              Rmat.dot_block v.data x.data sq n k' k k' lo hi);
          sq
        in
        er := grow_square !er cv;
        gr := grow_square !gr gv;
        let b' = Array.make (k' * m) 0. in
        for j = 0 to m - 1 do
          Array.blit !br (j * k) b' (j * k') k
        done;
        over_columns 0 m (fun lo hi -> Rmat.dot_block v.data bre b' n k' k k' lo hi);
        br := b';
        let c' = Array.make (p * k') 0. in
        Array.blit !cr 0 c' 0 (p * k);
        over_columns k k' (fun lo hi -> Rmat.axpy_block lre v.data c' p n 0 n lo hi);
        cr := c')
    in
    let rom () =
      let k = order () in
      let real rows cols sign data =
        Cmat.init rows cols (fun i j ->
          Cx.of_float (sign *. data.(i + (j * rows))))
      in
      Descriptor.create ~e:(real k k 1. !er) ~a:(real k k (-1.) !gr)
        ~b:(real k m 1. !br) ~c:(real p k 1. !cr) ~d:(Cmat.zeros p m)
    in
    let shift_log = ref [] in
    let used f =
      List.exists
        (fun f' -> Float.abs (f -. f') <= 1e-9 *. Float.max f f')
        !shift_log
    in
    let expand freqs =
      let rec go = function
        | [] -> Ok ()
        | f :: rest ->
          if used f || order () >= max_order then go rest
          else
            (match solve_at f with
             | Error _ as e -> e
             | Ok x ->
               Hashtbl.replace truth f (Cmat.mul_cn lh x);
               shift_log := f :: !shift_log;
               let k = order () in
               (match
                  timed "basis" (fun () ->
                    extend_basis ~room:(max_order - k) ~limit:max_order v
                      (Array.append (Cmat.unsafe_re x) (Cmat.unsafe_im x)))
                with
                | 0 ->
                  Diag.record ~site:"krylov.deflation"
                    (Printf.sprintf
                       "shift at %.6g Hz fully deflated (order %d)" f k);
                  go rest
                | _ ->
                  absorb k;
                  go rest))
      in
      go freqs
    in
    (* Max relative hold-out error of the current reduced model, the
       reduced model evaluated at every probe on one Hessenberg-
       triangular form. *)
    let holdout_err () =
      let rec exact i acc =
        if i = Array.length holdout_freqs then Ok (List.rev acc)
        else
          match truth_at holdout_freqs.(i) with
          | Error _ as e -> e
          | Ok ht -> exact (i + 1) (ht :: acc)
      in
      match exact 0 [] with
      | Error _ as e -> e
      | Ok exact ->
        let model = rom () in
        let approx =
          timed "evaluate" (fun () -> Descriptor.eval_grid model holdout_freqs)
        in
        let worst = ref (neg_infinity, 0.) in
        List.iteri
          (fun i ht ->
            let rel =
              Cmat.norm_fro (Cmat.sub approx.(i) ht)
              /. Float.max (Cmat.norm_fro ht) 1e-300
            in
            if rel > fst !worst then worst := (rel, holdout_freqs.(i)))
          exact;
        Ok !worst
    in
    (* Next shifts: adaptive cross-validation suggestion over every
       exact sample seen so far, falling back to log-gap bisection of
       the shift set when the suggester refuses (too few samples) or
       comes back empty. *)
    let bisect_shifts () =
      let sorted =
        List.sort_uniq compare !shift_log |> Array.of_list
      in
      let gaps = ref [] in
      Array.iteri
        (fun i f ->
          if i > 0 then
            gaps :=
              (Float.log10 (f /. sorted.(i - 1)), sqrt (f *. sorted.(i - 1)))
              :: !gaps)
        sorted;
      List.sort (fun (a, _) (b, _) -> compare b a) !gaps
      |> List.filteri (fun i _ -> i < batch)
      |> List.map snd
    in
    let next_shifts worst_freq =
      let samples =
        Hashtbl.fold (fun f h acc -> (f, h) :: acc) truth []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let freqs = Array.of_list (List.map fst samples) in
      let mats = Array.of_list (List.map snd samples) in
      let suggested =
        if Array.length freqs < 8 then []
        else
          match
            Adaptive.suggest
              ~options:{ Adaptive.default_options with count = batch }
              (Sampling.of_matrices freqs mats)
          with
          | Ok scores -> List.map (fun s -> s.Adaptive.freq) scores
          | Error _ -> []
      in
      let picks = if suggested = [] then bisect_shifts () else suggested in
      (* Always press on the worst probe: interpolation there kills the
         dominant error term even when the suggester looks elsewhere. *)
      let picks = if used worst_freq then picks else worst_freq :: picks in
      List.filteri (fun i _ -> i < batch) picks
    in
    let history = ref [] in
    let initial = Array.to_list (Sampling.logspace o.f_lo o.f_hi o.shifts) in
    (* The first round runs as two lanes on the pool.  Lane A is the
       shift chain: [expand] on the initial shifts, the first factored
       in full and every later one refactored on its predecessor, with
       the basis and the projection.  Lane B factors the hold-out
       probes that are not also shifts, on pivots of its own (see
       {!probe_lane}).  Neither reads what the other writes, so the
       bits do not depend on where or in what order they run: the
       submitting domain takes lane A, so its allocations and the
       timings stay there, and at one domain, or with the pool busy,
       the lanes run inline one after the other.  Lane B's count, time
       and events are accounted after the join, in probe order. *)
    let lane_b =
      probe_lane sys ~perm ~lh
        (List.rev
           (List.filter
              (fun f -> not (List.mem f initial))
              (Array.to_list holdout_freqs)))
    in
    let lane_a_result = ref (Ok ()) in
    let lane_b_result = ref ((Ok [], 0.), []) in
    Parallel.parallel_for ~chunk:1 2 (fun lo hi ->
        for lane = lo to hi - 1 do
          if lane = 0 then lane_a_result := expand initial
          else lane_b_result := lane_b ()
        done);
    let (probed, probe_seconds), probe_events = !lane_b_result in
    List.iter
      (fun e -> Diag.record ~site:e.Diag.site e.Diag.detail)
      probe_events;
    charge "factor" probe_seconds;
    let first_round =
      match (!lane_a_result, probed) with
      | (Error _ as e), _ -> e
      | Ok (), (Error _ as e) -> e
      | Ok (), Ok samples ->
        factorizations := !factorizations + List.length samples;
        List.iter (fun (f, h) -> Hashtbl.replace truth f h) samples;
        Ok ()
    in
    let rec rounds i prev =
      match prev with
      | Error _ as e -> e
      | Ok () ->
        (match holdout_err () with
         | Error _ as e -> e
         | Ok (err, worst_freq) ->
           history := err :: !history;
           if err <= o.tol || i >= max_rounds || order () >= max_order
           then Ok ()
           else rounds (i + 1) (expand (next_shifts worst_freq)))
    in
    (match rounds 0 first_round with
     | Error _ as e -> e
     | Ok () ->
       if order () = 0 then
         Error
           (Mfti_error.Numerical_breakdown
              { context;
                message = "every shift direction deflated to zero";
                condition = None })
       else begin
         let descriptor = rom () in
         let descriptor =
           match o.z0 with
           | None -> descriptor
           | Some z0 -> Rf.Sparams.descriptor_z_to_s ~z0 descriptor
         in
         let timings =
           List.filter_map
             (fun key ->
               Option.map (fun t -> (key, t)) (Hashtbl.find_opt timings key))
             [ "ordering"; "factor"; "basis"; "project"; "evaluate" ]
         in
         let model =
           Engine.Model.make ~timings ~rank:(order ()) descriptor
         in
         Ok
           { model;
             order = order ();
             shift_freqs = Array.of_list (List.rev !shift_log);
             history = Array.of_list (List.rev !history);
             factorizations = !factorizations;
             timings }
       end)

(* ---- krylov+mfti ---------------------------------------------------- *)

let fit_mfti ?(options = default_options) ?fit_options ?(fit_points = 128)
    sys =
  if fit_points < 4 then Error (invalid "fit_points must be >= 4")
  else
    match reduce ~options sys with
    | Error _ as e -> e
    | Ok kr ->
      let freqs = Sampling.logspace options.f_lo options.f_hi fit_points in
      let samples =
        Sampling.of_matrices freqs
          (Array.map (Engine.Model.eval_freq kr.model) freqs)
      in
      let fit_options =
        Option.value ~default:Engine.default_options fit_options
      in
      (match
         Engine.fit_result ~options:fit_options ~strategy:Engine.Direct
           samples
       with
       | Error _ as e -> e
       | Ok fit -> Ok (Engine.Model.of_fit fit, kr))
