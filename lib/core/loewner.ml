open Linalg

type t = {
  ll : Cmat.t;
  sll : Cmat.t;
  w : Cmat.t;
  v : Cmat.t;
  r : Cmat.t;
  l : Cmat.t;
  lambda : Cx.t array;
  mu : Cx.t array;
  right_sizes : int array;
  left_sizes : int array;
}

(* ------------------------------------------------------------------ *)
(* Incremental builder.

   The pencil is stored column-wise in growable arrays so appending a
   tangential block only allocates/fills the new strip.  Every entry is
   produced by [fill_entry]: a fixed scalar accumulation over the ports
   that depends only on the entry's own row/column data — never on how
   large the pencil was when the entry was computed, nor on the chunking
   of the parallel fill.  That schedule independence is what makes an
   incrementally grown pencil bit-identical to a batch {!build} of the
   same data (and to itself under any domain count); it is also why the
   aggregated-GEMM assembly of the previous revision had to go — the
   blocked kernel's accumulation order depends on the operand sizes. *)

type builder = {
  inputs : int;                         (* m: rows of R, columns of V *)
  outputs : int;                        (* p: rows of W, columns of L *)
  mutable kr : int;                     (* live columns *)
  mutable kl : int;                     (* live rows *)
  mutable cap_r : int;
  mutable cap_l : int;
  (* pencil column [j] lives in [ll_re.(j)], rows [0 .. kl-1] valid *)
  mutable ll_re : float array array;
  mutable ll_im : float array array;
  mutable sll_re : float array array;
  mutable sll_im : float array array;
  (* stacked left data, column-wise with row capacity [cap_l]:
     [v_re.(q).(a)] is V(a,q), [l_re.(q).(a)] is L(a,q) *)
  v_re : float array array;             (* length m *)
  v_im : float array array;
  l_re : float array array;             (* length p *)
  l_im : float array array;
  (* stacked right data: column [j] of W (length p) and of R (length m) *)
  mutable w_re : float array array;
  mutable w_im : float array array;
  mutable r_re : float array array;
  mutable r_im : float array array;
  mutable lambda : Cx.t array;          (* capacity cap_r *)
  mutable mu : Cx.t array;              (* capacity cap_l *)
  mutable right_sizes_rev : int list;
  mutable left_sizes_rev : int list;
}

let builder ?(right_capacity = 16) ?(left_capacity = 16) ~inputs ~outputs () =
  if inputs < 1 || outputs < 1 then
    invalid_arg "Loewner.builder: port counts must be positive";
  let cap_r = Stdlib.max 1 right_capacity in
  let cap_l = Stdlib.max 1 left_capacity in
  { inputs; outputs; kr = 0; kl = 0; cap_r; cap_l;
    ll_re = Array.make cap_r [||]; ll_im = Array.make cap_r [||];
    sll_re = Array.make cap_r [||]; sll_im = Array.make cap_r [||];
    v_re = Array.init inputs (fun _ -> Array.make cap_l 0.);
    v_im = Array.init inputs (fun _ -> Array.make cap_l 0.);
    l_re = Array.init outputs (fun _ -> Array.make cap_l 0.);
    l_im = Array.init outputs (fun _ -> Array.make cap_l 0.);
    w_re = Array.make cap_r [||]; w_im = Array.make cap_r [||];
    r_re = Array.make cap_r [||]; r_im = Array.make cap_r [||];
    lambda = Array.make cap_r Cx.zero;
    mu = Array.make cap_l Cx.zero;
    right_sizes_rev = []; left_sizes_rev = [] }

let grow_floats a cap =
  let g = Array.make cap 0. in
  Array.blit a 0 g 0 (Array.length a);
  g

let grow_cap cap needed =
  let c = ref (Stdlib.max 1 cap) in
  while !c < needed do
    c := !c * 2
  done;
  !c

let ensure_rows b needed =
  if needed > b.cap_l then begin
    let cap = grow_cap b.cap_l needed in
    for j = 0 to b.kr - 1 do
      b.ll_re.(j) <- grow_floats b.ll_re.(j) cap;
      b.ll_im.(j) <- grow_floats b.ll_im.(j) cap;
      b.sll_re.(j) <- grow_floats b.sll_re.(j) cap;
      b.sll_im.(j) <- grow_floats b.sll_im.(j) cap
    done;
    for q = 0 to b.inputs - 1 do
      b.v_re.(q) <- grow_floats b.v_re.(q) cap;
      b.v_im.(q) <- grow_floats b.v_im.(q) cap
    done;
    for q = 0 to b.outputs - 1 do
      b.l_re.(q) <- grow_floats b.l_re.(q) cap;
      b.l_im.(q) <- grow_floats b.l_im.(q) cap
    done;
    let mu = Array.make cap Cx.zero in
    Array.blit b.mu 0 mu 0 b.kl;
    b.mu <- mu;
    b.cap_l <- cap
  end

let grow_outer a cap =
  let g = Array.make cap [||] in
  Array.blit a 0 g 0 (Array.length a);
  g

let ensure_cols b needed =
  if needed > b.cap_r then begin
    let cap = grow_cap b.cap_r needed in
    b.ll_re <- grow_outer b.ll_re cap;
    b.ll_im <- grow_outer b.ll_im cap;
    b.sll_re <- grow_outer b.sll_re cap;
    b.sll_im <- grow_outer b.sll_im cap;
    b.w_re <- grow_outer b.w_re cap;
    b.w_im <- grow_outer b.w_im cap;
    b.r_re <- grow_outer b.r_re cap;
    b.r_im <- grow_outer b.r_im cap;
    let lambda = Array.make cap Cx.zero in
    Array.blit b.lambda 0 lambda 0 b.kr;
    b.lambda <- lambda;
    b.cap_r <- cap
  end

(* One pencil entry at row [a], column [jcol]:

     vr = V(a,:) . R(:,j)    lw = L(a,:) . W(:,j)
     ll(a,j)  = (vr - lw) / (mu_a - lambda_j)
     sll(a,j) = (mu_a vr - lambda_j lw) / (mu_a - lambda_j)

   Unboxed complex arithmetic ([Cx.inv] / [Cx.abs] go through scaled
   division and [hypot], an order of magnitude slower than this fill's
   worth of flops); the port loops always run in ascending order. *)
let fill_entry b a jcol =
  let lam = b.lambda.(jcol) in
  let lr = lam.Cx.re and li = lam.Cx.im in
  let mu_a = b.mu.(a) in
  let mr = mu_a.Cx.re and mi = mu_a.Cx.im in
  let dr = mr -. lr and di = mi -. li in
  if dr = 0. && di = 0. then
    invalid_arg "Loewner.build: coincident left and right points";
  let d2 = (dr *. dr) +. (di *. di) in
  let s = 1. /. d2 in
  let ir = dr *. s and ii = -.di *. s in
  let rc_re = b.r_re.(jcol) and rc_im = b.r_im.(jcol) in
  let vr_r = ref 0. and vr_i = ref 0. in
  for q = 0 to b.inputs - 1 do
    let xr = b.v_re.(q).(a) and xi = b.v_im.(q).(a) in
    let yr = rc_re.(q) and yi = rc_im.(q) in
    vr_r := !vr_r +. ((xr *. yr) -. (xi *. yi));
    vr_i := !vr_i +. ((xr *. yi) +. (xi *. yr))
  done;
  let wc_re = b.w_re.(jcol) and wc_im = b.w_im.(jcol) in
  let lw_r = ref 0. and lw_i = ref 0. in
  for q = 0 to b.outputs - 1 do
    let xr = b.l_re.(q).(a) and xi = b.l_im.(q).(a) in
    let yr = wc_re.(q) and yi = wc_im.(q) in
    lw_r := !lw_r +. ((xr *. yr) -. (xi *. yi));
    lw_i := !lw_i +. ((xr *. yi) +. (xi *. yr))
  done;
  let vr_r = !vr_r and vr_i = !vr_i in
  let lw_r = !lw_r and lw_i = !lw_i in
  let tr = vr_r -. lw_r and ti = vr_i -. lw_i in
  b.ll_re.(jcol).(a) <- (tr *. ir) -. (ti *. ii);
  b.ll_im.(jcol).(a) <- (tr *. ii) +. (ti *. ir);
  let sr = (mr *. vr_r) -. (mi *. vr_i) -. ((lr *. lw_r) -. (li *. lw_i))
  and si = (mr *. vr_i) +. (mi *. vr_r) -. ((lr *. lw_i) +. (li *. lw_r)) in
  b.sll_re.(jcol).(a) <- (sr *. ir) -. (si *. ii);
  b.sll_im.(jcol).(a) <- (sr *. ii) +. (si *. ir)

(* Entries are independent, so the rectangle can be tiled along either
   axis; parallelize the longer one.  Chunking cannot affect the result
   ([fill_entry] is per-entry pure), so any domain count gives the same
   bits. *)
(* Below this many multiply-adds the pool handshake costs more than
   the fill itself (BENCH_kernels: 4 ports / 16 samples ran at 1.12x
   on 4 domains); [~chunk] spanning the whole range keeps the loop
   inline in the caller.  The cutoff is a work estimate, not a domain
   count, so chunking still cannot affect the result. *)
let fill_work_cutoff = 65536

let fill_rect b ~r0 ~r1 ~c0 ~c1 =
  let nr = r1 - r0 and nc = c1 - c0 in
  if nr > 0 && nc > 0 then begin
    let small = nr * nc * (b.inputs + b.outputs) < fill_work_cutoff in
    if nc >= nr then
      let chunk = if small then Some nc else None in
      Parallel.parallel_for ?chunk nc (fun j0 j1 ->
          for jcol = c0 + j0 to c0 + j1 - 1 do
            for a = r0 to r1 - 1 do
              fill_entry b a jcol
            done
          done)
    else
      let chunk = if small then Some nr else None in
      Parallel.parallel_for ?chunk nr (fun i0 i1 ->
          for a = r0 + i0 to r0 + i1 - 1 do
            for jcol = c0 to c1 - 1 do
              fill_entry b a jcol
            done
          done)
  end

(* Copy a right block's columns in without computing anything. *)
let push_right_data b (rb : Tangential.right_block) =
  let m = b.inputs and p = b.outputs in
  let t = Cmat.cols rb.Tangential.r in
  if t < 1 then invalid_arg "Loewner.append_right: empty block";
  if Cmat.rows rb.Tangential.r <> m then
    invalid_arg "Loewner.append_right: direction rows must equal the input count";
  if Cmat.rows rb.Tangential.w <> p || Cmat.cols rb.Tangential.w <> t then
    invalid_arg "Loewner.append_right: data block must be outputs x width";
  ensure_cols b (b.kr + t);
  let rre = Cmat.unsafe_re rb.Tangential.r
  and rim = Cmat.unsafe_im rb.Tangential.r in
  let wre = Cmat.unsafe_re rb.Tangential.w
  and wim = Cmat.unsafe_im rb.Tangential.w in
  for c = 0 to t - 1 do
    let j = b.kr + c in
    b.ll_re.(j) <- Array.make b.cap_l 0.;
    b.ll_im.(j) <- Array.make b.cap_l 0.;
    b.sll_re.(j) <- Array.make b.cap_l 0.;
    b.sll_im.(j) <- Array.make b.cap_l 0.;
    let cr = Array.make m 0. and ci = Array.make m 0. in
    Array.blit rre (c * m) cr 0 m;
    Array.blit rim (c * m) ci 0 m;
    b.r_re.(j) <- cr;
    b.r_im.(j) <- ci;
    let cr = Array.make p 0. and ci = Array.make p 0. in
    Array.blit wre (c * p) cr 0 p;
    Array.blit wim (c * p) ci 0 p;
    b.w_re.(j) <- cr;
    b.w_im.(j) <- ci;
    b.lambda.(j) <- rb.Tangential.lambda
  done;
  b.kr <- b.kr + t;
  b.right_sizes_rev <- t :: b.right_sizes_rev;
  t

let push_left_data b (lb : Tangential.left_block) =
  let m = b.inputs and p = b.outputs in
  let t = Cmat.rows lb.Tangential.l in
  if t < 1 then invalid_arg "Loewner.append_left: empty block";
  if Cmat.cols lb.Tangential.l <> p then
    invalid_arg "Loewner.append_left: direction columns must equal the output count";
  if Cmat.rows lb.Tangential.v <> t || Cmat.cols lb.Tangential.v <> m then
    invalid_arg "Loewner.append_left: data block must be width x inputs";
  ensure_rows b (b.kl + t);
  let lre = Cmat.unsafe_re lb.Tangential.l
  and lim = Cmat.unsafe_im lb.Tangential.l in
  (* column q of the t x p block is contiguous at [q*t, q*t + t) *)
  for q = 0 to p - 1 do
    Array.blit lre (q * t) b.l_re.(q) b.kl t;
    Array.blit lim (q * t) b.l_im.(q) b.kl t
  done;
  let vre = Cmat.unsafe_re lb.Tangential.v
  and vim = Cmat.unsafe_im lb.Tangential.v in
  for q = 0 to m - 1 do
    Array.blit vre (q * t) b.v_re.(q) b.kl t;
    Array.blit vim (q * t) b.v_im.(q) b.kl t
  done;
  for c = 0 to t - 1 do
    b.mu.(b.kl + c) <- lb.Tangential.mu
  done;
  b.kl <- b.kl + t;
  b.left_sizes_rev <- t :: b.left_sizes_rev;
  t

let append_right b rb =
  let c0 = b.kr in
  let t = push_right_data b rb in
  fill_rect b ~r0:0 ~r1:b.kl ~c0 ~c1:(c0 + t)

let append_left b lb =
  let r0 = b.kl in
  let t = push_left_data b lb in
  fill_rect b ~r0 ~r1:(r0 + t) ~c0:0 ~c1:b.kr

let append b rb lb =
  append_right b rb;
  append_left b lb

let of_tangential (data : Tangential.t) =
  let b =
    builder
      ~right_capacity:(Stdlib.max 1 (Tangential.right_width data))
      ~left_capacity:(Stdlib.max 1 (Tangential.left_width data))
      ~inputs:data.Tangential.inputs ~outputs:data.Tangential.outputs ()
  in
  Array.iter (fun rb -> ignore (push_right_data b rb)) data.Tangential.right;
  Array.iter (fun lb -> ignore (push_left_data b lb)) data.Tangential.left;
  fill_rect b ~r0:0 ~r1:b.kl ~c0:0 ~c1:b.kr;
  b

let snapshot b =
  let kl = b.kl and kr = b.kr in
  let m = b.inputs and p = b.outputs in
  let ll = Cmat.zeros kl kr and sll = Cmat.zeros kl kr in
  let llre = Cmat.unsafe_re ll and llim = Cmat.unsafe_im ll in
  let sllre = Cmat.unsafe_re sll and sllim = Cmat.unsafe_im sll in
  for j = 0 to kr - 1 do
    Array.blit b.ll_re.(j) 0 llre (j * kl) kl;
    Array.blit b.ll_im.(j) 0 llim (j * kl) kl;
    Array.blit b.sll_re.(j) 0 sllre (j * kl) kl;
    Array.blit b.sll_im.(j) 0 sllim (j * kl) kl
  done;
  let w = Cmat.zeros p kr and r = Cmat.zeros m kr in
  let wre = Cmat.unsafe_re w and wim = Cmat.unsafe_im w in
  let rre = Cmat.unsafe_re r and rim = Cmat.unsafe_im r in
  for j = 0 to kr - 1 do
    Array.blit b.w_re.(j) 0 wre (j * p) p;
    Array.blit b.w_im.(j) 0 wim (j * p) p;
    Array.blit b.r_re.(j) 0 rre (j * m) m;
    Array.blit b.r_im.(j) 0 rim (j * m) m
  done;
  let v = Cmat.zeros kl m and l = Cmat.zeros kl p in
  let vre = Cmat.unsafe_re v and vim = Cmat.unsafe_im v in
  for q = 0 to m - 1 do
    Array.blit b.v_re.(q) 0 vre (q * kl) kl;
    Array.blit b.v_im.(q) 0 vim (q * kl) kl
  done;
  let lre = Cmat.unsafe_re l and lim = Cmat.unsafe_im l in
  for q = 0 to p - 1 do
    Array.blit b.l_re.(q) 0 lre (q * kl) kl;
    Array.blit b.l_im.(q) 0 lim (q * kl) kl
  done;
  (* Deterministic injection point: a NaN planted in the assembled
     pencil models numerical garbage propagating out of the divided
     differences — caught downstream by [check_finite].  Planted at
     snapshot time so incremental and batch assembly share it. *)
  if Array.length llre > 0 then
    llre.(0) <- Fault.poison "loewner.poison" llre.(0);
  { ll; sll; w; v; r; l;
    lambda = Array.sub b.lambda 0 kr;
    mu = Array.sub b.mu 0 kl;
    right_sizes = Array.of_list (List.rev b.right_sizes_rev);
    left_sizes = Array.of_list (List.rev b.left_sizes_rev) }

let build data = snapshot (of_tangential data)

let check_finite ?(context = "loewner") t =
  if Cmat.is_finite t.ll && Cmat.is_finite t.sll then Ok ()
  else
    Result.Error
      (Mfti_error.Numerical_breakdown
         { context;
           message =
             "non-finite entries in the Loewner pencil (corrupt samples or \
              near-coincident interpolation points)";
           condition = None })

let sylvester_residuals t =
  let lw = Cmat.mul t.l t.w in
  let vr = Cmat.mul t.v t.r in
  let scale_cols m diag = Cmat.mapi (fun _ jcol x -> Cx.mul x diag.(jcol)) m in
  let scale_rows m diag = Cmat.mapi (fun i _ x -> Cx.mul diag.(i) x) m in
  let res1 =
    Cmat.sub
      (Cmat.sub (scale_cols t.ll t.lambda) (scale_rows t.ll t.mu))
      (Cmat.sub lw vr)
  in
  let res2 =
    Cmat.sub
      (Cmat.sub (scale_cols t.sll t.lambda) (scale_rows t.sll t.mu))
      (Cmat.sub (scale_cols lw t.lambda) (scale_rows vr t.mu))
  in
  (Cmat.norm_fro res1, Cmat.norm_fro res2)

let ll_via_sylvester t =
  let f = Cmat.sub (Cmat.mul t.l t.w) (Cmat.mul t.v t.r) in
  Sylvester.solve_diag ~mu:t.mu ~lambda:t.lambda f
