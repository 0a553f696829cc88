(* Left-looking sparse LU with partial pivoting (Gilbert-Peierls; the
   organization follows CSparse's cs_lu).

   L is built column by column with *original* row indices and a unit
   diagonal stored explicitly as each column's first entry; pinv maps a
   (permuted) row to its pivot step (-1 while not yet pivotal).  Solving
   L x = A(:,k) only touches the entries reachable from A(:,k)'s pattern
   in L's graph, found by DFS in topological order.

   The numeric core works on a column-major view of the symmetrically
   permuted CSR input, built by one counting pass that also records
   where each CSR entry lands.  A factor keeps that map together with
   its pivot sequence and L/U pattern ([symbolic]), so [refactor] can
   scatter a new matrix of the same pattern straight into the view and
   redo only the numeric elimination — no reach, no permute, no
   transpose.  L keeps every structurally reached entry, including
   exact zeros, so the pattern covers every shift of the sweep.
   Failures are typed: a zero pivot (or the armed
   ["sparse.singular_pivot"] fault site) comes back as
   [Mfti_error.Numerical_breakdown]. *)

open Linalg

exception Singular of int

(* growable parallel arrays for the factors *)
type growbuf = {
  mutable idx : int array;
  mutable re : float array;
  mutable im : float array;
  mutable len : int;
}

let growbuf_make n =
  { idx = Array.make (Stdlib.max n 16) 0;
    re = Array.make (Stdlib.max n 16) 0.;
    im = Array.make (Stdlib.max n 16) 0.;
    len = 0 }

let growbuf_push g i vre vim =
  if g.len = Array.length g.idx then begin
    let cap = 2 * g.len in
    let idx = Array.make cap 0 in
    let re = Array.make cap 0. and im = Array.make cap 0. in
    Array.blit g.idx 0 idx 0 g.len;
    Array.blit g.re 0 re 0 g.len;
    Array.blit g.im 0 im 0 g.len;
    g.idx <- idx;
    g.re <- re;
    g.im <- im
  end;
  g.idx.(g.len) <- i;
  g.re.(g.len) <- vre;
  g.im.(g.len) <- vim;
  g.len <- g.len + 1

type ordering = [ `Natural | `Rcm | `Amd ]

(* Everything a factorization decided that does not depend on the
   values: the ordering, the pivot sequence, the L/U pattern, and the
   map from the input's CSR entries into the permuted column-major
   view.  Shared by every factor refactored from the same base. *)
type symbolic = {
  n : int;
  diagonal : float;     (* the threshold pivoting rule; 0 = largest *)
  sym_perm : int array option;  (* new_position -> original index *)
  pinv : int array;     (* (permuted) row -> pivot step *)
  lp : int array;       (* n+1 column pointers into lidx *)
  lidx : int array;     (* row indices in PIVOT order; unit diagonal first *)
  up : int array;
  uidx : int array;     (* pivot steps in elimination order; diagonal last *)
  rowptr : int array;   (* CSR pattern of the factored matrix *)
  colind : int array;
  acolptr : int array;  (* column-major view of the permuted matrix *)
  arowind : int array;
  scatter : int array;  (* CSR entry -> slot in the column-major view *)
}

type factor = {
  sym : symbolic;
  lre : float array;
  lim : float array;
  ure : float array;
  uim : float array;
}

(* [acolptr/arowind/are/aim] is a column-major (CSC) view of the
   already-permuted matrix.  L and U are pushed into [l] and [u] from
   length 0; [xre]/[xim] are n-vectors of scratch, zero on return.
   Each pivot is the candidate of largest modulus, or with [diagonal]
   > 0 the diagonal when it is within that factor of it. *)
let factorize_core ~diagonal ~l ~u ~xre ~xim n acolptr arowind are aim =
  l.len <- 0;
  u.len <- 0;
  let lp = Array.make (n + 1) 0 in
  let up = Array.make (n + 1) 0 in
  let pinv = Array.make n (-1) in
  let marked = Array.make n false in
  let xi = Array.make n 0 in         (* reach, xi[top..n-1] in toporder *)
  let stack = Array.make n 0 in
  let pstack = Array.make n 0 in
  for k = 0 to n - 1 do
    lp.(k) <- l.len;
    up.(k) <- u.len;
    (* --- symbolic: reach of A(:,k) through L --- *)
    let top = ref n in
    let dfs start =
      let head = ref 0 in
      stack.(0) <- start;
      while !head >= 0 do
        let j = stack.(!head) in
        let jnew = pinv.(j) in
        if not marked.(j) then begin
          marked.(j) <- true;
          (* skip the unit diagonal (first entry of column jnew) *)
          pstack.(!head) <- (if jnew < 0 then 0 else lp.(jnew) + 1)
        end;
        let p_end = if jnew < 0 then 0 else lp.(jnew + 1) in
        let advanced = ref false in
        let p = ref pstack.(!head) in
        while (not !advanced) && !p < p_end do
          let i = l.idx.(!p) in
          incr p;
          if not marked.(i) then begin
            pstack.(!head) <- !p;
            incr head;
            stack.(!head) <- i;
            advanced := true
          end
        done;
        if not !advanced then begin
          (* postorder: all descendants done *)
          decr head;
          decr top;
          xi.(!top) <- j
        end
      done
    in
    for p = acolptr.(k) to acolptr.(k + 1) - 1 do
      let i = arowind.(p) in
      if not marked.(i) then dfs i
    done;
    (* --- numeric: x = L \ A(:,k) on the reach --- *)
    for p = !top to n - 1 do
      xre.(xi.(p)) <- 0.;
      xim.(xi.(p)) <- 0.
    done;
    for p = acolptr.(k) to acolptr.(k + 1) - 1 do
      xre.(arowind.(p)) <- are.(p);
      xim.(arowind.(p)) <- aim.(p)
    done;
    for px = !top to n - 1 do
      let j = xi.(px) in
      let jnew = pinv.(j) in
      if jnew >= 0 then begin
        (* unit diagonal: x[j] is final; eliminate below *)
        let xjr = xre.(j) and xji = xim.(j) in
        if xjr <> 0. || xji <> 0. then
          for p = lp.(jnew) + 1 to lp.(jnew + 1) - 1 do
            let i = l.idx.(p) in
            let lr = l.re.(p) and li = l.im.(p) in
            xre.(i) <- xre.(i) -. (lr *. xjr) +. (li *. xji);
            xim.(i) <- xim.(i) -. (lr *. xji) -. (li *. xjr)
          done
      end
    done;
    (* --- pivot: largest modulus among non-pivotal rows --- *)
    let ipiv = ref (-1) and best = ref 0. in
    for p = !top to n - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 then begin
        let mag = (xre.(i) *. xre.(i)) +. (xim.(i) *. xim.(i)) in
        if mag > !best then begin
          best := mag;
          ipiv := i
        end
      end
      else
        (* finished U entry for pivotal row *)
        growbuf_push u pinv.(i) xre.(i) xim.(i)
    done;
    if !ipiv < 0 || !best = 0. then raise (Singular k);
    (* threshold pivoting: keep the fill-reducing order's diagonal
       while it is at least [diagonal] of the largest candidate *)
    let ipiv =
      let mag = (xre.(k) *. xre.(k)) +. (xim.(k) *. xim.(k)) in
      if diagonal > 0. && pinv.(k) < 0 && mag > 0.
         && mag >= diagonal *. diagonal *. !best
      then k
      else !ipiv
    in
    pinv.(ipiv) <- k;
    (* pivot onto U's diagonal *)
    growbuf_push u k xre.(ipiv) xim.(ipiv);
    let pr = xre.(ipiv) and pi = xim.(ipiv) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    (* L column: unit diagonal first, then every other reached row,
       zero or not, scaled by the pivot *)
    growbuf_push l ipiv 1. 0.;
    for p = !top to n - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 then begin
        (* x_i / pivot *)
        let vr = ((xre.(i) *. pr) +. (xim.(i) *. pi)) /. pmag in
        let vi = ((xim.(i) *. pr) -. (xre.(i) *. pi)) /. pmag in
        growbuf_push l i vr vi
      end
    done;
    (* clear marks and x *)
    for p = !top to n - 1 do
      marked.(xi.(p)) <- false;
      xre.(xi.(p)) <- 0.;
      xim.(xi.(p)) <- 0.
    done
  done;
  lp.(n) <- l.len;
  up.(n) <- u.len;
  (* convert L's row indices to pivot order *)
  for p = 0 to l.len - 1 do
    l.idx.(p) <- pinv.(l.idx.(p))
  done;
  (lp, up, pinv)

let singular ?(injected = false) k =
  Mfti_error.Numerical_breakdown
    { context = "sparse.lu";
      message =
        Printf.sprintf "%szero pivot at elimination step %d"
          (if injected then "injected " else "")
          k;
      condition = None }

let bad_perm msg =
  Mfti_error.Validation { context = "sparse.lu"; message = msg }

(* The column-major view of the symmetrically permuted [a] in one
   counting pass.  New rows are visited in ascending order, so every
   column lists its rows ascending — the layout [Scsr.permute] followed
   by [Scsr.transpose] produces — and [scatter] remembers where each CSR
   entry went, so a matrix of the same pattern refills the view
   without redoing either pass. *)
let column_view (a : Scsr.t) perm =
  let n = a.Scsr.rows in
  let nnz = a.Scsr.rowptr.(n) in
  let old_of i' = match perm with None -> i' | Some p -> p.(i') in
  let inv =
    match perm with
    | None -> Array.init n (fun i -> i)
    | Some p ->
      let inv = Array.make n 0 in
      Array.iteri (fun newpos old -> inv.(old) <- newpos) p;
      inv
  in
  let acolptr = Array.make (n + 1) 0 in
  for p = 0 to nnz - 1 do
    let k = inv.(a.Scsr.colind.(p)) in
    acolptr.(k + 1) <- acolptr.(k + 1) + 1
  done;
  for k = 0 to n - 1 do
    acolptr.(k + 1) <- acolptr.(k + 1) + acolptr.(k)
  done;
  let cursor = Array.sub acolptr 0 n in
  let arowind = Array.make nnz 0 in
  let scatter = Array.make nnz 0 in
  for i' = 0 to n - 1 do
    let i = old_of i' in
    for p = a.Scsr.rowptr.(i) to a.Scsr.rowptr.(i + 1) - 1 do
      let k = inv.(a.Scsr.colind.(p)) in
      let q = cursor.(k) in
      arowind.(q) <- i';
      scatter.(p) <- q;
      cursor.(k) <- q + 1
    done
  done;
  (acolptr, arowind, scatter)

let scatter_into scatter (a : Scsr.t) are aim =
  for p = 0 to Array.length scatter - 1 do
    let q = scatter.(p) in
    are.(q) <- a.Scsr.re.(p);
    aim.(q) <- a.Scsr.im.(p)
  done

let scatter_values scatter a =
  let nnz = Array.length scatter in
  let are = Array.make nnz 0. and aim = Array.make nnz 0. in
  scatter_into scatter a are aim;
  (are, aim)

(* Full factorization of [a] from its column view ([view] and the
   values [are]/[aim]) into the buffers [l] and [u].  With [trim] the
   factor's arrays are cut to the final fill unless already exact: a
   base factor outlives its sweep step, so growth slack would be
   retained with it. *)
let eliminate ~diagonal ~trim ~l ~u ~xre ~xim ~perm ~view (a : Scsr.t) are
    aim =
  let acolptr, arowind, scatter = view in
  let n = a.Scsr.rows in
  match
    factorize_core ~diagonal ~l ~u ~xre ~xim n acolptr arowind are aim
  with
  | exception Singular k -> Error (singular k)
  | lp, up, pinv ->
    let fit g arr =
      if trim && g.len < Array.length arr then Array.sub arr 0 g.len else arr
    in
    let sym =
      { n; diagonal; sym_perm = perm; pinv; lp; lidx = fit l l.idx; up;
        uidx = fit u u.idx; rowptr = a.Scsr.rowptr;
        colind = a.Scsr.colind; acolptr; arowind; scatter }
    in
    Ok
      { sym; lre = fit l l.re; lim = fit l l.im; ure = fit u u.re;
        uim = fit u u.im }

let check_perm n p =
  if Array.length p <> n then Error (bad_perm "bad permutation length")
  else begin
    let seen = Array.make n false in
    let ok = ref true in
    Array.iter
      (fun old ->
        if old < 0 || old >= n || seen.(old) then ok := false
        else seen.(old) <- true)
      p;
    if !ok then Ok (Some p) else Error (bad_perm "not a permutation")
  end

let check_diagonal d =
  if not (d >= 0. && d <= 1.) then
    invalid_arg "Slu: diagonal threshold must be in [0, 1]"

let factorize ?(ordering = `Amd) ?perm ?(diagonal = 0.) (a : Scsr.t) =
  check_diagonal diagonal;
  let n, n' = Scsr.dims a in
  if n <> n' then Error (bad_perm "matrix not square")
  else if Fault.armed "sparse.singular_pivot" then
    Error (singular ~injected:true 0)
  else begin
    let perm_ok =
      match perm with
      | Some p -> check_perm n p
      | None ->
        Ok
          (match ordering with
           | `Natural -> None
           | `Rcm -> Some (Ordering.rcm a)
           | `Amd -> Some (Ordering.amd a))
    in
    match perm_ok with
    | Error e -> Error e
    | Ok perm ->
      let view = column_view a perm in
      let _, _, scatter = view in
      let are, aim = scatter_values scatter a in
      let cap = 4 * Scsr.nnz a in
      eliminate ~diagonal ~trim:true ~l:(growbuf_make cap)
        ~u:(growbuf_make cap) ~xre:(Array.make n 0.) ~xim:(Array.make n 0.)
        ~perm ~view a are aim
  end

(* Smallest accepted |reused pivot| / max |candidate| in its column.
   Partial pivoting picked the candidate of largest modulus at the base
   shift; a reused pivot that has fallen this far below its column's
   largest is no longer a safe choice, and the refactorization is
   redone from scratch. *)
let pivot_ratio = 1e-3

exception Unstable of int * float

(* Numeric-only elimination over [sym]'s pattern, in the base's pivot
   order.  Column [k] of U lists the earlier pivot steps its reach went
   through, in the topological order the base eliminated them, then its
   diagonal; column [k] of L lists step [k] (the unit diagonal) and
   every later row the reach touched.  The arithmetic is the base's,
   operation for operation, so refactoring the base matrix reproduces
   its factor bit for bit. *)
let refactor_core sym { lre; lim; ure; uim; _ } ~xre ~xim are aim =
  let n = sym.n in
  let lidx = sym.lidx in
  let ratio2 = pivot_ratio *. pivot_ratio in
  for k = 0 to n - 1 do
    for p = sym.acolptr.(k) to sym.acolptr.(k + 1) - 1 do
      let i = sym.pinv.(sym.arowind.(p)) in
      xre.(i) <- are.(p);
      xim.(i) <- aim.(p)
    done;
    let dpos = sym.up.(k + 1) - 1 in
    for p = sym.up.(k) to dpos - 1 do
      let j = sym.uidx.(p) in
      let xjr = xre.(j) and xji = xim.(j) in
      ure.(p) <- xjr;
      uim.(p) <- xji;
      if xjr <> 0. || xji <> 0. then
        (* the hot loop: every index comes from the pattern this
           symbolic built, so the accesses are in range by construction *)
        for q = sym.lp.(j) + 1 to sym.lp.(j + 1) - 1 do
          let i = Array.unsafe_get lidx q in
          let lr = Array.unsafe_get lre q and li = Array.unsafe_get lim q in
          Array.unsafe_set xre i
            (Array.unsafe_get xre i -. (lr *. xjr) +. (li *. xji));
          Array.unsafe_set xim i
            (Array.unsafe_get xim i -. (lr *. xji) -. (li *. xjr))
        done;
      xre.(j) <- 0.;
      xim.(j) <- 0.
    done;
    let pr = xre.(k) and pi = xim.(k) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    let best = ref pmag in
    for q = sym.lp.(k) + 1 to sym.lp.(k + 1) - 1 do
      let i = sym.lidx.(q) in
      let mag = (xre.(i) *. xre.(i)) +. (xim.(i) *. xim.(i)) in
      if mag > !best then best := mag
    done;
    if not (pmag > 0. && pmag >= ratio2 *. !best) then
      raise (Unstable (k, if !best > 0. then sqrt (pmag /. !best) else 0.));
    ure.(dpos) <- pr;
    uim.(dpos) <- pi;
    xre.(k) <- 0.;
    xim.(k) <- 0.;
    lre.(sym.lp.(k)) <- 1.;
    lim.(sym.lp.(k)) <- 0.;
    for q = sym.lp.(k) + 1 to sym.lp.(k + 1) - 1 do
      let i = sym.lidx.(q) in
      lre.(q) <- ((xre.(i) *. pr) +. (xim.(i) *. pi)) /. pmag;
      lim.(q) <- ((xim.(i) *. pr) -. (xre.(i) *. pi)) /. pmag;
      xre.(i) <- 0.;
      xim.(i) <- 0.
    done
  done

let same_pattern ~rowptr ~colind (a : Scsr.t) =
  Scsr.dims a = (Array.length rowptr - 1, Array.length rowptr - 1)
  && a.Scsr.rowptr = rowptr
  && a.Scsr.colind = colind

(* [refactor_core] into [f], or when a reused pivot is no longer safe,
   the event and [full ()] on cleared scratch. *)
let refactor_or_full sym f ~xre ~xim are aim full =
  match refactor_core sym f ~xre ~xim are aim with
  | () -> Ok f
  | exception Unstable (k, ratio) ->
    Diag.record ~site:"sparse.refactor_fallback"
      (Printf.sprintf
         "reused pivot at step %d is %.3g of its column's largest; full \
          refactorization"
         k ratio);
    Array.fill xre 0 sym.n 0.;
    Array.fill xim 0 sym.n 0.;
    full ()

let refactor base a =
  let sym = base.sym in
  if not (same_pattern ~rowptr:sym.rowptr ~colind:sym.colind a) then
    Error (bad_perm "refactor: pattern differs from the base factorization")
  else if Fault.armed "sparse.singular_pivot" then
    Error (singular ~injected:true 0)
  else begin
    let n = sym.n in
    let are, aim = scatter_values sym.scatter a in
    let lfill = sym.lp.(n) and ufill = sym.up.(n) in
    let values fill = Array.make fill 0. in
    let f =
      { sym; lre = values lfill; lim = values lfill; ure = values ufill;
        uim = values ufill }
    in
    let xre = Array.make n 0. and xim = Array.make n 0. in
    (* a fallback factors in full under the base's ordering and pivot
       rule, from the same column view and values, with the base's
       fill as the first guess of its own *)
    refactor_or_full sym f ~xre ~xim are aim (fun () ->
        eliminate ~diagonal:sym.diagonal ~trim:true ~l:(growbuf_make lfill)
          ~u:(growbuf_make ufill) ~xre ~xim ~perm:sym.sym_perm
          ~view:(sym.acolptr, sym.arowind, sym.scatter) a are aim)
  end

(* Every right-hand side walks the factors in the same order as a
   one-column solve, so each column's result does not depend on how
   many columns travel with it.  The work vector is row-interleaved
   ([i * nrhs + jcol]) so all columns share each L and U entry as it
   is loaded and update one contiguous run per entry; the row offsets
   come from the factor's own pattern, so the hot loops index without
   bounds checks. *)
let solve_into f ~wr ~wi x b =
  let s = f.sym in
  let n = s.n in
  let nrhs = Cmat.cols b in
  let br = Cmat.unsafe_re b and bi = Cmat.unsafe_im b in
  (* y = P Q b: with a symmetric ordering row [perm.(i)] of b is row i
     of the permuted system, which partial pivoting sends to step
     [pinv.(i)] *)
  for i = 0 to n - 1 do
    let src = match s.sym_perm with None -> i | Some perm -> perm.(i) in
    let dst = s.pinv.(i) * nrhs in
    for jcol = 0 to nrhs - 1 do
      wr.(dst + jcol) <- br.((jcol * n) + src);
      wi.(dst + jcol) <- bi.((jcol * n) + src)
    done
  done;
  (* forward: L y = Pb, unit diagonal; columns in pivot order *)
  for k = 0 to n - 1 do
    let ko = k * nrhs in
    for p = s.lp.(k) + 1 to s.lp.(k + 1) - 1 do
      let io = s.lidx.(p) * nrhs in
      let lr = f.lre.(p) and li = f.lim.(p) in
      for jcol = 0 to nrhs - 1 do
        let yr = Array.unsafe_get wr (ko + jcol)
        and yi = Array.unsafe_get wi (ko + jcol) in
        if yr <> 0. || yi <> 0. then begin
          let o = io + jcol in
          Array.unsafe_set wr o
            (Array.unsafe_get wr o -. (lr *. yr) +. (li *. yi));
          Array.unsafe_set wi o
            (Array.unsafe_get wi o -. (lr *. yi) -. (li *. yr))
        end
      done
    done
  done;
  (* backward: U x = y; column k of U ends with its diagonal *)
  for k = n - 1 downto 0 do
    let ko = k * nrhs in
    let dpos = s.up.(k + 1) - 1 in
    let ur = f.ure.(dpos) and ui = f.uim.(dpos) in
    let umag = (ur *. ur) +. (ui *. ui) in
    for jcol = 0 to nrhs - 1 do
      let yr = wr.(ko + jcol) and yi = wi.(ko + jcol) in
      wr.(ko + jcol) <- ((yr *. ur) +. (yi *. ui)) /. umag;
      wi.(ko + jcol) <- ((yi *. ur) -. (yr *. ui)) /. umag
    done;
    for p = s.up.(k) to dpos - 1 do
      let io = s.uidx.(p) * nrhs in
      let ar = f.ure.(p) and ai = f.uim.(p) in
      for jcol = 0 to nrhs - 1 do
        let sr = Array.unsafe_get wr (ko + jcol)
        and si = Array.unsafe_get wi (ko + jcol) in
        if sr <> 0. || si <> 0. then begin
          let o = io + jcol in
          Array.unsafe_set wr o
            (Array.unsafe_get wr o -. (ar *. sr) +. (ai *. si));
          Array.unsafe_set wi o
            (Array.unsafe_get wi o -. (ar *. si) -. (ai *. sr))
        end
      done
    done
  done;
  (* x = Q^T x': step i of the permuted system is row [perm.(i)] *)
  let xr = Cmat.unsafe_re x and xi = Cmat.unsafe_im x in
  for i = 0 to n - 1 do
    let dst = match s.sym_perm with None -> i | Some perm -> perm.(i) in
    for jcol = 0 to nrhs - 1 do
      xr.((jcol * n) + dst) <- wr.((i * nrhs) + jcol);
      xi.((jcol * n) + dst) <- wi.((i * nrhs) + jcol)
    done
  done

let solve f b =
  let n = f.sym.n in
  if Cmat.rows b <> n then invalid_arg "Slu.solve: dimension mismatch";
  let len = n * Cmat.cols b in
  let x = Cmat.zeros n (Cmat.cols b) in
  solve_into f ~wr:(Array.make len 0.) ~wi:(Array.make len 0.) x b;
  x

(* ---- a sweep in caller-owned buffers -------------------------------- *)

(* Everything a factor-and-solve step allocates, allocated once by
   [sweep]: the L/U buffers (which hold the factor: a refactorization
   overwrites its values in place, which is sound because
   [refactor_core] reads only values it wrote in the same call), the
   column-view values, the elimination scratch and the solve vectors. *)
type sweep = {
  sw_perm : int array;
  sw_diagonal : float;
  view : int array * int array * int array;
  sw_rowptr : int array;
  sw_colind : int array;
  l : growbuf;
  u : growbuf;
  sare : float array;
  saim : float array;
  sxre : float array;
  sxim : float array;
  wr : float array;
  wi : float array;
  x : Cmat.t;
  mutable last : factor option;
}

let sweep ~perm ?(diagonal = 0.) ~nrhs (a : Scsr.t) =
  check_diagonal diagonal;
  let n, n' = Scsr.dims a in
  if n <> n' then invalid_arg "Slu.sweep: matrix not square";
  if nrhs < 1 then invalid_arg "Slu.sweep: need nrhs >= 1";
  (match check_perm n perm with
   | Ok _ -> ()
   | Error _ -> invalid_arg "Slu.sweep: not a permutation");
  let nnz = Scsr.nnz a in
  { sw_perm = perm; sw_diagonal = diagonal; view = column_view a (Some perm);
    sw_rowptr = a.Scsr.rowptr; sw_colind = a.Scsr.colind;
    l = growbuf_make (4 * nnz); u = growbuf_make (4 * nnz);
    sare = Array.make nnz 0.; saim = Array.make nnz 0.;
    sxre = Array.make n 0.; sxim = Array.make n 0.;
    wr = Array.make (n * nrhs) 0.; wi = Array.make (n * nrhs) 0.;
    x = Cmat.zeros n nrhs; last = None }

let sweep_solve s (a : Scsr.t) b =
  if Cmat.rows b <> Cmat.rows s.x || Cmat.cols b <> Cmat.cols s.x then
    invalid_arg "Slu.sweep_solve: dimension mismatch";
  if not (same_pattern ~rowptr:s.sw_rowptr ~colind:s.sw_colind a) then
    Error (bad_perm "sweep: pattern differs from the sweep's")
  else if Fault.armed "sparse.singular_pivot" then
    Error (singular ~injected:true 0)
  else begin
    let _, _, scatter = s.view in
    scatter_into scatter a s.sare s.saim;
    let full () =
      eliminate ~diagonal:s.sw_diagonal ~trim:false ~l:s.l ~u:s.u
        ~xre:s.sxre ~xim:s.sxim ~perm:(Some s.sw_perm) ~view:s.view a
        s.sare s.saim
    in
    let fac =
      match s.last with
      | None -> full ()
      | Some f ->
        refactor_or_full f.sym f ~xre:s.sxre ~xim:s.sxim s.sare s.saim full
    in
    match fac with
    | Error _ as e ->
      s.last <- None;
      e
    | Ok f ->
      s.last <- Some f;
      solve_into f ~wr:s.wr ~wi:s.wi s.x b;
      Ok s.x
  end

let fill f = f.sym.lp.(f.sym.n) + f.sym.up.(f.sym.n)
let order f = f.sym.sym_perm
let size f = f.sym.n
