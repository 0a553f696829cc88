(* Complex sparse matrices in compressed-sparse-row form.

   Assembly goes through a triplet [builder] backed by growable
   unboxed parallel arrays (the first sparse cut used a boxed tuple
   list, which at 100k-node MNA sizes spent more time in the GC than
   in the stamps).  [compress] is a counting sort by row, a per-row
   sort by column, and a duplicate merge — O(nnz log rowlen) with no
   intermediate boxing.

   The matvec kernels run on the {!Linalg.Parallel} domain pool and
   keep the per-output-element accumulation order fixed (each output
   row is reduced sequentially inside one chunk), so results are
   bit-identical at any pool size — the same contract the dense
   kernels honour. *)

open Linalg

type builder = {
  brows : int;
  bcols : int;
  mutable bi : int array;
  mutable bj : int array;
  mutable bre : float array;
  mutable bim : float array;
  mutable blen : int;
}

type t = {
  rows : int;
  cols : int;
  rowptr : int array;
  colind : int array;
  re : float array;
  im : float array;
}

let create ?(hint = 16) ~rows ~cols () =
  if rows < 0 || cols < 0 then invalid_arg "Scsr.create: negative dimension";
  let cap = Stdlib.max hint 4 in
  { brows = rows; bcols = cols;
    bi = Array.make cap 0; bj = Array.make cap 0;
    bre = Array.make cap 0.; bim = Array.make cap 0.;
    blen = 0 }

let grow b =
  let cap = 2 * Array.length b.bi in
  let gi = Array.make cap 0 and gj = Array.make cap 0 in
  let gre = Array.make cap 0. and gim = Array.make cap 0. in
  Array.blit b.bi 0 gi 0 b.blen;
  Array.blit b.bj 0 gj 0 b.blen;
  Array.blit b.bre 0 gre 0 b.blen;
  Array.blit b.bim 0 gim 0 b.blen;
  b.bi <- gi; b.bj <- gj; b.bre <- gre; b.bim <- gim

let add_parts b i j vre vim =
  if i < 0 || i >= b.brows || j < 0 || j >= b.bcols then
    invalid_arg "Scsr.add: index out of range";
  if vre <> 0. || vim <> 0. then begin
    if b.blen = Array.length b.bi then grow b;
    b.bi.(b.blen) <- i;
    b.bj.(b.blen) <- j;
    b.bre.(b.blen) <- vre;
    b.bim.(b.blen) <- vim;
    b.blen <- b.blen + 1
  end

let add b i j (z : Cx.t) = add_parts b i j z.Cx.re z.Cx.im
let add_real b i j x = add_parts b i j x 0.
let pending b = b.blen

(* sort [cj|cre|cim] on [lo, hi) by column index: insertion sort for the
   short rows MNA produces, index-sort for anything long (of_dense) *)
let sort_row cj cre cim lo hi =
  let len = hi - lo in
  if len > 1 then begin
    if len <= 32 then
      for p = lo + 1 to hi - 1 do
        let j = cj.(p) and vr = cre.(p) and vi = cim.(p) in
        let q = ref (p - 1) in
        while !q >= lo && cj.(!q) > j do
          cj.(!q + 1) <- cj.(!q);
          cre.(!q + 1) <- cre.(!q);
          cim.(!q + 1) <- cim.(!q);
          decr q
        done;
        cj.(!q + 1) <- j;
        cre.(!q + 1) <- vr;
        cim.(!q + 1) <- vi
      done
    else begin
      let order = Array.init len (fun k -> lo + k) in
      Array.sort (fun a bq -> compare cj.(a) cj.(bq)) order;
      let tj = Array.make len 0 in
      let tr = Array.make len 0. and ti = Array.make len 0. in
      for k = 0 to len - 1 do
        tj.(k) <- cj.(order.(k));
        tr.(k) <- cre.(order.(k));
        ti.(k) <- cim.(order.(k))
      done;
      Array.blit tj 0 cj lo len;
      Array.blit tr 0 cre lo len;
      Array.blit ti 0 cim lo len
    end
  end

let compress b =
  let n = b.brows in
  let starts = Array.make (n + 1) 0 in
  for p = 0 to b.blen - 1 do
    starts.(b.bi.(p) + 1) <- starts.(b.bi.(p) + 1) + 1
  done;
  for i = 0 to n - 1 do
    starts.(i + 1) <- starts.(i + 1) + starts.(i)
  done;
  let cursor = Array.sub starts 0 n in
  let cj = Array.make b.blen 0 in
  let cre = Array.make b.blen 0. and cim = Array.make b.blen 0. in
  for p = 0 to b.blen - 1 do
    let i = b.bi.(p) in
    let q = cursor.(i) in
    cj.(q) <- b.bj.(p);
    cre.(q) <- b.bre.(p);
    cim.(q) <- b.bim.(p);
    cursor.(i) <- q + 1
  done;
  let rowptr = Array.make (n + 1) 0 in
  (* merge duplicates in place (write cursor never passes read cursor),
     dropping entries that cancelled to exactly zero *)
  let w = ref 0 in
  for i = 0 to n - 1 do
    let lo = starts.(i) and hi = starts.(i + 1) in
    sort_row cj cre cim lo hi;
    rowptr.(i) <- !w;
    let p = ref lo in
    while !p < hi do
      let j = cj.(!p) in
      let sr = ref 0. and si = ref 0. in
      while !p < hi && cj.(!p) = j do
        sr := !sr +. cre.(!p);
        si := !si +. cim.(!p);
        incr p
      done;
      if !sr <> 0. || !si <> 0. then begin
        cj.(!w) <- j;
        cre.(!w) <- !sr;
        cim.(!w) <- !si;
        incr w
      end
    done
  done;
  rowptr.(n) <- !w;
  { rows = b.brows; cols = b.bcols; rowptr;
    colind = Array.sub cj 0 !w;
    re = Array.sub cre 0 !w;
    im = Array.sub cim 0 !w }

let nnz t = t.rowptr.(t.rows)
let dims t = (t.rows, t.cols)
let rows t = t.rows
let cols t = t.cols

let mul_vec t x =
  if Cmat.rows x <> t.cols || Cmat.cols x <> 1 then
    invalid_arg "Scsr.mul_vec: expected a column vector of matching size";
  let y = Cmat.zeros t.rows 1 in
  let yr = Cmat.unsafe_re y and yi = Cmat.unsafe_im y in
  let xr = Cmat.unsafe_re x and xi = Cmat.unsafe_im x in
  Parallel.parallel_for t.rows (fun lo hi ->
    for i = lo to hi - 1 do
      let sr = ref 0. and si = ref 0. in
      for p = t.rowptr.(i) to t.rowptr.(i + 1) - 1 do
        let j = t.colind.(p) in
        let ar = t.re.(p) and ai = t.im.(p) in
        let vr = xr.(j) and vi = xi.(j) in
        sr := !sr +. (ar *. vr) -. (ai *. vi);
        si := !si +. (ar *. vi) +. (ai *. vr)
      done;
      yr.(i) <- sr.contents;
      yi.(i) <- si.contents
    done);
  y

let mul_mat t x =
  if Cmat.rows x <> t.cols then
    invalid_arg "Scsr.mul_mat: dimension mismatch";
  let k = Cmat.cols x in
  if k = 1 then mul_vec t x
  else begin
    let y = Cmat.zeros t.rows k in
    let yr = Cmat.unsafe_re y and yi = Cmat.unsafe_im y in
    let xr = Cmat.unsafe_re x and xi = Cmat.unsafe_im x in
    let run_rows lo hi c =
      let xoff = c * t.cols and yoff = c * t.rows in
      for i = lo to hi - 1 do
        let sr = ref 0. and si = ref 0. in
        for p = t.rowptr.(i) to t.rowptr.(i + 1) - 1 do
          let j = t.colind.(p) in
          let ar = t.re.(p) and ai = t.im.(p) in
          let vr = xr.(xoff + j) and vi = xi.(xoff + j) in
          sr := !sr +. (ar *. vr) -. (ai *. vi);
          si := !si +. (ar *. vi) +. (ai *. vr)
        done;
        yr.(yoff + i) <- sr.contents;
        yi.(yoff + i) <- si.contents
      done
    in
    (* with few right-hand sides split the rows across the pool, with
       many split the columns: each keeps one matrix pass per column in
       cache-friendly order, and either way every output element is
       reduced sequentially, so the result is chunking-invariant *)
    if k < 4 then
      Parallel.parallel_for t.rows (fun lo hi ->
        for c = 0 to k - 1 do run_rows lo hi c done)
    else
      Parallel.parallel_for k (fun clo chi ->
        for c = clo to chi - 1 do run_rows 0 t.rows c done);
    y
  end

(* The values of [alpha*a + beta*b] on the union pattern, row by row
   into [dst].  With [fill] the pattern is written too; without, it
   must already be the union's, which the merge checks as it goes. *)
let merge_values ~alpha a ~beta b dst ~fill =
  let alr = alpha.Cx.re and ali = alpha.Cx.im in
  let ber = beta.Cx.re and bei = beta.Cx.im in
  let { rowptr; colind; re; im; _ } = dst in
  for i = 0 to a.rows - 1 do
    let pa = ref a.rowptr.(i) and pb = ref b.rowptr.(i) in
    let ea = a.rowptr.(i + 1) and eb = b.rowptr.(i + 1) in
    let w = ref rowptr.(i) in
    while !pa < ea || !pb < eb do
      let ja = if !pa < ea then a.colind.(!pa) else max_int in
      let jb = if !pb < eb then b.colind.(!pb) else max_int in
      let j = Stdlib.min ja jb in
      let sr = ref 0. and si = ref 0. in
      if ja = j then begin
        sr := (alr *. a.re.(!pa)) -. (ali *. a.im.(!pa));
        si := (alr *. a.im.(!pa)) +. (ali *. a.re.(!pa));
        incr pa
      end;
      if jb = j then begin
        sr := !sr +. (ber *. b.re.(!pb)) -. (bei *. b.im.(!pb));
        si := !si +. (ber *. b.im.(!pb)) +. (bei *. b.re.(!pb));
        incr pb
      end;
      if fill then colind.(!w) <- j
      else if !w >= rowptr.(i + 1) || colind.(!w) <> j then
        invalid_arg "Scsr.scale_add_into: pattern is not the operands' union";
      re.(!w) <- !sr;
      im.(!w) <- !si;
      incr w
    done;
    if !w <> rowptr.(i + 1) then
      invalid_arg "Scsr.scale_add_into: pattern is not the operands' union"
  done

let scale_add ~alpha a ~beta b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Scsr.scale_add: dimension mismatch";
  let n = a.rows in
  let rowptr = Array.make (n + 1) 0 in
  (* pass 1: count the merged row lengths.  The result pattern is the
     union of the operand patterns even where values cancel, so the
     pattern (hence a fill-reducing ordering computed on it) is stable
     across the frequency sweep that reuses it. *)
  for i = 0 to n - 1 do
    let pa = ref a.rowptr.(i) and pb = ref b.rowptr.(i) in
    let ea = a.rowptr.(i + 1) and eb = b.rowptr.(i + 1) in
    let c = ref 0 in
    while !pa < ea || !pb < eb do
      (if !pa < ea && (!pb >= eb || a.colind.(!pa) <= b.colind.(!pb)) then begin
         let j = a.colind.(!pa) in
         incr pa;
         if !pb < eb && b.colind.(!pb) = j then incr pb
       end
       else incr pb);
      incr c
    done;
    rowptr.(i + 1) <- !c
  done;
  for i = 0 to n - 1 do
    rowptr.(i + 1) <- rowptr.(i + 1) + rowptr.(i)
  done;
  let total = rowptr.(n) in
  let dst =
    { rows = n; cols = a.cols; rowptr; colind = Array.make total 0;
      re = Array.make total 0.; im = Array.make total 0. }
  in
  merge_values ~alpha a ~beta b dst ~fill:true;
  dst

let scale_add_into dst ~alpha a ~beta b =
  if a.rows <> b.rows || a.cols <> b.cols || dst.rows <> a.rows
     || dst.cols <> a.cols
  then invalid_arg "Scsr.scale_add_into: dimension mismatch";
  merge_values ~alpha a ~beta b dst ~fill:false

let transpose t =
  let m = t.cols in
  let rowptr = Array.make (m + 1) 0 in
  let tnnz = nnz t in
  for p = 0 to tnnz - 1 do
    rowptr.(t.colind.(p) + 1) <- rowptr.(t.colind.(p) + 1) + 1
  done;
  for j = 0 to m - 1 do
    rowptr.(j + 1) <- rowptr.(j + 1) + rowptr.(j)
  done;
  let cursor = Array.sub rowptr 0 m in
  let colind = Array.make tnnz 0 in
  let re = Array.make tnnz 0. and im = Array.make tnnz 0. in
  (* scanning source rows in order leaves every target row sorted *)
  for i = 0 to t.rows - 1 do
    for p = t.rowptr.(i) to t.rowptr.(i + 1) - 1 do
      let j = t.colind.(p) in
      let q = cursor.(j) in
      colind.(q) <- i;
      re.(q) <- t.re.(p);
      im.(q) <- t.im.(p);
      cursor.(j) <- q + 1
    done
  done;
  { rows = m; cols = t.rows; rowptr; colind; re; im }

let check_perm n perm =
  if Array.length perm <> n then
    invalid_arg "Scsr.permute: bad permutation length";
  let seen = Array.make n false in
  Array.iter
    (fun old ->
      if old < 0 || old >= n || seen.(old) then
        invalid_arg "Scsr.permute: not a permutation";
      seen.(old) <- true)
    perm

let permute t ~perm =
  let n, n' = dims t in
  if n <> n' then invalid_arg "Scsr.permute: matrix not square";
  check_perm n perm;
  let inv = Array.make n 0 in
  Array.iteri (fun newpos old -> inv.(old) <- newpos) perm;
  let rowptr = Array.make (n + 1) 0 in
  for i' = 0 to n - 1 do
    let i = perm.(i') in
    rowptr.(i' + 1) <- rowptr.(i') + (t.rowptr.(i + 1) - t.rowptr.(i))
  done;
  let total = rowptr.(n) in
  let colind = Array.make total 0 in
  let re = Array.make total 0. and im = Array.make total 0. in
  for i' = 0 to n - 1 do
    let i = perm.(i') in
    let w = ref rowptr.(i') in
    for p = t.rowptr.(i) to t.rowptr.(i + 1) - 1 do
      colind.(!w) <- inv.(t.colind.(p));
      re.(!w) <- t.re.(p);
      im.(!w) <- t.im.(p);
      incr w
    done;
    sort_row colind re im rowptr.(i') rowptr.(i' + 1)
  done;
  { rows = n; cols = n; rowptr; colind; re; im }

let to_dense t =
  let m = Cmat.zeros t.rows t.cols in
  let mr = Cmat.unsafe_re m and mi = Cmat.unsafe_im m in
  for i = 0 to t.rows - 1 do
    for p = t.rowptr.(i) to t.rowptr.(i + 1) - 1 do
      let off = i + (t.colind.(p) * t.rows) in
      mr.(off) <- mr.(off) +. t.re.(p);
      mi.(off) <- mi.(off) +. t.im.(p)
    done
  done;
  m

let of_dense ?(drop_tol = 0.) d =
  let rows, cols = Cmat.dims d in
  let b = create ~rows ~cols () in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let z = Cmat.get d i j in
      if Cx.abs z > drop_tol then add b i j z
    done
  done;
  compress b

let is_finite t =
  let ok = ref true in
  for p = 0 to nnz t - 1 do
    if not (Float.is_finite t.re.(p) && Float.is_finite t.im.(p)) then
      ok := false
  done;
  !ok
