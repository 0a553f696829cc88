type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Cmat: negative dimension";
  { rows; cols; re = Array.make (rows * cols) 0.; im = Array.make (rows * cols) 0. }

let zeros = create

let init rows cols f =
  let m = create rows cols in
  for jcol = 0 to cols - 1 do
    for i = 0 to rows - 1 do
      let z = f i jcol in
      m.re.(i + (jcol * rows)) <- z.Cx.re;
      m.im.(i + (jcol * rows)) <- z.Cx.im
    done
  done;
  m

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.(i + (i * n)) <- 1.
  done;
  m

let scalar z = init 1 1 (fun _ _ -> z)

let of_rows rows_list =
  match rows_list with
  | [] -> create 0 0
  | first :: _ ->
    let rows = List.length rows_list and cols = List.length first in
    let m = create rows cols in
    List.iteri
      (fun i row ->
        if List.length row <> cols then invalid_arg "Cmat.of_rows: ragged rows";
        List.iteri
          (fun jcol (z : Cx.t) ->
            m.re.(i + (jcol * rows)) <- z.re;
            m.im.(i + (jcol * rows)) <- z.im)
          row)
      rows_list;
    m

let of_real (r : Rmat.t) =
  { rows = r.Rmat.rows; cols = r.Rmat.cols;
    re = Array.copy r.Rmat.data;
    im = Array.make (Array.length r.Rmat.data) 0. }

let col_vector a = init (Array.length a) 1 (fun i _ -> a.(i))
let random rng rows cols = init rows cols (fun _ _ -> Rng.complex_gaussian rng)
let random_real rng rows cols = init rows cols (fun _ _ -> Cx.of_float (Rng.gaussian rng))
let dims m = (m.rows, m.cols)
let rows m = m.rows
let cols m = m.cols

let get m i jcol =
  let k = i + (jcol * m.rows) in
  Cx.make m.re.(k) m.im.(k)

let set m i jcol (z : Cx.t) =
  let k = i + (jcol * m.rows) in
  m.re.(k) <- z.re;
  m.im.(k) <- z.im

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }
let map f m = init m.rows m.cols (fun i jcol -> f (get m i jcol))
let mapi f m = init m.rows m.cols (fun i jcol -> f i jcol (get m i jcol))

let iteri f m =
  for jcol = 0 to m.cols - 1 do
    for i = 0 to m.rows - 1 do
      f i jcol (get m i jcol)
    done
  done

let transpose m = init m.cols m.rows (fun i jcol -> get m jcol i)
let transpose_tile = 32

(* A^H = conj(A^T) with 32x32 tiles so both source and destination
   touch a bounded working set; negating twice is exact, so routing
   [mul] through the conjugating dot kernel reproduces A's entries bit
   for bit. *)
let ctranspose a =
  let m = a.rows and n = a.cols in
  let t = create n m in
  let are = a.re and aim = a.im in
  let tre = t.re and tim = t.im in
  let jb = ref 0 in
  while !jb < n do
    let jhi = Stdlib.min n (!jb + transpose_tile) in
    let ib = ref 0 in
    while !ib < m do
      let ihi = Stdlib.min m (!ib + transpose_tile) in
      for jcol = !jb to jhi - 1 do
        for i = !ib to ihi - 1 do
          let src = i + (jcol * m) and dst = jcol + (i * n) in
          Array.unsafe_set tre dst (Array.unsafe_get are src);
          Array.unsafe_set tim dst (-.Array.unsafe_get aim src)
        done
      done;
      ib := ihi
    done;
    jb := jhi
  done;
  t

let conj m = { m with re = Array.copy m.re; im = Array.map (fun x -> -.x) m.im }
let neg m = { m with re = Array.map (fun x -> -.x) m.re; im = Array.map (fun x -> -.x) m.im }

let same_dims a b op =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Cmat.%s: dimension mismatch %dx%d vs %dx%d"
                   op a.rows a.cols b.rows b.cols)

let add a b =
  same_dims a b "add";
  { a with
    re = Array.init (Array.length a.re) (fun k -> a.re.(k) +. b.re.(k));
    im = Array.init (Array.length a.im) (fun k -> a.im.(k) +. b.im.(k)) }

let sub a b =
  same_dims a b "sub";
  { a with
    re = Array.init (Array.length a.re) (fun k -> a.re.(k) -. b.re.(k));
    im = Array.init (Array.length a.im) (fun k -> a.im.(k) -. b.im.(k)) }

let scale (z : Cx.t) m =
  { m with
    re = Array.init (Array.length m.re) (fun k -> (z.re *. m.re.(k)) -. (z.im *. m.im.(k)));
    im = Array.init (Array.length m.im) (fun k -> (z.re *. m.im.(k)) +. (z.im *. m.re.(k))) }

let scale_float s m =
  { m with re = Array.map (( *. ) s) m.re; im = Array.map (( *. ) s) m.im }

let mul_reference a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Cmat.mul: %dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  let c = create a.rows b.cols in
  (* (ar + j ai)(br + j bi): four real saxpy passes per (k, jcol). *)
  for jcol = 0 to b.cols - 1 do
    let coff = jcol * a.rows in
    for k = 0 to a.cols - 1 do
      let boff = k + (jcol * b.rows) in
      let br = b.re.(boff) and bi = b.im.(boff) in
      if br <> 0. || bi <> 0. then begin
        let aoff = k * a.rows in
        for i = 0 to a.rows - 1 do
          let ar = a.re.(aoff + i) and ai = a.im.(aoff + i) in
          c.re.(coff + i) <- c.re.(coff + i) +. (ar *. br) -. (ai *. bi);
          c.im.(coff + i) <- c.im.(coff + i) +. (ar *. bi) +. (ai *. br)
        done
      end
    done
  done;
  c

(* Below [gemm_small_work] multiply-adds, the reference kernel wins
   (no pack, no pool handshake, no dispatch overhead). *)
let gemm_small_work = 32 * 32 * 32

(* C = conj(A)^T B with A consumed column-wise: four C rows per B
   column sweep, unit-stride loads on both operands, unchecked
   accesses.  Row groups are formed inside each B column, so the
   parallel chunking over columns cannot change any result. *)
let gemm_panel = 96

external conj_dot_block :
  float array -> float array -> float array -> float array ->
  float array -> float array -> int -> int -> int -> int -> int -> int ->
  unit
  = "mfti_conj_dot_block_byte" "mfti_conj_dot_block"
[@@noalloc]

let dot_kernel a b =
  let kk = a.rows and m = a.cols and n = b.cols in
  let c = create m n in
  (* columns are uniform work: one chunk per domain minimizes pool
     handshakes *)
  let dc = Parallel.domain_count () in
  let chunk = Stdlib.max 1 ((n + dc - 1) / dc) in
  (* C-row panels keep the corresponding [gemm_panel] columns of the
     packed operand L2-resident while every column of [b] streams
     against them, instead of re-reading all of [a] from memory for
     each result column.  Per-entry dots are unchanged by the panel
     split; the dots themselves run in the vectorized C microkernel. *)
  let ip = ref 0 in
  while !ip < m do
    let ilo = !ip and ihi = Stdlib.min m (!ip + gemm_panel) in
    Parallel.parallel_for ~chunk n (fun j0 j1 ->
        conj_dot_block a.re a.im b.re b.im c.re c.im kk m ilo ihi j0 j1);
    ip := ihi
  done;
  c

(* The large-size [mul] packs conj(A^T) once — a cache-blocked O(mk)
   transpose — and then runs the contiguous dot-product kernel shared
   with [mul_cn]: both operand columns stream unit-stride, which beats
   every saxpy variant measured on this substrate.  The per-entry
   accumulation order over k is that of the reference kernel
   (k ascending), keeping the blocked path numerically aligned with
   it. *)
let mul_blocked a b = dot_kernel (ctranspose a) b

let mul a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Cmat.mul: %dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  if a.rows * a.cols * b.cols <= gemm_small_work then mul_reference a b
  else mul_blocked a b

let mul_cn_reference a b =
  if a.rows <> b.rows then invalid_arg "Cmat.mul_cn: dimension mismatch";
  let c = create a.cols b.cols in
  for jcol = 0 to b.cols - 1 do
    let boff = jcol * b.rows in
    for i = 0 to a.cols - 1 do
      let aoff = i * a.rows in
      let accr = ref 0. and acci = ref 0. in
      for k = 0 to a.rows - 1 do
        let ar = a.re.(aoff + k) and ai = -.a.im.(aoff + k) in
        let br = b.re.(boff + k) and bi = b.im.(boff + k) in
        accr := !accr +. (ar *. br) -. (ai *. bi);
        acci := !acci +. (ar *. bi) +. (ai *. br)
      done;
      c.re.(i + (jcol * a.cols)) <- !accr;
      c.im.(i + (jcol * a.cols)) <- !acci
    done
  done;
  c

(* [mul_cn] is exactly the dot kernel: A is already consumed
   column-wise as conj(A)^T. *)
let mul_cn_blocked = dot_kernel

let mul_cn a b =
  if a.rows <> b.rows then invalid_arg "Cmat.mul_cn: dimension mismatch";
  if a.rows * a.cols * b.cols <= gemm_small_work then mul_cn_reference a b
  else mul_cn_blocked a b

let axpy alpha x y =
  same_dims x y "axpy";
  let n = Array.length x.re in
  let r = create x.rows x.cols in
  let zr = alpha.Cx.re and zi = alpha.Cx.im in
  for k = 0 to n - 1 do
    r.re.(k) <- (zr *. x.re.(k)) -. (zi *. x.im.(k)) +. y.re.(k);
    r.im.(k) <- (zr *. x.im.(k)) +. (zi *. x.re.(k)) +. y.im.(k)
  done;
  r

let sub_matrix m ~r ~c ~rows ~cols =
  if r < 0 || c < 0 || r + rows > m.rows || c + cols > m.cols then
    invalid_arg "Cmat.sub_matrix: block out of range";
  let blk = create rows cols in
  for jcol = 0 to cols - 1 do
    let src = r + ((c + jcol) * m.rows) and dst = jcol * rows in
    Array.blit m.re src blk.re dst rows;
    Array.blit m.im src blk.im dst rows
  done;
  blk

let set_sub m ~r ~c blk =
  if r < 0 || c < 0 || r + blk.rows > m.rows || c + blk.cols > m.cols then
    invalid_arg "Cmat.set_sub: block out of range";
  for jcol = 0 to blk.cols - 1 do
    let dst = r + ((c + jcol) * m.rows) and src = jcol * blk.rows in
    Array.blit blk.re src m.re dst blk.rows;
    Array.blit blk.im src m.im dst blk.rows
  done

let col m jcol = sub_matrix m ~r:0 ~c:jcol ~rows:m.rows ~cols:1
let row m i = sub_matrix m ~r:i ~c:0 ~rows:1 ~cols:m.cols

let set_col m jcol v =
  if v.rows <> m.rows || v.cols <> 1 then invalid_arg "Cmat.set_col: shape mismatch";
  set_sub m ~r:0 ~c:jcol v

let select_rows m idx =
  init (Array.length idx) m.cols (fun i jcol -> get m idx.(i) jcol)

let select_cols m idx =
  let blk = create m.rows (Array.length idx) in
  Array.iteri
    (fun jcol src ->
      Array.blit m.re (src * m.rows) blk.re (jcol * m.rows) m.rows;
      Array.blit m.im (src * m.rows) blk.im (jcol * m.rows) m.rows)
    idx;
  blk

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Cmat.hcat: row mismatch";
  let m = create a.rows (a.cols + b.cols) in
  Array.blit a.re 0 m.re 0 (Array.length a.re);
  Array.blit a.im 0 m.im 0 (Array.length a.im);
  Array.blit b.re 0 m.re (Array.length a.re) (Array.length b.re);
  Array.blit b.im 0 m.im (Array.length a.im) (Array.length b.im);
  m

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Cmat.vcat: column mismatch";
  let m = create (a.rows + b.rows) a.cols in
  set_sub m ~r:0 ~c:0 a;
  set_sub m ~r:a.rows ~c:0 b;
  m

let blocks rows_of_blocks =
  match rows_of_blocks with
  | [] -> create 0 0
  | _ ->
    let row_of_blocks blks =
      match blks with
      | [] -> invalid_arg "Cmat.blocks: empty block row"
      | first :: rest -> List.fold_left hcat first rest
    in
    (match List.map row_of_blocks rows_of_blocks with
     | [] -> assert false
     | first :: rest -> List.fold_left vcat first rest)

let blkdiag blks =
  let rows = List.fold_left (fun acc b -> acc + b.rows) 0 blks in
  let cols = List.fold_left (fun acc b -> acc + b.cols) 0 blks in
  let m = create rows cols in
  let _ =
    List.fold_left
      (fun (r, c) b ->
        set_sub m ~r ~c b;
        (r + b.rows, c + b.cols))
      (0, 0) blks
  in
  m

let trace m =
  let n = Stdlib.min m.rows m.cols in
  let accr = ref 0. and acci = ref 0. in
  for i = 0 to n - 1 do
    accr := !accr +. m.re.(i + (i * m.rows));
    acci := !acci +. m.im.(i + (i * m.rows))
  done;
  Cx.make !accr !acci

let norm_fro m =
  let acc = ref 0. in
  for k = 0 to Array.length m.re - 1 do
    acc := !acc +. (m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k))
  done;
  Stdlib.sqrt !acc

let max_abs m =
  let acc = ref 0. in
  for k = 0 to Array.length m.re - 1 do
    acc := Stdlib.max !acc (Stdlib.sqrt ((m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k))))
  done;
  !acc

let is_finite m =
  let ok = ref true in
  for k = 0 to Array.length m.re - 1 do
    if not (Float.is_finite m.re.(k) && Float.is_finite m.im.(k)) then
      ok := false
  done;
  !ok

let norm_one m =
  let best = ref 0. in
  for jcol = 0 to m.cols - 1 do
    let acc = ref 0. in
    for i = 0 to m.rows - 1 do
      let k = i + (jcol * m.rows) in
      acc := !acc +. Stdlib.sqrt ((m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k)))
    done;
    best := Stdlib.max !best !acc
  done;
  !best

let vec_norm m =
  if m.rows <> 1 && m.cols <> 1 then invalid_arg "Cmat.vec_norm: not a vector";
  norm_fro m

let vec_dot x y =
  if (x.rows <> 1 && x.cols <> 1) || (y.rows <> 1 && y.cols <> 1) then
    invalid_arg "Cmat.vec_dot: not vectors";
  let n = Array.length x.re in
  if n <> Array.length y.re then invalid_arg "Cmat.vec_dot: length mismatch";
  let accr = ref 0. and acci = ref 0. in
  for k = 0 to n - 1 do
    let ar = x.re.(k) and ai = -.x.im.(k) in
    let br = y.re.(k) and bi = y.im.(k) in
    accr := !accr +. (ar *. br) -. (ai *. bi);
    acci := !acci +. (ar *. bi) +. (ai *. br)
  done;
  Cx.make !accr !acci

let real_part m =
  let r = Rmat.create m.rows m.cols in
  Array.blit m.re 0 r.Rmat.data 0 (Array.length m.re);
  r

let max_imag m =
  let acc = ref 0. in
  for k = 0 to Array.length m.im - 1 do
    let a = abs_float m.im.(k) in
    if a > !acc || Float.is_nan a then acc := a
  done;
  !acc

let equal ~tol a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let n = Array.length a.re in
  let ok = ref true and k = ref 0 in
  while !ok && !k < n do
    let dr = a.re.(!k) -. b.re.(!k) and di = a.im.(!k) -. b.im.(!k) in
    if Stdlib.sqrt ((dr *. dr) +. (di *. di)) > tol then ok := false;
    incr k
  done;
  !ok

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for jcol = 0 to m.cols - 1 do
      if jcol > 0 then Format.fprintf ppf "  ";
      Format.fprintf ppf "%a" Cx.pp (get m i jcol)
    done;
    Format.fprintf ppf "@]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let unsafe_re m = m.re
let unsafe_im m = m.im
