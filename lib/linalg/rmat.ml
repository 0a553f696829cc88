type t = { rows : int; cols : int; data : float array }

let check_dims rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Rmat: negative dimension"

let create rows cols =
  check_dims rows cols;
  { rows; cols; data = Array.make (rows * cols) 0. }

let zeros = create

let init rows cols f =
  let m = create rows cols in
  for jcol = 0 to cols - 1 do
    for i = 0 to rows - 1 do
      m.data.(i + (jcol * rows)) <- f i jcol
    done
  done;
  m

let identity n = init n n (fun i jcol -> if i = jcol then 1. else 0.)

let of_rows rows_list =
  match rows_list with
  | [] -> create 0 0
  | first :: _ ->
    let rows = List.length rows_list and cols = List.length first in
    let m = create rows cols in
    List.iteri
      (fun i row ->
        if List.length row <> cols then invalid_arg "Rmat.of_rows: ragged rows";
        List.iteri (fun jcol x -> m.data.(i + (jcol * rows)) <- x) row)
      rows_list;
    m

(* drawn in storage (column-major) order *)
let random rng rows cols =
  let m = create rows cols in
  for k = 0 to (rows * cols) - 1 do
    m.data.(k) <- Rng.gaussian rng
  done;
  m

let dims m = (m.rows, m.cols)
let get m i jcol = m.data.(i + (jcol * m.rows))
let set m i jcol x = m.data.(i + (jcol * m.rows)) <- x
let copy m = { m with data = Array.copy m.data }

let transpose a =
  let m = a.rows and n = a.cols in
  let t = create n m in
  for jcol = 0 to n - 1 do
    for i = 0 to m - 1 do
      t.data.(jcol + (i * n)) <- a.data.(i + (jcol * m))
    done
  done;
  t

let map f m = { m with data = Array.map f m.data }

let same_dims a b op =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Rmat.%s: dimension mismatch %dx%d vs %dx%d"
                   op a.rows a.cols b.rows b.cols)

let add a b =
  same_dims a b "add";
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  same_dims a b "sub";
  let d = Array.copy a.data in
  for k = 0 to Array.length d - 1 do
    d.(k) <- d.(k) -. b.data.(k)
  done;
  { a with data = d }

let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }
let neg m = scale (-1.) m

let col m jcol = Array.sub m.data (jcol * m.rows) m.rows
let row m i = Array.init m.cols (fun jcol -> get m i jcol)

let set_col m jcol v =
  if Array.length v <> m.rows then invalid_arg "Rmat.set_col: length mismatch";
  Array.blit v 0 m.data (jcol * m.rows) m.rows

let sub_matrix m ~r ~c ~rows ~cols =
  if r < 0 || c < 0 || r + rows > m.rows || c + cols > m.cols then
    invalid_arg "Rmat.sub_matrix: block out of range";
  let blk = create rows cols in
  for jcol = 0 to cols - 1 do
    Array.blit m.data (r + ((c + jcol) * m.rows)) blk.data (jcol * rows) rows
  done;
  blk

let set_sub m ~r ~c blk =
  if r < 0 || c < 0 || r + blk.rows > m.rows || c + blk.cols > m.cols then
    invalid_arg "Rmat.set_sub: block out of range";
  for jcol = 0 to blk.cols - 1 do
    Array.blit blk.data (jcol * blk.rows) m.data (r + ((c + jcol) * m.rows)) blk.rows
  done

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Rmat.hcat: row mismatch";
  let m = create a.rows (a.cols + b.cols) in
  Array.blit a.data 0 m.data 0 (Array.length a.data);
  Array.blit b.data 0 m.data (Array.length a.data) (Array.length b.data);
  m

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Rmat.vcat: column mismatch";
  let m = create (a.rows + b.rows) a.cols in
  set_sub m ~r:0 ~c:0 a;
  set_sub m ~r:a.rows ~c:0 b;
  m

(* ---- GEMM on the real column kernels (cmat_stubs.c) ---- *)

external dot_block :
  float array -> float array -> float array -> int -> int -> int -> int ->
  int -> int -> unit
  = "mfti_dot_block_byte" "mfti_dot_block"
[@@noalloc]

external axpy_block :
  float array -> float array -> float array -> int -> int -> int -> int ->
  int -> int -> unit
  = "mfti_axpy_block_byte" "mfti_axpy_block"
[@@noalloc]

(* [f j0 j1] over the [n] result columns: one chunk per domain, or
   inline below [32^3] multiply-adds where the pool handshake would
   dominate.  Every result entry is reduced in an order fixed by the
   operand shapes, so the split never changes a bit. *)
let over_columns ~work n f =
  let dc = Parallel.domain_count () in
  let chunk = if work <= 32 * 32 * 32 then n else (n + dc - 1) / dc in
  Parallel.parallel_for ~chunk:(Stdlib.max 1 chunk) n f

(* Rows of the result per [dot_block] panel: the matching columns of
   the left operand stay cache-resident while every right column
   streams against them. *)
let gemm_panel = 96

let mul_tn a b =
  if a.rows <> b.rows then invalid_arg "Rmat.mul_tn: dimension mismatch";
  let kk = a.rows and m = a.cols and n = b.cols in
  let c = create m n in
  let ip = ref 0 in
  while !ip < m do
    let ilo = !ip and ihi = Stdlib.min m (!ip + gemm_panel) in
    over_columns ~work:(kk * m * n) n (fun j0 j1 ->
        dot_block a.data b.data c.data kk m ilo ihi j0 j1);
    ip := ihi
  done;
  c

let mul a b =
  if a.cols <> b.rows then invalid_arg "Rmat.mul: dimension mismatch";
  let m = a.rows and kk = a.cols and n = b.cols in
  let c = create m n in
  over_columns ~work:(m * kk * n) n (fun j0 j1 ->
      axpy_block a.data b.data c.data m kk 0 kk j0 j1);
  c

let norm_fro m =
  Stdlib.sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

let max_abs m = Array.fold_left (fun acc x -> Stdlib.max acc (abs_float x)) 0. m.data

let trace m =
  let n = Stdlib.min m.rows m.cols in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. get m i i
  done;
  !acc

let equal ~tol a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> abs_float (x -. y) <= tol) a.data b.data

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for jcol = 0 to m.cols - 1 do
      if jcol > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.4g" (get m i jcol)
    done;
    Format.fprintf ppf "@]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
