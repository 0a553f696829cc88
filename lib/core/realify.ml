open Linalg

let check_paired sizes =
  let n = Array.length sizes in
  if n land 1 = 1 then
    invalid_arg "Realify: blocks must come in conjugate pairs";
  for i = 0 to (n / 2) - 1 do
    if sizes.(2 * i) <> sizes.((2 * i) + 1) then
      invalid_arg "Realify: conjugate partners must have equal width"
  done

let transform_matrix sizes =
  check_paired sizes;
  let pair_block t =
    let s = 1. /. sqrt 2. in
    Cmat.init (2 * t) (2 * t) (fun i jcol ->
        (* [[ I, -jI ], [ I, jI ]] / sqrt 2 *)
        if jcol < t then
          if i = jcol || i = jcol + t then Cx.of_float s else Cx.zero
        else if i = jcol - t then Cx.make 0. (-.s)
        else if i = jcol then Cx.make 0. s
        else Cx.zero)
  in
  let blocks = ref [] in
  let i = ref 0 in
  while !i < Array.length sizes do
    blocks := pair_block sizes.(!i) :: !blocks;
    i := !i + 2
  done;
  Cmat.blkdiag (List.rev !blocks)

(* The transform only mixes each block with its conjugate partner, so it
   is applied pairwise in O(K^2) instead of forming the dense K x K
   matrix product:
     M T   : col_a' = (col_a + col_b)/sqrt2, col_b' = j (col_b - col_a)/sqrt2
     T^* M : row_a' = (row_a + row_b)/sqrt2, row_b' = j (row_a - row_b)/sqrt2 *)

let pair_offsets sizes =
  check_paired sizes;
  let out = ref [] in
  let off = ref 0 in
  let i = ref 0 in
  while !i < Array.length sizes do
    let t = sizes.(!i) in
    for c = 0 to t - 1 do
      out := (!off + c, !off + t + c) :: !out
    done;
    off := !off + (2 * t);
    i := !i + 2
  done;
  List.rev !out

let apply_cols sizes m =
  let out = Cmat.copy m in
  let rows = Cmat.rows out in
  let re = Cmat.unsafe_re out and im = Cmat.unsafe_im out in
  let s = 1. /. sqrt 2. in
  List.iter
    (fun (a, b) ->
      let aoff = a * rows and boff = b * rows in
      for i = 0 to rows - 1 do
        let ar = re.(aoff + i) and ai = im.(aoff + i) in
        let br = re.(boff + i) and bi = im.(boff + i) in
        re.(aoff + i) <- s *. (ar +. br);
        im.(aoff + i) <- s *. (ai +. bi);
        (* j (b - a) / sqrt2 *)
        re.(boff + i) <- s *. (ai -. bi);
        im.(boff + i) <- s *. (br -. ar)
      done)
    (pair_offsets sizes);
  out

let apply_rows sizes m =
  let out = Cmat.copy m in
  let rows = Cmat.rows out and cols = Cmat.cols out in
  let re = Cmat.unsafe_re out and im = Cmat.unsafe_im out in
  let s = 1. /. sqrt 2. in
  List.iter
    (fun (a, b) ->
      for jcol = 0 to cols - 1 do
        let aidx = a + (jcol * rows) and bidx = b + (jcol * rows) in
        let ar = re.(aidx) and ai = im.(aidx) in
        let br = re.(bidx) and bi = im.(bidx) in
        re.(aidx) <- s *. (ar +. br);
        im.(aidx) <- s *. (ai +. bi);
        (* j (a - b) / sqrt2 *)
        re.(bidx) <- s *. (bi -. ai);
        im.(bidx) <- s *. (ar -. br)
      done)
    (pair_offsets sizes);
  out

let apply (t : Loewner.t) =
  let rs = t.Loewner.right_sizes and ls = t.Loewner.left_sizes in
  { t with
    Loewner.ll = apply_rows ls (apply_cols rs t.Loewner.ll);
    sll = apply_rows ls (apply_cols rs t.Loewner.sll);
    w = apply_cols rs t.Loewner.w;
    v = apply_rows ls t.Loewner.v;
    r = apply_cols rs t.Loewner.r;
    l = apply_rows ls t.Loewner.l }
