open Linalg

type t = { e : Cmat.t; a : Cmat.t; b : Cmat.t; c : Cmat.t; d : Cmat.t }

exception Singular_pencil of Cx.t

let create ~e ~a ~b ~c ~d =
  let n, n2 = Cmat.dims e in
  let na, na2 = Cmat.dims a in
  let nb, m = Cmat.dims b in
  let p, nc = Cmat.dims c in
  let pd, md = Cmat.dims d in
  if n <> n2 || na <> na2 || n <> na then
    invalid_arg "Descriptor.create: E and A must be square of equal size";
  if nb <> n then invalid_arg "Descriptor.create: B row count must match order";
  if nc <> n then invalid_arg "Descriptor.create: C column count must match order";
  if pd <> p || md <> m then
    invalid_arg "Descriptor.create: D must be (outputs x inputs)";
  { e; a; b; c; d }

let of_state_space ~a ~b ~c ~d =
  create ~e:(Cmat.identity (Cmat.rows a)) ~a ~b ~c ~d

let order sys = Cmat.rows sys.a
let inputs sys = Cmat.cols sys.b
let outputs sys = Cmat.rows sys.c

let eval sys s =
  if order sys = 0 then sys.d
  else begin
    (* [solve_robust] falls back to a column-pivoted QR least-squares
       solve on pivot breakdown (recording "lu.qr_fallback" in the
       ambient diagnostics), so evaluation at an exactly-singular point
       yields the finite minimum-norm response instead of raising. *)
    let pencil = Cmat.sub (Cmat.scale s sys.e) sys.a in
    Cmat.add (Cmat.mul sys.c (Lu.solve_robust pencil sys.b)) sys.d
  end

let eval_freq sys f = eval sys (Cx.jw (2. *. Float.pi *. f))

(* Hessenberg-triangular reduction of the real pencil (the first stage
   of Moler & Stewart's QZ, no E inverse formed): Givens rotations Q, Z
   with Q^T A Z upper Hessenberg and Q^T E Z upper triangular, carrying
   Q^T B and C Z.  Column-major arrays, overwritten. *)
let hessenberg_triangular ~n ~m ~p a e b c =
  let rotation x y =
    let r = Float.hypot x y in
    if r = 0. then (1., 0.) else (x /. r, y /. r)
  in
  (* rows i-1, i of an n-row matrix, columns j0..j1: [cs sn; -sn cs] *)
  let rot_rows x i j0 j1 cs sn =
    for jcol = j0 to j1 do
      let o = (jcol * n) + i in
      let u = x.(o - 1) and v = x.(o) in
      x.(o - 1) <- (cs *. u) +. (sn *. v);
      x.(o) <- (cs *. v) -. (sn *. u)
    done
  in
  (* columns j-1, j of a [rows]-row matrix, rows 0..imax *)
  let rot_cols x rows j imax cs sn =
    let o1 = (j - 1) * rows and o2 = j * rows in
    for i = 0 to imax do
      let u = x.(o1 + i) and v = x.(o2 + i) in
      x.(o1 + i) <- (cs *. u) +. (sn *. v);
      x.(o2 + i) <- (cs *. v) -. (sn *. u)
    done
  in
  (* E := Q1^T E upper triangular *)
  for jcol = 0 to n - 2 do
    for i = n - 1 downto jcol + 1 do
      let y = e.(i + (jcol * n)) in
      if y <> 0. then begin
        let cs, sn = rotation e.(i - 1 + (jcol * n)) y in
        rot_rows e i jcol (n - 1) cs sn;
        rot_rows a i 0 (n - 1) cs sn;
        rot_rows b i 0 (m - 1) cs sn;
        e.(i + (jcol * n)) <- 0.
      end
    done
  done;
  (* A to Hessenberg; each row rotation's fill in E is chased out by a
     column rotation *)
  for jcol = 0 to n - 3 do
    for i = n - 1 downto jcol + 2 do
      let y = a.(i + (jcol * n)) in
      if y <> 0. then begin
        let cs, sn = rotation a.(i - 1 + (jcol * n)) y in
        rot_rows a i jcol (n - 1) cs sn;
        rot_rows e i (i - 1) (n - 1) cs sn;
        rot_rows b i 0 (m - 1) cs sn;
        a.(i + (jcol * n)) <- 0.;
        let u = e.(i + ((i - 1) * n)) in
        if u <> 0. then begin
          let cs, sn = rotation e.(i + (i * n)) (-.u) in
          rot_cols a n i (n - 1) cs sn;
          rot_cols e n i i cs sn;
          rot_cols c p i (p - 1) cs sn;
          e.(i + ((i - 1) * n)) <- 0.
        end
      end
    done
  done

(* Gaussian elimination on the upper Hessenberg [s T - H] (from
   {!hessenberg_triangular}), pivoting only between adjacent rows,
   applied to the real n x m right-hand side [qb]; then [cz x + d].
   [ur]/[ui] and [xr]/[xi] are row-major scratch.  [None] on a zero
   pivot. *)
let hessenberg_point ~n ~m ~p h t qb cz d (s : Cx.t) ur ui xr xi =
  for i = 0 to n - 1 do
    for jcol = Stdlib.max (i - 1) 0 to n - 1 do
      let tij = t.(i + (jcol * n)) in
      ur.((i * n) + jcol) <- (s.Cx.re *. tij) -. h.(i + (jcol * n));
      ui.((i * n) + jcol) <- s.Cx.im *. tij
    done;
    for c = 0 to m - 1 do
      xr.((i * m) + c) <- qb.(i + (c * n));
      xi.((i * m) + c) <- 0.
    done
  done;
  let swap arr a b len =
    for t = 0 to len - 1 do
      let x = arr.(a + t) in
      arr.(a + t) <- arr.(b + t);
      arr.(b + t) <- x
    done
  in
  let row_op vr vi lr li top bot len =
    for t = 0 to len - 1 do
      let tr = Array.unsafe_get vr (top + t)
      and ti = Array.unsafe_get vi (top + t) in
      Array.unsafe_set vr (bot + t)
        (Array.unsafe_get vr (bot + t) -. (lr *. tr) +. (li *. ti));
      Array.unsafe_set vi (bot + t)
        (Array.unsafe_get vi (bot + t) -. (lr *. ti) -. (li *. tr))
    done
  in
  let singular = ref false and k = ref 0 in
  while (not !singular) && !k < n do
    let k' = !k in
    let dk = (k' * n) + k' in
    let sub = dk + n in
    let mag o = (ur.(o) *. ur.(o)) +. (ui.(o) *. ui.(o)) in
    if k' < n - 1 && mag sub > mag dk then begin
      swap ur dk sub (n - k');
      swap ui dk sub (n - k');
      swap xr (k' * m) ((k' + 1) * m) m;
      swap xi (k' * m) ((k' + 1) * m) m
    end;
    let pr = ur.(dk) and pi = ui.(dk) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    if pmag = 0. then singular := true
    else if k' < n - 1 then begin
      (* row k+1 -= l row k, l = u(k+1,k) / u(k,k) *)
      let ar = ur.(sub) and ai = ui.(sub) in
      let lr = ((ar *. pr) +. (ai *. pi)) /. pmag in
      let li = ((ai *. pr) -. (ar *. pi)) /. pmag in
      row_op ur ui lr li (dk + 1) (sub + 1) (n - k' - 1);
      row_op xr xi lr li (k' * m) ((k' + 1) * m) m
    end;
    incr k
  done;
  if !singular then None
  else begin
    (* back substitution with the upper triangular factor, in place *)
    for k = n - 1 downto 0 do
      let ko = k * n and xo = k * m in
      for jcol = k + 1 to n - 1 do
        let vr = ur.(ko + jcol) and vi = ui.(ko + jcol) and jo = jcol * m in
        for c = 0 to m - 1 do
          let yr = Array.unsafe_get xr (jo + c)
          and yi = Array.unsafe_get xi (jo + c) in
          Array.unsafe_set xr (xo + c)
            (Array.unsafe_get xr (xo + c) -. (vr *. yr) +. (vi *. yi));
          Array.unsafe_set xi (xo + c)
            (Array.unsafe_get xi (xo + c) -. (vr *. yi) -. (vi *. yr))
        done
      done;
      let pr = ur.(ko + k) and pi = ui.(ko + k) in
      let pmag = (pr *. pr) +. (pi *. pi) in
      for c = 0 to m - 1 do
        let br = xr.(xo + c) and bi = xi.(xo + c) in
        xr.(xo + c) <- ((br *. pr) +. (bi *. pi)) /. pmag;
        xi.(xo + c) <- ((bi *. pr) -. (br *. pi)) /. pmag
      done
    done;
    let out = Cmat.copy d in
    let ore = Cmat.unsafe_re out and oim = Cmat.unsafe_im out in
    for k = 0 to n - 1 do
      for i = 0 to p - 1 do
        let w = cz.(i + (k * p)) in
        for c = 0 to m - 1 do
          ore.(i + (c * p)) <- ore.(i + (c * p)) +. (w *. xr.((k * m) + c));
          oim.(i + (c * p)) <- oim.(i + (c * p)) +. (w *. xi.((k * m) + c))
        done
      done
    done;
    Some out
  end

type hessenberg = {
  hn : int;
  hm : int;
  hp : int;
  h : float array;   (* Q^T A Z, upper Hessenberg, column-major n x n *)
  t : float array;   (* Q^T E Z, upper triangular, column-major n x n *)
  qb : float array;  (* Q^T B, column-major n x m *)
  cz : float array;  (* C Z, column-major p x n *)
  hd : Cmat.t;       (* D *)
}

let hessenberg sys =
  let n = order sys in
  let real m = Cmat.max_imag m = 0. in
  if
    n = 0
    || not (real sys.e && real sys.a && real sys.b && real sys.c)
    || Fault.armed "lu.singular"
  then None
  else begin
    let m = inputs sys and p = outputs sys in
    let part x = Array.copy (Cmat.unsafe_re x) in
    let h = part sys.a and t = part sys.e and qb = part sys.b
    and cz = part sys.c in
    hessenberg_triangular ~n ~m ~p h t qb cz;
    Some { hn = n; hm = m; hp = p; h; t; qb; cz; hd = sys.d }
  end

(* The scratch is allocated at partial application and every entry the
   elimination reads is written first for each point, so a reused
   closure gives the same bits as a fresh one. *)
let hessenberg_eval form =
  let n = form.hn and m = form.hm in
  let ur = Array.make (n * n) 0. and ui = Array.make (n * n) 0. in
  let xr = Array.make (n * m) 0. and xi = Array.make (n * m) 0. in
  fun s ->
    hessenberg_point ~n ~m ~p:form.hp form.h form.t form.qb form.cz form.hd s
      ur ui xr xi

let eval_grid sys freqs =
  match hessenberg sys with
  | None -> Array.map (eval_freq sys) freqs
  | Some form ->
    let point = hessenberg_eval form in
    Array.map
      (fun f ->
        match point (Cx.jw (2. *. Float.pi *. f)) with
        | Some g -> g
        | None -> eval_freq sys f)
      freqs

let dc_gain sys = eval sys Cx.zero

let is_real sys =
  let part m =
    let scale = Stdlib.max (Cmat.norm_fro m) 1e-300 in
    Cmat.max_imag m <= 1e-8 *. scale
  in
  part sys.e && part sys.a && part sys.b && part sys.c && part sys.d

let to_proper ?(rtol = 1e-11) sys =
  let n = order sys in
  if n = 0 then sys
  else begin
    let d = Svd.decompose sys.e in
    let r = Svd.rank ~rtol d in
    if r = n then sys
    else begin
      (* coordinates: x = V z, equations premultiplied by U^H:
         [Sigma_r z1'; 0] = U^H A V z + U^H B u *)
      let u = d.Svd.u and v = d.Svd.v in
      let at = Cmat.mul_cn u (Cmat.mul sys.a v) in
      let bt = Cmat.mul_cn u sys.b in
      let ct = Cmat.mul sys.c v in
      let a11 = Cmat.sub_matrix at ~r:0 ~c:0 ~rows:r ~cols:r in
      let a12 = Cmat.sub_matrix at ~r:0 ~c:r ~rows:r ~cols:(n - r) in
      let a21 = Cmat.sub_matrix at ~r ~c:0 ~rows:(n - r) ~cols:r in
      let a22 = Cmat.sub_matrix at ~r ~c:r ~rows:(n - r) ~cols:(n - r) in
      let b1 = Cmat.sub_matrix bt ~r:0 ~c:0 ~rows:r ~cols:(inputs sys) in
      let b2 = Cmat.sub_matrix bt ~r ~c:0 ~rows:(n - r) ~cols:(inputs sys) in
      let c1 = Cmat.sub_matrix ct ~r:0 ~c:0 ~rows:(outputs sys) ~cols:r in
      let c2 = Cmat.sub_matrix ct ~r:0 ~c:r ~rows:(outputs sys) ~cols:(n - r) in
      let a22f =
        match Lu.factorize a22 with
        | exception Lu.Singular _ ->
          invalid_arg
            "Descriptor.to_proper: algebraic block singular (index > 1)"
        | f -> f
      in
      (* z2 = -A22^{-1} (A21 z1 + B2 u) *)
      let s_a21 = Lu.solve a22f a21 in
      let s_b2 = Lu.solve a22f b2 in
      let e' =
        Cmat.init r r (fun i jcol ->
            if i = jcol then Cx.of_float d.Svd.sigma.(i) else Cx.zero)
      in
      let a' = Cmat.sub a11 (Cmat.mul a12 s_a21) in
      let b' = Cmat.sub b1 (Cmat.mul a12 s_b2) in
      let c' = Cmat.sub c1 (Cmat.mul c2 s_a21) in
      let d' = Cmat.sub sys.d (Cmat.mul c2 s_b2) in
      create ~e:e' ~a:a' ~b:b' ~c:c' ~d:d'
    end
  end

let save path sys =
  let oc = open_out path in
  let p = outputs sys and m = inputs sys and n = order sys in
  Printf.fprintf oc "mfti-descriptor-v1\n%d %d %d\n" n m p;
  let dump name mat =
    Printf.fprintf oc "%s\n" name;
    let rows, cols = Cmat.dims mat in
    for i = 0 to rows - 1 do
      for jcol = 0 to cols - 1 do
        let z = Cmat.get mat i jcol in
        if jcol > 0 then output_char oc ' ';
        Printf.fprintf oc "%.17g %.17g" z.Cx.re z.Cx.im
      done;
      output_char oc '\n'
    done
  in
  dump "E" sys.e;
  dump "A" sys.a;
  dump "B" sys.b;
  dump "C" sys.c;
  dump "D" sys.d;
  close_out oc

let load path =
  let ic = open_in path in
  let fail fmt = Printf.ksprintf (fun s -> close_in ic; failwith (path ^ ": " ^ s)) fmt in
  let line () = try input_line ic with End_of_file -> fail "unexpected end of file" in
  if String.trim (line ()) <> "mfti-descriptor-v1" then fail "bad header";
  let n, m, p =
    match String.split_on_char ' ' (String.trim (line ())) with
    | [ a; b; c ] ->
      (try (int_of_string a, int_of_string b, int_of_string c)
       with _ -> fail "bad dimensions")
    | _ -> fail "bad dimension line"
  in
  let read_matrix name rows cols =
    if String.trim (line ()) <> name then fail "expected matrix %s" name;
    Cmat.init rows cols (fun _ _ -> Cx.zero) |> fun mat ->
    for i = 0 to rows - 1 do
      let toks =
        String.split_on_char ' ' (String.trim (line ()))
        |> List.filter (fun s -> s <> "")
      in
      if List.length toks <> 2 * cols then
        fail "matrix %s row %d: expected %d numbers" name i (2 * cols);
      List.iteri
        (fun k tok ->
          match float_of_string_opt tok with
          | None -> fail "matrix %s row %d: bad number %S" name i tok
          | Some v ->
            let jcol = k / 2 in
            let z = Cmat.get mat i jcol in
            if k land 1 = 0 then Cmat.set mat i jcol { z with Cx.re = v }
            else Cmat.set mat i jcol { z with Cx.im = v })
        toks
    done;
    mat
  in
  let e = read_matrix "E" n n in
  let a = read_matrix "A" n n in
  let b = read_matrix "B" n m in
  let c = read_matrix "C" p n in
  let d = read_matrix "D" p m in
  close_in ic;
  create ~e ~a ~b ~c ~d

let pp ppf sys =
  Format.fprintf ppf "descriptor system: order %d, %d inputs, %d outputs%s"
    (order sys) (inputs sys) (outputs sys)
    (if is_real sys then " (real)" else " (complex)")
