open Linalg

let scaled_identity z0 n = Cmat.scale_float z0 (Cmat.identity n)

let check_square name m =
  let r, c = Cmat.dims m in
  if r <> c then invalid_arg (Printf.sprintf "Sparams.%s: matrix must be square" name);
  r

let check_z0 z0 =
  if z0 <= 0. || not (Float.is_finite z0) then
    invalid_arg "Sparams: reference impedance must be positive and finite"

(* right division B A^{-1}: solve A^T X^T = B^T. *)
let rdiv b a name =
  match Lu.factorize (Cmat.transpose a) with
  | exception Lu.Singular _ ->
    invalid_arg (Printf.sprintf "Sparams.%s: singular conversion matrix" name)
  | f -> Cmat.transpose (Lu.solve f (Cmat.transpose b))

let z_to_s ~z0 z =
  check_z0 z0;
  let n = check_square "z_to_s" z in
  let zi = scaled_identity z0 n in
  rdiv (Cmat.sub z zi) (Cmat.add z zi) "z_to_s"

let s_to_z ~z0 s =
  check_z0 z0;
  let n = check_square "s_to_z" s in
  let id = Cmat.identity n in
  match Lu.factorize (Cmat.sub id s) with
  | exception Lu.Singular _ -> invalid_arg "Sparams.s_to_z: I - S singular"
  | f -> Cmat.scale_float z0 (Lu.solve f (Cmat.add id s))

let y_to_s ~z0 y =
  check_z0 z0;
  let n = check_square "y_to_s" y in
  let id = Cmat.identity n in
  let zy = Cmat.scale_float z0 y in
  rdiv (Cmat.sub id zy) (Cmat.add id zy) "y_to_s"

let s_to_y ~z0 s =
  check_z0 z0;
  let n = check_square "s_to_y" s in
  let id = Cmat.identity n in
  match Lu.factorize (Cmat.add id s) with
  | exception Lu.Singular _ -> invalid_arg "Sparams.s_to_y: I + S singular"
  | f -> Cmat.scale_float (1. /. z0) (Lu.solve f (Cmat.sub id s))

let z_to_y z =
  match Lu.factorize z with
  | exception Lu.Singular _ -> invalid_arg "Sparams.z_to_y: Z singular"
  | f -> Lu.solve f (Cmat.identity (Cmat.rows z))

let map_samples f samples =
  Array.map
    (fun smp -> { smp with Statespace.Sampling.s = f smp.Statespace.Sampling.s })
    samples

let is_passive_sample ?(tol = 1e-9) s = Svd.norm2 s <= 1. +. tol

let max_singular_value samples =
  Array.fold_left
    (fun acc smp -> Stdlib.max acc (Svd.norm2 smp.Statespace.Sampling.s))
    0. samples

let descriptor_z_to_s ~z0 sys =
  check_z0 z0;
  let open Statespace.Descriptor in
  let m = inputs sys and p = outputs sys in
  if m <> p then invalid_arg "Sparams.descriptor_z_to_s: ports must match";
  (* S = I - 2 z0 (Z + z0 I)^{-1}; with G = Z + z0 I = D' + C(sE-A)^{-1}B,
     G^{-1} = D'^{-1} - D'^{-1} C (sE - (A - B D'^{-1} C))^{-1} B D'^{-1}. *)
  let d' = Cmat.add sys.d (scaled_identity z0 m) in
  let di =
    match Lu.inverse d' with
    | exception Lu.Singular _ ->
      invalid_arg "Sparams.descriptor_z_to_s: D + z0 I singular"
    | x -> x
  in
  let bdi = Cmat.mul sys.b di in
  let a_s = Cmat.sub sys.a (Cmat.mul bdi sys.c) in
  let c_s = Cmat.scale_float (2. *. z0) (Cmat.mul di sys.c) in
  let d_s = Cmat.sub (Cmat.identity m) (Cmat.scale_float (2. *. z0) di) in
  create ~e:sys.e ~a:a_s ~b:bdi ~c:c_s ~d:d_s
