exception No_convergence

let eps = 2.2e-16

(* Parlett–Reinsch balancing with powers of two (exact in floating point):
   scale D a D^{-1} so that row and column norms are comparable.  [parts]
   are the column-major n x n arrays of the matrix (re and im for a
   complex one, one array for a real one) and [magnitude k] is |a_k|. *)
let balance_parts n magnitude parts =
  let converged = ref false in
  let rounds = ref 0 in
  while not !converged && !rounds < 20 do
    converged := true;
    incr rounds;
    for i = 0 to n - 1 do
      let rnorm = ref 0. and cnorm = ref 0. in
      for jcol = 0 to n - 1 do
        if jcol <> i then begin
          rnorm := !rnorm +. magnitude (i + (jcol * n));
          cnorm := !cnorm +. magnitude (jcol + (i * n))
        end
      done;
      (* an infinite norm would never leave the scaling loops below *)
      if !rnorm > 0. && !cnorm > 0. && Float.is_finite (!rnorm +. !cnorm)
      then begin
        let f = ref 1. in
        let s = !cnorm +. !rnorm in
        while !cnorm < !rnorm /. 2. do
          f := !f *. 2.;
          cnorm := !cnorm *. 4.
        done;
        while !cnorm >= !rnorm *. 2. do
          f := !f /. 2.;
          cnorm := !cnorm /. 4.
        done;
        if (!cnorm +. !rnorm) /. !f < 0.95 *. s && !f <> 1. then begin
          converged := false;
          let fi = 1. /. !f in
          (* row i *= fi ; column i *= f *)
          List.iter
            (fun part ->
              for jcol = 0 to n - 1 do
                let k = i + (jcol * n) in
                part.(k) <- part.(k) *. fi
              done;
              for r = 0 to n - 1 do
                let k = r + (i * n) in
                part.(k) <- part.(k) *. !f
              done)
            parts
        end
      end
    done
  done

let balance a =
  let m = Cmat.copy a in
  let re = Cmat.unsafe_re m and im = Cmat.unsafe_im m in
  balance_parts (Cmat.rows a)
    (fun k -> Stdlib.sqrt ((re.(k) *. re.(k)) +. (im.(k) *. im.(k))))
    [ re; im ];
  m

(* Householder similarity reduction to upper Hessenberg form. *)
let hessenberg a =
  let n = Cmat.rows a in
  let h = Cmat.copy a in
  let re = Cmat.unsafe_re h and im = Cmat.unsafe_im h in
  for k = 0 to n - 3 do
    let koff = k * n in
    (* Reflector for x = h[k+1:n, k]. *)
    let xnorm2 = ref 0. in
    for i = k + 1 to n - 1 do
      xnorm2 := !xnorm2 +. (re.(koff + i) *. re.(koff + i)) +. (im.(koff + i) *. im.(koff + i))
    done;
    let xnorm = Stdlib.sqrt !xnorm2 in
    if xnorm > 0. then begin
      let ar = re.(koff + k + 1) and ai = im.(koff + k + 1) in
      let amag = Stdlib.sqrt ((ar *. ar) +. (ai *. ai)) in
      let br, bi =
        if amag = 0. then (-.xnorm, 0.)
        else (-.xnorm *. ar /. amag, -.xnorm *. ai /. amag)
      in
      let u0r = ar -. br and u0i = ai -. bi in
      let u0mag2 = (u0r *. u0r) +. (u0i *. u0i) in
      if u0mag2 > 0. then begin
        let unorm2 = 2. *. (!xnorm2 +. (xnorm *. amag)) in
        let tau = 2. *. u0mag2 /. unorm2 in
        (* v = u / u0, v(k+1) = 1; store v in a scratch array. *)
        let vre = Array.make n 0. and vim = Array.make n 0. in
        vre.(k + 1) <- 1.;
        let inv = 1. /. u0mag2 in
        for i = k + 2 to n - 1 do
          let xr = re.(koff + i) and xi = im.(koff + i) in
          vre.(i) <- ((xr *. u0r) +. (xi *. u0i)) *. inv;
          vim.(i) <- ((xi *. u0r) -. (xr *. u0i)) *. inv
        done;
        (* H := P H P with P = I - tau v v*.  Left: rows k+1..n-1. *)
        for jcol = k to n - 1 do
          let joff = jcol * n in
          let sr = ref 0. and si = ref 0. in
          for i = k + 1 to n - 1 do
            let vr = vre.(i) and vi = -.vim.(i) in
            let cr = re.(joff + i) and ci = im.(joff + i) in
            sr := !sr +. (vr *. cr) -. (vi *. ci);
            si := !si +. (vr *. ci) +. (vi *. cr)
          done;
          let sr = tau *. !sr and si = tau *. !si in
          for i = k + 1 to n - 1 do
            let vr = vre.(i) and vi = vim.(i) in
            re.(joff + i) <- re.(joff + i) -. (vr *. sr) +. (vi *. si);
            im.(joff + i) <- im.(joff + i) -. (vr *. si) -. (vi *. sr)
          done
        done;
        (* Right: columns k+1..n-1 of every row. s = H v. *)
        for i = 0 to n - 1 do
          let sr = ref 0. and si = ref 0. in
          for jcol = k + 1 to n - 1 do
            let vr = vre.(jcol) and vi = vim.(jcol) in
            let cr = re.(i + (jcol * n)) and ci = im.(i + (jcol * n)) in
            sr := !sr +. (cr *. vr) -. (ci *. vi);
            si := !si +. (cr *. vi) +. (ci *. vr)
          done;
          let sr = tau *. !sr and si = tau *. !si in
          for jcol = k + 1 to n - 1 do
            (* H[i,j] -= s_i * conj(v_j):
               re -= sr*vr + si*vi ; im -= si*vr - sr*vi *)
            let vr = vre.(jcol) and vi = vim.(jcol) in
            let k' = i + (jcol * n) in
            re.(k') <- re.(k') -. (sr *. vr) -. (si *. vi);
            im.(k') <- im.(k') -. (si *. vr) +. (sr *. vi)
          done
        done;
        (* Explicitly set the annihilated entries. *)
        re.(koff + k + 1) <- br;
        im.(koff + k + 1) <- bi;
        for i = k + 2 to n - 1 do
          re.(koff + i) <- 0.;
          im.(koff + i) <- 0.
        done
      end
    end
  done;
  h

(* Explicit single-shift QR with Wilkinson shifts on the Hessenberg h. *)
let qr_eigenvalues h =
  let n = Cmat.rows h in
  let re = Cmat.unsafe_re h and im = Cmat.unsafe_im h in
  let get i jcol = Cx.make re.(i + (jcol * n)) im.(i + (jcol * n)) in
  let set i jcol (z : Cx.t) =
    re.(i + (jcol * n)) <- z.re;
    im.(i + (jcol * n)) <- z.im
  in
  let mag i jcol =
    let k = i + (jcol * n) in
    Stdlib.sqrt ((re.(k) *. re.(k)) +. (im.(k) *. im.(k)))
  in
  let values = Array.make n Cx.zero in
  let hi = ref (n - 1) in
  let iter_this = ref 0 in
  let total_budget = ref (60 * (n + 1)) in
  while !hi >= 0 do
    if !hi = 0 then begin
      values.(0) <- get 0 0;
      hi := -1
    end
    else begin
      (* Deflate any negligible subdiagonals in [0..hi]. *)
      for i = 0 to !hi - 1 do
        if mag (i + 1) i <= eps *. (mag i i +. mag (i + 1) (i + 1)) then
          set (i + 1) i Cx.zero
      done;
      if mag !hi (!hi - 1) = 0. then begin
        values.(!hi) <- get !hi !hi;
        decr hi;
        iter_this := 0
      end
      else begin
        decr total_budget;
        if !total_budget <= 0 then raise No_convergence;
        incr iter_this;
        (* Active window [lo..hi]. *)
        let lo = ref !hi in
        while !lo > 0 && mag !lo (!lo - 1) <> 0. do
          decr lo
        done;
        let lo = !lo in
        (* Wilkinson shift from the trailing 2x2 block. *)
        let shift =
          if !iter_this mod 12 = 0 then
            (* exceptional shift breaks rare cycling *)
            Cx.of_float (mag !hi (!hi - 1) +. (if !hi >= 2 then mag (!hi - 1) (!hi - 2) else 0.))
          else begin
            let a = get (!hi - 1) (!hi - 1) and b = get (!hi - 1) !hi in
            let c = get !hi (!hi - 1) and d = get !hi !hi in
            let tr2 = Cx.scale 0.5 (Cx.sub a d) in
            let disc = Cx.sqrt (Cx.add (Cx.mul tr2 tr2) (Cx.mul b c)) in
            let l1 = Cx.add d (Cx.add tr2 disc) in
            let l2 = Cx.add d (Cx.sub tr2 disc) in
            (* pick the eigenvalue closer to d *)
            if Cx.abs (Cx.sub l1 d) <= Cx.abs (Cx.sub l2 d) then l1 else l2
          end
        in
        (* Shifted explicit QR step on [lo..hi] via Givens rotations. *)
        for i = lo to !hi do
          set i i (Cx.sub (get i i) shift)
        done;
        let cs = Array.make (!hi - lo) 0. in
        let ss = Array.make (!hi - lo) Cx.zero in
        for k = lo to !hi - 1 do
          let a = get k k and b = get (k + 1) k in
          let r = Stdlib.sqrt (Cx.abs2 a +. Cx.abs2 b) in
          let c, s =
            if r = 0. then (1., Cx.zero)
            else begin
              let amag = Cx.abs a in
              if amag = 0. then (0., Cx.scale (1. /. r) (Cx.conj b))
              else
                ( amag /. r,
                  Cx.scale (1. /. (r *. amag)) (Cx.mul a (Cx.conj b)) )
            end
          in
          cs.(k - lo) <- c;
          ss.(k - lo) <- s;
          (* rows k, k+1 := G * rows  with G = [[c, s], [-conj s, c]] *)
          for jcol = k to !hi do
            let top = get k jcol and bot = get (k + 1) jcol in
            set k jcol (Cx.add (Cx.scale c top) (Cx.mul s bot));
            set (k + 1) jcol (Cx.sub (Cx.scale c bot) (Cx.mul (Cx.conj s) top))
          done
        done;
        for k = lo to !hi - 1 do
          let c = cs.(k - lo) and s = ss.(k - lo) in
          (* columns k, k+1 := columns * G^H with G^H = [[c, -s],[conj s, c]] *)
          let top_row = Stdlib.min (k + 2) !hi in
          for i = lo to top_row do
            let left = get i k and right = get i (k + 1) in
            set i k (Cx.add (Cx.scale c left) (Cx.mul (Cx.conj s) right));
            set i (k + 1) (Cx.sub (Cx.scale c right) (Cx.mul s left))
          done
        done;
        for i = lo to !hi do
          set i i (Cx.add (get i i) shift)
        done
      end
    end
  done;
  values

let eigenvalues a =
  let n, n' = Cmat.dims a in
  if n <> n' then invalid_arg "Eig.eigenvalues: matrix not square";
  if n = 0 then [||]
  else if n = 1 then [| Cmat.get a 0 0 |]
  else qr_eigenvalues (hessenberg (balance a))

(* ---- real matrices ---------------------------------------------------- *)

(* Householder similarity reduction of the real column-major n x n [h] to
   upper Hessenberg form, in place. *)
let hessenberg_real n h =
  let v = Array.make n 0. and w = Array.make n 0. in
  for k = 0 to n - 3 do
    let koff = k * n in
    let xnorm2 = ref 0. in
    for i = k + 1 to n - 1 do
      xnorm2 := !xnorm2 +. (h.(koff + i) *. h.(koff + i))
    done;
    let xnorm = Stdlib.sqrt !xnorm2 in
    if xnorm > 0. then begin
      (* P = I - tau v v^T with v(k+1) = 1 maps x to beta e_1 *)
      let alpha = h.(koff + k + 1) in
      let beta = if alpha >= 0. then -.xnorm else xnorm in
      let tau = (beta -. alpha) /. beta in
      let inv = 1. /. (alpha -. beta) in
      v.(k + 1) <- 1.;
      for i = k + 2 to n - 1 do
        v.(i) <- h.(koff + i) *. inv
      done;
      (* left: rows k+1..n-1 of columns k+1..n-1 *)
      for jcol = k + 1 to n - 1 do
        let joff = jcol * n in
        let s = ref 0. in
        for i = k + 1 to n - 1 do
          s := !s +. (Array.unsafe_get v i *. Array.unsafe_get h (joff + i))
        done;
        let s = tau *. !s in
        for i = k + 1 to n - 1 do
          Array.unsafe_set h (joff + i)
            (Array.unsafe_get h (joff + i) -. (s *. Array.unsafe_get v i))
        done
      done;
      (* right: w = H v, then H -= tau w v^T *)
      Array.fill w 0 n 0.;
      for jcol = k + 1 to n - 1 do
        let joff = jcol * n and vj = v.(jcol) in
        for i = 0 to n - 1 do
          Array.unsafe_set w i
            (Array.unsafe_get w i +. (Array.unsafe_get h (joff + i) *. vj))
        done
      done;
      for jcol = k + 1 to n - 1 do
        let joff = jcol * n and tvj = tau *. v.(jcol) in
        for i = 0 to n - 1 do
          Array.unsafe_set h (joff + i)
            (Array.unsafe_get h (joff + i) -. (Array.unsafe_get w i *. tvj))
        done
      done;
      h.(koff + k + 1) <- beta;
      for i = k + 2 to n - 1 do
        h.(koff + i) <- 0.
      done
    end
  done

(* Francis double-shift QR (EISPACK hqr, eigenvalues only) on the real
   column-major upper Hessenberg [a], destroyed in place.  Complex pairs
   come out exactly conjugate and real eigenvalues with Im exactly 0. *)
let hqr n a =
  let get i jcol = Array.unsafe_get a (i + (jcol * n)) in
  let set i jcol x = Array.unsafe_set a (i + (jcol * n)) x in
  let sign x y = if y >= 0. then abs_float x else -.abs_float x in
  let wr = Array.make n 0. and wi = Array.make n 0. in
  let anorm = ref 0. in
  for i = 0 to n - 1 do
    for jcol = Stdlib.max (i - 1) 0 to n - 1 do
      anorm := !anorm +. abs_float (get i jcol)
    done
  done;
  let anorm = !anorm in
  let nn = ref (n - 1) and t = ref 0. in
  let its = ref 0 and budget = ref (30 * Stdlib.max n 10) in
  while !nn >= 0 do
    let en = !nn in
    (* l: top of the trailing unreduced block *)
    let l = ref en and split = ref false in
    while (not !split) && !l > 0 do
      let s = abs_float (get (!l - 1) (!l - 1)) +. abs_float (get !l !l) in
      let s = if s = 0. then anorm else s in
      if abs_float (get !l (!l - 1)) <= eps *. s then begin
        set !l (!l - 1) 0.;
        split := true
      end
      else decr l
    done;
    let l = !l in
    let x = get en en in
    if l = en then begin
      wr.(en) <- x +. !t;
      nn := en - 1;
      its := 0
    end
    else begin
      let y = get (en - 1) (en - 1) in
      let w = get en (en - 1) *. get (en - 1) en in
      if l = en - 1 then begin
        let p = 0.5 *. (y -. x) in
        let q = (p *. p) +. w in
        let z = Stdlib.sqrt (abs_float q) in
        let x = x +. !t in
        if q >= 0. then begin
          let z = p +. sign z p in
          wr.(en - 1) <- x +. z;
          wr.(en) <- (if z <> 0. then x -. (w /. z) else x +. z)
        end
        else begin
          wr.(en - 1) <- x +. p;
          wr.(en) <- x +. p;
          wi.(en - 1) <- z;
          wi.(en) <- -.z
        end;
        nn := en - 2;
        its := 0
      end
      else begin
        if !budget <= 0 then raise No_convergence;
        decr budget;
        let x, y, w =
          if !its > 0 && !its mod 10 = 0 then begin
            (* exceptional shift breaks rare cycling *)
            t := !t +. x;
            for i = 0 to en do
              set i i (get i i -. x)
            done;
            let s = abs_float (get en (en - 1)) +. abs_float (get (en - 1) (en - 2)) in
            (0.75 *. s, 0.75 *. s, -0.4375 *. s *. s)
          end
          else (x, y, w)
        in
        incr its;
        (* look for two consecutive small subdiagonals *)
        let p = ref 0. and q = ref 0. and r = ref 0. in
        let m = ref (en - 2) and found = ref false in
        while not !found do
          let mm = !m in
          let z = get mm mm in
          let rr = x -. z and ss = y -. z in
          p := (((rr *. ss) -. w) /. get (mm + 1) mm) +. get mm (mm + 1);
          q := get (mm + 1) (mm + 1) -. z -. rr -. ss;
          r := get (mm + 2) (mm + 1);
          let s = abs_float !p +. abs_float !q +. abs_float !r in
          p := !p /. s;
          q := !q /. s;
          r := !r /. s;
          if mm = l then found := true
          else begin
            let u = abs_float (get mm (mm - 1)) *. (abs_float !q +. abs_float !r) in
            let v =
              abs_float !p
              *. (abs_float (get (mm - 1) (mm - 1)) +. abs_float z
                  +. abs_float (get (mm + 1) (mm + 1)))
            in
            if u <= eps *. v then found := true else decr m
          end
        done;
        let m = !m in
        for i = m to en - 2 do
          set (i + 2) i 0.;
          if i <> m then set (i + 2) (i - 1) 0.
        done;
        (* double-shift QR sweep over rows and columns m..en *)
        let x = ref 0. in
        for k = m to en - 1 do
          let last = k + 1 = en in
          if k <> m then begin
            p := get k (k - 1);
            q := get (k + 1) (k - 1);
            r := (if last then 0. else get (k + 2) (k - 1));
            x := abs_float !p +. abs_float !q +. abs_float !r;
            if !x <> 0. then begin
              p := !p /. !x;
              q := !q /. !x;
              r := !r /. !x
            end
          end;
          let s = sign (Stdlib.sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p in
          if s <> 0. then begin
            if k = m then begin
              if l <> m then set k (k - 1) (-.get k (k - 1))
            end
            else set k (k - 1) (-.s *. !x);
            let pp = !p +. s in
            let xx = pp /. s and yy = !q /. s and zz = !r /. s in
            let qq = !q /. pp and rr = !r /. pp in
            (* rows k..k+2 of columns k..en, then columns k..k+2 of rows
               l..min(en, k+3); the inner loops index [a] directly *)
            let ck = k * n in
            let ck1 = ck + n in
            let ck2 = ck1 + n in
            if last then begin
              for jcol = k to en do
                let o = (jcol * n) + k in
                let a0 = Array.unsafe_get a o and a1 = Array.unsafe_get a (o + 1) in
                let pj = a0 +. (qq *. a1) in
                Array.unsafe_set a (o + 1) (a1 -. (pj *. yy));
                Array.unsafe_set a o (a0 -. (pj *. xx))
              done;
              for i = l to Stdlib.min en (k + 3) do
                let b0 = Array.unsafe_get a (ck + i) and b1 = Array.unsafe_get a (ck1 + i) in
                let pi = (xx *. b0) +. (yy *. b1) in
                Array.unsafe_set a (ck1 + i) (b1 -. (pi *. qq));
                Array.unsafe_set a (ck + i) (b0 -. pi)
              done
            end
            else begin
              for jcol = k to en do
                let o = (jcol * n) + k in
                let a0 = Array.unsafe_get a o and a1 = Array.unsafe_get a (o + 1)
                and a2 = Array.unsafe_get a (o + 2) in
                let pj = a0 +. (qq *. a1) +. (rr *. a2) in
                Array.unsafe_set a (o + 2) (a2 -. (pj *. zz));
                Array.unsafe_set a (o + 1) (a1 -. (pj *. yy));
                Array.unsafe_set a o (a0 -. (pj *. xx))
              done;
              for i = l to Stdlib.min en (k + 3) do
                let b0 = Array.unsafe_get a (ck + i) and b1 = Array.unsafe_get a (ck1 + i)
                and b2 = Array.unsafe_get a (ck2 + i) in
                let pi = (xx *. b0) +. (yy *. b1) +. (zz *. b2) in
                Array.unsafe_set a (ck2 + i) (b2 -. (pi *. rr));
                Array.unsafe_set a (ck1 + i) (b1 -. (pi *. qq));
                Array.unsafe_set a (ck + i) (b0 -. pi)
              done
            end
          end
        done
      end
    end
  done;
  Array.init n (fun i -> Cx.make wr.(i) wi.(i))

let eigenvalues_real r =
  let n, n' = Rmat.dims r in
  if n <> n' then invalid_arg "Eig.eigenvalues_real: matrix not square";
  let h = Array.copy r.Rmat.data in
  balance_parts n (fun k -> abs_float h.(k)) [ h ];
  hessenberg_real n h;
  hqr n h

let right_vectors a values =
  let n, n' = Cmat.dims a in
  if n <> n' then invalid_arg "Eig.right_vectors: matrix not square";
  let vectors = Cmat.create n (Array.length values) in
  let anorm = Stdlib.max (Cmat.norm_fro a) 1e-300 in
  let rng = Rng.create 987 in
  Array.iteri
    (fun idx lambda ->
      (* shift slightly off the eigenvalue so the solve stays regular *)
      let shift = Cx.add lambda (Cx.of_float (1e-10 *. anorm)) in
      let shifted = Cmat.sub a (Cmat.scale shift (Cmat.identity n)) in
      let factor =
        match Lu.factorize shifted with
        | f -> Some f
        | exception Lu.Singular _ -> None
      in
      let factor =
        match factor with
        | Some f -> f
        | None ->
          (* exactly singular: nudge harder *)
          let shift = Cx.add lambda (Cx.of_float (1e-6 *. anorm)) in
          Lu.factorize (Cmat.sub a (Cmat.scale shift (Cmat.identity n)))
      in
      let v = ref (Cmat.random rng n 1) in
      for _ = 1 to 3 do
        let w = Lu.solve factor !v in
        let nrm = Cmat.vec_norm w in
        if nrm > 0. && Float.is_finite nrm then
          v := Cmat.scale_float (1. /. nrm) w
      done;
      Cmat.set_col vectors idx !v)
    values;
  vectors

let eigen a =
  let values = eigenvalues a in
  (values, right_vectors a values)
