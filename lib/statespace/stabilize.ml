open Linalg

type result = {
  model : Descriptor.t;
  flipped : int;
  max_residual : float;
}

let breakdown ?condition message =
  Mfti_error.raise_error
    (Mfti_error.Numerical_breakdown
       { context = "stabilize"; message; condition })

(* A reflected eigenvalue keeps at least this relative decay rate. *)
let min_decay = 1e-9

let reflect ?(max_residual = infinity) sys =
  let residual_threshold = max_residual in
  let sys = Descriptor.to_proper sys in
  let n = Descriptor.order sys in
  if n = 0 then { model = sys; flipped = 0; max_residual = 0. }
  else begin
    let f =
      match Lu.factorize sys.Descriptor.e with
      | exception Lu.Singular _ ->
        breakdown "E singular after index reduction"
      | f -> f
    in
    let a0 = Lu.solve f sys.Descriptor.a in
    let b0 = Lu.solve f sys.Descriptor.b in
    let values = Eig.eigenvalues a0 in
    let unstable = Array.exists (fun (p : Cx.t) -> p.Cx.re >= 0.) values in
    if not unstable then
      { model =
          Descriptor.of_state_space ~a:a0 ~b:b0 ~c:sys.Descriptor.c
            ~d:sys.Descriptor.d;
        flipped = 0; max_residual = 0. }
    else begin
      let vectors = Eig.right_vectors a0 values in
      (* residual check: |A v - lambda v| / |lambda v| per eigenpair *)
      let max_residual = ref 0. in
      let av = Cmat.mul a0 vectors in
      Array.iteri
        (fun i lambda ->
          let r = ref 0. and s = ref 0. in
          for k = 0 to n - 1 do
            let lhs = Cmat.get av k i in
            let rhs = Cx.mul lambda (Cmat.get vectors k i) in
            r := !r +. Cx.abs2 (Cx.sub lhs rhs);
            s := !s +. Cx.abs2 rhs
          done;
          if !s > 0. then
            max_residual := Stdlib.max !max_residual (sqrt (!r /. !s)))
        values;
      (* [nan] poisoning (fault injection upstream) must also refuse:
         a NaN residual is "not known to be below the threshold" *)
      if not (!max_residual <= residual_threshold) then
        breakdown ~condition:!max_residual
          (Printf.sprintf
             "modal decomposition residual %.3g exceeds the trust \
              threshold %.3g; pole reflection would be untrustworthy"
             !max_residual residual_threshold);
      let flipped = ref 0 in
      let flipped_values =
        Array.map
          (fun (p : Cx.t) ->
            if p.Cx.re >= 0. then begin
              incr flipped;
              let decay = Stdlib.max p.Cx.re (min_decay *. Cx.abs p) in
              Cx.make (-.(Stdlib.max decay min_decay)) p.Cx.im
            end
            else p)
          values
      in
      (* A' = V diag(flipped) V^{-1}, evaluated as solving V^H from the
         right: A' = (V^{-H} (V diag)^H)^H *)
      let vdiag =
        Cmat.mapi (fun _ jcol x -> Cx.mul x flipped_values.(jcol)) vectors
      in
      let vf = Lu.factorize (Cmat.ctranspose vectors) in
      let a' = Cmat.ctranspose (Lu.solve vf (Cmat.ctranspose vdiag)) in
      (* keep the model real if the input was *)
      let a' =
        if Descriptor.is_real sys && Cmat.max_imag a' < 1e-6 *. Cmat.norm_fro a'
        then Cmat.of_real (Cmat.real_part a')
        else a'
      in
      { model =
          Descriptor.of_state_space ~a:a' ~b:b0 ~c:sys.Descriptor.c
            ~d:sys.Descriptor.d;
        flipped = !flipped;
        max_residual = !max_residual }
    end
  end
