(* Paper Fig. 1: singular-value patterns of LL, sLL and x0 LL - sLL for
   VFTI vs MFTI on Example 1: an order-150, 30-port system sampled at 8
   frequencies.

   Expected shape (paper): VFTI sees only 8 singular values with no drop;
   MFTI's 240-value spectra drop sharply at 150 (LL) and 180 (sLL and the
   pencil), i.e. at order and order + rank D. *)

open Statespace
open Mfti

let k_samples = 8

let run () =
  Util.heading "Figure 1: singular value patterns (VFTI vs MFTI)";
  let sys = Random_sys.example1 () in
  Printf.printf "system: order %d, %d ports, rank D %d, 8 matrix samples\n%!"
    (Descriptor.order sys) (Descriptor.inputs sys) 30;
  let samples = Sampling.sample_system sys (Sampling.logspace 10. 1e5 k_samples) in

  let svg_series = ref [] in
  let report name data =
    let pencil = Loewner.build data in
    let (ll_s, sll_s, pen_s), dt =
      Util.time_it (fun () -> Svd_reduce.fig1_singular_values pencil)
    in
    let to_points sigma =
      Array.mapi (fun i s -> (float_of_int (i + 1), s)) sigma
    in
    svg_series :=
      !svg_series
      @ [ { Plot.Svg.label = name ^ " LL"; points = to_points ll_s };
          { Plot.Svg.label = name ^ " sLL"; points = to_points sll_s };
          { Plot.Svg.label = name ^ " x0LL-sLL"; points = to_points pen_s } ];
    Util.subheading (Printf.sprintf "%s (pencil %dx%d, %.2f s of SVDs)" name
                       (Tangential.left_width data) (Tangential.right_width data) dt);
    let drop = Linalg.Svd.rank_gap_of_values in
    Printf.printf "detected drops: LL at %d, sLL at %d, x0*LL-sLL at %d\n"
      (drop ll_s) (drop sll_s) (drop pen_s);
    Util.print_series ~name:(name ^ " sigma(LL)") ll_s;
    Util.print_series ~name:(name ^ " sigma(sLL)") sll_s;
    Util.print_series ~name:(name ^ " sigma(x0*LL - sLL)") pen_s;
    ( (drop ll_s, drop sll_s, drop pen_s),
      List.map Array.length [ ll_s; sll_s; pen_s ] )
  in

  let vfti_data = Tangential.build_vector samples in
  let v_drops, v_lengths = report "VFTI" vfti_data in
  let mfti_data = Tangential.build samples in
  let m_drops, _ = report "MFTI" mfti_data in

  Util.subheading "summary (paper: VFTI no drop; MFTI drops at 150/180/180)";
  let d1, d2, d3 = v_drops and e1, e2, e3 = m_drops in
  Printf.printf "VFTI drops: %d %d %d (of 8; no informative drop expected)\n" d1 d2 d3;
  Util.claim
    (Printf.sprintf "VFTI spectra have %s values (8 samples: 8 each)"
       (String.concat "/" (List.map string_of_int v_lengths)))
    (List.for_all (( = ) k_samples) v_lengths);
  Util.claim
    (Printf.sprintf "MFTI drops at %d/%d/%d = order/order+rank D = 150/180/180"
       e1 e2 e3)
    ((e1, e2, e3) = (150, 180, 180));
  if not (Sys.file_exists "figures") then Sys.mkdir "figures" 0o755;
  Plot.Svg.write_file "figures/fig1_singular_values.svg"
    ~title:"Fig. 1: singular value patterns (VFTI vs MFTI)"
    ~xlabel:"singular value index" ~ylabel:"singular value"
    ~xaxis:Plot.Svg.Linear ~yaxis:Plot.Svg.Log !svg_series;
  Printf.printf "wrote figures/fig1_singular_values.svg\n%!"
