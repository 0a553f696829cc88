(* Example 1's sampling claim and Theorem 3.5.

   Paper: MFTI recovers the order-150 / 30-port / rank-30-D system from
   6 matrix samples ((150+30)/30), while VFTI needs about 180 — a factor
   of 30 (the port count). *)

open Statespace
open Mfti

let validation sys = Sampling.sample_system sys (Sampling.logspace 15. 0.9e5 25)

(* What a sweep row claims: the fit fails (ERR >= 1e-1), recovers the
   system (ERR <= 1e-8), or is only shown. *)
type expect = Fails | Recovers | Shown

(* Fit Example 1 from [k] log-spaced samples for each row, print the
   table, then check each row's claim; [order] is the model order a
   recovering row must have. *)
let sweep ~name ~strategy ?order sys vgrid rows =
  let results =
    List.map
      (fun (k, expect) ->
        let samples = Sampling.sample_system sys (Sampling.logspace 10. 1e5 k) in
        let result, dt = Util.time_it (fun () -> Engine.fit ~strategy samples) in
        (k, expect, result.Engine.rank, Metrics.err result.Engine.model vgrid, dt))
      rows
  in
  Util.print_table ~header:[ "samples"; "model order"; "validation ERR"; "time(s)" ]
    (List.map
       (fun (k, _, rank, e, dt) ->
         [ string_of_int k; string_of_int rank; Util.fmt_sci e; Util.fmt_time dt ])
       results);
  List.iter
    (fun (k, expect, rank, e, _) ->
      match expect with
      | Fails ->
        Util.claim
          (Printf.sprintf "%s fails at %d samples: ERR %s >= 1e-1" name k
             (Util.fmt_sci e))
          (e >= 1e-1)
      | Recovers ->
        let order_ok = match order with Some n -> rank = n | None -> true in
        Util.claim
          (Printf.sprintf "%s recovers at %d samples: ERR %s <= 1e-8%s" name k
             (Util.fmt_sci e)
             (match order with
              | Some n -> Printf.sprintf ", order %d = %d" rank n
              | None -> ""))
          (e <= 1e-8 && order_ok)
      | Shown -> ())
    results

let run () =
  Util.heading "Minimal sampling (Theorem 3.5 / Example 1 claim)";
  let sys = Random_sys.example1 () in
  let vgrid = validation sys in
  let kmin =
    Svd_reduce.minimal_samples ~order:150 ~rank_d:30 ~inputs:30 ~outputs:30
  in
  Printf.printf "theorem 3.5 estimate: k_min = %d matrix samples for MFTI\n%!"
    kmin;
  Util.claim (Printf.sprintf "k_min = %d = (150 + 30) / 30" kmin) (kmin = 6);

  Util.subheading "MFTI: validation ERR vs number of matrix samples";
  sweep ~name:"MFTI" ~strategy:Engine.Direct ~order:180 sys vgrid
    [ (2, Fails); (4, Fails); (6, Recovers); (8, Recovers) ];

  Util.subheading "VFTI: validation ERR vs number of matrix samples";
  sweep ~name:"VFTI" ~strategy:Engine.Vector sys vgrid
    [ (60, Shown); (120, Fails); (170, Shown); (180, Shown); (200, Recovers) ];
  Printf.printf "(recovery only near 180 samples: ~30x the MFTI count)\n%!";

  Util.subheading "Theorem 3.5 scan over smaller systems";
  let scan order ports rank_d =
    let spec =
      { Random_sys.order; ports; rank_d; freq_lo = 100.; freq_hi = 1e5;
        damping = 0.08; seed = 5 }
    in
    let sys = Random_sys.generate spec in
    let vgrid = Sampling.sample_system sys (Sampling.logspace 150. 0.9e5 21) in
    let kmin =
      Svd_reduce.minimal_samples ~order ~rank_d ~inputs:ports ~outputs:ports
    in
    let err_at k =
      let samples = Sampling.sample_system sys (Sampling.logspace 100. 1e5 k) in
      let result = Engine.fit samples in
      Metrics.err result.Engine.model vgrid
    in
    let name = Printf.sprintf "order %d, %d ports, rank D %d" order ports rank_d in
    (name, kmin, err_at (Stdlib.max 2 (kmin - 2)), err_at kmin)
  in
  let scans = [ scan 12 3 3; scan 20 4 0; scan 30 5 5; scan 24 6 2 ] in
  Util.print_table
    ~header:[ "system"; "k_min (thm)"; "ERR at k_min - 2"; "ERR at k_min" ]
    (List.map
       (fun (name, kmin, before, at) ->
         [ name; string_of_int kmin; Util.fmt_sci before; Util.fmt_sci at ])
       scans);
  List.iter
    (fun (name, kmin, before, at) ->
      Util.claim
        (Printf.sprintf "%s: ERR %s <= 1e-10 at k_min = %d, %s >= 1e-3 at k_min - 2"
           name (Util.fmt_sci at) kmin (Util.fmt_sci before))
        (at <= 1e-10 && before >= 1e-3))
    scans
