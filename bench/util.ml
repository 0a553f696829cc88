(* Shared helpers for the experiment harness. *)

let time_it f =
  let t0 = Sys.time () in
  let result = f () in
  (result, Sys.time () -. t0)

let heading title =
  Printf.printf "\n=== %s ===\n%!" title

let subheading title =
  Printf.printf "\n--- %s ---\n%!" title

(* Print one series as "index value" lines, for gnuplot-style reuse. *)
let print_series ~name values =
  Printf.printf "# series: %s (%d points)\n" name (Array.length values);
  Array.iteri (fun i v -> Printf.printf "%d %.6e\n" (i + 1) v) values

(* Print aligned rows. *)
let print_table ~header rows =
  let widths =
    Array.mapi
      (fun i h ->
        List.fold_left (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length h) rows)
      (Array.of_list header)
  in
  let print_row cells =
    List.iteri
      (fun i c -> Printf.printf "%-*s  " widths.(i) c)
      cells;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows;
  Printf.printf "%!"

let fmt_sci x = Printf.sprintf "%.2e" x
let fmt_time t = Printf.sprintf "%.3f" t

(* The paper's claims.  Each [claim] prints [ok] or [FAIL] beside the
   measured values; a failed one is repeated on stderr and counted, and
   main.exe exits 1 when any failed. *)
let failed_claims = ref 0

let claim name ok =
  Printf.printf "  [%s] %s\n%!" (if ok then "ok" else "FAIL") name;
  if not ok then begin
    incr failed_claims;
    Printf.eprintf "paper claim failed: %s\n%!" name
  end

(* A printed comparison that never fails the run: wall-clock timings
   drift by up to 2x between runs on one machine. *)
let observe name ok =
  Printf.printf "  [%s] %s (timing, not gated)\n%!"
    (if ok then "ok" else "miss") name
