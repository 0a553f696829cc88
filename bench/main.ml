(* Experiment harness: regenerates every table and figure of the paper,
   and exits 1 when one of the paper's claims does not hold (the
   runtest rule in bench/dune runs it).

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- fig1      -- singular-value patterns
     dune exec bench/main.exe -- fig2      -- Bode comparison
     dune exec bench/main.exe -- table1    -- noisy-PDN algorithm table
     dune exec bench/main.exe -- minsample -- Theorem 3.5 / sampling sweep *)

let commands =
  [ ("fig1", Fig1.run);
    ("fig2", Fig2.run);
    ("table1", Table1.run);
    ("minsample", Minsample.run) ]

let () =
  let selected =
    match Array.to_list Sys.argv with
    | [ _ ] | [ _; "all" ] -> commands
    | [ _; cmd ] ->
      (match List.assoc_opt cmd commands with
       | Some f -> [ (cmd, f) ]
       | None ->
         Printf.eprintf "unknown experiment %S; available: all %s\n" cmd
           (String.concat " " (List.map fst commands));
         exit 1)
    | _ ->
      Printf.eprintf "usage: main.exe [all|%s]\n"
        (String.concat "|" (List.map fst commands));
      exit 1
  in
  (* an experiment that raises fails its claims; the others still run *)
  List.iter
    (fun (name, f) ->
      try f () with
      | Linalg.Mfti_error.Error e ->
        Util.claim
          (Printf.sprintf "%s runs to the end: %s" name
             (Linalg.Mfti_error.to_string e))
          false)
    selected;
  if !Util.failed_claims > 0 then begin
    Printf.eprintf "%d paper claim(s) failed\n%!" !Util.failed_claims;
    exit 1
  end
