open Linalg

(* Minimal circuit interchange format, one element per line:

     # comments and blank lines ignored
     nodes <n>                 (required, first directive)
     R  <a> <b> <ohms>
     C  <a> <b> <farads>
     L  <a> <b> <henries>
     RL <a> <b> <ohms> <henries>
     K  <k1> <k2> <henries>
     P  <plus> <minus>

   Elements stamp in file order (mutual-inductance branch numbering
   follows it), ports gain indices in file order.  This is how `gen`
   hands 100k-node grids to `fit` without synthesizing a multi-GB
   Touchstone sweep first. *)

let magic = "# mfti-netlist v1"

let save path circuit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_char oc '\n';
      Printf.fprintf oc "nodes %d\n" (Mna.num_nodes circuit);
      List.iter
        (fun e ->
          match e with
          | Mna.Resistor { a; b; ohms } ->
            Printf.fprintf oc "R %d %d %.17g\n" a b ohms
          | Mna.Capacitor { a; b; farads } ->
            Printf.fprintf oc "C %d %d %.17g\n" a b farads
          | Mna.Inductor { a; b; henries } ->
            Printf.fprintf oc "L %d %d %.17g\n" a b henries
          | Mna.Rl_branch { a; b; ohms; henries } ->
            Printf.fprintf oc "RL %d %d %.17g %.17g\n" a b ohms henries
          | Mna.Mutual { k1; k2; henries } ->
            Printf.fprintf oc "K %d %d %.17g\n" k1 k2 henries)
        (Mna.elements circuit);
      List.iter
        (fun (plus, minus) -> Printf.fprintf oc "P %d %d\n" plus minus)
        (Mna.ports circuit))

let parse_error ~source ~line message =
  Mfti_error.Parse { source = Some source; line = Some line; message }

let load path =
  let fail ~line message = Error (parse_error ~source:path ~line message) in
  let parse_int ~line s k =
    match int_of_string_opt s with
    | Some v -> k v
    | None -> fail ~line (Printf.sprintf "expected an integer, got %S" s)
  in
  let parse_float ~line s k =
    match float_of_string_opt s with
    | Some v -> k v
    | None -> fail ~line (Printf.sprintf "expected a number, got %S" s)
  in
  match open_in path with
  | exception Sys_error msg ->
    Error (Mfti_error.Parse { source = Some path; line = None; message = msg })
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let circuit = ref None in
        let lineno = ref 0 in
        let result = ref None in
        (try
           while !result = None do
             let raw = input_line ic in
             incr lineno;
             let line = !lineno in
             let trimmed = String.trim raw in
             if trimmed <> "" && trimmed.[0] <> '#' then begin
               let fields =
                 String.split_on_char ' ' trimmed
                 |> List.filter (fun s -> s <> "")
               in
               (* stamp through Mna's validating [add]; its
                  Invalid_argument messages become parse errors with
                  the offending line attached *)
               let add_element e =
                 match !circuit with
                 | None -> result := Some (fail ~line "element before 'nodes'")
                 | Some c ->
                   (match Mna.add c e with
                    | c' -> circuit := Some c'
                    | exception Invalid_argument msg ->
                      result := Some (fail ~line msg))
               in
               let bind p k = p (fun v -> k v) in
               let handled =
                 match fields with
                 | [ "nodes"; n ] ->
                   bind (parse_int ~line n) (fun n ->
                     if !circuit <> None then fail ~line "duplicate 'nodes'"
                     else if n < 1 then
                       fail ~line "node count must be positive"
                     else begin
                       circuit := Some (Mna.create ~nodes:n);
                       Ok ()
                     end)
                 | [ "R"; a; b; ohms ] ->
                   bind (parse_int ~line a) (fun a ->
                     bind (parse_int ~line b) (fun b ->
                       bind (parse_float ~line ohms) (fun ohms ->
                         add_element (Mna.Resistor { a; b; ohms });
                         Ok ())))
                 | [ "C"; a; b; farads ] ->
                   bind (parse_int ~line a) (fun a ->
                     bind (parse_int ~line b) (fun b ->
                       bind (parse_float ~line farads) (fun farads ->
                         add_element (Mna.Capacitor { a; b; farads });
                         Ok ())))
                 | [ "L"; a; b; henries ] ->
                   bind (parse_int ~line a) (fun a ->
                     bind (parse_int ~line b) (fun b ->
                       bind (parse_float ~line henries) (fun henries ->
                         add_element (Mna.Inductor { a; b; henries });
                         Ok ())))
                 | [ "RL"; a; b; ohms; henries ] ->
                   bind (parse_int ~line a) (fun a ->
                     bind (parse_int ~line b) (fun b ->
                       bind (parse_float ~line ohms) (fun ohms ->
                         bind (parse_float ~line henries) (fun henries ->
                           add_element (Mna.Rl_branch { a; b; ohms; henries });
                           Ok ()))))
                 | [ "K"; k1; k2; henries ] ->
                   bind (parse_int ~line k1) (fun k1 ->
                     bind (parse_int ~line k2) (fun k2 ->
                       bind (parse_float ~line henries) (fun henries ->
                         add_element (Mna.Mutual { k1; k2; henries });
                         Ok ())))
                 | [ "P"; plus; minus ] ->
                   bind (parse_int ~line plus) (fun plus ->
                     bind (parse_int ~line minus) (fun minus ->
                       match !circuit with
                       | None -> fail ~line "port before 'nodes'"
                       | Some c ->
                         (match Mna.add_port c ~plus ~minus with
                          | _, c' ->
                            circuit := Some c';
                            Ok ()
                          | exception Invalid_argument msg ->
                            fail ~line msg)))
                 | directive :: _ ->
                   fail ~line (Printf.sprintf "unknown directive %S" directive)
                 | [] -> Ok ()
               in
               match handled with
               | Ok () -> ()
               | Error _ as e -> result := Some e
             end
           done
         with End_of_file -> ());
        match !result with
        | Some r -> r
        | None ->
          (match !circuit with
           | None ->
             Error
               (parse_error ~source:path ~line:!lineno
                  "missing 'nodes' directive")
           | Some c ->
             if Mna.num_ports c = 0 then
               Error
                 (parse_error ~source:path ~line:!lineno
                    "netlist declares no ports")
             else Ok c))

let load_exn path =
  match load path with
  | Ok c -> c
  | Error e -> Mfti_error.raise_error e
