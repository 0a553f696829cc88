open Linalg

type node = int

type element =
  | Resistor of { a : node; b : node; ohms : float }
  | Capacitor of { a : node; b : node; farads : float }
  | Inductor of { a : node; b : node; henries : float }
  | Rl_branch of { a : node; b : node; ohms : float; henries : float }
  | Mutual of { k1 : int; k2 : int; henries : float }

type t = {
  nodes : int;
  elements : element list;  (* reversed insertion order *)
  ports : (node * node) list;  (* reversed insertion order *)
}

let create ~nodes =
  if nodes < 1 then invalid_arg "Mna.create: need at least the ground node";
  { nodes; elements = []; ports = [] }

let inductive = function
  | Inductor _ | Rl_branch _ -> true
  | Resistor _ | Capacitor _ | Mutual _ -> false

let count_inductive t =
  List.fold_left (fun acc e -> if inductive e then acc + 1 else acc) 0 t.elements

let check_node t n name =
  if n < 0 || n >= t.nodes then
    invalid_arg (Printf.sprintf "Mna.%s: node %d out of range [0, %d)" name n t.nodes)

let check_positive v name =
  if v <= 0. || not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Mna.add: %s must be positive and finite" name)

let add t element =
  (match element with
   | Resistor { a; b; ohms } ->
     check_node t a "add";
     check_node t b "add";
     check_positive ohms "resistance"
   | Capacitor { a; b; farads } ->
     check_node t a "add";
     check_node t b "add";
     check_positive farads "capacitance"
   | Inductor { a; b; henries } ->
     check_node t a "add";
     check_node t b "add";
     check_positive henries "inductance"
   | Rl_branch { a; b; ohms; henries } ->
     check_node t a "add";
     check_node t b "add";
     check_positive ohms "resistance";
     check_positive henries "inductance"
   | Mutual { k1; k2; henries } ->
     let nl = count_inductive t in
     if k1 < 0 || k1 >= nl || k2 < 0 || k2 >= nl || k1 = k2 then
       invalid_arg "Mna.add: mutual inductance branch indices invalid";
     if henries = 0. || not (Float.is_finite henries) then
       invalid_arg "Mna.add: mutual inductance must be nonzero and finite");
  { t with elements = element :: t.elements }

let add_port t ~plus ~minus =
  check_node t plus "add_port";
  check_node t minus "add_port";
  if plus = minus then invalid_arg "Mna.add_port: degenerate port";
  (List.length t.ports, { t with ports = (plus, minus) :: t.ports })

let num_nodes t = t.nodes
let num_ports t = List.length t.ports
let num_states t = t.nodes - 1 + count_inductive t

(* Stamp the netlist into abstract (G, C) accumulators so the dense and
   sparse assemblies share one code path.  [addg]/[addc] accumulate a real
   value onto entry (i, j) of G and C respectively. *)
let stamp t ~addg ~addc =
  let elements = List.rev t.elements in
  let nv = t.nodes - 1 in
  (* voltage unknown index of node k (ground has none) *)
  let vidx k = k - 1 in
  (* stamp a conductance-like value between nodes a b *)
  let stamp_pair badd a b x =
    if a > 0 then badd (vidx a) (vidx a) x;
    if b > 0 then badd (vidx b) (vidx b) x;
    if a > 0 && b > 0 then begin
      badd (vidx a) (vidx b) (-.x);
      badd (vidx b) (vidx a) (-.x)
    end
  in
  (* Assign branch indices to inductive elements in insertion order. *)
  let branch_index = ref [] in
  let next_branch = ref nv in
  List.iter
    (fun e ->
      if inductive e then begin
        branch_index := !next_branch :: !branch_index;
        incr next_branch
      end
      else branch_index := (-1) :: !branch_index)
    elements;
  let branch_index = Array.of_list (List.rev !branch_index) in
  (* inductive-branch serial number -> state index *)
  let inductive_states =
    Array.of_list
      (List.filter (fun i -> i >= 0) (Array.to_list branch_index))
  in
  List.iteri
    (fun k e ->
      match e with
      | Resistor { a; b; ohms } -> stamp_pair addg a b (1. /. ohms)
      | Capacitor { a; b; farads } -> stamp_pair addc a b farads
      | Inductor { a; b; henries } | Rl_branch { a; b; henries; _ } ->
        let idx = branch_index.(k) in
        (* KCL: current leaves a, enters b. *)
        if a > 0 then addg (vidx a) idx 1.;
        if b > 0 then addg (vidx b) idx (-1.);
        (* Branch equation L di/dt + R i - v_a + v_b = 0, in PRIMA's
           sign convention: G = [[Gn, A], [-A^T, R]] and
           C = diag(Cn, L), so G + G^T and C are positive
           semidefinite and a congruence projection keeps the reduced
           model passive (hence stable). *)
        if a > 0 then addg idx (vidx a) (-1.);
        if b > 0 then addg idx (vidx b) 1.;
        addc idx idx henries;
        (match e with
         | Rl_branch { ohms; _ } -> addg idx idx ohms
         | Inductor _ | Resistor _ | Capacitor _ | Mutual _ -> ())
      | Mutual { k1; k2; henries } ->
        let i1 = inductive_states.(k1) and i2 = inductive_states.(k2) in
        addc i1 i2 henries;
        addc i2 i1 henries)
    elements

(* dense port-injection/selection matrices *)
let port_matrices t =
  let ports = Array.of_list (List.rev t.ports) in
  let n = num_states t in
  let nports = Array.length ports in
  let vidx k = k - 1 in
  let b = Cmat.zeros n nports and c = Cmat.zeros nports n in
  Array.iteri
    (fun kp (plus, minus) ->
      if plus > 0 then begin
        Cmat.set b (vidx plus) kp Cx.one;
        Cmat.set c kp (vidx plus) Cx.one
      end;
      if minus > 0 then begin
        Cmat.set b (vidx minus) kp (Cx.of_float (-1.));
        Cmat.set c kp (vidx minus) (Cx.of_float (-1.))
      end)
    ports;
  (b, c)

let to_descriptor t =
  let n = num_states t in
  let nports = num_ports t in
  let g = Cmat.zeros n n and cap = Cmat.zeros n n in
  let badd m i jcol x =
    Cmat.set m i jcol (Cx.add (Cmat.get m i jcol) (Cx.of_float x))
  in
  stamp t ~addg:(badd g) ~addc:(badd cap);
  let b, c = port_matrices t in
  let d = Cmat.zeros nports nports in
  Statespace.Descriptor.create ~e:cap ~a:(Cmat.neg g) ~b ~c ~d

(* sparse assembly: (G, C) in CSR form *)
let to_sparse t =
  let n = num_states t in
  let hint = 8 * (List.length t.elements + 1) in
  let g = Sparse.Scsr.create ~hint ~rows:n ~cols:n () in
  let c = Sparse.Scsr.create ~hint ~rows:n ~cols:n () in
  stamp t
    ~addg:(fun i jcol x -> Sparse.Scsr.add_real g i jcol x)
    ~addc:(fun i jcol x -> Sparse.Scsr.add_real c i jcol x);
  (Sparse.Scsr.compress g, Sparse.Scsr.compress c)

let sparse_system t =
  let g, c = to_sparse t in
  let b, l = port_matrices t in
  (g, c, b, l)

let impedance_sparse t freqs =
  let g, c = to_sparse t in
  let b, cout = port_matrices t in
  (* the pattern of sC + G is frequency-independent: a fill-reducing
     ordering of the union pattern serves every frequency point *)
  let pattern = Sparse.Scsr.scale_add ~alpha:Cx.one c ~beta:Cx.one g in
  let perm = Sparse.Ordering.amd pattern in
  Array.map
    (fun freq ->
      let s = Cx.jw (2. *. Float.pi *. freq) in
      let m = Sparse.Scsr.scale_add ~alpha:s c ~beta:Cx.one g in
      match Sparse.Slu.factorize ~perm m with
      | Error _ -> raise (Statespace.Descriptor.Singular_pencil s)
      | Ok f ->
        let x = Sparse.Slu.solve f b in
        { Statespace.Sampling.freq; s = Cmat.mul cout x })
    freqs

let impedance t freqs =
  Statespace.Sampling.sample_system (to_descriptor t) freqs

(* insertion-order views for the netlist writer *)
let elements t = List.rev t.elements
let ports t = List.rev t.ports
