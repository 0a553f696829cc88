(** Modified nodal analysis (MNA) of linear RLC circuits.

    Builds the descriptor system [E x' = A x + B u, y = C x] directly
    from a netlist: node voltages plus one branch current per (R)L
    element, current-source inputs at the ports, port voltages as
    outputs.  The transfer function is therefore the open-circuit
    impedance matrix [Z(s)]; convert with {!Sparams} as needed.

    Node [0] is ground.  Nodes are dense integers [0 .. num_nodes-1]. *)

type node = int

type element =
  | Resistor of { a : node; b : node; ohms : float }
  | Capacitor of { a : node; b : node; farads : float }
  | Inductor of { a : node; b : node; henries : float }
  | Rl_branch of { a : node; b : node; ohms : float; henries : float }
      (** series R+L as a single branch unknown (one state, not two) *)
  | Mutual of { k1 : int; k2 : int; henries : float }
      (** mutual inductance between the [k1]-th and [k2]-th inductive
          branches (counting [Inductor] and [Rl_branch] elements in
          insertion order, 0-based) *)

type t

(** [create ~nodes] starts an empty circuit with [nodes >= 1] nodes
    (including ground). *)
val create : nodes:int -> t

(** [add circuit element] returns the circuit extended with [element].
    Raises [Invalid_argument] on out-of-range nodes or non-positive
    values. *)
val add : t -> element -> t

(** [add_port circuit ~plus ~minus] declares a port: input = current
    injected from [minus] to [plus], output = voltage [v_plus - v_minus].
    Returns the port's index and the extended circuit. *)
val add_port : t -> plus:node -> minus:node -> int * t

val num_nodes : t -> int
val num_ports : t -> int

(** Number of MNA unknowns: non-ground nodes + inductive branches. *)
val num_states : t -> int

(** Assemble the impedance-parameter descriptor model (dense). *)
val to_descriptor : t -> Statespace.Descriptor.t

(** Sparse assembly: the [(G, C)] pair with
    [(sC + G) x = B u, y = B^T x]. *)
val to_sparse : t -> Sparse.Scsr.t * Sparse.Scsr.t

(** [sparse_system circuit] is [(g, c, b, l)]: the sparse MNA pencil
    plus the dense port injection/selection matrices, the form the
    Krylov reduction consumes ([Z(s) = l (sC + G)^{-1} b]). *)
val sparse_system :
  t -> Sparse.Scsr.t * Sparse.Scsr.t * Linalg.Cmat.t * Linalg.Cmat.t

(** [impedance circuit freqs] samples [Z(j 2 pi f)] via the dense model. *)
val impedance : t -> float array -> Statespace.Sampling.sample array

(** Same samples via sparse assembly and sparse LU — near-linear in the
    circuit size, the right path for plane grids with thousands of
    states. *)
val impedance_sparse : t -> float array -> Statespace.Sampling.sample array

(** Elements in insertion order (for the netlist writer). *)
val elements : t -> element list

(** Ports in insertion order as [(plus, minus)] pairs. *)
val ports : t -> (node * node) list
