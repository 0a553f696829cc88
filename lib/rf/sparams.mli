(** Network-parameter conversions.

    All conversions use a common real reference impedance [z0] (ohms) on
    every port, the usual 50-ohm single-impedance convention:
    [S = (Z - z0 I)(Z + z0 I)^{-1}]. *)

(** [z_to_s ~z0 z] converts an impedance matrix to scattering. *)
val z_to_s : z0:float -> Linalg.Cmat.t -> Linalg.Cmat.t

(** [s_to_z ~z0 s] inverts {!z_to_s}.  Raises [Invalid_argument] when
    [I - S] is singular (ideal short). *)
val s_to_z : z0:float -> Linalg.Cmat.t -> Linalg.Cmat.t

(** [y_to_s ~z0 y] = [(I - z0 Y)(I + z0 Y)^{-1}]. *)
val y_to_s : z0:float -> Linalg.Cmat.t -> Linalg.Cmat.t

val s_to_y : z0:float -> Linalg.Cmat.t -> Linalg.Cmat.t

(** [z_to_y z] is the plain inverse. *)
val z_to_y : Linalg.Cmat.t -> Linalg.Cmat.t

(** Map a conversion over sampled data. *)
val map_samples :
  (Linalg.Cmat.t -> Linalg.Cmat.t) ->
  Statespace.Sampling.sample array -> Statespace.Sampling.sample array

(** [is_passive_sample s] checks [sigma_max(S) <= 1 + tol] — the sampled
    passivity test for scattering data. *)
val is_passive_sample : ?tol:float -> Linalg.Cmat.t -> bool

(** Largest singular value of [S] over a set of samples (passivity
    margin: passive iff <= 1). *)
val max_singular_value : Statespace.Sampling.sample array -> float

(** [descriptor_z_to_s ~z0 sys] converts an impedance-parameter
    descriptor model (from {!Mna}) into a scattering-parameter one
    algebraically, without sampling:
    with [W = (Z + z0 I)^{-1}], [S = I - 2 z0 W], realized by augmenting
    the MNA equations with the port resistances. *)
val descriptor_z_to_s : z0:float -> Statespace.Descriptor.t -> Statespace.Descriptor.t
