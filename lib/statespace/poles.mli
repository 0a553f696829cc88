(** Pole analysis of descriptor models.

    For a Loewner-framework model [E] is typically nonsingular after the
    SVD projection; finite poles are the eigenvalues of [E^{-1} A].  When
    [E] is (nearly) singular the pencil has impulsive/infinite modes:
    these show up as huge eigenvalues and are filtered out. *)

(** [finite_poles sys] returns the finite generalized eigenvalues of
    the pencil [(A, E)].  Eigenvalues of modulus larger than
    [1e8 * max(1, |A| / |E|)] are treated as modes at infinity and
    dropped. *)
val finite_poles : Descriptor.t -> Linalg.Cx.t array

(** A system is stable when every finite pole satisfies [Re < 0]. *)
val is_stable : Descriptor.t -> bool
