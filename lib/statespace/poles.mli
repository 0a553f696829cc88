(** Pole analysis of descriptor models.

    For a Loewner-framework model [E] is typically nonsingular after the
    SVD projection; finite poles are the eigenvalues of [E^{-1} A].  When
    [E] is (nearly) singular the pencil has impulsive/infinite modes:
    these show up as huge eigenvalues and are filtered by
    [~infinite_tol]. *)

(** [finite_poles ?infinite_tol sys] returns the finite generalized
    eigenvalues of the pencil [(A, E)].  Eigenvalues of modulus larger
    than [infinite_tol * max(1, |A| / |E|)] are treated as modes at
    infinity and dropped (default tol [1e8]). *)
val finite_poles : ?infinite_tol:float -> Descriptor.t -> Linalg.Cx.t array

(** A system is stable when every finite pole satisfies [Re < 0]. *)
val is_stable : ?infinite_tol:float -> Descriptor.t -> bool
