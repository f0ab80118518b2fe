(** Affine constraints between named expressions. *)

type t =
  | Eq of Aff.t * Aff.t
  | Le of Aff.t * Aff.t
  | Lt of Aff.t * Aff.t
  | Ge of Aff.t * Aff.t
  | Gt of Aff.t * Aff.t

val map : (Aff.t -> Aff.t) -> t -> t
(** [map f c] applies [f] to both sides of [c], keeping its relation. *)

val between : Aff.t -> Aff.t -> Aff.t -> t list
(** [between lo x hi] is [lo <= x] and [x < hi] — the half-open ranges used
    for iteration domains throughout the paper. *)

val to_row : cols:string array -> t -> [ `Eq of int array | `Ineq of int array ]
(** Resolve to a {!Poly} row: inequalities in [>= 0] form. *)

val pp : Format.formatter -> t -> unit
