(** Exact rational arithmetic over checked native integers.

    Used by the Fourier–Motzkin rational relaxation, by affine-map inversion
    (Gaussian elimination), and by the machine model. Values are kept in
    canonical form: positive denominator, numerator and denominator coprime. *)

type t = private { num : int; den : int }

val make : int -> int -> t
(** [make num den] normalizes the fraction. @raise Division_by_zero if
    [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero when dividing by {!zero}. *)

val neg : t -> t
val inv : t -> t
val abs : t -> t
val min : t -> t -> t
val max : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_int : t -> bool

val floor : t -> int
val ceil : t -> int

val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string
