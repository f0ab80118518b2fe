(** Integer sets: finite unions of convex polyhedra over a named space.

    These are the Layer-I iteration domains of the paper (§IV-C1), e.g.
    [{ by[i,j,c] : 0 <= i < N-2 and 0 <= j < M-2 and 0 <= c < 3 }]. *)

type t = { space : Space.set; polys : Poly.t list }

val of_constraints : Space.set -> Cstr.t list -> t
(** The single convex piece satisfying all constraints. *)

val of_polys : Space.set -> Poly.t list -> t
val universe : Space.set -> t
val empty : Space.set -> t
val space : t -> Space.set
val n_vars : t -> int
val n_params : t -> int

val add_constraints : t -> Cstr.t list -> t
val intersect : t -> t -> t
val union : t -> t -> t
val subtract : t -> t -> t

val is_empty : t -> bool
(** Exact (parameters are existentially quantified). *)

val equal : t -> t -> bool
val subset : t -> t -> bool

val mem : t -> params:int array -> int array -> bool
val sample : t -> int array option
(** Full column vector [params @ vars]. *)

val fix_params : t -> (string * int) list -> t
val fix_var : t -> int -> int -> t

val rename_vars : t -> string list -> t

val points : t -> params:(string * int) list -> int array list
(** Enumerate all integer points for fixed parameter values, in
    lexicographic order.  Intended for tests and small domains.
    @raise Invalid_argument if the set is unbounded within [-2^20, 2^20]. *)

val pp : Format.formatter -> t -> unit
(** ISL-style notation, e.g.
    [[N] -> { S[i, j] : i >= 0 and -i + N - 1 >= 0 }]. *)

val to_string : t -> string
