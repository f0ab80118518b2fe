(** Integer maps (relations between integer tuples).

    Maps represent schedules (Layer II time-space maps), access relations
    (Layer III data mappings) and dependence relations — exactly the roles
    isl maps play in the paper (§IV-B). *)

type t = { space : Space.map; polys : Poly.t list }

val of_constraints : Space.map -> Cstr.t list -> t
val of_polys : Space.map -> Poly.t list -> t
val universe : Space.map -> t

val from_exprs : ?extra:Cstr.t list -> Space.map -> Aff.t list -> t
(** [from_exprs space outs] is the graph [{ in -> out : out_k = outs_k(in),
    extra }]; the usual way schedules and access relations are built. *)

val identity : Space.map -> t
val space : t -> Space.map

val intersect : t -> t -> t
val union : t -> t -> t
val is_empty : t -> bool
val domain : t -> Iset.t
(** Exact when input dims carry unit coefficients (true for every schedule
    and access relation in this project); otherwise over-approximated. *)

val range : t -> Iset.t
val inverse : t -> t

val apply : Iset.t -> t -> Iset.t
(** Image of a set: [{ y : exists x in s, (x,y) in m }]. *)

val compose : t -> t -> t
(** [compose f g] is [g . f] : applies [f] first ([f : A -> B],
    [g : B -> C], result [A -> C]). *)

val intersect_domain : t -> Iset.t -> t

val fix_params : t -> (string * int) list -> t

val solve_outs : t -> Aff.t array option
(** Express each output dimension as an affine expression of the inputs and
    parameters, when the map's equalities determine them uniquely with
    integer coefficients (Gaussian elimination). *)

val solve_ins : t -> Aff.t array option
(** Dual of {!solve_outs}: inputs as expressions of outputs — the backward
    substitution code generation uses to rewrite accesses into loop
    iterators. *)

val pairs : t -> params:(string * int) list -> (int array * int array) list
(** Enumerate (in, out) tuples for fixed parameters; tests only. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
