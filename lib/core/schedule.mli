(** Layer-II scheduling state and the loop-nest transformation commands of
    Table II.

    Every command is a composition of affine constraints relating the
    computation's iterators to the live dynamic columns of its time-space
    vector; static dimensions carry the inter-computation ordering.  Commands
    mutate the schedule in place, as in the original C++ API. *)

open Tiramisu_presburger

val init : Ir.fn -> order:int -> string list -> Ir.sched
(** Identity schedule [s0=order; i0; 0; i1; 0; ...] for the given
    iterators. *)

(** {1 Loop-nest transformations} *)

val tile :
  Ir.sched -> string -> string -> int -> int ->
  string -> string -> string -> string -> unit
(** [tile s i j t1 t2 i0 j0 i1 j1] — Table II [C.tile(i,j,t1,t2,i0,j0,i1,j1)].
    [i] and [j] must be consecutive dynamic dims. *)

val split : Ir.sched -> string -> int -> string -> string -> unit
val interchange : Ir.sched -> string -> string -> unit
val shift : Ir.sched -> string -> int -> unit
val skew : Ir.sched -> string -> string -> int -> unit
(** [skew s i j f] replaces [j] with [j + f*i] — the affine transformation
    Halide's interval representation cannot express (§II-c). *)

val reverse : Ir.sched -> string -> unit

(** {1 Hardware mapping} *)

val tag : Ir.sched -> string -> Tiramisu_codegen.Loop_ir.loop_tag -> unit
val vectorize : Ir.sched -> string -> int -> unit
(** Split by the vector width and tag the inner dim [Vectorized]. *)

val unroll : Ir.sched -> string -> int -> unit

(** {1 Ordering} *)

val set_static : Ir.sched -> int -> int -> unit
(** [set_static s k v] sets the static dim before dynamic level [k]. *)

val get_static : Ir.sched -> int -> int
val after : Ir.sched -> Ir.sched -> int -> unit
(** [after c b level] — c runs after b at dynamic level [level], sharing all
    outer loops (statics above [level] are copied from [b]). [level = 0]
    means "at the root". *)

(** {1 Lowering support} *)

val backward_exprs :
  params:string list -> Iset.t -> Ir.sched -> (string * Aff.t) list
(** Each iterator as an affine expression of the live dynamic columns — the
    substitution code generation uses to rewrite accesses (§V-a).
    @raise Failure if the equalities do not determine an iterator. *)

val pp : Format.formatter -> Ir.sched -> unit
