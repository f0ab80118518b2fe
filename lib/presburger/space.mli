(** Dimension spaces: named parameters and tuple dimensions.

    A set space is [[params] -> { name[vars] }]; a map space is
    [[params] -> { in_name[ins] -> out_name[outs] }].  Spaces fix the column
    layout of the underlying {!Poly} values: column 0 is the constant, then
    parameters, then (for maps) input dims, then output dims. *)

type set = { params : string array; set_name : string option; vars : string array }

type map = {
  mparams : string array;
  in_name : string option;
  ins : string array;
  out_name : string option;
  outs : string array;
}

val set_space : ?name:string -> params:string list -> string list -> set
val map_space :
  ?in_name:string -> ?out_name:string -> params:string list ->
  ins:string list -> string list -> map

val set_cols : set -> string array
(** Parameter names followed by variable names — the {!Poly} column order. *)

val map_cols : map -> string array
val set_arity : set -> int
val map_arity : map -> int

val domain_of_map : map -> set
val range_of_map : map -> set

val set_equal : set -> set -> bool
(** Same parameters and same number of variables (names need not match:
    positional identification, as in isl). *)
