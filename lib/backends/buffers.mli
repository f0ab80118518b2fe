(** Runtime buffers for the executing backends.

    All numeric data is stored as [float array] in row-major order (the
    paper's buffers are dense rectangular arrays); integer-typed buffers
    store integral floats. *)

type t = {
  name : string;
  dims : int array;
  data : float array;
  mem : Tiramisu_codegen.Loop_ir.mem_space;
}

val create :
  ?mem:Tiramisu_codegen.Loop_ir.mem_space -> string -> int array -> t

val of_array :
  ?mem:Tiramisu_codegen.Loop_ir.mem_space -> string -> int array ->
  float array -> t

val size : t -> int

val strides_of : int array -> int array
(** Row-major strides of a dims vector ([strides_of dims].(k) is the flat
    distance between consecutive indices in dimension [k]).  The one stride
    computation every backend shares. *)

val strides : t -> int array
(** [strides_of b.dims]. *)

val flat_index : t -> int array -> int
(** @raise Invalid_argument on out-of-bounds access, mirroring the assertion
    failures Halide's ticket #2373 reproduction relies on. *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit
val fill : t -> (int array -> float) -> unit
val copy : t -> t
val equal : ?eps:float -> t -> t -> bool
val max_abs_diff : t -> t -> float

val bits_equal : t -> t -> bool
(** Bit-exact equality of the data: sizes first, then every element's
    [Int64.bits_of_float] ([0.0] and [-0.0] differ; a NaN equals only a
    NaN with the same payload).  The comparison every oracle check uses. *)

val first_diff : t -> t -> string
(** Where two buffers first differ bitwise, for failure messages:
    ["[i]: x vs y"] at the first differing index, ["(sizes m vs n)"] on a
    length mismatch, ["(bit-identical)"] when {!bits_equal} holds. *)

val fill_inputs : t list -> (string * (int array -> float)) list -> unit
(** Fill each named input buffer from its index function.
    @raise Invalid_argument ["unknown input buffer <name>"] when an input
    names no buffer of the list. *)

val instantiate :
  extents:(string * int array * Tiramisu_codegen.Loop_ir.mem_space) list ->
  inputs:(string * (int array -> float)) list ->
  t list
(** Stand up a program's buffers: one zeroed buffer per [(name, dims,
    mem)] extent, then {!fill_inputs}.  The one buffer setup every
    executor and the interpreter oracle share.
    @raise Invalid_argument as {!fill_inputs}. *)
