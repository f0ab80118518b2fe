(** Reference interpreter for the loop IR.

    Executes generated code sequentially with exact reference semantics
    (parallel, vectorized and GPU-tagged loops run as ordinary loops; the
    mapping only affects the performance models).  This is the oracle the
    test-suite uses to check that every schedule-transformed program still
    computes what its Layer-I algorithm specifies.

    Distributed programs: [Distributed]-tagged loops iterate over ranks in
    increasing order within a single process, with sends and receives moving
    data through in-memory channels; a synchronous receive with no matching
    message raises (the real-MPI deadlock analogue).  Per-rank timing is the
    job of {!Dist_sim}. *)

exception
  Comm_error of { src : int; dst : int; channel : string; reason : string }
(** Communication fault on either executor ({!Exec.Comm_error} is this
    exception): a receive with no queued message (the MPI-deadlock
    analogue), a size mismatch, a slice outside its buffer, or an
    undelivered send.  [channel] is the buffer, [src]/[dst] ranks. *)

val check_slice :
  Buffers.t -> src:int -> dst:int -> offset:int -> count:int -> unit
(** @raise Comm_error naming the buffer, offset and count unless [count]
    elements at flat [offset] lie inside the buffer. *)

type counters = {
  mutable flops : int;         (** arithmetic on loaded values *)
  mutable loads : int;
  mutable stores : int;
  mutable iterations : int;    (** loop-body executions *)
  mutable messages : int;
  mutable bytes_sent : int;
}

type t

val create :
  ?params:(string * int) list ->
  ?buffers:Buffers.t list ->
  unit -> t

val add_buffer : t -> Buffers.t -> unit
val buffer : t -> string -> Buffers.t
val counters : t -> counters

val on_store : t -> (string -> int array -> float -> unit) -> unit
(** Register a hook called at every store, in execution order — the
    visit-trace oracle for AST-generation tests. *)

val run : t -> Tiramisu_codegen.Loop_ir.stmt -> unit
(** @raise Comm_error on a communication fault (see {!Comm_error}).
    @raise Failure on reads of undeclared buffers. *)

val reference :
  params:(string * int) list ->
  extents:(string * int array * Tiramisu_codegen.Loop_ir.mem_space) list ->
  inputs:(string * (int array -> float)) list ->
  Tiramisu_codegen.Loop_ir.stmt ->
  t
(** The oracle path: {!Buffers.instantiate} the program's buffers, run
    the statement, and return the interpreter (query outputs with
    {!buffer}, compare them with {!Buffers.bits_equal}).
    @raise Invalid_argument when an input names no buffer. *)

val eval_expr : t -> Tiramisu_codegen.Loop_ir.expr -> float
(** Evaluate a closed expression (no loop variables) — exposed for tests. *)
