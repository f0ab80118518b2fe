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
    job of {!Dist_sim}.

    Each {!run} resolves its statement before walking it: variables and
    buffers become slots of two arrays, blocks become arrays, and which
    stores are [__trace] pseudo-stores is decided once.  The resolved tree
    belongs to that run alone.  Resolution changes no result, counter,
    hook call or error: an unbound name still fails only when the walk
    reaches it.

    {2 Exceptions}

    {!run} and {!eval_expr} raise, at the point of the walk where the
    fault happens (earlier stores have landed and been counted):
    - [Failure] ["Interp: unbound variable <v>"] when a variable that is
      neither a parameter nor an enclosing loop's is read;
      ["Interp: unknown buffer <b>"] when a load, store, send, receive or
      copy names a buffer that is neither the interpreter's nor an
      enclosing [Alloc]'s; ["Interp: float in integer context"] for a
      float literal in an index, bound or condition; ["Interp: unknown
      intrinsic <f>"] (["unknown int intrinsic"] in integer context) for a
      call it does not know, after its arguments are evaluated;
      ["Interp: memcpy size mismatch"].
    - [Invalid_argument] from {!Buffers.flat_index} when an access has the
      wrong rank (["buffer <b>: rank <r> access on rank <n> buffer"]) or an
      index outside its dimension (["buffer <b>: index <i> out of bounds
      [0,<d>) at dim <k>"]).  A load evaluates its indices, then is
      checked; a store evaluates all its indices, then its value, then is
      checked (its [stores] counter already bumped).  [Alloc] with a
      negative extent raises [Array.make]'s [Invalid_argument].
    - [Division_by_zero] for [Div], [FloorDiv] or [Mod] by zero in integer
      context, and for [FloorDiv] or [Mod] in float context, where both
      operands go through [int_of_float] first, so any divisor in (-1, 1)
      divides by zero (a float [Div] is IEEE division and never raises).
    - [Tiramisu_support.Ints.Overflow] from [Mod] (Euclidean, overflow
      checked) on operands near [min_int] — reachable in float context,
      where [int_of_float] of NaN, infinities or values beyond the int
      range is unspecified (on x86-64 it can yield [min_int]).
    - {!Comm_error} on a communication fault.

    Nothing here turns these into typed pipeline errors; callers that need
    one (the fuzzer's oracle, the search's verify) catch them. *)

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
(** One of the interpreter's own buffers (given to {!create} or
    {!add_buffer}); a buffer an [Alloc] binds exists only inside that
    statement's walk and is never registered here.
    @raise Failure ["Interp: unknown buffer <name>"] otherwise. *)

val counters : t -> counters

val on_store : t -> (string -> int array -> float -> unit) -> unit
(** Register a hook called at every store, in execution order — the
    visit-trace oracle for AST-generation tests. *)

val run : t -> Tiramisu_codegen.Loop_ir.stmt -> unit
(** Execute a statement with the interpreter's parameters and buffers.
    Counters accumulate across runs; loop variables and [Alloc]ed buffers
    do not outlive their scope.
    @raise Failure, Invalid_argument, Division_by_zero,
    Tiramisu_support.Ints.Overflow, Comm_error as listed above. *)

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
(** Evaluate a closed expression (no loop variables) in float context —
    exposed for tests.  Raises as {!run}. *)
