(** Analytical performance model over the loop IR.

    Walks generated code once, binding every loop variable to a
    representative iteration, and scores compute (vector width, GPU
    throughput), memory (stride + working-set cache placement), control
    overhead (guards, loop control, unrolling) and communication (α–β
    network model, PCIe copies).  This replaces wall-clock measurement on the
    paper's testbed: schedule differences — tiling, packing, fusion,
    vectorization, coalescing, communication volume — change exactly the
    quantities the model scores, so relative results track the paper's.

    It is a model, not a cycle-accurate simulator; see EXPERIMENTS.md for
    the calibration notes and per-figure comparisons. *)

type report = {
  time_ns : float;      (** total estimated wall-clock *)
  compute_ns : float;
  memory_ns : float;
  overhead_ns : float;  (** loop control + branches + parallel regions *)
  comm_ns : float;      (** network + PCIe *)
  flops : float;
  bytes : float;        (** bytes moved past the L1 *)
  messages : int;
}

val estimate :
  ?machine:Machine.t ->
  ?tape:bool ->
  ?lanes:int ->
  params:(string * int) list ->
  buffers:(string * int array * Tiramisu_codegen.Loop_ir.mem_space) list ->
  Tiramisu_codegen.Loop_ir.stmt ->
  report
(** [buffers] gives each buffer's dimensions and memory space (for stride,
    footprint and GPU memory-hierarchy computation).  [tape] (default off,
    preserving the paper-figure calibration) additionally models the flat
    instruction-tape backend: it computes the claim record
    ({!Tiramisu_codegen.Tape_gen.claims}) once and charges loop control
    inside a claimed nest at bytecode-cursor cost, which is what lets the
    autoscheduler's prior rank tape-friendly schedules above
    structurally-equal ones the tape cannot claim.  [lanes] (default
    {!Tape.default_lanes}, matching {!Exec.compile}) is the widest lane
    batch the tape binds claimed nests with: when the generator marks a
    claimed nest lane-safe, its innermost loop is discounted like a
    [Vectorized] loop (compute divided by [min lanes vec_width], memory
    partially amortized), and so is an accumulator nest's outer lane
    level when {!Tiramisu_codegen.Tape_gen.outer_lane}, computed from
    [buffers]' strides as {!Tape.bind} computes it, grants one, so the
    prior prices the code the tape runs and tracks the vector tier's
    measured speedups; a request wider than the machine's vector width
    prices like the vector width itself. *)

val pp_report : Format.formatter -> report -> unit
