(** Closure-compiling native executor.

    Where the paper lowers its AST to LLVM IR (§V-A), this backend compiles
    the loop IR once into nested OCaml closures — eliminating the
    interpreter's dispatch overhead — and executes [Parallel]-tagged loops
    on real cores.  It is the wall-clock backend: the reference {!Interp}
    stays the semantics oracle, and the two are checked against each other
    in the test-suite.

    Parallel loops run on the persistent {!Pool} of domains (chunked ranges,
    work stealing); nested parallel loops — statically detected via the loop
    metadata, or dynamically when a pool task starts one — run
    sequentially on their worker instead of oversubscribing.

    Addressing is precomputed: strides per access, affine index
    expressions as register/coefficient sums, and in-range constant
    indices folded at compile time.  Every other index is bounds-checked
    each time its access runs, so a fault raises [Invalid_argument] at
    the iteration that makes it and a guarded access that never runs out
    of range is accepted.  The one hoisted check is the tape's whole-box
    check at nest entry.

    Rectangular nests over straight-line affine stores are claimed by the
    flat instruction tape ({!Tape}) on every target, with the closures as
    the checked fallback ({!tape_count}, {!tape_fallbacks}).  Under the
    [`Pool] strategy every outermost [Parallel] loop forks, static or
    dynamic by the shape rule {!Tiramisu_codegen.Parallel_plan.uniform}
    ({!static_count}); the parallel planner has already serialized the
    loops not worth forking.

    GPU-tagged loops run as ordinary loops (a functional grid simulation);
    distributed loops run rank-by-rank with in-memory channels, exactly as
    in {!Interp}.  Which backend a compilation is for is named by a
    {!Target.t}: the target decides the CPU parallel strategy, the GPU
    simulator's thread-block ceiling, and the rank count/α–β model recorded
    with distributed artifacts. *)

type compiled

exception
  Comm_error of { src : int; dst : int; channel : string; reason : string }
(** {!Interp.Comm_error}, the same exception. *)

type par_strategy = [ `Pool | `Seq ]
(** How [Parallel]-tagged loops execute: on the persistent domain pool
    (default) or sequentially. *)

val compile :
  ?target:Target.t ->
  ?claims:Tiramisu_codegen.Tape_gen.claims ->
  ?lanes:int ->
  params:(string * int) list ->
  buffers:Buffers.t list ->
  Tiramisu_codegen.Loop_ir.stmt ->
  compiled
(** Compile a statement verbatim for [target] (default {!Target.default},
    the pool CPU); buffers are captured by reference (re-fill between runs
    to reuse).  No pass runs here: bound narrowing, simplification and
    parallel planning belong to the pipeline
    ([Tiramisu_pipeline.Pipeline]), the one module that knows the pass
    order.  The target names the CPU parallel strategy, and a [Gpu_sim]
    target statically validates thread-block sizes against its
    [max_threads].  [claims] (default: the statement's) are the nests
    the flat tape runs; under [Tape_gen.no_claims] the executor is the
    plain closure compiler.  [lanes] (default
    {!Tape.default_lanes}) is the widest lane batch claimed nests are
    bound with — [<= 1] forces the scalar tape; lane-unsafe nests stay
    scalar either way, and binding fits the width to each nest (see
    {!Tape.bind}).
    @raise Failure on constructs the executor does not support.
    @raise Invalid_argument on [claims] of another statement. *)

val run : compiled -> unit
(** Execute.  With the default [`Pool] strategy, parallel loops use the
    domain pool when {!Pool.num_workers} is more than one. *)

val buffer : compiled -> string -> Buffers.t

val meta : compiled -> Tiramisu_codegen.Loop_ir.loop_meta
(** Static loop metadata of the compiled program. *)

val time_run : compiled -> float
(** Wall-clock (monotonic) seconds of one execution. *)

val spec_count : compiled -> int
(** Always [0]: the innermost-loop kernel specializer this counted is gone
    (the tape claims those loops, see {!tape_count}).  Kept so metric
    readers that still record [spec_loops] keep building. *)

val pool_fallbacks : compiled -> int
(** Always [0]: the executor no longer demotes pool loops (the parallel
    planner serializes them).  Kept so metric readers that still record
    [pool_fallbacks] keep building. *)

val static_count : compiled -> int
(** Number of pool-executed [Parallel] loops compiled with the static
    per-worker schedule ({!Pool.static_for}); the others run dynamically
    ({!Pool.parallel_for}).  The schedule only changes how the range is
    cut: both run the same loop body on per-domain scratch
    ({!Pool.per_domain}).  The count is per-[compiled] value — repeated
    compiles in one process each report their own number. *)

val tape_count : compiled -> int
(** Number of loop nests claimed by the flat-tape backend ([claims]):
    perfect rectangular nests over straight-line affine stores compiled
    to register-file bytecode with strength-reduced cursor addressing (see
    {!Tape}).  The whole closure path stays compiled as the checked
    fallback.  Per-[compiled] value, like {!static_count}. *)

val tape_vec_count : compiled -> int
(** Number of claimed nests bound with lane batching (the vector tier):
    those whose {!lane_modes} entry is [Inner] or [Outer].  Per-[compiled],
    like {!tape_count}. *)

val tape_lanes : compiled -> int
(** The lane width this program was compiled with ([0] under [no_claims]
    or when [lanes <= 1] forced the scalar tape). *)

val tape_instrs : compiled -> int
(** Total tape instructions across all claimed nests.  Per-[compiled]. *)

val lane_modes : compiled -> (string * Tape.lane_mode) list
(** Per claimed nest, in claim order: the nest's name (its level
    variables joined by ['.'], as in the pass trace) and the lane
    decision {!Tape.bind} took for it — [Inner], [Outer] or [Scalar]
    with the reason.  Per-[compiled], like {!tape_count}. *)

val bound_tapes : compiled -> (string * Tape.t) list
(** Per claimed nest, in claim order: its name and the bound tape, for
    {!Tape.listing} and {!Tape.folded}. *)

val tape_fallbacks : compiled -> int
(** Number of nest {e entries} whose whole-box corner check failed at run
    time, falling back to the generic closure path (whose per-access checks
    raise at the faulting iteration).  Unlike the compile-time counters this
    accumulates across {!run} calls of the same [compiled] value. *)

val comm_msgs : compiled -> int
(** Messages sent through distributed channels so far.  Accumulates across
    {!run} calls, like {!tape_fallbacks}; feeds the α–β model in the
    distributed bench. *)

val comm_bytes : compiled -> int
(** Payload bytes sent through distributed channels so far (8 bytes per
    element).  Accumulates across {!run} calls. *)
