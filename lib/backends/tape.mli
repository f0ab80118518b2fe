(** The flat-tape executor.

    Binds an abstract {!Tiramisu_codegen.Tape_gen} program against
    concrete buffers — folding each access's affine indices with the
    buffer strides into one flat base plus a constant integer step per
    nest level — and runs it as a register-file bytecode interpreter:
    no closures, no env lookups and no allocation in the hot loop.

    The [Parallel]-tagged prefix of the nest is linearized into a fused
    range that callers split across workers; each worker owns a
    persistent {!state} (register file + cursors), reused across ranges
    and compiles. *)

(** A program bound to concrete buffers and env slots. *)
type t

(** Per-worker mutable execution state: the float register file,
    per-access cursors, and the odometer.  Allocate once per worker,
    reuse freely across ranges of the same bound program. *)
type state

(** Why a bound nest runs on the scalar tape. *)
type scalar_reason =
  | Lanes_off  (** the caller asked for [lanes <= 1] *)
  | Not_lane_safe
      (** the generator found inexact store/load aliasing ([p_vec_ok]) *)
  | Rmw_step_zero
      (** a read-modify-write access has innermost step 0: every lane
          would share its address *)
  | Store_collision  (** two stores into one buffer could meet across lanes *)
  | Accum_no_lane_level
      (** an accumulator with no level above the innermost outside the
          parallel prefix: a depth-1 nest, or one whose level above the
          reduction is parallel *)
  | Accum_reads_lane_var
      (** an accumulator body reads the lane level's or the innermost
          level's variable *)
  | Accum_step_zero
      (** the accumulator's address does not move along the lane level,
          so every lane would sum into one address *)

(** How a bound nest batches lanes: along its innermost level, along the
    level above an accumulator's innermost (reduction) level — [level]
    names the original loop variable; the run may be merged with parents
    that linearize with it — or not at all.  The width is the one the
    nest was bound with, after fitting (see {!bind}).  An [Outer] batch
    may also span [rows = Some (row, n)]: [n] positions of the level
    [row] directly above the lane run, so one batch is an [n x width]
    block of accumulators; [None] is a 1-D run. *)
type lane_mode =
  | Inner of int
  | Outer of { rows : (string * int) option; level : string; width : int }
  | Scalar of scalar_reason

(** The default [~lanes] request: the widest batch the vector tier may
    run.  Shared by {!Exec.compile}, {!Cost.estimate} and the pipeline's
    default knobs. *)
val default_lanes : int

(** ["inner x24"], ["outer j1_v x8"], ["outer i1 x8 × j1_v x8"],
    ["scalar (lanes off)"]. *)
val mode_to_string : lane_mode -> string

(** [bind ~buf ~slot p] resolves buffer names and free names; [None]
    when a buffer is unknown or its rank does not match an access.

    [~lanes] > 1 requests lane-batched (vector) execution, [lanes] the
    widest batch.  The width is an interpreter strip, not SIMD: each
    vector dispatch has a fixed cost, so wider batches are cheaper.  The
    bound width [w] is [lanes] fitted to the nest — capped by the
    exec-inner extent (the lane run for [Outer]) when that is a
    bind-time constant — and {!mode} reports it.  For a lane-safe
    program ([p_vec_ok]) whose read-modify-write accesses all have a
    nonzero innermost step, each segment runs [len / w] batches through
    a vector tape derived from the scalar code (unit-stride
    loads/stores copying whole rows), then its remainder as one narrower batch; a
    single leftover iteration runs on the scalar tape ([Inner]).  Two
    stores into one buffer whose lanes meet [k] lanes apart cap [w] at
    [k], or keep the nest scalar when [k = 1].  An accumulator program
    with a {!Tiramisu_codegen.Tape_gen.outer_lane_level} (the level above
    its reduction, outside the parallel prefix, whatever its tag) whose
    body reads neither lane variable and whose accumulator moves along
    that level ({!Tiramisu_codegen.Tape_gen.outer_lane}) batches [w]
    positions of it instead: each batch runs the whole
    innermost loop with the accumulator in a lane register, loaded once
    before and stored once after ([Outer]); leftover positions run as
    one narrower batch (a single one runs scalar).  Either way every lane
    performs the scalar tape's float operations in its order, so results
    are bit-identical.  The vector tape's ALU operands (add, sub, mul,
    div, min, max, fma) read lane registers, uniform scalars (registers
    the vector tape never writes) or memory directly: a vector load folds
    into its reader when that reader is its value's only consumer, no
    store lies between them and the register carries nothing across
    iterations ({!folded}, {!listing}).  An [Outer] batch takes [rows] positions of the
    level directly above its lane run as well — a 2-D block of
    [rows x w] accumulators, [rows = min(extent, lanes / w)] — when that
    level is outside the parallel prefix, has constant bounds and a
    variable the body does not read, and the accumulator's step along it
    is at least [w] times its step along the run, so the block's
    addresses stay disjoint; otherwise (or below 2 rows) the run is 1-D.
    Anything else stays scalar, with the reason in {!mode}.  Binding
    also picks the lane kernel of every bound vector instruction (one
    small function per opcode and operand shape, {!kernel_count}), so
    running a batch decodes nothing. *)
val bind :
  ?lanes:int ->
  buf:(string -> Buffers.t option) ->
  slot:(string -> int) ->
  Tiramisu_codegen.Tape_gen.program ->
  t option

(** The lane decision [bind] took, with its reason when scalar. *)
val mode : t -> lane_mode

(** How many vector loads [bind] folded into the ALU instruction reading
    them ([0] for a scalar binding). *)
val folded : t -> int

(** The bound vector tape as text, [""] for a scalar binding: a header
    with the lane mode, the folded-load count and the live-in registers,
    then one line per instruction ([pro]/[epi] mark an [Outer] batch's
    loads before and store after the innermost loop).  Operands read
    [r5] (lane register), [r4:scalar] (a register the vector tape never
    writes, read once per batch) or [img@s3] (memory read directly:
    buffer and step along the batched level, [u] unit, [b] broadcast,
    [sK] stride [K]), e.g. [vfma r10 <- img@s3, r2:scalar]. *)
val listing : t -> string

(** A fresh state.  It holds no lane registers: the first vector batch
    allocates them, at the width that batch needs.  A state serves one
    domain at a time; the executor keeps one per domain
    ({!Pool.per_domain}). *)
val new_state : t -> state

(** The width of the state's lane register file: [0] until its first
    vector batch, then the widest batch run so far rounded up (at most
    the bound width). *)
val lane_width : state -> int

(** [enter t st env] evaluates the nest bounds and runs the whole-box
    corner checks against every access: [-1] when a check fails (take
    the generic closure fallback, whose per-access checks raise at the
    faulting iteration), [0] when some level is empty (nothing to run),
    otherwise the size of the fused parallel range to split across
    workers.  The bounds are evaluated into [st]'s scratch, so an entry
    allocates nothing; [st] must not be in use by another domain. *)
val enter : t -> state -> int array -> int

(** [run_range t st env f_lo f_hi] executes the inclusive slice
    [f_lo..f_hi] of the fused range on [st].  Slices never cut a
    sequential subnest, so disjoint slices touch disjoint store
    locations and may run concurrently.  [enter] must have returned a
    total [> f_hi]. *)
val run_range : t -> state -> int array -> int -> int -> unit

(** {2 Lane kernels, for tests} *)

(** An operand of one vector ALU instruction: a lane register ([rows *
    width] lanes, row-major), a uniform scalar, or memory read directly —
    lane [j] of row [r] at [base + r * row_step + j * stride]. *)
type operand =
  | Reg of float array
  | Uniform of float
  | Mem of { data : float array; base : int; stride : int; row_step : int }

(** How many kernels the vector interpreter's table holds, and the name
    of entry [id] ([0 <= id < kernel_count]): ["vadd r,@u"] for a fusable
    opcode with its operand shapes ([r] lane register, [scalar], memory
    at unit stride [@u], stride 0 [@b] or another stride [@s]), the bare
    opcode name for the others (["vsqrt"], ["vload.s"]). *)
val kernel_count : int

val kernel_name : int -> string

(** [lane_kernel ~op ~rows ~width ~acc x y] runs [op] as one bound vector
    instruction over a [rows x width] batch, through the kernel {!bind}
    would choose for it, and returns that kernel's id with the result.
    An ALU opcode ([op_mov] to [op_trunc]; a non-fusable one takes [Reg]
    operands, and a unary one ignores [y]) returns the destination
    lanes, which start as the first [rows * width] lanes of [acc] (the
    addend of [fma]).  A load ([op_vload_unit] to [op_vload_bcast])
    reads the [Mem] operand [x] and also returns the destination lanes;
    a store ([op_vstore_unit], [op_vstore_strided]) writes the [Reg]
    lanes [y] into a copy of the [Mem] operand [x]'s data and returns
    that copy.  The [Mem] stride must match a load's or store's form. *)
val lane_kernel :
  op:int -> rows:int -> width:int -> acc:float array -> operand -> operand ->
  int * float array
