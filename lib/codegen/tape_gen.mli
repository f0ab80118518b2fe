(** Lowering rectangular loop nests to flat instruction tapes.

    Classifies perfect [For] chains over straight-line affine stores and
    compiles them to an abstract fixed-width bytecode program over a float
    register file.  The program references buffers by name and indices as
    affine terms; the backend tape executor binds it against concrete
    buffers and runs it with strength-reduced cursor addressing — see
    [Tiramisu_backends.Tape]. *)

(** Bumped when instruction semantics or program layout change; the
    pipeline compile cache mixes it into its key so stale artifacts are
    never served across generator versions. *)
val version : int

(** {1 Instruction set}

    One instruction is 4 ints [op; dst; a; b].  For [op_load], [a] is an
    access index; for [op_store], [a] is the access and [b] the source
    register; all other fields are registers. *)

val op_load : int
val op_store : int
val op_mov : int
val op_add : int
val op_sub : int
val op_mul : int
val op_div : int
val op_min : int
val op_max : int

(** [dst <- dst +. (a *. b)] with two roundings (multiply, then add):
    a dispatch fusion that stays bit-identical to the interpreter, not a
    hardware fused multiply-add. *)
val op_fma : int

val op_neg : int
val op_abs : int
val op_sqrt : int
val op_exp : int
val op_log : int
val op_sin : int
val op_cos : int
val op_floor : int
val op_pow : int
val op_fdivi : int
val op_modi : int
val op_trunc : int

(** {2 Vector-tier opcodes}

    The generator never emits these: the backend derives a vector tape
    from [p_code] at bind time (when access strides are known), rewriting
    [op_load]/[op_store] into the forms below and reusing codes 2..21
    with lane-wise semantics over the vector register file.  Unit forms
    imply step 1; strided forms carry the step in the otherwise-unused
    field ([b] for loads, [dst] for stores). *)

val op_vload_unit : int
val op_vload_strided : int
val op_vload_bcast : int
val op_vstore_unit : int
val op_vstore_strided : int

val op_name : int -> string

(** Mnemonic as executed by the vector tier: memory opcodes keep their
    specialized names, ALU codes gain a [v] prefix. *)
val vop_name : int -> string

(** {1 Programs} *)

(** Sorted affine terms plus constant, the per-dimension index view. *)
type affine = (string * int) list * int

(** Loop bounds: affine at the core plus the [min]/[max] and
    constant-divisor [floord]/[emod] layers produced by tiling with
    partial tiles and by vector legalization.  Compiled to an
    [env -> int] closure at bind time; access indices stay strictly
    affine. *)
type bexpr =
  | Baff of affine
  | Badd of bexpr * bexpr
  | Bsub of bexpr * bexpr
  | Bscale of bexpr * int
  | Bmin of bexpr * bexpr
  | Bmax of bexpr * bexpr
  | Bfdiv of bexpr * int  (** euclidean, positive constant divisor *)
  | Bmod of bexpr * int   (** euclidean, positive constant divisor *)

type access = {
  ac_buf : string;
  ac_idx : affine array;
  ac_stored : bool;
}

type level = {
  lv_var : string;
  lv_lo : bexpr;  (** over names outside the nest only *)
  lv_hi : bexpr;
  lv_tag : Loop_ir.loop_tag;
}

type program = {
  p_levels : level array;          (** outermost first *)
  p_par : int;                     (** length of the [Parallel] tag prefix *)
  p_accesses : access array;
  p_nregs : int;
  p_lits : (int * float) array;    (** reg <- literal, once per state *)
  p_hoists : (int * string) array; (** reg <- float env.(name), per range *)
  p_ivregs : int array;            (** float register of each level's var *)
  p_promos : (int * int) array;    (** (reg, access): per-segment load *)
  p_accum : (int * int * bool) option;
      (** (reg, store access, init-from-memory) accumulator: every store
          of the leaf writes this one access, its address ignores the
          innermost variable, and each same-buffer load aliases it.  The
          register is loaded before the innermost loop (when the first
          value reads it) and stored once after; an unrolled reduction's
          stores fold into it in order.  Such a nest never batches lanes
          along its innermost level; {!outer_lane_level} names the level
          it may batch along instead. *)
  p_code : int array;              (** packed body instructions *)
  p_ivuse : bool array;
      (** per level: the body reads the variable's register *)
  p_vec_ok : bool;
      (** lane batching along the innermost level preserves scalar
          semantics: no accumulator, every load from a stored buffer
          exactly aliases the store, no load reads a buffer that two
          stores write, and no read-modify-write address ignores the
          innermost variable (its lanes would share one address).  The
          backend still checks strides at bind time. *)
  p_rmw : int array;
      (** accesses both loaded and stored (exact read-modify-write);
          vector execution additionally requires their innermost step be
          nonzero so lanes touch distinct addresses *)
  p_store_pairs : (int * int) array;
      (** pairs of distinct store accesses into one buffer; vector
          execution additionally requires, per pair, equal per-level
          steps and non-nest terms, a nonzero innermost step [s], and a
          constant offset difference [d] with [d <> s*k] for every
          [0 < |k| < lanes], so the stores never collide across lanes *)
  p_pieces : (bexpr * bexpr) array array;
      (** guarded leaf pieces, piece-major then level-major (lo, hi).
          The program's level bounds are the union box (min of lows,
          max of highs across pieces); the executor verifies per entry
          that the non-empty pieces tile that box contiguously and
          otherwise takes the counted closure fallback.  [[||]] for an
          unguarded leaf, or a single piece folded straight into the
          level bounds *)
}

val instr_count : program -> int

(** Why a nest is not claimed (the first check that failed). *)
type reject =
  | Not_perfect
      (** the root is not a [For], or the leaf is not a straight-line
          store sequence (several loops, an [If] with an [else], ...) *)
  | Non_cpu_tag  (** a GPU or distributed level *)
  | Shadowed_var of string  (** a nest variable bound twice *)
  | Bound_reads_nest_var of string
      (** a level's bound reads this nest variable (non-rectangular: a
          partial tile's [min] that [Passes.narrow] did not cut away) *)
  | Bound_shape  (** a bound outside the affine min/max/floord grammar *)
  | Parallel_below_seq  (** a [Parallel] level under a sequential one *)
  | Guard_shape
      (** a guarded leaf whose guards are not affine conjunctions over
          one nest variable each, or whose bodies differ *)
  | Non_affine_index of string  (** an index into this buffer *)
  | Value_shape  (** a [Select] or an unknown call in a stored value *)
  | Pieces_reread
      (** >= 2 overlapping guarded pieces whose values read a stored
          buffer *)

val reject_to_string : reject -> string
(** ["bound reads nest variable j1"], ... *)

(** [classify s] lowers the perfect rectangular nest rooted at [s]
    (which must be a [For]) to a tape program, or says why the nest does
    not qualify: non-CPU tags, a [Parallel] tag below a sequential
    level, non-affine bounds or indices, bounds referencing a nest
    variable, or a leaf that is not a straight-line store sequence.

    A leaf made of else-less [If]s over structurally identical bodies
    (the shape [compute_at]'s shifted producer copies lower to) also
    qualifies: each guard must be a conjunction of affine comparisons
    over at most one nest variable, peeled into per-piece bound
    intersections; >= 2 pieces additionally require that no stored
    value reads a written buffer, so overlapped points re-store the
    same bits. *)
val classify : Loop_ir.stmt -> (program, reject) result

(** Calls of {!classify} so far in this process. *)
val classify_calls : unit -> int

(** [Result.is_ok (classify s)]: the predictive check of the passes that
    run before the final statement (and so its {!claims}) exists. *)
val claimable : Loop_ir.stmt -> bool

type claim = {
  cl_root : Loop_ir.stmt;  (** the claimed [For] *)
  cl_program : program;
  cl_parent : (string * reject) option;
      (** the nearest enclosing loop and why its nest was rejected *)
}

type claims = private {
  cs_source : Loop_ir.stmt option;  (** [None] for {!no_claims} *)
  cs_nests : claim list;  (** top-down, in claim order *)
}

(** The nests of [s] the tape runs: maximal nests, top-down.  Made once
    per compile by the pipeline's [tape-compile] pass; the executor, the
    cost model and [tiramisuc] read it and never classify. *)
val claims : Loop_ir.stmt -> claims

(** Claims nothing, of any statement: the closure-only control. *)
val no_claims : claims

(** The program of the claimed nest rooted at [s] (physical identity). *)
val find : claims -> Loop_ir.stmt -> program option

(** The level an accumulator program may batch lanes along: the level
    directly above the innermost (reduction) level, when it lies outside
    the parallel prefix, under any CPU tag ([Seq], [Unrolled] or
    [Vectorized]).  [None] for other programs, and for an accumulator
    nest of depth 1 or whose level above the reduction is parallel.
    {!Tiramisu_backends.Tape.bind} checks the strides that make the
    choice exact. *)
val outer_lane_level : program -> int option

(** An accumulator program's lane decision once its buffers' strides are
    known. *)
type outer_lane =
  | Lane_level of int  (** lanes along this level ({!outer_lane_level}) *)
  | No_lane_level  (** {!outer_lane_level} is [None] *)
  | Reads_lane_var
      (** the body reads the lane level's or the innermost level's
          variable *)
  | Step_zero
      (** the accumulator's address does not move along the lane level,
          so every lane would share it *)

(** [outer_lane p ~step] decides where an accumulator program's lanes
    go; [step a l] is access [a]'s flat step along level [l].  [None]
    for a program without an accumulator.  {!Tiramisu_backends.Tape.bind}
    binds [Outer] lanes exactly on [Lane_level], and
    {!Tiramisu_backends.Cost.estimate} prices the same decision. *)
val outer_lane : program -> step:(int -> int -> int) -> outer_lane option

(** The nest's level variables, outermost first, joined by ['.']. *)
val nest_name : program -> string

(** One-line shape summary (for [--trace-passes]).  Its [vec=] field is
    what the generator knows before strides are: [ok] (lanes along the
    innermost level), [outer] (an accumulator with an
    {!outer_lane_level}), [accum] (an accumulator without one), [rmw] (a
    read-modify-write address ignores the innermost variable) or [alias]
    (inexact store/load aliasing). *)
val summary : program -> string

(** Full listing: levels, accesses, register layout, instructions.
    With [~lanes] > 1 and a vector-eligible program, instructions are
    printed with their vector-tier mnemonics and the header records the
    lane width (and, for an accumulator, the level the lanes run
    along).  Pass the width the nest was bound with (the backend's
    [Tape.mode]): binding fits it to the nest, so it can be narrower
    than the requested one. *)
val disassemble : ?lanes:int -> program -> string
