(** Loop-IR legalization passes.

    - {b Vector legalization} implements the paper's "separation of full and
      partial tiles" (§V-A, §VI-A): a loop tagged [Vectorized w] whose extent
      may be smaller than [w] at domain edges is split into a full part
      executed as a genuine width-[w] vector loop and a scalar epilogue.
    - {b Unroll expansion} replicates the body of constant-extent
      [Unrolled] loops. *)

val vector_legalize : ?keep_claimable:bool -> Loop_ir.stmt -> Loop_ir.stmt
(** Split dynamic-extent [Vectorized] loops into a full-block nest plus a
    scalar epilogue.  [~keep_claimable:true] (CPU compiles with the tape
    enabled) leaves a loop the tape classifier would claim unsplit — the
    tape lane-batches it with its own scalar remainder; if the tape does
    not claim it after all, the closure path runs the unsplit loop
    sequentially. *)

val unroll_expand : ?max_body:int -> Loop_ir.stmt -> Loop_ir.stmt

val legalize : ?keep_claimable:bool -> Loop_ir.stmt -> Loop_ir.stmt
(** [vector_legalize] followed by [unroll_expand]. *)

val subst_var : string -> Loop_ir.expr -> Loop_ir.stmt -> Loop_ir.stmt
(** Substitute a loop variable in a statement (exposed for tests). *)

val narrow : params:(string * int) list -> Loop_ir.stmt -> Loop_ir.stmt
(** Interval-based bound narrowing with known parameter values: propagates
    loop-variable ranges top-down and collapses [min]/[max]/[floord]
    expressions (in bounds, indices and guards) that the ranges decide,
    deletes provably-empty loops and always/never-taken guards.  Purely a
    strengthening of constant folding: the rewritten program computes the
    same values and fails the same bounds checks as the original.  Used by
    the compiled backend, whose parameters are fixed at compile time.

    Index-set splitting: a CPU-tagged loop ([Seq], [Parallel],
    [Vectorized], [Unrolled]) with constant bounds is split into
    consecutive pieces — prologue, steady, epilogue — at the points where
    a [min]/[max] term on its variable folds, and every piece is narrowed
    (and split) with its own range.  Two kinds of term count: an index
    clamp in the body, and a partial-tile bound of an inner CPU loop that
    reads the variable of a loop strictly between the two (or the split
    loop's own variable, from its direct child) — the non-rectangular
    bounds that stop the tape from claiming a deeper nest, so the full
    tiles become one piece with constant bounds.  One-point pieces and
    vector pieces shorter than their width become [Seq].  Never under a
    GPU loop, and bounded by {!max_split_size}. *)

val stmt_size : Loop_ir.stmt -> int
(** Node count: loops, guards, allocations and leaf statements. *)

val max_split_size : int
(** [narrow] takes a split only while the split loop's rewritten
    statement stays within this many {!stmt_size} nodes. *)

type cause = Clamp | Bound of string
(** Why a loop was cut: an index clamp, or else the bound of the named
    inner loop (a partial tile), the first one that gave a cut. *)

type split = { sp_var : string; sp_cuts : int list; sp_cause : cause }
(** One loop split: the first iteration of every piece after the first. *)

val narrow_splits :
  params:(string * int) list -> Loop_ir.stmt -> Loop_ir.stmt * split list
(** [narrow] plus the splits it made, outermost first. *)

val split_note : split list -> string
(** ["split i at 1/127 (clamp); split j0 at 11 (bound j1_v, x3)"]: the
    first iteration of every piece after the first, the cause, and how
    often the same split repeats. *)

val simplify : Loop_ir.stmt -> Loop_ir.stmt
(** The pipeline's [simplify] pass: {!unroll_expand}; every [Seq] loop
    whose constant range is a single point replaced by its body with the
    variable substituted; then {!Loop_ir.simplify_stmt}. *)
