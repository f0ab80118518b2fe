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
    tape lane-batches it with its own scalar remainder, and the closure
    fallback has a lane-blocked driver for the unsplit tag. *)

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

    A CPU-tagged loop ([Seq], [Parallel], [Vectorized], [Unrolled]) with
    constant bounds whose body indexes through a [min]/[max] of the loop
    variable (a clamp) is split into consecutive pieces — prologue,
    steady, epilogue — at the points where the clamp folds, and every
    piece is narrowed (and split) with its own range.  One-point pieces
    and vector pieces shorter than their width become [Seq].  Never under
    a GPU loop, and bounded by a fixed statement-size limit. *)

type split = { sp_var : string; sp_cuts : int list }
(** One loop split: the first iteration of every piece after the first. *)

val narrow_splits :
  params:(string * int) list -> Loop_ir.stmt -> Loop_ir.stmt * split list
(** [narrow] plus the splits it made, outermost first. *)

val split_note : split list -> string
(** ["split i at 1/127; split j at 1/15 (x3)"]: repeated splits counted. *)

val simplify : Loop_ir.stmt -> Loop_ir.stmt
(** The pipeline's [simplify] pass: {!unroll_expand}; every [Seq] loop
    whose constant range is a single point replaced by its body with the
    variable substituted; then {!Loop_ir.simplify_stmt}. *)
