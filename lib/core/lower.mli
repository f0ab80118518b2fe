(** Lowering: Layer IV → polyhedral AST → loop IR (paper §V).

    Builds every computation's scheduled set (including the footprint-derived
    sets of [compute_at] producers — overlapped tiling), pads the time
    vectors to a common arity, and emits per-statement bodies with accesses
    rewritten through the backward schedule substitution.  The stages are
    composed — with the vectorization/unrolling legalization between them —
    only by [Tiramisu_pipeline.Pipeline.lower], the one place that knows
    the pass order; print its result with
    {!Tiramisu_codegen.Loop_ir.to_string} for Fig. 3-style pseudocode. *)

type t = {
  ast : Tiramisu_codegen.Loop_ir.stmt;
  fn : Ir.fn;
}

exception Unsupported of string
(** A schedule/operation combination the lowering does not handle.  The
    pipeline pass manager wraps this into its typed error. *)

val expand : Ir.fn -> Expr.t -> Expr.t
(** Substitute inlined producers into an expression (beta-reduction of
    Layer-I accesses). *)

val consumes : consumer:Ir.computation -> producer:Ir.computation -> bool
(** [consumer]'s expression (with inlined producers expanded) reads
    [producer] or its [cache_shared_at] copy: the pairs [compute_at]
    accepts. *)

val generate_ast : Ir.fn -> Tiramisu_codegen.Loop_ir.stmt
(** The front half of lowering: shared-cache expansion, per-computation
    descriptors, and scheduled-domain AST generation — before
    legalization and allocation scoping.  The pipeline pass manager runs
    and times the three stages individually.
    @raise Failure on malformed schedules (e.g. iterators not recoverable
    from the time dims).
    @raise Unsupported on operations outside the lowering's reach. *)

val scope_allocs : Ir.fn -> Tiramisu_codegen.Loop_ir.stmt ->
  Tiramisu_codegen.Loop_ir.stmt
(** The back half of lowering: wrap buffers at their [allocate_at] scopes
    (or at the root), applied to the legalized {!generate_ast}. *)

val buffer_extents :
  Ir.fn -> params:(string * int) list -> (Ir.buffer * int array) list
(** Concrete sizes of every buffer of the pipeline for the given parameter
    values (used by backends to allocate storage). *)
