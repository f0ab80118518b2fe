(** Compile-time parallel planning for pool-scheduled loops.

    Decides, per outermost [Parallel] loop of a lowered statement, whether
    to keep it parallel, coalesce it with adjacent nested [Parallel] levels
    (OpenMP [collapse]-style: one parallel loop over the product domain,
    with single-trip binder loops recovering each original variable as
    [lᵢ + (fused / strideᵢ) mod nᵢ]), or serialize the subtree when the
    estimated work per worker is below the fork/join break-even.  Trip
    counts come from the exact polyhedral cardinality of the chain's
    iteration domain ({!Tiramisu_presburger.Poly.card}); [max]/[min] bound
    scaffolding splits into one constraint row per argument.

    The result is plain loop IR — binder loops are ordinary single-trip
    [For]s — so the interpreter, the closure compiler and the C emitter
    execute it unchanged, and everything below a fused group keeps its
    affine addressing and tape claims. *)

type decision = {
  d_var : string;              (** outermost loop var the decision is about *)
  d_action :
    [ `Coalesce of string list | `Keep | `Keep_tape of string list
    | `Serialize ];
      (** [`Keep_tape vs]: the nest is claimable by the flat-tape backend,
          which linearizes the [Parallel] prefix [vs] itself — the levels
          are kept intact (no binder loops, which would destroy tape
          eligibility) and count into [r_fused_levels]. *)
  d_trip : int option;         (** parallel-chain trip count *)
  d_trip_exact : bool;         (** [d_trip] is exact, not an estimate *)
  d_per_worker : int;          (** estimated work units per worker *)
  d_uniform : bool;            (** per-entry work independent of the index *)
}

type report = {
  r_parallel : int;            (** parallel loops kept (a fused group is 1) *)
  r_coalesced : int;           (** fused groups emitted *)
  r_fused_levels : int;        (** original loops folded into fused groups *)
  r_serialized : int;          (** top-level [Parallel] subtrees demoted *)
  r_retagged : int;            (** nested [Parallel] loops retagged [Seq] *)
  r_decisions : decision list; (** outermost-first *)
}

val empty_report : report

(** {1 Static work estimate}, shared with the compiled executor.  [env]
    maps parameters to values and enclosing loop variables to midpoints. *)

val min_work : int
(** Per-worker work (≈ executed statements) below which a subtree is
    serialized rather than forked. *)

val est_int : (string, int) Hashtbl.t -> Loop_ir.expr -> int

val uniform :
  (string, int) Hashtbl.t ->
  var:string -> lo:Loop_ir.expr -> hi:Loop_ir.expr -> Loop_ir.stmt -> bool
(** The shape rule for [for var = lo..hi body]: [true] (static pool
    schedule) when [body]'s work estimate is equal at both ends of the
    range, [false] (dynamic) for triangular domains and partial tiles. *)

val plan :
  workers:int ->
  params:(string * int) list ->
  ?force:bool ->
  ?tape:bool ->
  Loop_ir.stmt ->
  Loop_ir.stmt * report
(** [plan ~workers ~params stmt] rewrites the outermost [Parallel] loops
    of [stmt] as described above.  [workers] is the parallelism the plan
    budgets for (normally the pool's effective parallelism; [<= 1]
    serializes every subtree), [params] the known parameter values used by
    the work estimator.  The executor forks every [Parallel] loop the plan
    keeps.  [~force:true] skips the
    profitability test and fuses the maximal rectangular prefix — a
    machine-independent mode for differential testing.  [~tape:true]
    (default [false]) tells the planner the executor's flat-tape backend is
    on: a fusible nest that {!Tape_gen.claimable} would claim is kept
    intact instead of coalesced, because the tape linearizes the
    [Parallel] prefix itself and div/mod binder loops would destroy its
    eligibility.  Semantics are preserved for any input whose [Parallel]
    tags are legal (the pass only reorders work across parallel entries
    that carry no dependence). *)

val report_str : report -> string
