(** Exact dependence analysis and schedule legality (paper §II, §V).

    Tiramisu "avoids over-conservative constraints by relying on dependence
    analysis to check for the correctness of code transformations, enabling
    more possible schedules" — in contrast to Halide's conservative rules
    (no fusion when the second loop reads the first's output, acyclic
    dataflow only).  This module implements that analysis on the presburger
    substrate:

    - {e flow dependences} come from Layer I's explicit producer-consumer
      edges (value-based, exact up to the §V-B over-approximation of
      clamped accesses);
    - {e memory dependences} (flow/anti/output through buffers) come from
      Layer III access relations and catch hazards introduced by data-layout
      decisions;
    - {e legality} checks that a schedule executes every producer instance
      strictly before its consumers, by per-level emptiness of the violation
      sets (the Omega test makes this exact). *)

type kind = Flow | Anti | Output

type dep = {
  src : Tiramisu_core.Ir.computation;
  dst : Tiramisu_core.Ir.computation;
  kind : kind;
  rel : Tiramisu_presburger.Poly.t list;
      (** pieces over columns [params; src iters; dst iters] *)
}

val flow_deps : Tiramisu_core.Ir.fn -> dep list
(** Producer-consumer dependences of the algorithm (Layer I). *)

val memory_deps : Tiramisu_core.Ir.fn -> dep list
(** Buffer-based dependences after data mapping (Layer III): all pairs of
    accesses to the same buffer where at least one writes. *)

val is_empty_dep : dep -> bool

type violation = {
  dep : dep;
  level : int;  (** time dimension at which the order breaks *)
  carried : bool;
      (** [false]: the mapping reverses (or collapses) the order at
          [level].  [true]: the mapping orders the dependence at [level],
          but the generated loop there is tagged order-relaxing (parallel,
          vectorized, gpu, distributed), so the carried dependence races. *)
}

val effective_tags :
  Tiramisu_core.Ir.fn -> string -> int -> Tiramisu_codegen.Loop_ir.loop_tag
(** [effective_tags fn] maps a computation name and a time level to the
    hardware tag of the generated loop at that level.  Computations fused
    into one generated loop share its tag: the join of their own tags. *)

val check_legality : Tiramisu_core.Ir.fn -> violation list
(** Empty list = the current schedules preserve every flow dependence, and
    no flow dependence is carried by a loop whose hardware tag relaxes
    execution order.  Tag legality mirrors code generation's loop sharing:
    computations fused into one generated loop share its tag, so a
    [Parallel] tag contributed by any of them is checked against the
    dependences of all of them.  Computations under [compute_at] are
    validated separately by {!compute_at_covered} and skipped here. *)

val compute_at_covered : Tiramisu_core.Ir.fn -> Tiramisu_core.Ir.computation -> bool
(** For a producer scheduled with [compute_at]: does every consumer read hit
    an instance computed in the same or an earlier tile?  (Overlapped tiling
    makes this true by construction; this is the verification.) *)

val legal_under_schedule : Tiramisu_core.Ir.fn -> (unit, string) result
(** The one-call schedule-legality oracle: [Ok ()] iff {!check_legality}
    reports no violation and every [compute_at] producer passes
    {!compute_at_covered}.  [Error msg] describes every violated dependence
    (kind, endpoints, time level).  This is the check the differential
    fuzzer runs on each randomly generated schedule before execution.  It
    validates both the time-space mapping and the hardware tags: a
    dependence carried by a parallelized or vectorized loop is reported
    even though the mapping itself orders it correctly. *)

val widen_parallel :
  Tiramisu_core.Ir.fn -> (string * string) list * (unit -> unit)
(** Grow each computation's parallel band before lowering: [Seq] dynamic
    dims contiguous with the existing [Parallel] band (just outside its
    outermost dim, or just inside its innermost) are trial-retagged
    [Parallel] and kept only when {!check_legality} still reports no
    violation — each trial is vetted against the whole function, so tags
    shared through loop fusion are checked against every fused
    computation's dependences.  Greedy and deterministic; computations that
    are inlined, [compute_at]-scheduled, or have no [Parallel] dim are left
    alone.  Returns the accepted [(computation, dim-name)] pairs
    (outermost-first per computation) and an undo closure restoring every
    mutated tag, so a caller can widen, lower, and hand the user's
    schedule back unchanged. *)

val has_cycle : Tiramisu_core.Ir.fn -> bool
(** Does the computation-level dataflow graph contain a cycle?  Tiramisu
    supports cyclic graphs (edgeDetector, §VI-B); the Halide baseline
    rejects them. *)

val pp_dep : Format.formatter -> dep -> unit
val pp_violation : Format.formatter -> violation -> unit
