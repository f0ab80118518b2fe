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
      Layer III access relations.  They are built by the same
      access-relation constructor as the flow dependences, but legality
      does not check them yet: a data-layout hazard such as two
      computations storing into one buffer in the wrong order is not
      caught;
    - {e legality} checks that a schedule executes every producer instance
      strictly before its consumers, by per-level emptiness of the violation
      sets of the flow dependences (the Omega test makes this exact). *)

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

val flow_deps_calls : unit -> int
(** Calls of {!flow_deps} so far in this process. *)

val memory_deps : Tiramisu_core.Ir.fn -> dep list
(** Buffer-based dependences after data mapping (Layer III): all pairs of
    accesses to the same buffer where at least one writes, as stored by
    computations that have a buffer (lowering gives one to each).  The
    pairs are not oriented by execution order, and a computation's
    output dependence on itself is kept. *)

type violation =
  | Order of {
      dep : dep;
      level : int;  (** time dimension at which the order breaks *)
      carried : bool;
          (** [false]: the mapping reverses (or collapses) the order at
              [level].  [true]: the mapping orders the dependence at
              [level], but the generated loop there is tagged
              order-relaxing (parallel, vectorized, gpu, distributed), so
              the carried dependence races. *)
    }
  | Tag_conflict of {
      comps : string list;  (** the computations sharing the loop *)
      level : int;  (** time dimension of the shared loop *)
      tags : Tiramisu_codegen.Loop_ir.loop_tag list;
          (** their tags other than [Seq], without duplicates *)
    }
      (** Computations fused into one generated loop carry tags that do not
          join ({!Tiramisu_codegen.Loop_ir.join_tags}), say [Parallel] and
          [Unrolled]: lowering would reject the schedule. *)

val effective_tags :
  Tiramisu_core.Ir.fn ->
  (string -> int -> Tiramisu_codegen.Loop_ir.loop_tag) * violation list
(** [effective_tags fn] maps a computation name and a time level to the
    hardware tag of the generated loop at that level.  Computations fused
    into one generated loop share its tag: the join of their own tags.  The
    list holds a [Tag_conflict] for every shared loop whose tags do not
    join; such a loop keeps its first tag other than [Seq]. *)

type memo
(** A dependence memo bound to one algorithm: the computations of a
    function, in order, with their iterators, domains, expressions and
    inlining — what the flow dependences depend on.  It holds the flow
    dependences, computed on first use, every level profile asked
    through it, keyed by the dependence and by both endpoints' schedules
    as integer rows and time descriptions, so functions scheduled alike
    share a profile whatever their schedule columns are named, and each
    {!compute_at_covered} verdict, by producer and consumer.  Any
    function of that algorithm, however scheduled, may be checked through
    it: the beam search builds one per problem (DESIGN §12).  A profile
    found in it asks the Omega test nothing, so a check through a memo
    spends at most the work budget the same check without it spends, and
    reaches the same verdict whenever that check stays within its
    budget. *)

val memo : Tiramisu_core.Ir.fn -> memo
(** A memo bound to the algorithm of the function. *)

val memo_hits : memo -> int
(** Profiles found in the memo so far. *)

val memo_misses : memo -> int
(** Profiles computed and stored in the memo so far. *)

val check_legality : ?memo:memo -> Tiramisu_core.Ir.fn -> violation list
(** Empty list = the current schedules preserve every flow dependence, no
    flow dependence is carried by a loop whose hardware tag relaxes
    execution order, and the tags of every shared loop join (the
    [Tag_conflict]s of {!effective_tags} come first).  Tag legality mirrors code generation's loop sharing:
    computations fused into one generated loop share its tag, so a
    [Parallel] tag contributed by any of them is checked against the
    dependences of all of them.  Computations under [compute_at] are
    validated separately by {!compute_at_covered} and skipped here.
    With [memo], the flow dependences and the level profiles come from
    it, and the result is the one without it.
    @raise Invalid_argument when [memo] is bound to another algorithm. *)

val profile_pieces : Tiramisu_core.Ir.fn -> dep -> Tiramisu_presburger.Poly.t list
(** The dependence polyhedron a level profile starts from, one piece per
    piece of [dep.rel], over the columns [params; src iters; dst iters;
    src inter and dim columns; dst inter and dim columns; ts; td] (the
    time columns of both sides, padded with static zeros to the longer
    one), with both schedules and the time links as rows.  Exposed for
    the test that compares it with a construction by column name. *)

val compute_at_covered : Tiramisu_core.Ir.fn -> Tiramisu_core.Ir.computation -> bool
(** For a producer scheduled with [compute_at]: does every consumer read hit
    an instance computed in the same or an earlier tile?  (Overlapped tiling
    makes this true by construction; this is the verification.) *)

val legal_under_schedule : ?memo:memo -> Tiramisu_core.Ir.fn -> (unit, string) result
(** The one-call schedule-legality oracle: [Ok ()] iff {!check_legality}
    reports no violation and every [compute_at] producer passes
    {!compute_at_covered} (through [memo] when given).  [Error msg]
    describes every violation: each violated dependence (kind, endpoints,
    time level) and each shared loop whose tags conflict.  This is the check the differential
    fuzzer runs on each randomly generated schedule before execution.  It
    validates both the time-space mapping and the hardware tags: a
    dependence carried by a parallelized or vectorized loop is reported
    even though the mapping itself orders it correctly.  [memo] is
    passed to {!check_legality}. *)

val widen_parallel :
  Tiramisu_core.Ir.fn -> (string * string) list * bool * (unit -> unit)
(** Grow each computation's parallel band before lowering: [Seq] dynamic
    dims contiguous with the existing [Parallel] band (just outside its
    outermost dim, or just inside its innermost) are trial-retagged
    [Parallel] and kept only when {!check_legality} still reports no
    violation — each trial is vetted against the whole function, so tags
    shared through loop fusion are checked against every fused
    computation's dependences.  Greedy and deterministic; computations that
    are inlined, [compute_at]-scheduled, or have no [Parallel] dim are left
    alone.  Each trial runs on a fixed work budget
    ({!Tiramisu_support.Limits.with_fuel}); the first trial over it keeps
    its dim as written and ends the widening.  Returns the accepted
    [(computation, dim-name)] pairs (outermost-first per computation),
    whether a trial ran over its budget, and an undo closure restoring
    every mutated tag, so a caller can widen, lower, and hand the user's
    schedule back unchanged. *)

val has_cycle : Tiramisu_core.Ir.fn -> bool
(** Does the computation-level dataflow graph contain a cycle?  Tiramisu
    supports cyclic graphs (edgeDetector, §VI-B); the Halide baseline
    rejects them. *)

val pp_violation : Format.formatter -> violation -> unit
