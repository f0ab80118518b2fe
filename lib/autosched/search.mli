(** Measurement-driven autoscheduler: beam search over schedule pipelines.

    Candidates are enumerated from {!Sched_space} (plus composite expert
    templates in the first round), pruned by the dependence legality
    oracle, ranked by the tape-aware analytical cost model as a prior, and
    the top of the beam is measured for real through {!Pipeline.build} —
    the structural-hash compile cache deduplicates candidates that lower
    to the same statement, a candidate whose built statement and knobs
    were already measured is not timed again (so identical code never
    displaces the incumbent on timing noise), and an early-cutoff
    incumbent keeps bad candidates cheap.  The winner is replayed bit-exactly against the
    interpreter before it is reported. *)

type problem = {
  name : string;
  build : unit -> Tiramisu_core.Ir.fn;  (** fresh, unscheduled pipeline *)
  params : (string * int) list;
  inputs : (string * (int array -> float)) list;
  outputs : string list;  (** buffer names to verify bit-exactly *)
}

type config = {
  beam_width : int;
  measure_top : int;
  rounds : int;
  reps : int;
  budget_ms : float;  (** whole-search wall-clock budget (anytime) *)
  max_frontier : int;  (** vetting cap per round; overflow is counted *)
  menu : Sched_space.menu;
      (** the action menu.  Round 1 is also seeded with the composite
          expert templates over it, and the winner is challenged at every
          [lane_widths] tape width, then with the tape off. *)
  target : Tiramisu_backends.Target.t;
      (** execution target measured (default: sequential CPU); GPU-sim
          and distributed candidates share the compile cache without
          aliasing CPU artifacts *)
  verbose : bool;  (** progress on stderr *)
}

val default_config : config

type trajectory_point = { tp_candidates : int; tp_best_ms : float }

type result = {
  r_best : Sched_space.action list;
  r_best_ms : float;
  r_best_tape : bool;
  r_best_lanes : int;
      (** tape lane width of the winner: the default, or the
          [menu.lane_widths] probe that beat it *)
  r_default_ms : float;  (** the measured empty schedule (the incumbent's
                             floor: searched <= default by construction) *)
  r_enumerated : int;
  r_vetted : int;
  r_illegal : int;
  r_errored : int;
  r_measured : int;
  r_cutoffs : int;
  r_dropped : int;
  r_cache_hits : int;
  r_cache_misses : int;
  r_trajectory : trajectory_point list;  (** oldest first *)
  r_verified : bool;
      (** the winner's executor run matched the interpreter on the
          untransformed program bitwise, on every output buffer *)
  r_elapsed_ms : float;
  r_stage_ms : (string * float) list;
      (** wall-clock per stage, summed over the search, in this order:
          [schedule+legality] (building the scheduled function and the
          dependence oracle), [lower+prepare] (lowering and the statement
          passes the cost prior scores), [prior] (the cost model),
          [measure.build] ([Pipeline.build] of a measured candidate, cache
          hits included), [measure.reps] (its warm-up and timed runs),
          [verify.lower] (the winner's rebuild and executor run, and the
          untransformed program's lowering for the interpreter) and
          [verify.interpret] (the interpreter run and the bitwise
          comparison) *)
  r_profile_hits : int;
      (** level profiles the search's dependence memo already held
          ({!Tiramisu_deps.Deps.memo}): the candidate's legality check
          asked Omega nothing for them *)
  r_profile_misses : int;  (** level profiles it computed and stored *)
}

val run : ?config:config -> problem -> result
(** A measurement is abandoned once a rep exceeds 1.5x the incumbent.
    Each candidate is vetted and built on the work budget the fuzz
    campaign uses too ({!Tiramisu_support.Limits.case_fuel}), the
    Omega-test blowup guard; candidates over it count as errored.  A
    challenger's timing reps also stop at the search's wall-clock budget. *)

val first_round : config -> problem -> Sched_space.action list list
(** The first round's candidates, before deduplication and the
    [max_frontier] cap: the expert templates, then every single action
    {!Sched_space.enumerate} offers on the unscheduled pipeline, less
    each [Compute_at] whose consumer does not read its producer. *)

val vet :
  ?acc:float array ->
  ?memo:Tiramisu_deps.Deps.memo ->
  config ->
  problem ->
  Sched_space.action list ->
  [ `Ok of
    Tiramisu_core.Ir.fn
    * Tiramisu_pipeline.Pipeline.lowerings
    * Tiramisu_codegen.Loop_ir.stmt
  | `Illegal of string
  | `Err of string ]
(** Schedule a fresh pipeline with the actions, check legality, and lower,
    prepare and plan it the way [Pipeline.build] does at the config's
    target with the tape on; [`Ok] carries the function, its lowering
    memo and the statement the cost prior scores — the one a build
    through the memo compiles.  [acc], when given, accumulates the time
    of the first two stages of [r_stage_ms]; [memo], when given, is the
    problem's dependence memo the legality check goes through ({!run}
    makes one per problem). *)

val literal : Sched_space.action list -> string
(** The winning schedule as a replayable OCaml action-list literal. *)

val pp_result : Format.formatter -> result -> unit
