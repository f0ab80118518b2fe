(* Differential execution of one fuzz case.

   The reference is the *unscheduled* program run on the interpreter — the
   Layer-I semantics with the default (declaration-order) schedule.  The
   case passes when:

     1. the schedule is accepted by the legality oracle
        (Deps.legal_under_schedule);
     2. the scheduled program, still on the interpreter, computes the same
        bits (a legal schedule must be semantics-preserving; generated
        programs use exact integer-valued floats so bit equality is the
        right notion);
     3. every compiled-executor configuration computes the same bits as
        the scheduled interpreter run.  Each configuration is built from
        the scheduled [Ir.fn] by [Pipeline.build] — the path users run:
        widen-parallel, lowering with the tape-aware legalize, the
        statement passes, the planner and the compile cache — through the
        case's lowering memo, so rows that lower alike lower once.  The
        configurations cross the parallel strategy with the optimization
        knobs (tape, lanes) on Seq, add the pool rows when the schedule
        parallelizes anything, and run every case on the GPU-sim and
        distributed targets too.

   Each configuration is its own cache entry, whose buffers the cache
   restores to their initial contents on a hit, so runs cannot contaminate
   each other. *)

open Tiramisu_core
module B = Tiramisu_backends
module Limits = Tiramisu_support.Limits
module P = Tiramisu_pipeline.Pipeline

type outcome =
  | Pass
  | Rejected of string  (** the legality oracle refused the schedule *)
  | Fail of string  (** divergence or crash: a real bug *)

exception Stop of outcome

(* Wall-clock seconds [run_case] has spent so far in this process on each
   of its stages: [Pipeline.build] of the configuration rows, their
   executor runs, and the interpreter references (lowering the
   unscheduled and the scheduled program and running both on the
   interpreter).  A campaign reads them before and after. *)
let build_s = ref 0.0
let exec_s = ref 0.0
let reference_s = ref 0.0

(* Configuration rows [run_case] has built so far in this process whose
   widen-parallel trial ran over its work budget, so the row keeps the
   loops as written. *)
let widen_spent = ref 0

(* Claimed nests [run_case] has bound so far in this process on its
   tape-on rows, by lane mode: ["inner"], ["outer"], or
   ["scalar (<reason>)"]. *)
let lane_tally : (string, int) Hashtbl.t = Hashtbl.create 8

let tally_lanes (art : P.artifact) =
  List.iter
    (fun (_, m) ->
      let k =
        match m with
        | B.Tape.Inner _ -> "inner"
        | B.Tape.Outer _ -> "outer"
        | B.Tape.Scalar _ -> B.Tape.mode_to_string m
      in
      Hashtbl.replace lane_tally k
        (1 + Option.value ~default:0 (Hashtbl.find_opt lane_tally k)))
    (B.Exec.lane_modes art.P.exec)

let timed acc f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> acc := !acc +. (Unix.gettimeofday () -. t0)) f

(* Per-pass differential-verify probe for the pipeline: the case's own
   parameters, buffers, fills and outputs.  Every verifiable pass
   (legalize, narrow, simplify, parallel-plan) then gets interpreted before
   and after on this input, a cross-check axis orthogonal to the config
   sweep below. *)
let probe_of fn ~params ~fills ~outputs =
  { P.probe_params = params;
    P.probe_extents = P.extents_of_fn fn ~params;
    P.probe_fills = fills;
    P.probe_outputs = outputs }

(* Run the loop IR on the interpreter over fresh buffers (the oracle
   path); [fn] must already be lowered, so its auto buffers exist. *)
let interp_of (b : Case.built) ast =
  B.Interp.reference ~params:b.Case.params
    ~extents:(P.extents_of_fn b.Case.fn ~params:b.Case.params)
    ~inputs:b.Case.fills ast

(* Each config: (tag, pipeline knobs).  The CPU rows cross the parallel
   strategy with the optimization knobs; for parallel schedules the pool
   rows run the parallel planner as it runs by default ([`Auto]: loops
   below the work threshold serialize) and forced ([`Force]: every
   parallel loop kept, the maximal rectangular prefix fused, regardless of
   core count — machine-independent).  Kept loops get the static or the
   dynamic pool schedule by the planner's shape rule.  The tape axis runs
   the flat-tape backend (default, on) against tape-off rows of the same
   configuration: bit-exact interp-vs-tape diffing for sequential, default
   pool and planned pool rows.  The lanes axis crosses the tape's vector
   tier (default width) against a forced-scalar tape ([lanes = 1]) — lane
   batching must be bit-identical to the scalar tape, which itself must
   match the closure path and interpreter.  The default width is fitted
   to each nest, so most fuzz segments run as one batch; a 3-wide row
   splits them into many full batches and a narrower tail.

   Every case additionally runs on the GPU-sim and distributed targets:
   their compiled executors (grid simulation / rank-by-rank channels, with
   the tape claiming the nests inside them) must match the interpreter
   bit-exactly too, and their rows exercise the target-keyed compile
   cache end to end. *)
let exec_configs case =
  let cpu ?(plan = `Auto) ?(tape = true) ?(lanes = P.default_knobs.P.lanes)
      par =
    { P.target = B.Target.cpu ~parallel:par (); P.plan = plan; P.tape = tape;
      P.lanes = lanes }
  in
  let base =
    [
      ("seq", cpu `Seq);
      ("seq,notape", cpu ~tape:false `Seq);
      ("seq,nolanes", cpu ~lanes:1 `Seq);
      ("seq,lanes3", cpu ~lanes:3 `Seq);
      ("gpu-sim", { P.default_knobs with P.target = B.Target.gpu_sim () });
      ( "dist",
        { P.default_knobs with P.target = B.Target.distributed ~ranks:4 () }
      );
    ]
  in
  if Case.has_parallel case then
    base
    @ [
        ("pool", cpu `Pool);
        ("pool,notape", cpu ~tape:false `Pool);
        ("pool,nolanes", cpu ~lanes:1 `Pool);
        ("pool,plan", cpu ~plan:`Force `Pool);
        ("pool,plan,notape", cpu ~plan:`Force ~tape:false `Pool);
      ]
  else base

(* One configuration row: build the scheduled function through
   [Pipeline.build] with the row's knobs (and the case's lowering memo)
   and run it once.  Returns the artifact, whose buffers the caller
   diffs, and the row's pass trace. *)
let run_row ?probe ?lowerings (b : Case.built) (tag, knobs) =
  let tracer = P.make_tracer ?probe ~name:("exec:" ^ tag) () in
  let art =
    timed build_s (fun () ->
        P.build ~tracer ?lowerings ~knobs ~fn:b.Case.fn ~params:b.Case.params
          ~inputs:b.Case.fills ())
  in
  timed exec_s (fun () -> B.Exec.run art.P.exec);
  (art, P.trace_of tracer)

let run_case_unguarded (case : Case.t) : outcome =
  try
    (* Reference: unscheduled program on the interpreter. *)
    let b0 = Case.build ~with_steps:false case in
    let ref_interp =
      timed reference_s (fun () -> interp_of b0 (P.lower b0.Case.fn).Lower.ast)
    in
    (* Scheduled build + oracle. *)
    let b1 =
      try Case.build case with
      | (Limits.Timeout | Limits.Budget_exceeded _) as t -> raise t
      | e ->
          raise
            (Stop (Rejected ("schedule failed to apply: " ^ Printexc.to_string e)))
    in
    (match Tiramisu_deps.Deps.legal_under_schedule b1.Case.fn with
    | Error e -> raise (Stop (Rejected e))
    | Ok () -> ());
    let probe =
      probe_of b1.Case.fn ~params:b1.Case.params ~fills:b1.Case.fills
        ~outputs:b1.Case.outputs
    in
    (* the reference is the sequential tape-off rows' lowering *)
    let lowerings = P.lowerings b1.Case.fn in
    let ast1 =
      let tracer = P.make_tracer ~probe ~name:"scheduled" () in
      let lower () = (P.lower ~tracer ~lowerings b1.Case.fn).Lower.ast in
      try timed reference_s lower with
      | (Limits.Timeout | Limits.Budget_exceeded _) as t -> raise t
      | P.Error pe ->
          raise
            (Stop
               (Fail
                  (Printf.sprintf "lowering a legal schedule: pass %S %s: %s"
                     pe.P.err_stage pe.P.err_context pe.P.err_msg)))
      | e ->
          raise
            (Stop
               (Fail ("lowering a legal schedule raised: " ^ Printexc.to_string e)))
    in
    let sched_interp =
      try timed reference_s (fun () -> interp_of b1 ast1) with
      | (Limits.Timeout | Limits.Budget_exceeded _) as t -> raise t
      | e ->
          raise (Stop (Fail ("interp(scheduled) raised: " ^ Printexc.to_string e)))
    in
    List.iter
      (fun out ->
        let r = B.Interp.buffer ref_interp out
        and s = B.Interp.buffer sched_interp out in
        if not (B.Buffers.bits_equal r s) then
          raise
            (Stop
               (Fail
                  (Printf.sprintf "schedule changed semantics: %s %s" out
                     (B.Buffers.first_diff r s)))))
      b1.Case.outputs;
    (* Compiled executor, every configuration, vs the scheduled interp. *)
    List.iter
      (fun (tag, knobs) ->
        let art, trace =
          try run_row ~probe ~lowerings b1 (tag, knobs) with
          | (Limits.Timeout | Limits.Budget_exceeded _) as t -> raise t
          | P.Error pe ->
              raise
                (Stop
                   (Fail
                      (Printf.sprintf "exec(%s): pass %S rejected: %s" tag
                         pe.P.err_stage pe.P.err_msg)))
          | e ->
              raise
                (Stop
                   (Fail
                      (Printf.sprintf "exec(%s) raised: %s" tag
                         (Printexc.to_string e))))
        in
        if
          List.exists
            (fun p ->
              p.P.p_name = "widen-parallel"
              && String.ends_with ~suffix:P.widen_spent_note p.P.p_note)
            trace.P.t_passes
        then incr widen_spent;
        if knobs.P.tape then tally_lanes art;
        List.iter
          (fun out ->
            let s = B.Interp.buffer sched_interp out
            and x = List.find (fun b -> b.B.Buffers.name = out) art.P.buffers in
            if not (B.Buffers.bits_equal s x) then
              raise
                (Stop
                   (Fail
                      (Printf.sprintf "exec(%s) diverges from interp: %s %s" tag
                         out (B.Buffers.first_diff s x)))))
          b1.Case.outputs)
      (exec_configs case);
    Pass
  with
  | Stop o -> o
  | (Limits.Timeout | Limits.Budget_exceeded _) as t -> raise t
  | e -> Fail ("reference run raised: " ^ Printexc.to_string e)

(* Corpus replays skip generator vetting, so the polyhedral blowup guard
   has to live here too: a case the machinery cannot decide within the
   work budget is reported as rejected, never allowed to wedge the
   campaign.  The budget counts work, not time, so the verdict is the same
   on every machine and under any load. *)
let run_case (case : Case.t) : outcome =
  match Limits.with_fuel Limits.case_fuel (fun () -> run_case_unguarded case) with
  | Some o -> o
  | None -> Rejected "over the work budget (polyhedral blowup guard)"

let outcome_str = function
  | Pass -> "pass"
  | Rejected m -> "rejected: " ^ m
  | Fail m -> "FAIL: " ^ m
