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
        the scheduled interpreter run.  Each configuration is built by
        [Pipeline.build] from the scheduled [Ir.fn] — the path users run:
        widen-parallel, lowering with the tape-aware legalize, the
        statement passes, the planner and the compile cache.  The
        configurations cross the parallel strategy with the optimization
        knobs (tape, lanes) on Seq, add the pool rows when the schedule
        parallelizes anything, and run every case on the GPU-sim and
        distributed targets too.

   Each configuration runs on its own cache lease, whose buffers the cache
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
   match the closure path and interpreter.

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

(* One configuration row: build the scheduled function through the
   pipeline with the row's knobs and run it once.  Returns the artifact,
   whose buffers the caller diffs and then releases, and the row's pass
   trace. *)
let run_row ?probe (b : Case.built) (tag, knobs) =
  let tracer = P.make_tracer ?probe ~name:("exec:" ^ tag) () in
  let art =
    P.build ~tracer ~knobs ~fn:b.Case.fn ~params:b.Case.params
      ~inputs:b.Case.fills ()
  in
  B.Exec.run art.P.exec;
  (art, P.trace_of tracer)

let run_case_unguarded (case : Case.t) : outcome =
  try
    (* Reference: unscheduled program on the interpreter. *)
    let b0 = Case.build ~with_steps:false case in
    let ast0 = (P.lower b0.Case.fn).Lower.ast in
    let ref_interp = interp_of b0 ast0 in
    (* Scheduled build + oracle. *)
    let b1 =
      try Case.build case with
      | Limits.Timeout as t -> raise t
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
    let ast1 =
      let tracer = P.make_tracer ~probe ~name:"scheduled" () in
      try (P.lower ~tracer b1.Case.fn).Lower.ast with
      | Limits.Timeout as t -> raise t
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
      try interp_of b1 ast1 with
      | Limits.Timeout as t -> raise t
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
        let art =
          try fst (run_row ~probe b1 (tag, knobs)) with
          | Limits.Timeout as t -> raise t
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
          b1.Case.outputs;
        art.P.release ())
      (exec_configs case);
    Pass
  with
  | Stop o -> o
  | Limits.Timeout as t -> raise t
  | e -> Fail ("reference run raised: " ^ Printexc.to_string e)

(* Corpus replays skip generator vetting, so the polyhedral blowup guard
   has to live here too: a case the machinery cannot decide in time is
   reported as rejected, never allowed to wedge the campaign.  The limit is
   on CPU time, so a busy machine does not turn a case into a rejection. *)
let run_case (case : Case.t) : outcome =
  match Limits.with_time_limit ~cpu:true 30 (fun () -> run_case_unguarded case) with
  | Some o -> o
  | None -> Rejected "timed out (polyhedral blowup guard)"

let outcome_str = function
  | Pass -> "pass"
  | Rejected m -> "rejected: " ^ m
  | Fail m -> "FAIL: " ^ m
