(* autosched: the path from an autoschedule call to a verified winner.
   Each pass searches blur, nb and sgemm from a cleared compile cache, so
   every pass does the same work; the enumerated/vetted/measured counts
   are deterministic, so two commits run the same search.  Every winner is
   replayed here, outside the search, and checked bit-exactly against the
   interpreter. *)

module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline
module S = Tiramisu_autosched.Search
module Sp = Tiramisu_autosched.Sched_space

(* One round of beam 3: the smallest search that still enumerates,
   vets, measures and replays on every kernel, about 2 s per pass for all
   three kernels on a 2-CPU Xeon. *)
let config ~smoke =
  { S.default_config with
    S.beam_width = (if smoke then 1 else 3);
    measure_top = (if smoke then 1 else 3);
    rounds = 1;
    reps = (if smoke then 1 else 5);
    budget_ms = infinity;
    menu =
      { Sp.tile_sizes = [ 8 ]; split_factors = [ 8 ]; vec_widths = [ 4 ];
        unroll_factors = [ 2 ]; lane_widths = [ 1; 4 ] } }

let problems ~seed ~smoke =
  let sz big small = if smoke then small else big in
  [ Programs.blur ~seed ~n:(sz 48 16) ~m:(sz 32 16) Programs.none;
    Programs.nb ~seed ~n:(sz 96 16) Programs.none;
    Programs.sgemm ~seed ~s:(sz 32 8) Programs.none ]

(* Replay the winning actions on a fresh function and run it. *)
let replay config (p : Programs.program) (r : S.result) =
  let fn = p.build () in
  List.iter (Sp.apply fn) r.S.r_best;
  let knobs =
    { P.default_knobs with P.target = config.S.target; tape = r.S.r_best_tape;
      lanes = r.S.r_best_lanes }
  in
  let art = P.build ~knobs ~fn ~params:p.params ~inputs:p.inputs () in
  B.Exec.run art.P.exec;
  art.P.buffers

let run (cfg : Metrics.cfg) : Metrics.result =
  B.Pool.set_num_workers 1;
  let config = config ~smoke:cfg.smoke in
  let problems = problems ~seed:cfg.seed ~smoke:cfg.smoke in
  let search (p : Programs.program) =
    P.clear_cache ();
    let problem =
      { S.name = p.name; build = p.build; params = p.params; inputs = p.inputs;
        outputs = p.outputs }
    in
    Util.time_ms (fun () -> Trace.with_span "search.run" (fun () -> S.run ~config problem))
  in
  (* one untimed pass first: the first searches of a process run slower *)
  if not cfg.smoke then List.iter (fun p -> ignore (search p)) problems;
  (* set-up: the interpreter references the winners are checked against *)
  let setup () =
    List.map
      (fun p -> (p, Trace.with_span "interp.reference" (fun () -> Programs.reference p)))
      problems
  in
  let attempted = ref 0 and failed = ref 0 and passes = ref [] in
  (* one pass: the three searches, each winner replayed and checked *)
  let pass probs =
    List.filter_map
      (fun ((p : Programs.program), reference) ->
        incr attempted;
        Metrics.probe ();
        match search p with
        | exception e ->
            Printf.eprintf "autosched: %s: %s\n%!" p.name (Printexc.to_string e);
            incr failed;
            None
        | r, ms ->
            Metrics.probe ();
            let ok =
              r.S.r_verified
              && (try Programs.matches reference (Programs.find_in (replay config p r))
                  with _ -> false)
            in
            if not ok then incr failed;
            Some (p.name, r, ms))
      probs
  in
  (* a pass takes about a sixth of the run: start another only if it fits *)
  let measure ~epoch:_ ~until probs =
    let rec go () =
      let t0 = Util.now_ms () in
      passes := pass probs :: !passes;
      let now = Util.now_ms () in
      if now +. (now -. t0) <= until then go ()
    in
    go ()
  in
  let log = Metrics.run_epochs cfg ~setup ~measure ~teardown:ignore in
  let pass_ms = List.map (fun rs -> Util.sum (List.map (fun (_, _, ms) -> ms) rs)) !passes in
  let results = List.concat !passes in
  let total f = float_of_int (List.fold_left (fun a (_, r, _) -> a + f r) 0 results) in
  let search_s = Util.sum (List.map (fun (_, _, ms) -> ms) results) /. 1000.0 in
  (* per kernel, the median over passes of default / winner *)
  let speedup =
    Util.geomean
      (List.map
         (fun (p : Programs.program) ->
           Util.median
             (List.filter_map
                (fun (name, r, _) ->
                  if name = p.name then Some (r.S.r_default_ms /. r.S.r_best_ms) else None)
                results))
         problems)
  in
  { Metrics.attempted = !attempted;
    failed = !failed;
    setup_s = log.setup_s;
    probe_ms = log.probe_ms;
    latency_ms = Util.median pass_ms;
    ops_per_s = float_of_int (!attempted - !failed) /. search_s;
    rows = [ ("search_pass_ms", Util.timing pass_ms) ];
    detail = [ ("search.winner_speedup", speedup) ];
    layer =
      [ ("pipeline.cache_hits", total (fun r -> r.S.r_cache_hits));
        ("pipeline.cache_misses", total (fun r -> r.S.r_cache_misses));
        ("search.enumerated", total (fun r -> r.S.r_enumerated));
        ("search.vetted", total (fun r -> r.S.r_vetted));
        ("search.illegal", total (fun r -> r.S.r_illegal));
        ("search.errored", total (fun r -> r.S.r_errored));
        ("search.measured", total (fun r -> r.S.r_measured));
        ("search.cutoffs", total (fun r -> r.S.r_cutoffs));
        ("search.useful_ratio",
         total (fun r -> r.S.r_measured) /. Float.max 1.0 (total (fun r -> r.S.r_enumerated)));
        ("search.candidates_per_s", total (fun r -> r.S.r_enumerated) /. search_s);
        ("search.winner_speedup", speedup) ] }
