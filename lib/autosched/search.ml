(* Measurement-driven autoscheduling: beam search over schedule pipelines
   with the legality oracle as the pruner, the (tape-aware) cost model as
   the prior, and measured wall-clock through the compile cache as the
   objective — the Mullapudi-2016 / Adams-2019 recipe over this repo's
   own verification and caching machinery.

   One search round expands every beam state with (a) single actions
   enumerated against the tracked dynamic-dim names (Sched_space.enumerate),
   less each compute_at whose consumer does not read its producer, and
   (b), in the first round, composite expert templates — register
   blocking for init/upd reduction pairs, tile + compute_at + vectorize for
   producer/consumer pairs — instantiated over the power-of-two menu.  The
   oracle checks the flow dependences outside compute_at and the coverage
   of each compute_at producer, not whether the consumer reads the
   producer at all: lowering rejects such a pair, so the search drops it
   before vetting.  Each candidate is rebuilt from scratch, pruned by
   Deps.legal_under_schedule through one dependence memo per search (the
   flow dependences once, each level profile once per pair of endpoint
   schedules), lowered and prepared, and ranked by Cost.estimate
   ~tape:true; the top of the beam is then measured for real through
   Pipeline.build with the lowering memo vetting filled, where the
   structural-hash compile cache deduplicates candidates that lower to the
   same statement.  Measurement keeps a best-so-far incumbent and abandons
   a candidate as soon as a rep exceeds the incumbent by the cutoff ratio.
   The whole search is anytime: the wall-clock budget is checked between
   candidates and between timing reps, and the incumbent is always a
   legal, measured schedule.  Vetting and building a candidate run on the
   fuzz campaign's work budget ({!Tiramisu_support.Limits.case_fuel}):
   deeply stacked schedules can blow up the Omega-test elimination
   (exponential constraint growth), and such a candidate is dropped as
   errored, the same on every host.

   The winner is replayed bit-exactly against the interpreter on every
   output buffer before being reported: its executor run against an
   interpreter run of the untransformed program (the default candidate's
   lowering), so a mismatch — a schedule that changed the semantics, or
   an executor that diverges — marks the result unverified and the
   caller should not trust it. *)

open Tiramisu_core
module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline
module D = Tiramisu_deps.Deps
module Lower = Tiramisu_core.Lower
module S = Sched_space
module Lm = Tiramisu_support.Limits

type problem = {
  name : string;
  build : unit -> Ir.fn;  (** fresh, unscheduled pipeline *)
  params : (string * int) list;
  inputs : (string * (int array -> float)) list;
  outputs : string list;  (** buffer names to verify bit-exactly *)
}

type config = {
  beam_width : int;  (** states kept per round *)
  measure_top : int;  (** states measured per round *)
  rounds : int;
  reps : int;  (** timing reps per measured candidate *)
  budget_ms : float;  (** whole-search wall-clock budget *)
  max_frontier : int;  (** candidates vetted per round (cost-ordered) *)
  menu : S.menu;
  target : B.Target.t;
      (** execution target measured; the default is the sequential CPU —
          deterministic, and matching the exec-bench headline medians.
          GPU-sim and distributed candidates measure through the same
          compile cache (their artifacts never alias the CPU ones: the
          target is part of the cache key). *)
  verbose : bool;
}

(* Abandon a candidate once a rep exceeds incumbent * ratio. *)
let cutoff_ratio = 1.5

let default_config =
  {
    beam_width = 4;
    measure_top = 4;
    rounds = 3;
    reps = 5;
    budget_ms = 120_000.0;
    max_frontier = 200;
    menu = S.default_menu;
    target = B.Target.cpu ~parallel:`Seq ();
    verbose = false;
  }

type trajectory_point = { tp_candidates : int; tp_best_ms : float }

type result = {
  r_best : S.action list;
  r_best_ms : float;
  r_best_tape : bool;
  r_best_lanes : int;  (** tape lane width of the winner (the default, or
                           a [menu.lane_widths] probe that beat it) *)
  r_default_ms : float;
  r_enumerated : int;
  r_vetted : int;  (** survived the oracle and lowering *)
  r_illegal : int;  (** rejected by the legality oracle *)
  r_errored : int;  (** apply/lower raised *)
  r_measured : int;
  r_cutoffs : int;  (** measurements abandoned early *)
  r_dropped : int;  (** frontier candidates dropped by max_frontier *)
  r_cache_hits : int;
  r_cache_misses : int;
  r_trajectory : trajectory_point list;  (** oldest first *)
  r_verified : bool;
  r_elapsed_ms : float;
  r_stage_ms : (string * float) list;
      (** wall-clock per search stage, summed over candidates, in
          {!stage_names} order *)
  r_profile_hits : int;  (** level profiles the dependence memo held *)
  r_profile_misses : int;  (** level profiles it computed *)
}

(* ---------- stage attribution ---------- *)

(* Where a search spends its time.  [verify.lower] is the winner's
   rebuild and executor run and the untransformed program's lowering;
   [verify.interpret] the interpreter run and the comparison. *)
let stage_names =
  [ "schedule+legality"; "lower+prepare"; "prior"; "measure.build";
    "measure.reps"; "verify.lower"; "verify.interpret" ]

let st_legal = 0
and st_lower = 1
and st_prior = 2
and st_build = 3
and st_reps = 4
and st_verify_lower = 5
and st_verify_interp = 6

(* Add [f]'s wall-clock to stage [k] of [acc], whether it returns or
   raises (a timed-out candidate's time still counts). *)
let timed acc k f =
  let t0 = B.Clock.now_ms () in
  Fun.protect
    ~finally:(fun () -> acc.(k) <- acc.(k) +. (B.Clock.now_ms () -. t0))
    f

let literal actions =
  "[ " ^ String.concat ";\n  " (List.map S.to_literal actions) ^ " ]"

(* ---------- building and vetting candidates ---------- *)

let scheduled problem actions =
  let fn = problem.build () in
  List.iter (S.apply fn) actions;
  fn

let initial_entries problem : S.entry list =
  let fn = problem.build () in
  List.filter_map
    (fun (c : Ir.computation) ->
      if c.Ir.kind = Ir.Regular && not c.Ir.inlined then
        Some
          ( c.Ir.comp_name,
            ref (List.map (fun d -> d.Ir.d_name) (Ir.dyn_dims c.Ir.sched)) )
      else None)
    fn.Ir.comps

let replay_entries base actions =
  let entries = S.copy_entries base in
  List.iter (S.commit entries) actions;
  entries

let knobs_of cfg ~tape ~lanes =
  { P.default_knobs with P.target = cfg.target; P.tape = tape;
    P.lanes = lanes }

(* Oracle + lowering + preparation; `Ok carries the function, its lowering
   memo and the prepared statement the cost prior scores (narrowed bounds
   let the tape-claim check in the model see the concrete rectangles the
   backend will see).  {!measure}'s [P.build] reuses the memo's lowering
   for a tape-on candidate, so the prior scores the statement that is
   built: with the tape on, vector loops the tape claims stay unsplit. *)
let vet ?(acc = Array.make (List.length stage_names) 0.0) ?memo cfg problem
    actions =
  match
    timed acc st_legal (fun () ->
        match scheduled problem actions with
        | exception e -> `Err (Printexc.to_string e)
        | fn -> (
            match D.legal_under_schedule ?memo fn with
            | Error e -> `Illegal e
            | Ok () -> `Legal fn))
  with
  | (`Err _ | `Illegal _) as v -> v
  | `Legal fn -> (
      let knobs = knobs_of cfg ~tape:true ~lanes:P.default_knobs.P.lanes in
      let lowerings = P.lowerings fn in
      match
        timed acc st_lower (fun () ->
            P.lower_for_build ~lowerings ~knobs fn (fun lowered ->
                fst
                  (P.prepare_and_plan ~knobs ~params:problem.params
                     lowered.Lower.ast)))
      with
      | exception e -> `Err (Printexc.to_string e)
      | stmt -> `Ok (fn, lowerings, stmt))

let prior problem fn stmt =
  (B.Cost.estimate ~tape:true ~params:problem.params
     ~buffers:(P.extents_of_fn fn ~params:problem.params)
     stmt)
    .B.Cost.time_ns

(* ---------- composite expert templates ---------- *)

(* Register blocking for a reduction pair base_init/base_upd (the
   sgemm_tuned shape, §VI-A): tile the two free dims, split the reduction,
   hoist the reduction block above the intra-tile loops, vectorize the
   innermost free dim and unroll the reduction remainder. *)
let blocking_templates menu (entries : S.entry list) =
  List.concat_map
    (fun (uname, uref) ->
      match Filename.chop_suffix_opt ~suffix:"_upd" uname with
      | None -> []
      | Some base -> (
          let iname = base ^ "_init" in
          match (List.assoc_opt iname entries, !uref) with
          | Some iref, [ i; j; k ] when List.length !iref >= 2 ->
              let i' = List.nth !iref 0 and j' = List.nth !iref 1 in
              List.concat_map
                (fun b ->
                  List.concat_map
                    (fun bk ->
                      List.concat_map
                        (fun vec ->
                          List.map
                            (fun unr ->
                              [
                                S.Tile (uname, i, j, b, b);
                                S.Split (uname, k, bk);
                                S.Interchange (uname, i ^ "1", k ^ "0");
                                S.Interchange (uname, j ^ "1", i ^ "1");
                                S.Vectorize (uname, j ^ "1", vec);
                                S.Unroll (uname, k ^ "1", unr);
                                S.Parallelize (uname, i ^ "0");
                                S.Tile (iname, i', j', b, b);
                                S.Parallelize (iname, i' ^ "0");
                                S.Vectorize (iname, j' ^ "1", vec);
                              ])
                            menu.S.unroll_factors)
                        menu.S.vec_widths)
                    menu.S.split_factors)
                menu.S.tile_sizes
          | _ -> []))
    entries

(* Stencil fusion (the cpu_blur shape): tile a consumer, parallelize the
   outer tile loop, compute the producer at the tile, vectorize the
   intra-tile column loop.  Proposed for every pair where [consumes cons
   prod] ({!Tiramisu_core.Lower.consumes}, the test [compute_at] itself
   applies). *)
let stencil_templates ~consumes menu (entries : S.entry list) =
  List.concat_map
    (fun (prod, _) ->
      List.concat_map
        (fun (cons, cref) ->
          if prod = cons || List.length !cref < 2 || not (consumes cons prod)
          then []
          else
            let i = List.nth !cref 0 and j = List.nth !cref 1 in
            List.concat_map
              (fun t ->
                List.map
                  (fun vec ->
                    [
                      S.Tile (cons, i, j, t, t);
                      S.Parallelize (cons, i ^ "0");
                      S.Compute_at (prod, cons, j ^ "0");
                      S.Vectorize (cons, j ^ "1", vec);
                    ])
                  menu.S.vec_widths)
              menu.S.tile_sizes)
        entries)
    entries

(* Pluto-with-vectorization: tile + outer parallel + vectorize, per
   computation (what the beam would assemble in three rounds, offered in
   one). *)
let tile_par_vec_templates menu (entries : S.entry list) =
  List.concat_map
    (fun (c, nref) ->
      if List.length !nref < 2 then []
      else
        let i = List.nth !nref 0 and j = List.nth !nref 1 in
        List.concat_map
          (fun t ->
            List.map
              (fun vec ->
                [
                  S.Tile (c, i, j, t, t);
                  S.Parallelize (c, i ^ "0");
                  S.Vectorize (c, j ^ "1", vec);
                ])
              menu.S.vec_widths)
          menu.S.tile_sizes)
    entries

let templates ~consumes menu entries =
  blocking_templates menu entries
  @ stencil_templates ~consumes menu entries
  @ tile_par_vec_templates menu entries

(* The producer/consumer relation of the problem's computations, by name. *)
let consumes_of problem =
  let fn = problem.build () in
  let comp name =
    List.find_opt (fun c -> c.Ir.comp_name = name) fn.Ir.comps
  in
  fun cons prod ->
    match (comp cons, comp prod) with
    | Some consumer, Some producer -> Lower.consumes ~consumer ~producer
    | _ -> false

(* One round's candidates: the expert templates (first round only) and
   every one-action expansion of each beam state, before deduplication.
   A [Compute_at] whose consumer does not read its producer is dropped:
   [lower] would reject it, after the oracle had vetted it. *)
let expand cfg ~consumes base_entries ~round beam =
  let useful = function
    | S.Compute_at (prod, cons, _) -> consumes cons prod
    | _ -> true
  in
  (if round = 1 then templates ~consumes cfg.menu base_entries else [])
  @ List.concat_map
      (fun acts ->
        let entries = replay_entries base_entries acts in
        List.map
          (fun a -> acts @ [ a ])
          (List.filter useful (S.enumerate ~menu:cfg.menu entries)))
      beam

let first_round cfg problem =
  expand cfg ~consumes:(consumes_of problem) (initial_entries problem)
    ~round:1 [ [] ]

(* ---------- measurement ---------- *)

(* Median wall-clock of [reps] runs with early cutoff against the
   incumbent: once the best rep so far cannot beat [cutoff], stop — the
   candidate has lost, and its partial minimum is score enough.  [low] is
   the candidate's lowering memo.  The result carries the build's key
   (statement hash, tape, lanes); [None] when [known] holds for it, with
   no rep run. *)
let measure ?(known = fun _ -> false) acc cfg problem ~tape ~lanes ~cutoff low
    =
  let art =
    timed acc st_build (fun () ->
        P.build ~lowerings:low ~knobs:(knobs_of cfg ~tape ~lanes)
          ~fn:low.P.lw_fn ~params:problem.params ~inputs:problem.inputs ())
  in
  let key = (art.P.key_hash, tape, lanes) in
  if known key then None
  else Some (key, timed acc st_reps @@ fun () ->
  let c = art.P.exec in
  B.Exec.run c (* warmup; surfaces bounds failures before timing *);
  let samples = ref [] in
  let best = ref infinity in
  let cut = ref false in
  (try
     for _ = 1 to cfg.reps do
       Lm.check_deadline ();
       let t0 = B.Clock.now_ms () in
       B.Exec.run c;
       let ms = B.Clock.now_ms () -. t0 in
       samples := ms :: !samples;
       best := Float.min !best ms;
       if !best > cutoff then begin
         cut := true;
         raise Exit
       end
     done
   with Exit -> ());
  let sorted = List.sort compare !samples in
  let n = List.length sorted in
  let median =
    if n = 0 then infinity
    else if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0
  in
  (median, !cut))

(* Bit-exact replay of the winner against the interpreter: rebuild through
   the cache (restoring buffers to their freshly-filled snapshot), run the
   executor once, and compare every output buffer with an interpreter run
   of the untransformed program — the default candidate's lowering memo
   [default_low], the oracle the fuzzer uses — so a schedule that changed
   the semantics fails here, not only an executor that diverges from its
   own IR. *)
let verify acc cfg problem ~tape ~lanes ~default_low low =
  let fn0 = default_low.P.lw_fn in
  match
    let art, ast =
      timed acc st_verify_lower (fun () ->
          let art =
            P.build ~lowerings:low ~knobs:(knobs_of cfg ~tape ~lanes)
              ~fn:low.P.lw_fn ~params:problem.params ~inputs:problem.inputs ()
          in
          B.Exec.run art.P.exec;
          (art, (P.lower ~lowerings:default_low fn0).Lower.ast))
    in
    timed acc st_verify_interp @@ fun () ->
    let interp =
      B.Interp.reference ~params:problem.params
        ~extents:(P.extents_of_fn fn0 ~params:problem.params)
        ~inputs:problem.inputs ast
    in
    List.for_all
      (fun out ->
        match
          List.find_opt (fun b -> b.B.Buffers.name = out) art.P.buffers
        with
        | None -> false
        | Some eb -> B.Buffers.bits_equal (B.Interp.buffer interp out) eb)
      problem.outputs
  with
  | ok -> ok
  | exception _ -> false

(* ---------- the search ---------- *)

type scored = {
  sc_actions : S.action list;
  sc_low : P.lowerings;  (* vet's lowering memo *)
  sc_prior : float;
}

let run ?(config = default_config) (problem : problem) : result =
  let cfg = config in
  let t_start = B.Clock.now_ms () in
  let elapsed () = B.Clock.now_ms () -. t_start in
  let over_budget () = elapsed () > cfg.budget_ms in
  let stats0 = P.cache_stats () in
  let acc = Array.make (List.length stage_names) 0.0 in
  let base_entries = initial_entries problem in
  let consumes = consumes_of problem in
  (* every candidate is this algorithm, scheduled: one dependence memo *)
  let memo = D.memo (problem.build ()) in
  let enumerated = ref 0
  and vetted = ref 0
  and illegal = ref 0
  and errored = ref 0
  and measured = ref 0
  and cutoffs = ref 0
  and dropped = ref 0 in
  let seen = Hashtbl.create 256 in
  let trajectory = ref [] in
  let say fmt =
    Printf.ksprintf (fun s -> if cfg.verbose then prerr_endline s) fmt
  in
  (* A candidate is vetted and built on the work budget; a challenger's
     measuring also stops at the search's wall-clock budget. *)
  let fueled f = Lm.with_fuel Lm.case_fuel f in
  let limited f =
    Option.join
      (fueled (fun () ->
           Lm.with_deadline ((cfg.budget_ms -. elapsed ()) /. 1000.0) f))
  in
  (* Incumbent: the default (empty) schedule, measured first — so "searched
     >= default" holds by construction and the trajectory starts anchored.
     If even it cannot compile within the work budget, the search has no
     incumbent and no legal answer, so failing loudly beats searching
     blind. *)
  let default =
    { sc_actions = []; sc_low = P.lowerings (scheduled problem []);
      sc_prior = infinity }
  in
  (* Every configuration measured so far, by the structural hash of the
     statement it built and its knobs.  Identical code is measured once:
     a second measurement would only be a second noisy sample of the
     same program, and the incumbent would change on noise alone. *)
  let seen_code = Hashtbl.create 64 in
  let default_ms, _ =
    match
      fueled (fun () ->
          measure acc cfg problem ~tape:true ~lanes:P.default_knobs.P.lanes
            ~cutoff:infinity default.sc_low)
    with
    | Some (Some (key, r)) ->
        Hashtbl.replace seen_code key ();
        r
    | Some None | None ->
        failwith
          (problem.name
         ^ ": default schedule did not compile within the work budget")
  in
  incr measured;
  Hashtbl.replace seen (literal []) ();
  let best = ref default and best_ms = ref default_ms and best_tape = ref true in
  let best_lanes = ref P.default_knobs.P.lanes in
  trajectory := { tp_candidates = !measured; tp_best_ms = !best_ms } :: [];
  say "autosched %s: default %.3f ms" problem.name default_ms;
  let consider ~tape ?(lanes = P.default_knobs.P.lanes) st =
    if not (over_budget ()) then begin
      let cutoff = cutoff_ratio *. !best_ms in
      match
        limited (fun () ->
            measure acc cfg problem ~tape ~lanes ~cutoff
              ~known:(Hashtbl.mem seen_code) st.sc_low)
      with
      | exception _ -> ()
      | None | Some None -> ()
      | Some (Some (key, (ms, cut))) ->
          Hashtbl.replace seen_code key ();
          incr measured;
          if cut then incr cutoffs;
          if ms < !best_ms then begin
            best := st;
            best_ms := ms;
            best_tape := tape;
            best_lanes := lanes;
            say "autosched %s: new best %.3f ms (%d actions, tape=%b, \
                 lanes=%d)"
              problem.name ms (List.length st.sc_actions) tape lanes
          end;
          trajectory :=
            { tp_candidates = !measured; tp_best_ms = !best_ms } :: !trajectory
    end
  in
  let beam = ref [ default ] in
  (try
     for round = 1 to cfg.rounds do
       if over_budget () then raise Exit;
       (* frontier: template pipelines (first round) + one-action
          expansions of every beam state *)
       let frontier =
         expand cfg ~consumes base_entries ~round
           (List.map (fun st -> st.sc_actions) !beam)
       in
       let frontier =
         List.filter
           (fun acts ->
             let key = literal acts in
             if Hashtbl.mem seen key then false
             else begin
               Hashtbl.replace seen key ();
               true
             end)
           frontier
       in
       enumerated := !enumerated + List.length frontier;
       let frontier =
         if List.length frontier <= cfg.max_frontier then frontier
         else begin
           dropped := !dropped + List.length frontier - cfg.max_frontier;
           List.filteri (fun k _ -> k < cfg.max_frontier) frontier
         end
       in
       say "autosched %s: round %d, %d candidates" problem.name round
         (List.length frontier);
       (* oracle-prune, lower, cost-rank *)
       let survivors =
         List.filter_map
           (fun acts ->
             if over_budget () then None
             else
               match fueled (fun () -> vet ~acc ~memo cfg problem acts) with
               | None (* Omega blowup: the work budget ran out mid-vet *)
               | Some (`Err _) ->
                   incr errored;
                   None
               | Some (`Illegal _) ->
                   incr illegal;
                   None
               | Some (`Ok (fn, lowerings, stmt)) ->
                   incr vetted;
                   let sc_prior =
                     timed acc st_prior (fun () -> prior problem fn stmt)
                   in
                   Some { sc_actions = acts; sc_low = lowerings; sc_prior })
           frontier
       in
       let ranked =
         List.sort (fun a b -> compare a.sc_prior b.sc_prior) survivors
       in
       let top = List.filteri (fun k _ -> k < cfg.beam_width) ranked in
       if top = [] then raise Exit;
       beam := top;
       (* measure the head of the beam; the compile cache deduplicates
          candidates that lower to an already-compiled statement *)
       List.iteri
         (fun k st ->
           if k < cfg.measure_top then consider ~tape:true st)
         top
     done
   with Exit -> ());
  (* the backend knobs: challenge the incumbent at the menu's other lane
     widths — the vector tape's payoff is shape-dependent (lane-safe
     stores, epilogue cost), so the width is searched, not assumed — then
     with the tape off entirely.  The schedule stays the winner's and only
     the knob moves. *)
  List.iter
    (fun w ->
      if w <> !best_lanes && not (over_budget ()) then
        consider ~tape:true ~lanes:w !best)
    cfg.menu.S.lane_widths;
  if not (over_budget ()) then consider ~tape:false !best;
  (* the verify rebuild goes through the cache too — a hit, since the
     winner was measured moments ago — so snapshot the stats after it *)
  let verified =
    verify acc cfg problem ~tape:!best_tape ~lanes:!best_lanes
      ~default_low:default.sc_low !best.sc_low
  in
  let stats1 = P.cache_stats () in
  {
    r_best = !best.sc_actions;
    r_best_ms = !best_ms;
    r_best_tape = !best_tape;
    r_best_lanes = !best_lanes;
    r_default_ms = default_ms;
    r_enumerated = !enumerated;
    r_vetted = !vetted;
    r_illegal = !illegal;
    r_errored = !errored;
    r_measured = !measured;
    r_cutoffs = !cutoffs;
    r_dropped = !dropped;
    r_cache_hits = stats1.P.hits - stats0.P.hits;
    r_cache_misses = stats1.P.misses - stats0.P.misses;
    r_trajectory = List.rev !trajectory;
    r_verified = verified;
    r_elapsed_ms = elapsed ();
    r_stage_ms = List.mapi (fun k name -> (name, acc.(k))) stage_names;
    r_profile_hits = D.memo_hits memo;
    r_profile_misses = D.memo_misses memo;
  }

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "best %.3f ms (default %.3f ms, %.2fx) in %.0f ms@\n\
     candidates: %d enumerated, %d vetted, %d illegal, %d errored, %d \
     dropped@\n\
     measured: %d (%d cutoffs), cache %d hits / %d misses@\n\
     verified: %b, tape: %b, lanes: %d@\n\
     stages (ms): %s@\n\
     dependence profiles: %d memo hits / %d misses@\n\
     schedule:@\n%s@\n"
    r.r_best_ms r.r_default_ms
    (r.r_default_ms /. r.r_best_ms)
    r.r_elapsed_ms r.r_enumerated r.r_vetted r.r_illegal r.r_errored
    r.r_dropped r.r_measured r.r_cutoffs r.r_cache_hits r.r_cache_misses
    r.r_verified r.r_best_tape r.r_best_lanes
    (String.concat ", "
       (List.map (fun (n, ms) -> Printf.sprintf "%s %.1f" n ms) r.r_stage_ms))
    r.r_profile_hits r.r_profile_misses (literal r.r_best)
