(* Autoscheduler benchmark: run the measurement-driven beam search
   (Tiramisu_autosched.Search) on the three exec-bench kernels and compare
   the searched schedule against the default (unscheduled), the hand-tuned
   expert schedule, and the Pluto-style baseline — all measured through
   the same Pipeline.build path the search itself measures with.

   Full mode writes BENCH_autosched.json: per kernel, the four medians,
   the search counters (enumerated / oracle-rejected / measured / early
   cutoffs), the compile-cache hit rate during the search, and the
   best-ms-vs-candidates-measured trajectory.  Smoke mode (`make
   autosched-smoke`) runs a tightly budgeted search at small extents and
   gates on: searched <= default (the incumbent starts at the default
   schedule, so the search can never regress it), the winner replaying
   bit-exactly against the interpreter, no candidate erroring, and the
   JSON matching the golden schema in bench/autosched.golden (regenerate
   with TIRAMISU_UPDATE_GOLDEN=1). *)

module P = Tiramisu_pipeline.Pipeline
module B = Tiramisu_backends
module S = Tiramisu_autosched.Search
module Sp = Tiramisu_autosched.Sched_space
module A = Tiramisu_autosched.Autosched

let golden_path = "bench/autosched.golden"

(* Median wall-clock of a schedule, measured exactly like the search
   measures its candidates: sequential strategy, tape on, through the
   compile cache. *)
let measure_ms ~reps (case : Exec_bench.case) sched =
  let fn = case.Exec_bench.c_build () in
  sched fn;
  let knobs = { P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () } in
  let art =
    P.build ~knobs ~fn ~params:case.Exec_bench.c_params
      ~inputs:case.Exec_bench.c_inputs ()
  in
  B.Exec.run art.P.exec;
  Common.percentile
    (Array.init reps (fun _ ->
         snd (Common.time_ms (fun () -> B.Exec.run art.P.exec))))
    0.5

let config ~smoke =
  if smoke then
    {
      S.default_config with
      S.beam_width = 3;
      measure_top = 3;
      rounds = 2;
      reps = 3;
      budget_ms = 12_000.0;
      max_frontier = 50;
      menu =
        {
          Sp.tile_sizes = [ 8 ];
          split_factors = [ 8 ];
          vec_widths = [ 4 ];
          unroll_factors = [ 2 ];
          lane_widths = [ 1; 4 ];
        };
    }
  else
    {
      S.default_config with
      S.beam_width = 6;
      measure_top = 6;
      rounds = 3;
      reps = 5;
      budget_ms = 60_000.0;
      max_frontier = 250;
    }

type row = {
  r_case : Exec_bench.case;
  r_hand_ms : float;
  r_pluto_ms : float;
  r_res : S.result;
}

let json_of_row r =
  let res = r.r_res in
  let hit_rate =
    let total = res.S.r_cache_hits + res.S.r_cache_misses in
    if total = 0 then 0.0
    else float_of_int res.S.r_cache_hits /. float_of_int total
  in
  let traj =
    String.concat ", "
      (List.map
         (fun (t : S.trajectory_point) ->
           Printf.sprintf "{\"candidates\": %d, \"best_ms\": %.4f}"
             t.S.tp_candidates t.S.tp_best_ms)
         res.S.r_trajectory)
  in
  String.concat "\n"
    [
      "  {";
      Printf.sprintf "    \"kernel\": %S," r.r_case.Exec_bench.c_name;
      Printf.sprintf "    \"size\": %S," r.r_case.Exec_bench.c_size;
      Printf.sprintf "    \"default_ms\": %.4f," res.S.r_default_ms;
      Printf.sprintf "    \"hand_ms\": %.4f," r.r_hand_ms;
      Printf.sprintf "    \"pluto_ms\": %.4f," r.r_pluto_ms;
      Printf.sprintf "    \"searched_ms\": %.4f," res.S.r_best_ms;
      Printf.sprintf "    \"speedup_vs_default\": %.3f,"
        (res.S.r_default_ms /. res.S.r_best_ms);
      Printf.sprintf "    \"searched_vs_hand\": %.3f,"
        (res.S.r_best_ms /. r.r_hand_ms);
      Printf.sprintf "    \"enumerated\": %d," res.S.r_enumerated;
      Printf.sprintf "    \"vetted\": %d," res.S.r_vetted;
      Printf.sprintf "    \"illegal\": %d," res.S.r_illegal;
      Printf.sprintf "    \"errored\": %d," res.S.r_errored;
      Printf.sprintf "    \"dropped\": %d," res.S.r_dropped;
      Printf.sprintf "    \"measured\": %d," res.S.r_measured;
      Printf.sprintf "    \"cutoffs\": %d," res.S.r_cutoffs;
      Printf.sprintf "    \"cache_hits\": %d," res.S.r_cache_hits;
      Printf.sprintf "    \"cache_misses\": %d," res.S.r_cache_misses;
      Printf.sprintf "    \"cache_hit_rate\": %.3f," hit_rate;
      Printf.sprintf "    \"verified\": %b," res.S.r_verified;
      Printf.sprintf "    \"tape\": %b," res.S.r_best_tape;
      Printf.sprintf "    \"lanes\": %d," res.S.r_best_lanes;
      Printf.sprintf "    \"elapsed_ms\": %.1f," res.S.r_elapsed_ms;
      Printf.sprintf "    \"schedule\": %S," (S.literal res.S.r_best);
      Printf.sprintf "    \"trajectory\": [%s]" traj;
      "  }";
    ]

let json_of_rows rows =
  "[\n" ^ String.concat ",\n" (List.map json_of_row rows) ^ "\n]\n"

(* What the golden pins is the schema, not the numbers: besides the digits,
   booleans collapse to B, and the two per-run free-form fields (the
   winning schedule literal and the variable-length trajectory) collapse
   entirely. *)
let collapse_free_fields line =
  let has sub = Astring.String.is_infix ~affix:sub line in
  if has "\"schedule\"" then "    \"schedule\": \"...\","
  else if has "\"trajectory\"" then "    \"trajectory\": [T]"
  else if has "\"verified\"" || has "\"tape\"" then
    String.sub line 0 (String.index line ':' + 1) ^ " B,"
  else line

let gate (r : row) =
  let res = r.r_res in
  let name = r.r_case.Exec_bench.c_name in
  if res.S.r_best_ms > res.S.r_default_ms then
    failwith
      (Printf.sprintf
         "%s: searched schedule (%.4f ms) regressed the default (%.4f ms) \
          — the incumbent invariant is broken"
         name res.S.r_best_ms res.S.r_default_ms);
  if not res.S.r_verified then
    failwith (name ^ ": winning schedule failed bit-exact interpreter replay");
  (match res.S.r_trajectory with
  | [] -> failwith (name ^ ": empty search trajectory")
  | ts ->
      let last = List.nth ts (List.length ts - 1) in
      if last.S.tp_best_ms <> res.S.r_best_ms then
        failwith (name ^ ": trajectory tail disagrees with the reported best"));
  if res.S.r_measured > res.S.r_vetted + 2 then
    (* every measured candidate beyond the default schedule and the
       tape-off probe came out of the vetted pool *)
    failwith (name ^ ": measured more candidates than the oracle vetted");
  if res.S.r_errored > 0 then
    (* the search proposes only candidates that apply and lower, and none
       of these kernels' candidates comes near the work budget *)
    failwith
      (Printf.sprintf "%s: %d candidates errored (apply, lower or the work \
                       budget)" name res.S.r_errored)

let run ?(smoke = false) () =
  B.Pool.set_num_workers 4;
  let cfg = config ~smoke in
  let reps = cfg.S.reps in
  let rows =
    List.map
      (fun (case : Exec_bench.case) ->
        let name = case.Exec_bench.c_name in
        let hand_ms = measure_ms ~reps case case.Exec_bench.c_sched in
        let pluto_ms = measure_ms ~reps case (A.apply A.pluto) in
        Common.pf "autosched %s: hand %.3f ms, pluto %.3f ms, searching...\n%!"
          name hand_ms pluto_ms;
        let res =
          Tiramisu_kernels.Runner.autoschedule ~config:cfg ~name
            ~build:case.Exec_bench.c_build ~params:case.Exec_bench.c_params
            ~inputs:case.Exec_bench.c_inputs
            ~outputs:case.Exec_bench.c_outputs ()
        in
        Common.pf
          "autosched %s: default %.3f ms, searched %.3f ms (%.2fx), hand \
           %.3f ms, verified %b, %d measured / %d vetted / %d enumerated, \
           cache %d/%d\n\
           %!"
          name res.S.r_default_ms res.S.r_best_ms
          (res.S.r_default_ms /. res.S.r_best_ms)
          hand_ms res.S.r_verified res.S.r_measured res.S.r_vetted
          res.S.r_enumerated res.S.r_cache_hits
          (res.S.r_cache_hits + res.S.r_cache_misses);
        { r_case = case; r_hand_ms = hand_ms; r_pluto_ms = pluto_ms;
          r_res = res })
      (Exec_bench.cases ~smoke)
  in
  List.iter gate rows;
  let json = json_of_rows rows in
  Common.golden_gate ~rewrite:collapse_free_fields ~tag:"autosched"
    ~golden_path json;
  if not smoke then begin
    let oc = open_out "BENCH_autosched.json" in
    output_string oc json;
    close_out oc;
    Common.pf "autosched: wrote BENCH_autosched.json\n"
  end
  else
    Common.pf
      "autosched-smoke: %d kernels searched, incumbents held, winners \
       replayed bit-exactly, schema matches golden\n"
      (List.length rows)
