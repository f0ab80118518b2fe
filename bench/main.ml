(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (CGO'19) and the search, service and target benches, and runs
   the behaviour gates.  Run with no argument for the default sweep, or
   with any of the names in [targets]. *)

let targets =
  [
    ("fig1", Fig1.run);
    ("table1", Table1.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("autosched", fun () -> Autosched_bench.run ());
    ("service", fun () -> Service_bench.run ());
    ("gpu", fun () -> Gpu_dist_bench.run_gpu ());
    ("dist", fun () -> Gpu_dist_bench.run_dist ());
    ("exec-smoke", Exec_bench.smoke);
    ("bench-smoke", Exec_bench.smoke_gate);
    ("pipeline-smoke", Pipeline_smoke.run);
    ("autosched-smoke", fun () -> Autosched_bench.run ~smoke:true ());
    ("service-smoke", fun () -> Service_bench.run ~smoke:true ());
    ("gpu-smoke", fun () -> Gpu_dist_bench.run_gpu ~smoke:true ());
    ("dist-smoke", fun () -> Gpu_dist_bench.run_dist ~smoke:true ());
    ("lane-fit", Lane_fit.run);
  ]

(* The default sweep: every target but the -smoke gates, which run by name
   (make check), and the executor's report-only lane-cost fit. *)
let all =
  List.filter
    (fun name ->
      not (String.ends_with ~suffix:"-smoke" name || name = "lane-fit"))
    (List.map fst targets)

let () =
  let requested =
    match Array.to_list Sys.argv with [] | [ _ ] -> all | _ :: rest -> rest
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown benchmark %s (available: %s)\n" name
            (String.concat " " (List.map fst targets));
          exit 1)
    requested
