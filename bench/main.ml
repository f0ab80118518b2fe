(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (CGO'19) and the executor, search, service and target
   benches.  Run with no argument for everything, or with a subset of the
   names in [all]. *)

let all =
  [ "fig1"; "table1"; "fig5"; "fig6"; "fig7"; "exec"; "autosched";
    "service"; "gpu"; "dist" ]
(* "exec-smoke" is invocable but not part of the default sweep: it is the
   tier-1 fast path (1 rep, tiny sizes, no JSON). *)

let () =
  let requested =
    match Array.to_list Sys.argv with [] | [ _ ] -> all | _ :: rest -> rest
  in
  List.iter
    (fun name ->
      match name with
      | "fig1" -> Fig1.run ()
      | "table1" -> Table1.run ()
      | "fig5" -> Fig5.run ()
      | "fig6" -> Fig6.run ()
      | "fig7" -> Fig7.run ()
      | "exec" -> Exec_bench.run ()
      | "exec-smoke" -> Exec_bench.run ~smoke:true ()
      | "bench-smoke" -> Exec_bench.smoke_gate ()
      | "pipeline-smoke" -> Pipeline_smoke.run ()
      | "autosched" -> Autosched_bench.run ()
      | "autosched-smoke" -> Autosched_bench.run ~smoke:true ()
      | "service" -> Service_bench.run ()
      | "service-smoke" -> Service_bench.run ~smoke:true ()
      | "gpu" -> Gpu_dist_bench.run_gpu ()
      | "gpu-smoke" -> Gpu_dist_bench.run_gpu ~smoke:true ()
      | "dist" -> Gpu_dist_bench.run_dist ()
      | "dist-smoke" -> Gpu_dist_bench.run_dist ~smoke:true ()
      | other ->
          Printf.eprintf "unknown benchmark %s (available: %s)\n" other
            (String.concat " " all);
          exit 1)
    requested
