(* The benchmark runner.

     main.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]
     main.exe workload NAME --seed N [--seconds S] [--trace] [--smoke]
         run one workload; the last stdout line is the result object
         {"correct", "attempted", "failed", "metrics"}.  Untraced runs
         report the end-to-end metrics; --trace re-runs the workload with
         the same seed under span recording and reports the per-layer
         metrics, the tracing overhead, and writes the spans to
         .bench_build/perfbench/.
     main.exe bench --seed N [--seconds S] [--smoke] [--trace] [--out DIR]
         every workload, each in its own process; prints every metric
         with its unit and exits 1 if any operation failed.  --out
         appends each run's output to DIR/<workload>.jsonl for `diff`.
     main.exe smoke [--spec BENCHMARK.json]
         every workload at tiny sizes, untraced and traced; fails on a
         failed operation or on a metric of the spec that is missing or
         has no unit.
     main.exe diff RUNS_A RUNS_B [--spec BENCHMARK.json]
         compare two sets of saved runs (see Diff). *)

let workloads : (string * (Metrics.cfg -> Metrics.result)) list =
  [ ("exec-seq", W_exec.run ~pool:false);
    ("exec-pool", W_exec.run ~pool:true);
    ("compile-cold", W_compile.run);
    ("service-zipf", W_service.run);
    ("autosched", W_search.run) ]

let default_seconds = 12

(* A run still going after this long is stopped with exit status 3. *)
let watchdog_s = 170.0

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]\n\
    \       main.exe workload NAME --seed N [--seconds S] [--trace] [--smoke]\n\
    \       main.exe bench --seed N [--seconds S] [--smoke] [--trace] [--out DIR]\n\
    \       main.exe smoke [--spec BENCHMARK.json]\n\
    \       main.exe diff RUNS_A RUNS_B [--spec BENCHMARK.json]";
  prerr_endline
    ("workloads: " ^ String.concat " " (List.map fst workloads));
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int option;
  mutable seconds : int;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  mutable spec : string;
  mutable positional : string list;
}

let parse args =
  let o =
    { workload = None; seed = None; seconds = default_seconds; trace = false;
      smoke = false; out = None; spec = "BENCHMARK.json"; positional = [] }
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ ->
        Printf.eprintf "%s expects a non-negative integer, got %S\n" flag v;
        usage ()
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | "--seed" :: n :: rest -> o.seed <- Some (int_arg "--seed" n); go rest
    | "--seconds" :: n :: rest -> o.seconds <- max 1 (int_arg "--seconds" n); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--trace" :: rest -> o.trace <- true; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--out" :: d :: rest -> o.out <- Some d; go rest
    | "--spec" :: p :: rest -> o.spec <- p; go rest
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        Printf.eprintf "unknown or incomplete option %s\n" a;
        usage ()
    | a :: rest -> o.positional <- o.positional @ [ a ]; go rest
  in
  go args;
  o

(* ---------- one workload ---------- *)

let metric_json (name, value, unit_) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Util.json_str name)
    (Util.json_num value) (Util.json_str unit_)

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics))

(* The detail line carries the raw times and the host probe they were
   normalized by: a diff of raw times that moves together with the probe
   is the host, not the code. *)
let detail_line (r : Metrics.result) ~spans =
  let detail =
    [ ("latency_ms", r.latency_ms); ("ops_per_s", r.ops_per_s);
      ("host.probe_ms", Metrics.probe_of r) ]
    @ r.detail
  in
  let row (name, (t : Util.timing)) =
    Printf.sprintf
      "%s: {\"n\": %d, \"median\": %s, \"hi\": %s, \"hi_pct\": %s}"
      (Util.json_str name) t.n (Util.json_num t.p50) (Util.json_num t.hi)
      (Util.json_num t.hi_pct)
  in
  Printf.sprintf
    "{\"kind\": \"detail\", \"setup_s\": [%s], \"rows\": {%s}, \"detail\": {%s}%s}"
    (String.concat ", " (List.map Util.json_num r.setup_s))
    (String.concat ", " (List.map row r.rows))
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s: %s" (Util.json_str k) (Util.json_num v))
          detail))
    (match spans with
     | None -> ""
     | Some p -> Printf.sprintf ", \"spans\": %s" (Util.json_str p))

let summarize name (r : Metrics.result) =
  Printf.eprintf
    "%s: %d attempted, %d failed, latency %.4g ms, %.4g ops/s, probe %.4g ms, setup %s s\n"
    name r.attempted r.failed r.latency_ms r.ops_per_s (Metrics.probe_of r)
    (String.concat "/" (List.map (Printf.sprintf "%.3f") r.setup_s));
  List.iter
    (fun (n, (t : Util.timing)) ->
      Printf.eprintf "  %-22s n=%-6d median %.4g  p%.1f %.4g\n" n t.n t.p50 t.hi_pct t.hi)
    r.rows

let run_workload o name f =
  let seed = match o.seed with Some s -> s | None -> usage () in
  let cfg = { Metrics.seed; seconds = float_of_int o.seconds; smoke = o.smoke } in
  ignore
    (Thread.create
       (fun () ->
         Thread.delay watchdog_s;
         Printf.eprintf "%s: still running after %.0f s, giving up\n%!" name watchdog_s;
         Unix._exit 3)
       ());
  print_endline
    (Host.header ~workload:name ~seed ~seconds:o.seconds ~trace:o.trace ~smoke:o.smoke);
  let base = f cfg in
  summarize name base;
  if not o.trace then begin
    print_endline (detail_line base ~spans:None);
    print_endline
      (result_line ~correct:(base.failed = 0) ~attempted:base.attempted ~failed:base.failed
         (Metrics.end_to_end_values base))
  end
  else begin
    Trace.reset ();
    Trace.enabled := true;
    let tr = f cfg in
    Trace.enabled := false;
    summarize (name ^ " (traced)") tr;
    let spans =
      Filename.concat Util.out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" name seed)
    in
    Trace.write spans;
    Printf.eprintf "  self time by span (ms):\n";
    List.iter
      (fun (n, count, self) -> Printf.eprintf "    %-24s x%-6d %10.2f\n" n count self)
      (Trace.self_times ());
    print_endline (detail_line tr ~spans:(Some spans));
    let norm (r : Metrics.result) = r.latency_ms /. Metrics.probe_of r in
    let measured =
      tr.layer
      @ [ ("host.probe_ms", Metrics.probe_of tr);
          ("host.cpus_granted", float_of_int (Host.os_cpus ()));
          ("trace.overhead_pct", 100.0 *. ((norm tr /. norm base) -. 1.0)) ]
    in
    let failed = base.failed + tr.failed in
    print_endline
      (result_line ~correct:(failed = 0) ~attempted:(base.attempted + tr.attempted) ~failed
         (List.map
            (fun (m, unit_) ->
              (m, Option.value (List.assoc_opt m measured) ~default:0.0, unit_))
            Metrics.per_layer))
  end

(* ---------- several workloads, each in its own process ---------- *)

let child_args o ~workload ~trace =
  [ "--workload"; workload; "--seed"; string_of_int (Option.value o.seed ~default:1);
    "--seconds"; string_of_int o.seconds; "--trace"; (if trace then "1" else "0") ]
  @ if o.smoke then [ "--smoke" ] else []

(* Run a child to completion; its stdout, its stderr and its exit status.
   A run writes little to stderr, so reading stdout first cannot block. *)
let spawn args =
  let exe = Sys.executable_name in
  let ((out, _, err) as chans) =
    Unix.open_process_args_full exe (Array.of_list (exe :: args)) (Unix.environment ())
  in
  let o = In_channel.input_all out in
  let e = In_channel.input_all err in
  (o, e, Unix.close_process_full chans)

let last_json out =
  List.rev (String.split_on_char '\n' out)
  |> List.find_map (fun l -> if String.trim l = "" then None else Some (Json.parse_opt l))
  |> Option.join

let result_fields j =
  let num k = Option.bind (Json.member k j) Json.to_num |> Option.value ~default:(-1.0) in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        List.map
          (fun (k, v) ->
            ( k,
              Option.bind (Json.member "value" v) Json.to_num,
              Option.bind (Json.member "unit" v) Json.to_string ))
          kvs
    | _ -> []
  in
  (Json.member "correct" j = Some (Json.Bool true), int_of_float (num "attempted"),
   int_of_float (num "failed"), metrics)

let bench o =
  let bad = ref 0 in
  Option.iter Util.mkdir_p o.out;
  List.iter
    (fun (w, _) ->
      let out, err, status = spawn (child_args o ~workload:w ~trace:o.trace) in
      prerr_string err;
      (* one file per workload; runs with other seeds append to it *)
      Option.iter
        (fun d ->
          Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
            (Filename.concat d (w ^ ".jsonl"))
            (fun oc -> output_string oc out))
        o.out;
      match (status, last_json out) with
      | Unix.WEXITED 0, Some j ->
          let correct, attempted, failed, metrics = result_fields j in
          Printf.printf "%s: attempted %d, failed %d%s\n" w attempted failed
            (if correct then "" else ", OUTPUTS WRONG");
          if not correct || failed <> 0 then incr bad;
          List.iter
            (fun (k, v, u) ->
              Printf.printf "  %-14s %14.6g %s\n" k (Option.value v ~default:nan)
                (Option.value u ~default:"?"))
            metrics
      | _ ->
          Printf.printf "%s: run failed\n" w;
          incr bad)
    workloads;
  if !bad > 0 then exit 1

let smoke o =
  let o = { o with smoke = true; seconds = 1; seed = Some (Option.value o.seed ~default:1) } in
  let spec = Json.parse (Util.read_file o.spec) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names key =
    List.filter_map
      (fun m ->
        let field k = Option.bind (Json.member k m) Json.to_string in
        match (field "name", field "unit") with
        | Some n, Some u when u <> "" -> Some (n, u)
        | Some n, _ -> problem "%s: metric %s has no unit in %s" key n o.spec; None
        | None, _ -> problem "%s: a metric has no name in %s" key o.spec; None)
      (Json.to_list (Option.value (Json.member key spec) ~default:(Json.Arr [])))
  in
  List.iter
    (fun (w, _) ->
      List.iter
        (fun trace ->
          let label = Printf.sprintf "%s%s" w (if trace then " --trace" else "") in
          let out, err, status = spawn (child_args o ~workload:w ~trace) in
          let problem fmt = prerr_string err; problem fmt in
          match (status, last_json out) with
          | Unix.WEXITED 0, Some j ->
              let correct, attempted, failed, metrics = result_fields j in
              Printf.printf "smoke %-24s attempted %d, failed %d\n%!" label attempted failed;
              if not correct || failed <> 0 || attempted < 1 then
                problem "%s: %d of %d operations failed" label failed attempted;
              List.iter
                (fun (n, v, u) ->
                  if v = None then problem "%s: metric %s has no value" label n;
                  if u = None || u = Some "" then problem "%s: metric %s has no unit" label n)
                metrics;
              List.iter
                (fun (n, u) ->
                  match List.find_opt (fun (k, _, _) -> k = n) metrics with
                  | None -> problem "%s: metric %s missing" label n
                  | Some (_, _, Some u') when u' <> u ->
                      problem "%s: metric %s in %s, %s says %s" label n u' o.spec u
                  | Some _ -> ())
                (names (if trace then "per_layer" else "end_to_end"))
          | _ -> problem "%s: run did not finish with a result" label)
        [ false; true ])
    workloads;
  match List.rev !problems with
  | [] -> print_endline "smoke: every workload ran, no failed operation, every metric present"
  | ps ->
      List.iter (Printf.printf "smoke FAILED: %s\n") ps;
      exit 1

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match (o.positional, o.workload) with
  | [ "bench" ], None -> if o.seed = None then usage () else bench o
  | [ "smoke" ], None -> smoke o
  | [ "diff"; a; b ], None -> Diff.run ~spec:o.spec a b
  | [ "workload"; w ], None | [], Some w -> (
      match List.assoc_opt w workloads with
      | Some f -> run_workload o w f
      | None ->
          Printf.eprintf "unknown workload %s\n" w;
          usage ())
  | _ -> usage ()
