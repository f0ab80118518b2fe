(* `diff <runsA> <runsB>`: compare two sets of saved runs metric by metric.

   For each (end-to-end metric, workload) pair it prints each side's
   median and quartiles across runs, the change of the medians, and a
   verdict against the metric's bound from BENCHMARK.json:

   - "unresolved": either side's spread (interquartile distance over the
     median) is wider than the bound, so the runs cannot tell a change of
     that size from noise — unless every B run beats every A run;
   - "REGRESSED": B's median is worse than A's by more than the bound;
   - "ok" otherwise ("better" when B's median is better by more than the
     bound).

   The detail values of the runs (raw latency in ms, throughput, host
   probe, run_ms.<k>, svc_p99_ms, ...) follow, unbounded.  Exit status 1
   when any pair is regressed, unresolved or missing on one side. *)

type run = {
  workload : string;
  metrics : (string * float) list;
}

let lines_of path =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (Util.read_file path))

let kind j = Option.bind (Json.member "kind" j) Json.to_string

(* One saved run: the JSON lines a workload run prints, header first.
   Traced runs carry only per-layer metrics and are skipped. *)
let run_of = function
  | header :: rest -> (
      let workload = Option.bind (Json.member "workload" header) Json.to_string in
      let traced = Json.member "trace" header = Some (Json.Bool true) in
      match (workload, List.rev rest) with
      | Some workload, last :: _ when (not traced) && Json.member "metrics" last <> None ->
          let nums = function
            | Some (Json.Obj kvs) ->
                List.filter_map
                  (fun (k, v) ->
                    match v with
                    | Json.Num f -> Some (k, f)
                    | Json.Obj _ ->
                        Option.map (fun f -> (k, f))
                          (Option.bind (Json.member "value" v) Json.to_num)
                    | _ -> None)
                  kvs
            | _ -> []
          in
          let detail =
            Option.bind (List.find_opt (fun j -> kind j = Some "detail") rest)
              (Json.member "detail")
          in
          Some { workload; metrics = nums (Json.member "metrics" last) @ nums detail }
      | _ -> None)
  | [] -> None

(* A file holds one run or several concatenated; each starts at a header
   line. *)
let load path =
  let jsons = List.filter_map Json.parse_opt (lines_of path) in
  let groups =
    List.fold_left
      (fun acc j ->
        match (kind j, acc) with
        | Some "header", _ -> [ j ] :: acc
        | _, g :: gs -> (j :: g) :: gs
        | _, [] -> acc)
      [] jsons
  in
  List.filter_map (fun g -> run_of (List.rev g)) (List.rev groups)

let runs_in path =
  let files =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.sort compare
      |> List.map (Filename.concat path)
      |> List.filter (fun f -> not (Sys.is_directory f))
    else [ path ]
  in
  List.concat_map load files

type spec_metric = { m_name : string; m_lower : bool; m_bound : float option }

let spec_of path =
  let j = Json.parse (Util.read_file path) in
  let metrics key =
    List.filter_map
      (fun m ->
        match Option.bind (Json.member "name" m) Json.to_string with
        | None -> None
        | Some m_name ->
            Some
              { m_name;
                m_lower = Option.bind (Json.member "better" m) Json.to_string <> Some "higher";
                m_bound = Option.bind (Json.member "bound" m) Json.to_num })
      (Json.to_list (Option.value (Json.member key j) ~default:(Json.Arr [])))
  in
  let workloads =
    List.filter_map
      (fun w -> Option.bind (Json.member "name" w) Json.to_string)
      (Json.to_list (Option.value (Json.member "workloads" j) ~default:(Json.Arr [])))
  in
  (workloads, metrics "end_to_end")

let run ~spec a b =
  let workloads, e2e = spec_of spec in
  let ra = runs_in a and rb = runs_in b in
  let values runs w m =
    List.filter_map
      (fun r -> if r.workload = w then List.assoc_opt m r.metrics else None)
      runs
  in
  let bad = ref 0 in
  Printf.printf "%-13s %-24s %28s %28s %9s %6s  %s\n" "workload" "metric"
    "A median [q1, q3] (n)" "B median [q1, q3] (n)" "change" "bound" "verdict";
  let side xs =
    let q1, m, q3 = Util.quartiles xs in
    (m, q1, q3, Printf.sprintf "%.4g [%.4g, %.4g] (%d)" m q1 q3 (List.length xs))
  in
  let row w (m : spec_metric) =
    let xa = values ra w m.m_name and xb = values rb w m.m_name in
    if xa = [] && xb = [] then ()
    else if xa = [] || xb = [] then begin
      if m.m_bound <> None then incr bad;
      Printf.printf "%-13s %-24s %28s %28s %9s %6s  missing\n" w m.m_name
        (if xa = [] then "-" else let _, _, _, s = side xa in s)
        (if xb = [] then "-" else let _, _, _, s = side xb in s)
        "" ""
    end
    else
      let ma, qa1, qa3, sa = side xa and mb, qb1, qb3, sb = side xb in
      let change = (mb -. ma) /. ma in
      let worse = if m.m_lower then change else -.change in
      let spread = Float.max ((qa3 -. qa1) /. ma) ((qb3 -. qb1) /. mb) in
      let better_everywhere =
        if m.m_lower then List.fold_left Float.max neg_infinity xb < List.fold_left Float.min infinity xa
        else List.fold_left Float.min infinity xb > List.fold_left Float.max neg_infinity xa
      in
      let verdict, bound =
        match m.m_bound with
        | None -> ("-", "-")
        | Some bd ->
            let v =
              if better_everywhere then "better"
              else if spread > bd then (incr bad; "unresolved")
              else if worse > bd then (incr bad; "REGRESSED")
              else if worse < -.bd then "better"
              else "ok"
            in
            (v, Printf.sprintf "%.0f%%" (100.0 *. bd))
      in
      Printf.printf "%-13s %-24s %28s %28s %+8.1f%% %6s  %s\n" w m.m_name sa sb
        (100.0 *. change) bound verdict
  in
  let detail_names w =
    List.sort_uniq compare
      (List.concat_map
         (fun r ->
           if r.workload = w then
             List.filter (fun n -> not (List.exists (fun m -> m.m_name = n) e2e)) (List.map fst r.metrics)
           else [])
         (ra @ rb))
  in
  List.iter
    (fun w ->
      List.iter (row w) e2e;
      List.iter (fun n -> row w { m_name = n; m_lower = true; m_bound = None }) (detail_names w))
    workloads;
  if !bad > 0 then begin
    Printf.printf "%d pair(s) regressed, unresolved or missing\n" !bad;
    exit 1
  end
