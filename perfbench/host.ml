(* The machine a run measured on, and a host probe that touches nothing in
   lib/: if the probe's time moves between two runs, the host changed, not
   the code. *)

(* CPUs the OS grants this process (its affinity mask), independent of any
   planning override such as TIRAMISU_ASSUME_CORES. *)
let os_cpus () =
  (* a list such as "0-3,8,10-11" *)
  let count_list l =
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
        | [ a ] when a <> "" -> acc + 1
        | _ -> acc)
      0 (String.split_on_char ',' l)
  in
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
              match String.split_on_char ':' line with
              | [ "Cpus_allowed_list"; v ] -> Some (count_list v)
              | _ -> go ())
        in
        go ())
  in
  match from_status () with
  | Some n when n > 0 -> n
  | _ | (exception _) -> Domain.recommended_domain_count ()

(* Threads a run may keep busy at once: never more than the OS grants. *)
let workers () = max 1 (min (os_cpus ()) (Domain.recommended_domain_count ()))

let cpu_model () =
  match
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some line -> (
              match String.index_opt line ':' with
              | Some i when String.trim (String.sub line 0 i) = "model name" ->
                  String.trim (String.sub line (i + 1) (String.length line - i - 1))
              | _ -> go ())
        in
        go ())
  with
  | m -> m
  | exception _ -> "unknown"

(* The commit of the checkout the run was built from, read from .git when
   there is one (an exported tree has none). *)
let git_commit () =
  let read p = String.trim (Util.read_file p) in
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
        let loose = Filename.concat ".git" r in
        if Sys.file_exists loose then read loose
        else
          let packed = Util.read_file ".git/packed-refs" in
          match
            List.find_opt
              (fun l -> String.ends_with ~suffix:(" " ^ r) l)
              (String.split_on_char '\n' packed)
          with
          | Some l -> List.hd (String.split_on_char ' ' l)
          | None -> "unknown")
    | _ -> head
  with _ -> "unknown"

let env_overrides () =
  List.filter_map
    (fun v -> Option.map (fun x -> (v, x)) (Sys.getenv_opt v))
    [ "TIRAMISU_ASSUME_CORES"; "TIRAMISU_NUM_DOMAINS"; "TIRAMISU_POOL_MIN_WORK" ]

let header ~workload ~seed ~seconds ~trace ~smoke =
  let env =
    String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "%s: %s" (Util.json_str k) (Util.json_str v))
         (env_overrides ()))
  in
  Printf.sprintf
    "{\"kind\": \"header\", \"workload\": %s, \"seed\": %d, \"seconds\": %d, \
     \"trace\": %b, \"smoke\": %b, \"nproc\": %d, \
     \"recommended_domain_count\": %d, \"cpu_model\": %s, \"ocaml\": %s, \
     \"commit\": %s, \"env\": {%s}}"
    (Util.json_str workload) seed seconds trace smoke (os_cpus ())
    (Domain.recommended_domain_count ())
    (Util.json_str (cpu_model ()))
    (Util.json_str Sys.ocaml_version)
    (Util.json_str (git_commit ()))
    env

(* 64x64x64 matrix multiply in plain OCaml. *)
let probe_n = 64
let pa = Array.init (probe_n * probe_n) (fun i -> float_of_int (i mod 7))
let pb = Array.init (probe_n * probe_n) (fun i -> float_of_int (i mod 5))

let pc = Array.make (probe_n * probe_n) 0.0

let probe () =
  let n = probe_n in
  let (), ms =
    Util.time_ms (fun () ->
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let s = ref 0.0 in
            for k = 0 to n - 1 do
              s := !s +. (pa.((i * n) + k) *. pb.((k * n) + j))
            done;
            pc.((i * n) + j) <- !s
          done
        done)
  in
  ms
