(* Campaign driver: seed -> generate -> differential -> (on failure)
   shrink.  Deterministic: seed s always produces the same case, so a
   failure report's seed and shrunk literal are both replayable. *)

module P = Tiramisu_pipeline.Pipeline

type report = {
  mutable passed : int;
  mutable rejected : int;
      (** oracle-rejected cases; generator-vetted cases should never land
          here, replayed corpus entries may *)
  mutable failures : (int * Case.t * string) list;
      (** seed, shrunk case, divergence message *)
  gstats : Generator.stats;
  mutable times : (string * float) list;
      (** wall-clock seconds by stage: drawing and vetting the cases, then
          {!Differential.run_case}'s pipeline builds, executor runs and
          interpreter references, then everything else (the legality
          oracle, shrinking, bookkeeping) *)
  mutable lowerings : int;  (** by the seeds' {!Differential.run_case} *)
  mutable widen_spent : int;
      (** configuration rows whose widening ran over its work budget
          ({!Differential.widen_spent}) *)
  mutable lanes : (string * int) list;
      (** claimed nests the tape-on rows bound, by lane mode
          ({!Differential.lane_tally}), most frequent first *)
}

let gen_seed ?stats seed =
  let rng = Random.State.make [| 0x7e57; seed |] in
  Generator.gen ?stats rng

let run_seed ?stats seed =
  let case = gen_seed ?stats seed in
  (case, Differential.run_case case)

let still_fails case =
  match Differential.run_case case with Differential.Fail _ -> true | _ -> false

let campaign ?(verbose = false) ?(shrink = true) ~seed ~count () =
  let gstats = Generator.mk_stats () in
  let r =
    { passed = 0; rejected = 0; failures = []; gstats; times = [];
      lowerings = 0; widen_spent = 0; lanes = [] }
  in
  let t0 = Unix.gettimeofday () in
  let stages = Differential.[ build_s; exec_s; reference_s ] in
  let before = List.map ( ! ) stages in
  let draw_s = ref 0.0 in
  let spent_before = !Differential.widen_spent in
  let lanes_before = Hashtbl.copy Differential.lane_tally in
  for s = seed to seed + count - 1 do
    let case = Differential.timed draw_s (fun () -> gen_seed ~stats:gstats s) in
    if verbose then
      Printf.printf "seed %d: generated\n%s\n%!" s (Case.to_literal case);
    let calls = P.lower_calls () in
    let oc = Differential.run_case case in
    r.lowerings <- r.lowerings + P.lower_calls () - calls;
    (match oc with
    | Differential.Pass -> r.passed <- r.passed + 1
    | Differential.Rejected _ -> r.rejected <- r.rejected + 1
    | Differential.Fail msg ->
        let small = if shrink then Shrink.shrink still_fails case else case in
        let msg =
          match Differential.run_case small with
          | Differential.Fail m -> m
          | _ -> msg
        in
        r.failures <- (s, small, msg) :: r.failures);
    if verbose then
      Printf.printf "seed %d: %s\n%!" s (Differential.outcome_str oc)
  done;
  r.failures <- List.rev r.failures;
  r.widen_spent <- !Differential.widen_spent - spent_before;
  r.lanes <-
    Hashtbl.fold
      (fun k n acc ->
        let d =
          n - Option.value ~default:0 (Hashtbl.find_opt lanes_before k)
        in
        if d > 0 then (k, d) :: acc else acc)
      Differential.lane_tally []
    |> List.sort (fun (k1, n1) (k2, n2) -> compare (n2, k1) (n1, k2));
  let spent = !draw_s :: List.map2 (fun acc b -> !acc -. b) stages before in
  let total = Unix.gettimeofday () -. t0 in
  r.times <-
    List.combine [ "draw+vet"; "build"; "exec"; "reference" ] spent
    @ [ ("other", total -. List.fold_left ( +. ) 0.0 spent) ];
  r

let print_report r =
  Printf.printf
    "fuzz: %d passed, %d rejected, %d failed | steps: %d accepted, %d \
     oracle-rejected, %d errored | widening over budget: %d rows\n"
    r.passed r.rejected
    (List.length r.failures)
    r.gstats.Generator.steps_accepted r.gstats.Generator.steps_illegal
    r.gstats.Generator.steps_errored r.widen_spent;
  Printf.printf "time (s): %s (%.2f lowerings per case)\n"
    (String.concat " | "
       (List.map (fun (stage, t) -> Printf.sprintf "%s %.1f" stage t) r.times))
    (float_of_int r.lowerings
    /. float_of_int (max 1 (r.passed + r.rejected + List.length r.failures)));
  Printf.printf "lanes (tape-on rows' claimed nests): %s\n"
    (match r.lanes with
    | [] -> "none"
    | l ->
        String.concat " | "
          (List.map (fun (mode, n) -> Printf.sprintf "%s %d" mode n) l));
  List.iter
    (fun (seed, case, msg) ->
      Printf.printf "\n--- seed %d: %s\nshrunk case:\n%s\n" seed msg
        (Case.to_literal case))
    r.failures
