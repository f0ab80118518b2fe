(* Pipeline smoke gate: compile the three exec-bench kernels through the
   pass-manager API, validate the emitted trace JSON shape against a golden
   file, assert that the [tape-compile] note names exactly the nests the
   executor claimed, and assert that a warm-cache recompile of each kernel
   reports a hit.  Part of `make check`.

   Numbers in the JSON (timings, loop counts) vary per machine, so both
   sides are normalized by [Common.golden_gate] — every digit run
   collapses to `N` — before the comparison; what the golden pins down is
   the schema: pass names and order, field names, verify/cache statuses.
   Regenerate with TIRAMISU_UPDATE_GOLDEN=1 after an intentional schema
   change. *)

module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline

let golden_path = "bench/pass_trace.golden"

(* The nest names of a [tape-compile] note: "tape NAME: ...; tape ...". *)
let note_nests note =
  if note = "no nest claimed" then []
  else
    List.map
      (fun e ->
        let e = String.trim e in
        String.sub e 5 (String.index e ':' - 5))
      (String.split_on_char ';' note)

let gate () =
  P.clear_cache ();
  let traces =
    List.map
      (fun (case : Exec_bench.case) ->
        let build tag =
          let fn = case.Exec_bench.c_build () in
          case.Exec_bench.c_sched fn;
          let tracer =
            P.make_tracer
              ~probe:(Exec_bench.probe_of case fn)
              ~name:(case.Exec_bench.c_name ^ tag) ()
          in
          let art =
            Tiramisu_kernels.Runner.build_native ~tracer ~fn
              ~params:case.Exec_bench.c_params
              ~inputs:case.Exec_bench.c_inputs ()
          in
          (art, tracer)
        in
        let cold, tracer = build "" in
        if cold.P.cache <> P.Miss then
          failwith (case.Exec_bench.c_name ^ ": expected a cold-cache miss");
        (* A second build re-lowers to a structurally-equal statement; the
           cache must recognize it through the structural hash. *)
        let warm, _ = build "#warm" in
        if warm.P.cache <> P.Hit then
          failwith
            (case.Exec_bench.c_name
           ^ ": warm-cache recompile did not report a hit");
        let trace = P.trace_of tracer in
        (* The note is built from the claim record the executor read: it
           must list exactly the executor's claims, in order. *)
        let noted =
          match
            List.find_opt
              (fun (p : P.pass_trace) -> p.P.p_name = "tape-compile")
              trace.P.t_passes
          with
          | Some p -> note_nests p.P.p_note
          | None -> failwith (case.Exec_bench.c_name ^ ": no tape-compile pass")
        in
        let claimed = List.map fst (B.Exec.lane_modes cold.P.exec) in
        if List.length noted <> B.Exec.tape_count cold.P.exec || noted <> claimed
        then
          failwith
            (Printf.sprintf "%s: tape-compile note lists %d nests [%s], the \
                             executor claimed %d [%s]"
               case.Exec_bench.c_name (List.length noted)
               (String.concat ", " noted) (B.Exec.tape_count cold.P.exec)
               (String.concat ", " claimed));
        (* The probe must actually engage: at least one verifiable pass
           per kernel differentially verified (not merely skipped), and
           none may report a semantics change. *)
        let verified, mismatched =
          List.fold_left
            (fun (v, m) (p : P.pass_trace) ->
              match p.P.p_verify with
              | P.Verified -> (v + 1, m)
              | P.Mismatch why -> (v, (p.P.p_name ^ ": " ^ why) :: m)
              | P.Skipped -> (v, m))
            (0, []) trace.P.t_passes
        in
        if mismatched <> [] then
          failwith
            (case.Exec_bench.c_name
            ^ ": pass verification mismatch — "
            ^ String.concat "; " mismatched);
        if verified = 0 then
          failwith
            (case.Exec_bench.c_name
           ^ ": no pass was differentially verified (all skipped)");
        trace)
      (Exec_bench.cases ~smoke:true)
  in
  let json =
    "[\n" ^ String.concat ",\n" (List.map P.json_of_trace traces) ^ "\n]\n"
  in
  Common.golden_gate ~tag:"pipeline-smoke" ~golden_path json;
  Common.pf
    "pipeline-smoke: %d kernels compiled, trace schema matches golden, \
     tape-compile notes match the executor's claims, warm-cache hits \
     confirmed\n"
    (List.length traces)

(* The parallel-plan note records the planner's decisions, which depend
   on the parallelism it plans for: pin a one-worker pool while the gate
   runs, so the golden holds on any machine (wall-clock is not part of
   this gate), and give later targets back the pool size they had. *)
let run () =
  let workers = B.Pool.num_workers () in
  B.Pool.set_num_workers 1;
  Fun.protect ~finally:(fun () -> B.Pool.set_num_workers workers) gate
