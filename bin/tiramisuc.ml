(* tiramisuc — command-line driver over the built-in benchmark kernels.

   Subcommands:
     list                         available kernels and schedule variants
     show   KERNEL [-s SCHED]     generated pseudocode
     cc     KERNEL [-s SCHED]     emit C source
     run    KERNEL [-s SCHED]     execute (interpreter or native) and check
     model  KERNEL [-s SCHED]     machine-model estimate at paper sizes
     legal  KERNEL [-s SCHED]     dependence-based legality verdict
     compile FILE.tir             parse a textual pipeline; print pseudocode
                                  (or C with --emit-c), check legality *)

open Cmdliner
open Tiramisu_kernels
open Catalog
module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline

let find_kernel name =
  match List.find_opt (fun k -> k.k_name = name) kernels with
  | Some k -> k
  | None ->
      Printf.eprintf "unknown kernel %s; try 'tiramisuc list'\n" name;
      exit 1

let scheduled k sched ~params =
  let f = k.build () in
  (match List.assoc_opt sched (k.schedules params) with
  | Some s -> s f
  | None ->
      Printf.eprintf "kernel %s has no schedule %s (available: %s)\n"
        k.k_name sched
        (String.concat ", " (schedule_names k));
      exit 1);
  f

(* ---------------- subcommands ---------------- *)

let kernel_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL")

let sched_arg =
  Arg.(value & opt string "none" & info [ "s"; "schedule" ] ~docv:"SCHED")

let paper_arg =
  Arg.(value & flag & info [ "paper-size" ] ~doc:"Use the paper's sizes.")

let native_arg =
  Arg.(value & flag & info [ "native" ] ~doc:"Closure-compiled executor.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace-passes" ]
        ~doc:
          "Print the pipeline pass trace (per-pass wall-clock time and \
           loop-metadata deltas) after compiling.")

(* --target=cpu|cpu:pool|cpu:seq|gpu-sim|dist:N, parsed by
   Target.of_string so the CLI grammar and the cache-key grammar cannot
   drift apart. *)
let target_arg =
  let parse s =
    match B.Target.of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  let print fmt t = Format.fprintf fmt "%s" (B.Target.to_string t) in
  Arg.(
    value
    & opt (conv (parse, print)) B.Target.default
    & info [ "target" ] ~docv:"TARGET"
        ~doc:
          "Execution target: $(b,cpu) (optionally $(b,cpu:pool) or \
           $(b,cpu:seq)), $(b,gpu-sim), or $(b,dist:N) for N simulated \
           ranks.  The flat tape claims nests on every target.")

let dump_after_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:
          "Print the loop IR after the named pipeline pass (one of: lower, \
           legalize, alloc-scope, narrow, simplify, tape-compile).  For \
           tape-compile the dump is the disassembled instruction tape of \
           every claimed nest rather than the loop IR.")

(* [--dump-after=tape-compile] lists the pass's claim record after the
   build, so each nest's header records the lane mode the executor bound
   it with (fitted per nest, it can be narrower than the request, and an
   accumulator's may be a 2-D block): entry [i] has the [i]th bound tape,
   none when the build failed.  The listing's own header names the lanes
   along one run, so a block passes its row width there; the bound vector
   tape follows it, showing which loads folded into their readers. *)
let print_tape_dump ~dump_after tracer bound =
  let module T = Tiramisu_codegen.Tape_gen in
  match (dump_after, tracer) with
  | Some "tape-compile", Some { P.tr_claims = Some cs; _ } ->
      if cs.T.cs_nests = [] then
        print_string "=== after tape-compile ===\n(no nest claimed)\n";
      List.iteri
        (fun i (c : T.claim) ->
          let bt = Option.map snd (List.nth_opt bound i) in
          let mode = Option.map B.Tape.mode bt in
          let lanes =
            match mode with
            | Some (B.Tape.Inner w | B.Tape.Outer { width = w; _ }) -> w
            | Some (B.Tape.Scalar _) | None -> 0
          in
          let p = c.T.cl_program in
          Printf.printf "=== after tape-compile: %s ===\n%s\nlanes: %s\n%s"
            (T.summary p)
            (match c.T.cl_parent with
            | Some (v, r) ->
                Printf.sprintf "parent %s: %s" v (T.reject_to_string r)
            | None -> "parent: none (outermost nest)")
            (match mode with
            | Some m -> B.Tape.mode_to_string m
            | None -> "none (build failed)")
            (T.disassemble ~lanes p);
          Option.iter (fun bt -> print_string (B.Tape.listing bt)) bt)
        cs.T.cs_nests
  | _ -> ()

(* A tracer when either observation flag is set, [None] otherwise.  The
   resolved target is stamped on the tracer up front so even lower-only
   runs (cc, compile) print it in the pass-trace header; compile-stage
   runs overwrite it with the same string. *)
let cli_tracer ?(target = B.Target.default) ~trace ~dump_after ~name () =
  if (not trace) && dump_after = None then None
  else
    let on_after =
      Option.map
        (fun want pass s ->
          if String.equal pass want then
            Printf.printf "=== after %s ===\n%s\n" pass
              (Tiramisu_codegen.Loop_ir.to_string s))
        dump_after
    in
    let tr = P.make_tracer ?on_after ~name () in
    tr.P.tr_target <- B.Target.to_key_string target;
    Some tr

let report_tracer ~trace tracer =
  match tracer with
  | Some tr when trace -> Format.printf "%a" P.print_trace (P.trace_of tr)
  | _ -> ()

let list_cmd =
  let doc = "List the built-in kernels and their schedule variants." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun k ->
              Printf.printf "%-14s %s\n  schedules: %s\n" k.k_name k.k_desc
                (String.concat ", " (schedule_names k)))
            kernels)
      $ const ())

let show_cmd =
  let doc = "Print the generated pseudocode for a kernel." in
  let run name sched =
    let k = find_kernel name in
    let f = scheduled k sched ~params:k.params_small in
    print_endline
      (Tiramisu_codegen.Loop_ir.to_string (P.lower f).Tiramisu_core.Lower.ast)
  in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ kernel_arg $ sched_arg)

let cc_cmd =
  let doc = "Emit C source for a kernel." in
  let run name sched paper target trace dump_after =
    let k = find_kernel name in
    let params = if paper then k.params_paper else k.params_small in
    let f = scheduled k sched ~params in
    let tracer = cli_tracer ~target ~trace ~dump_after ~name:k.k_name () in
    let lowered = P.lower ?tracer f in
    let buffers =
      List.map
        (fun ((b : Tiramisu_core.Ir.buffer), dims) ->
          (b.Tiramisu_core.Ir.buf_name, dims))
        (Tiramisu_core.Lower.buffer_extents f ~params)
    in
    print_string
      (Tiramisu_codegen.C_emit.emit_function ~name:k.k_name
         ~params:(List.map fst params) ~buffers
         lowered.Tiramisu_core.Lower.ast);
    report_tracer ~trace tracer
  in
  Cmd.v (Cmd.info "cc" ~doc)
    Term.(
      const run $ kernel_arg $ sched_arg $ paper_arg $ target_arg $ trace_arg
      $ dump_after_arg)

let run_cmd =
  let doc = "Execute a kernel (small size) and report counters / time." in
  let run name sched native target trace dump_after =
    let k = find_kernel name in
    let params = k.params_small in
    let f = scheduled k sched ~params in
    let tracer = cli_tracer ~target ~trace ~dump_after ~name:k.k_name () in
    if native then begin
      let t0 = Tiramisu_backends.Clock.now_ms () in
      let art =
        match
          Runner.build_native ?tracer ~target ~fn:f ~params ~inputs:k.inputs ()
        with
        | art -> art
        | exception e ->
            print_tape_dump ~dump_after tracer [];
            raise e
      in
      B.Exec.run art.P.exec;
      let ms = Tiramisu_backends.Clock.now_ms () -. t0 in
      print_tape_dump ~dump_after tracer (B.Exec.bound_tapes art.P.exec);
      Printf.printf "native execution (%s) ok in %.3f ms\n"
        (B.Target.to_string target) ms;
      (* one line per claimed nest: how it batches lanes, or why not *)
      if trace then
        List.iter
          (fun (nest, m) ->
            Printf.printf "  lanes %s: %s\n" nest (B.Tape.mode_to_string m))
          (B.Exec.lane_modes art.P.exec)
    end
    else begin
      let lowered = P.lower ?tracer f in
      let interp =
        B.Interp.reference ~params ~extents:(P.extents_of_fn f ~params)
          ~inputs:k.inputs lowered.Tiramisu_core.Lower.ast
      in
      let c = B.Interp.counters interp in
      Printf.printf
        "executed: %d stores, %d loads, %d flops, %d messages (%d bytes)\n"
        c.B.Interp.stores c.B.Interp.loads c.B.Interp.flops
        c.B.Interp.messages c.B.Interp.bytes_sent
    end;
    report_tracer ~trace tracer
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ kernel_arg $ sched_arg $ native_arg $ target_arg $ trace_arg
      $ dump_after_arg)

let model_cmd =
  let doc = "Machine-model estimate (Xeon E5-2680v3 / Tesla K40)." in
  let run name sched paper =
    let k = find_kernel name in
    let params = if paper then k.params_paper else k.params_small in
    let f = scheduled k sched ~params in
    let r = Runner.model ~fn:f ~params () in
    Format.printf "%a@." B.Cost.pp_report r
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(const run $ kernel_arg $ sched_arg $ paper_arg)

let legal_cmd =
  let doc = "Check the schedule against the dependence analysis." in
  let run name sched =
    let k = find_kernel name in
    let f = scheduled k sched ~params:k.params_small in
    match Tiramisu_deps.Deps.check_legality f with
    | [] -> print_endline "legal: all flow dependences preserved"
    | vs ->
        List.iter
          (fun v ->
            Format.printf "VIOLATION: %a@." Tiramisu_deps.Deps.pp_violation v)
          vs;
        exit 1
  in
  Cmd.v (Cmd.info "legal" ~doc) Term.(const run $ kernel_arg $ sched_arg)

let autoschedule_cmd =
  let doc =
    "Search the schedule space (beam search over tile/fuse/interchange/\
     parallelize/vectorize/unroll pipelines, legality-oracle pruned, \
     cost-model ranked, measured through the compile cache) and print the \
     best schedule found as a replayable OCaml action list."
  in
  let budget_arg =
    Arg.(
      value & opt float 30.0
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget for the whole search (anytime).")
  in
  let rounds_arg =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N" ~doc:"Beam rounds.")
  in
  let beam_arg =
    Arg.(value & opt int 4 & info [ "beam" ] ~docv:"N" ~doc:"Beam width.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Progress on stderr.")
  in
  let run name paper target budget rounds beam verbose =
    let k = find_kernel name in
    let params = if paper then k.params_paper else k.params_small in
    let config =
      {
        Tiramisu_autosched.Search.default_config with
        Tiramisu_autosched.Search.budget_ms = budget *. 1000.0;
        rounds;
        beam_width = beam;
        target;
        verbose;
      }
    in
    let r =
      Runner.autoschedule ~config ~name:k.k_name ~build:k.build ~params
        ~inputs:k.inputs ()
    in
    Format.printf "%a@." Tiramisu_autosched.Search.pp_result r;
    if not r.Tiramisu_autosched.Search.r_verified then begin
      prerr_endline "autoschedule: winner failed bit-exact replay";
      exit 1
    end
  in
  Cmd.v (Cmd.info "autoschedule" ~doc)
    Term.(
      const run $ kernel_arg $ paper_arg $ target_arg $ budget_arg
      $ rounds_arg $ beam_arg $ verbose_arg)

let compile_cmd =
  let doc = "Compile a textual .tir pipeline (see lib/frontend)." in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let emit_c_arg =
    Arg.(value & flag & info [ "emit-c" ] ~doc:"Emit C instead of pseudocode.")
  in
  let run file emit_c trace dump_after =
    match Tiramisu_frontend.Frontend.parse_file file with
    | exception Tiramisu_frontend.Frontend.Parse_error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
    | f ->
        (match Tiramisu_deps.Deps.check_legality f with
        | [] -> prerr_endline "legality: ok"
        | vs ->
            List.iter
              (fun v ->
                Format.eprintf "VIOLATION: %a@."
                  Tiramisu_deps.Deps.pp_violation v)
              vs);
        let tracer =
          cli_tracer ~trace ~dump_after ~name:f.Tiramisu_core.Ir.fn_name ()
        in
        (match P.lower ?tracer f with
        | lowered ->
            let ast = lowered.Tiramisu_core.Lower.ast in
            if emit_c then
              print_string
                (Tiramisu_codegen.C_emit.emit_function
                   ~name:f.Tiramisu_core.Ir.fn_name
                   ~params:f.Tiramisu_core.Ir.params ~buffers:[] ast)
            else print_endline (Tiramisu_codegen.Loop_ir.to_string ast)
        | exception P.Error e ->
            Printf.eprintf "%s\n" (P.error_to_string e);
            exit 1);
        report_tracer ~trace tracer
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const run $ file_arg $ emit_c_arg $ trace_arg $ dump_after_arg)

(* ---------------- compile service over a unix-domain socket ---------------- *)

module S = Tiramisu_service.Service

(* One-shot wire protocol, shared by [serve] and [client] (both ends are
   this binary, so Marshal is safe): magic, then a marshalled request,
   then a marshalled reply.  The magic guards against pointing the client
   at something that is not a tiramisuc server. *)
let wire_magic = "TIRSRV1\n"

type wire_request = {
  w_kernel : string;
  w_sched : string;
  w_paper : bool;
  w_deadline_s : float option;
}

type wire_reply =
  | Wire_done of S.response
  | Wire_rejected
  | Wire_failed of string

let source_name = function
  | `Compiled -> "compiled"
  | `Disk -> "disk"
  | `Mem -> "mem"

(* Registry lookup that reports instead of exiting: the server must
   survive a client asking for a kernel that does not exist. *)
let kernel_request ?deadline_s ~kernel ~sched ~paper () =
  match List.find_opt (fun k -> k.k_name = kernel) kernels with
  | None -> Error (Printf.sprintf "unknown kernel %s" kernel)
  | Some k -> (
      let params = if paper then k.params_paper else k.params_small in
      match List.assoc_opt sched (k.schedules params) with
      | None ->
          Error
            (Printf.sprintf "kernel %s has no schedule %s (available: %s)"
               kernel sched
               (String.concat ", " (schedule_names k)))
      | Some apply ->
          let f = k.build () in
          apply f;
          Ok (k, S.request_of_fn ?deadline_s ~fn:f ~params ()))

let handle_connection sv fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let reply =
        try
          let magic = really_input_string ic (String.length wire_magic) in
          if not (String.equal magic wire_magic) then
            Wire_failed "bad protocol magic"
          else
            let (w : wire_request) = Marshal.from_channel ic in
            match
              kernel_request ?deadline_s:w.w_deadline_s ~kernel:w.w_kernel
                ~sched:w.w_sched ~paper:w.w_paper ()
            with
            | Error msg -> Wire_failed msg
            | Ok (_, req) -> (
                match S.submit sv req with
                | S.Done rs -> Wire_done rs
                | S.Rejected -> Wire_rejected
                | S.Failed msg -> Wire_failed msg)
        with e -> Wire_failed (Printexc.to_string e)
      in
      (try
         Marshal.to_channel oc reply [];
         flush oc
       with Sys_error _ -> ()))

let serve_cmd =
  let doc =
    "Run the compile service on a unix-domain socket: worker-domain pool, \
     in-flight dedup, in-memory LRU and the persistent content-addressed \
     artifact store."
  in
  let socket_arg =
    Arg.(
      value
      & opt string "/tmp/tiramisuc.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:"Compile worker domains (0 = one per available core).")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string "_tiramisu_artifacts"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Root of the on-disk artifact store.")
  in
  let max_requests_arg =
    Arg.(
      value & opt int 0
      & info [ "max-requests" ] ~docv:"N"
          ~doc:
            "Exit after accepting N connections (0 = serve forever).  For \
             scripted smoke tests.")
  in
  let run socket workers cache_dir max_requests =
    (try Sys.remove socket with Sys_error _ -> ());
    let sv =
      S.create
        ?workers:(if workers > 0 then Some workers else None)
        ~root:cache_dir ()
    in
    let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind srv (Unix.ADDR_UNIX socket);
    Unix.listen srv 64;
    Printf.printf "tiramisuc serve: listening on %s (store: %s)\n%!" socket
      cache_dir;
    let threads = ref [] in
    let served = ref 0 in
    while max_requests = 0 || !served < max_requests do
      match Unix.accept srv with
      | fd, _ ->
          incr served;
          threads := Thread.create (handle_connection sv) fd :: !threads
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    List.iter Thread.join !threads;
    Unix.close srv;
    (try Sys.remove socket with Sys_error _ -> ());
    S.shutdown sv;
    let st = S.stats sv in
    Printf.printf
      "served %d requests: %d compiled, %d mem hits, %d disk hits, %d dedup \
       waits, %d rejected, %d failed\n"
      st.S.requests st.S.compiles st.S.mem_hits st.S.disk_hits
      st.S.dedup_waits st.S.rejected st.S.failed
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ workers_arg $ cache_dir_arg $ max_requests_arg)

let client_cmd =
  let doc =
    "Submit a kernel to a running $(b,tiramisuc serve) and report where \
     the artifact came from."
  in
  let socket_arg =
    Arg.(
      value
      & opt string "/tmp/tiramisuc.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "n" ] ~docv:"N" ~doc:"Submit the request N times.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-request compile deadline (cooperative).")
  in
  let run_flag =
    Arg.(
      value & flag
      & info [ "run" ]
          ~doc:
            "Compile the returned prepared statement locally (backend stage \
             only) and execute it once.")
  in
  let run name sched paper socket repeats deadline do_run =
    let submit () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let oc = Unix.out_channel_of_descr fd in
          output_string oc wire_magic;
          Marshal.to_channel oc
            { w_kernel = name; w_sched = sched; w_paper = paper;
              w_deadline_s = deadline }
            [];
          flush oc;
          (Marshal.from_channel (Unix.in_channel_of_descr fd) : wire_reply))
    in
    let failures = ref 0 in
    for i = 1 to repeats do
      match submit () with
      | Wire_done rs ->
          Printf.printf "[%d/%d] %s  key=%s  source=%s  %.3f ms\n" i repeats
            name rs.S.rs_key (source_name rs.S.rs_source) rs.S.rs_ms;
          if do_run then begin
            match kernel_request ~kernel:name ~sched ~paper () with
            | Error msg ->
                Printf.eprintf "local instantiation failed: %s\n" msg;
                incr failures
            | Ok (k, req) ->
                let exec = S.instantiate req rs ~inputs:k.inputs in
                let t0 = B.Clock.now_ms () in
                B.Exec.run exec;
                Printf.printf "  ran locally in %.3f ms\n"
                  (B.Clock.now_ms () -. t0)
          end
      | Wire_rejected ->
          Printf.printf "[%d/%d] %s  REJECTED (admission queue full)\n" i
            repeats name;
          incr failures
      | Wire_failed msg ->
          Printf.printf "[%d/%d] %s  FAILED: %s\n" i repeats name msg;
          incr failures
    done;
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ kernel_arg $ sched_arg $ paper_arg $ socket_arg
      $ repeat_arg $ deadline_arg $ run_flag)

let () =
  let doc = "Tiramisu-OCaml compiler driver (CGO'19 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "tiramisuc" ~doc ~version:"1.0")
          [ list_cmd; show_cmd; cc_cmd; run_cmd; model_cmd; legal_cmd;
            autoschedule_cmd; compile_cmd; serve_cmd; client_cmd ]))
