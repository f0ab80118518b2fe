open Tiramisu_core
module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline

(* Every run of a benchmark kernel on the interpreter goes through the
   oracle path, [B.Interp.reference]: buffers from the function's extents
   ([B.Buffers.instantiate]), inputs filled, statement run. *)
let prepare ~fn ~params ~inputs =
  (* Lower once; each call of the thunk re-creates buffers and executes the
     generated code (used by the wall-clock micro-benchmarks). *)
  let lowered = P.lower fn in
  let extents = P.extents_of_fn fn ~params in
  fun () -> B.Interp.reference ~params ~extents ~inputs lowered.Lower.ast

let run ~fn ~params ~inputs = prepare ~fn ~params ~inputs ()

let model ?machine ~fn ~params () =
  let lowered = P.lower fn in
  B.Cost.estimate ?machine ~params ~buffers:(P.extents_of_fn fn ~params)
    lowered.Lower.ast

let check ~fn ~params ~inputs ~output ~expect ?(eps = 1e-3) () =
  let interp = run ~fn ~params ~inputs in
  let buf = B.Interp.buffer interp output in
  let bad = ref None in
  let rank = Array.length buf.B.Buffers.dims in
  let idx = Array.make rank 0 in
  let n = B.Buffers.size buf in
  (try
     for flat = 0 to n - 1 do
       let r = ref flat in
       for k = rank - 1 downto 0 do
         idx.(k) <- !r mod buf.B.Buffers.dims.(k);
         r := !r / buf.B.Buffers.dims.(k)
       done;
       let got = buf.B.Buffers.data.(flat) in
       let want = expect idx in
       if Float.abs (got -. want) > eps then begin
         bad :=
           Some
             (Printf.sprintf "%s%s: got %g, want %g" output
                (String.concat ""
                   (List.map (Printf.sprintf "[%d]") (Array.to_list idx)))
                got want);
         raise Exit
       end
     done
   with Exit -> ());
  match !bad with None -> Ok () | Some m -> Error m

let build_native ?tracer ?(target = B.Target.default) ?(tape = true)
    ?(lanes = P.default_knobs.P.lanes) ~fn ~params ~inputs () =
  (* Lower and compile through the pipeline's compile cache — identical
     (fn, params, knobs) configurations reuse the compiled executor with
     buffers restored to their freshly-filled state. *)
  let knobs = { P.default_knobs with P.target; P.tape; P.lanes = lanes } in
  P.build ?tracer ~knobs ~fn ~params ~inputs ()

let prepare_native ?tracer ?target ?tape ?lanes ~fn ~params ~inputs () =
  (build_native ?tracer ?target ?tape ?lanes ~fn ~params ~inputs ()).P.exec

let run_native ?target ?tape ?lanes ~fn ~params ~inputs () =
  (* Closure-compiled execution (the fast backend); same contract as
     {!run}. *)
  let compiled =
    prepare_native ?target ?tape ?lanes ~fn ~params ~inputs ()
  in
  B.Exec.run compiled;
  compiled

module Search = Tiramisu_autosched.Search

let autoschedule ?config ~name ~build ~params ~inputs ?outputs () =
  (* Measurement-driven schedule search (see {!Tiramisu_autosched.Search}).
     [outputs] defaults to every non-input buffer of the pipeline — the
     winner is replayed bit-exactly against the interpreter on all of
     them. *)
  let outputs =
    match outputs with
    | Some o -> o
    | None ->
        let fn = build () in
        (* lowering materializes the auto buffers the defaults range over *)
        ignore (P.lower fn : Lower.t);
        List.filter_map
          (fun (n, _, _) ->
            if List.mem_assoc n inputs then None else Some n)
          (P.extents_of_fn fn ~params)
  in
  Search.run ?config { Search.name; build; params; inputs; outputs }
