(* Golden of what perfbench compiles from the fuzz generator: its two
   generated corpora, drawn exactly as perfbench/programs.ml draws them
   (the first 100 legal generator seeds from 1 for compile-cold, the first
   64 from 1001 for service-zipf), each lowered through
   [Pipeline.lower_for_build] at the default knobs, so widen-parallel runs,
   then through [Pipeline.prepare] (narrow + simplify; the parallel plan
   depends on the machine and is left out).  One line per program holds
   the MD5 of its printed statement.

   Lowering is exact polyhedral scanning, so a change that only makes the
   front end faster must leave this file byte-identical.  Regenerate after
   an intentional change to the generated code with
   TIRAMISU_UPDATE_GOLDEN=1 dune exec test/test_corpus.exe
   run from the repository root. *)

module Fz = Tiramisu_fuzz
module P = Tiramisu_pipeline.Pipeline

let golden_path =
  if Sys.file_exists "dune-project" then "test/corpus.golden" else "corpus.golden"

(* perfbench's [Programs.fuzz_corpus]: legal draws only, in seed order. *)
let corpus ~first ~count =
  let rec go s acc k =
    if k = 0 then List.rev acc
    else
      let case = Fz.Fuzz.gen_seed s in
      let b = Fz.Case.build case in
      match Tiramisu_deps.Deps.legal_under_schedule b.Fz.Case.fn with
      | Error _ -> go (s + 1) acc k
      | Ok () -> go (s + 1) ((s, case) :: acc) (k - 1)
  in
  go first [] count

let digest (case : Fz.Case.t) =
  let fn = (Fz.Case.build ~with_steps:false case).Fz.Case.fn in
  List.iter (Fz.Case.apply_step fn) case.Fz.Case.steps;
  let params = (Fz.Case.build case).Fz.Case.params in
  let s =
    P.lower_for_build fn (fun l -> P.prepare ~params l.Tiramisu_core.Lower.ast)
  in
  Digest.to_hex (Digest.string (Tiramisu_codegen.Loop_ir.to_string s))

let digests () =
  let b = Buffer.create 8192 in
  List.iter
    (fun (workload, first, count) ->
      List.iter
        (fun (s, case) -> Printf.bprintf b "%s fuzz%d %s\n" workload s (digest case))
        (corpus ~first ~count))
    [ ("compile-cold", 1, 100); ("service-zipf", 1001, 64) ];
  Buffer.contents b

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_golden () =
  let got = digests () in
  if Sys.getenv_opt "TIRAMISU_UPDATE_GOLDEN" <> None then
    Out_channel.with_open_bin golden_path (fun oc -> output_string oc got)
  else
    let want = read_file golden_path in
    let lines s = String.split_on_char '\n' s in
    match
      List.find_opt (fun (w, g) -> not (String.equal w g))
        (List.combine (lines want) (lines got))
    with
    | Some (w, g) ->
        Alcotest.failf
          "corpus statement diverges from %s\n  golden: %s\n  got:    %s\n\
           (regenerate with TIRAMISU_UPDATE_GOLDEN=1 if the change is intentional)"
          golden_path w g
    | None ->
        Alcotest.(check int) "programs" (List.length (lines want)) (List.length (lines got))

let () =
  Alcotest.run "corpus"
    [
      ( "corpus",
        [ Alcotest.test_case "fuzz corpora lower to their golden" `Quick
            check_golden ] );
    ]
