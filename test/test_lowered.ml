(* Golden of the lowered code: [Loop_ir.to_string] of [Pipeline.lower] for
   every kernel x schedule pair of [tiramisuc list], at the parameter
   values [tiramisuc show] uses.  Each section is exactly what
   [tiramisuc show KERNEL -s SCHED] prints.

   Lowering is exact polyhedral scanning, so a change that only makes it
   faster must leave this file byte-identical.  Regenerate after an
   intentional change to the generated code with
   TIRAMISU_UPDATE_GOLDEN=1 dune exec test/test_lowered.exe
   run from the repository root. *)

open Tiramisu_kernels
module P = Tiramisu_pipeline.Pipeline

(* [dune runtest] runs in the build copy of test/, [dune exec] from the
   repository root. *)
let golden_path =
  if Sys.file_exists "dune-project" then "test/lowered.golden" else "lowered.golden"

let lowered () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (k : Catalog.kernel) ->
      List.iter
        (fun (sched, apply) ->
          let f = k.build () in
          apply f;
          Printf.bprintf b "=== %s %s ===\n%s\n" k.k_name sched
            (Tiramisu_codegen.Loop_ir.to_string (P.lower f).Tiramisu_core.Lower.ast))
        (k.schedules k.params_small))
    Catalog.kernels;
  Buffer.contents b

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The first line where [want] and [got] differ, 1-based. *)
let first_diff want got =
  let rec go i = function
    | w :: ws, g :: gs -> if String.equal w g then go (i + 1) (ws, gs) else Some (i, w, g)
    | [], [] -> None
    | w :: _, [] -> Some (i, w, "<end of output>")
    | [], g :: _ -> Some (i, "<end of golden>", g)
  in
  go 1 (String.split_on_char '\n' want, String.split_on_char '\n' got)

let check_golden () =
  let got = lowered () in
  if Sys.getenv_opt "TIRAMISU_UPDATE_GOLDEN" <> None then
    Out_channel.with_open_bin golden_path (fun oc -> output_string oc got)
  else
    match first_diff (read_file golden_path) got with
    | None -> ()
    | Some (line, w, g) ->
        Alcotest.failf
          "lowered code diverges from %s at line %d\n  golden: %s\n  got:    %s\n\
           (regenerate with TIRAMISU_UPDATE_GOLDEN=1 if the change is intentional)"
          golden_path line w g

let () =
  Alcotest.run "lowered"
    [
      ( "lowered",
        [ Alcotest.test_case "every kernel x schedule lowers to its golden" `Quick check_golden ] );
    ]
