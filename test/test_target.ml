(* The first-class execution target: parsing and cache-key strings,
   capability flags, tape claims on the GPU-sim and distributed targets,
   the GPU-sim grid guard, the distributed
   halo-exchange stencil suite (interpreter vs the Distributed-target
   executor, bit-exact at several halo extents and rank counts), the
   typed Comm_error diagnostics of the distributed executor, and two
   pinned fuzz seeds exercising the differential campaign's GPU-sim and
   distributed axes. *)

open Tiramisu_core
module L = Tiramisu_codegen.Loop_ir
module B = Tiramisu_backends
module T = Tiramisu_backends.Target
module Runner = Tiramisu_kernels.Runner
module Schedules = Tiramisu_kernels.Schedules
module Image = Tiramisu_kernels.Image
open Tiramisu_fuzz
open Case

(* ---------- parsing, key strings, capability flags ---------- *)

let target_of_string () =
  let ok s t =
    match T.of_string s with
    | Ok t' ->
        Alcotest.(check string) s (T.to_key_string t) (T.to_key_string t')
    | Error e -> Alcotest.failf "%S failed to parse: %s" s e
  in
  ok "cpu" T.default;
  ok "cpu:pool" T.default;
  ok "cpu:seq" (T.cpu ~parallel:`Seq ());
  ok "gpu-sim" (T.gpu_sim ());
  ok "dist:4" (T.distributed ~ranks:4 ());
  List.iter
    (fun bad ->
      match T.of_string bad with
      | Ok _ -> Alcotest.failf "%S parsed as a target" bad
      | Error _ -> ())
    [ "dist:0"; "dist:x"; "fpga"; "" ];
  (* a removed strategy is a typed error that lists the valid ones *)
  match T.of_string "cpu:spawn" with
  | Ok _ -> Alcotest.fail "cpu:spawn parsed as a target"
  | Error e ->
      List.iter
        (fun want ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S names %s" e want)
            true
            (Astring.String.is_infix ~affix:want e))
        [ "spawn"; "cpu:pool"; "cpu:seq" ]

let target_keys_distinct () =
  let keys =
    List.map T.to_key_string
      [ T.default; T.cpu ~parallel:`Seq (); T.gpu_sim ();
        T.gpu_sim ~max_threads:512 (); T.gpu_sim ~shared_kb:96 ();
        T.distributed ~ranks:2 (); T.distributed ~ranks:4 () ]
  in
  Alcotest.(check int)
    "pairwise distinct key strings" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let target_flags () =
  Alcotest.(check bool) "pool cpu is pool-schedulable" true
    (T.pool_schedulable T.default);
  Alcotest.(check bool) "seq cpu is not pool-schedulable" false
    (T.pool_schedulable (T.cpu ~parallel:`Seq ()));
  Alcotest.(check bool) "gpu-sim is not pool-schedulable" false
    (T.pool_schedulable (T.gpu_sim ()))

(* ---------- the tape on the GPU-sim and distributed targets ---------- *)

let img3 (idx : int array) =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31) /. 7.0

(* The tape claims nests under GPU-grid and rank loops like it does on the
   CPU.  Pinned counts on the expert blur schedules: the GPU schedule's
   thread-level nest is one claim, the 4-rank schedule claims the bx and
   by nests inside the rank loop.  Both stay bit-exact against the
   interpreter and never fall back to the closures. *)
let tape_claims_on target sched ~want () =
  let params = [ ("N", 32); ("M", 32) ] and inputs = [ ("img", img3) ] in
  let scheduled () =
    let f, _, _ = Image.blur () in
    sched f;
    f
  in
  let interp = Runner.run ~fn:(scheduled ()) ~params ~inputs in
  let c = Runner.run_native ~target ~fn:(scheduled ()) ~params ~inputs () in
  let name = T.to_key_string target in
  Alcotest.(check int) (name ^ ": claimed nests") want (B.Exec.tape_count c);
  Alcotest.(check int) (name ^ ": tape fallbacks") 0 (B.Exec.tape_fallbacks c);
  Alcotest.(check bool) (name ^ ": by bit-exact") true
    (B.Buffers.equal ~eps:0.0 (B.Interp.buffer interp "by")
       (B.Exec.buffer c "by"))

(* ---------- the GPU-sim grid guard ---------- *)

let gpu_grid_guard () =
  let nest threads =
    L.For
      { var = "b"; lo = L.Int 0; hi = L.Int 1; tag = L.Gpu_block 0;
        body =
          L.For
            { var = "t"; lo = L.Int 0; hi = L.Int (threads - 1);
              tag = L.Gpu_thread 0;
              body = L.Store ("out", [ L.Var "t" ], L.Var "t") } }
  in
  let compile threads =
    B.Exec.compile
      ~target:(T.gpu_sim ~max_threads:64 ())
      ~params:[]
      ~buffers:[ B.Buffers.create "out" [| 256 |] ]
      (nest threads)
  in
  (* within the grid limit: compiles and runs like a plain nest *)
  let c = compile 64 in
  B.Exec.run c;
  Alcotest.(check (float 0.0)) "thread 63 ran" 63.0
    (B.Exec.buffer c "out").B.Buffers.data.(63);
  (* past the limit: the static check refuses at compile time *)
  match compile 128 with
  | _ -> Alcotest.fail "oversized thread block compiled"
  | exception Failure msg ->
      Alcotest.(check bool) "message names the limit" true
        (Astring.String.is_infix ~affix:"max_threads" msg)

(* ---------- distributed halo-exchange stencil suite ---------- *)

let rows = 20
let cols = 16

(* blur rows split across [nodes]; [halo] boundary rows exchanged with
   explicit Send/Recv pairs (the Fig. 3c pattern, halo parameterized). *)
let dist_blur_halo f ~nodes ~halo =
  Schedules.dist_rows f ~comps:[ "bx"; "by" ]
    ~buf:(Tiramisu.buffer_of (Tiramisu.find_comp f "img"))
    ~rows ~row_elems:(cols * 3) ~nodes ~halo

(* The interpreter is the reference; the compiled executor on the
   matching Distributed target must agree bit-exactly — on the blur
   output and on the halo-mutated input buffer. *)
let halo_exchange_bit_exact ~nodes ~halo () =
  let params = [ ("N", rows); ("M", cols) ] in
  let inputs = [ ("img", img3) ] in
  let run_with backend =
    let f, _, _ = Image.blur () in
    dist_blur_halo f ~nodes ~halo;
    backend f
  in
  let interp = run_with (fun f -> Runner.run ~fn:f ~params ~inputs) in
  let compiled =
    run_with (fun f ->
        let c =
          Runner.run_native
            ~target:(T.distributed ~ranks:nodes ())
            ~fn:f ~params ~inputs ()
        in
        c)
  in
  List.iter
    (fun out ->
      let iref = B.Interp.buffer interp out in
      let got = B.Exec.buffer compiled out in
      Alcotest.(check bool)
        (Printf.sprintf "ranks=%d halo=%d: %s bit-exact (max diff %g)" nodes
           halo out
           (B.Buffers.max_abs_diff iref got))
        true
        (B.Buffers.equal ~eps:0.0 iref got))
    [ "by"; "img" ];
  if halo > 0 && nodes > 1 then begin
    (* every boundary pair exchanged exactly one message of halo rows *)
    Alcotest.(check int)
      (Printf.sprintf "ranks=%d halo=%d: message count" nodes halo)
      (nodes - 1)
      (B.Exec.comm_msgs compiled);
    Alcotest.(check int)
      (Printf.sprintf "ranks=%d halo=%d: bytes" nodes halo)
      ((nodes - 1) * halo * cols * 3 * 8)
      (B.Exec.comm_bytes compiled)
  end
  else
    Alcotest.(check int)
      (Printf.sprintf "ranks=%d halo=%d: no messages" nodes halo)
      0
      (B.Exec.comm_msgs compiled)

let halo_suite =
  List.concat_map
    (fun nodes ->
      List.map
        (fun halo ->
          Alcotest.test_case
            (Printf.sprintf "blur halo exchange: ranks=%d halo=%d" nodes halo)
            `Quick
            (halo_exchange_bit_exact ~nodes ~halo))
        [ 0; 1; rows / nodes ])
    [ 1; 2; 4 ]
  (* the blur distributed schedule at the command line's default sizes:
     16 ranks of one row each, a 2-row halo reaching past each chunk *)
  @ [ Alcotest.test_case "blur halo exchange: ranks=16 halo=2" `Quick
        (halo_exchange_bit_exact ~nodes:16 ~halo:2) ]

(* ---------- typed Comm_error diagnostics ---------- *)

let run_dist stmt bufs =
  let c =
    B.Exec.compile
      ~target:(T.distributed ~ranks:2 ())
      ~params:[] ~buffers:bufs stmt
  in
  B.Exec.run c

(* A send nobody receives must fail loudly after the run, as a typed
   error naming both ranks and the channel — not leak silently and not
   crash with a bare exception. *)
let unmatched_send_diagnostic () =
  let stmt =
    L.Send
      { dst = L.Int 1; buf = "out"; offset = [ L.Int 0 ]; count = L.Int 4;
        props = { L.async = true } }
  in
  match run_dist stmt [ B.Buffers.create "out" [| 8 |] ] with
  | () -> Alcotest.fail "expected Comm_error for the unmatched send"
  | exception B.Exec.Comm_error { src; dst; channel; reason } ->
      Alcotest.(check int) "sending rank" 0 src;
      Alcotest.(check int) "receiving rank" 1 dst;
      Alcotest.(check string) "channel names the buffer" "out" channel;
      Alcotest.(check bool) "reason says unmatched" true
        (Astring.String.is_infix ~affix:"unmatched send" reason)

(* The deadlock analogue: a synchronous receive with no message queued on
   its channel. *)
let recv_no_message_diagnostic () =
  let stmt =
    L.Recv
      { src = L.Int 1; buf = "out"; offset = [ L.Int 0 ]; count = L.Int 4;
        props = { L.async = false } }
  in
  match run_dist stmt [ B.Buffers.create "out" [| 8 |] ] with
  | () -> Alcotest.fail "expected Comm_error for the empty-channel recv"
  | exception B.Exec.Comm_error { src; dst; channel; reason } ->
      Alcotest.(check int) "expected sender" 1 src;
      Alcotest.(check int) "receiving rank" 0 dst;
      Alcotest.(check string) "channel" "out" channel;
      Alcotest.(check bool) "reason says deadlock" true
        (Astring.String.is_infix ~affix:"deadlock" reason)

(* A matched pair whose element counts disagree: the receive must report
   the mismatch, naming the sender's buffer as the channel. *)
let size_mismatch_diagnostic () =
  let dist_for var rank body =
    L.For
      { var; lo = L.Int rank; hi = L.Int rank; tag = L.Distributed; body }
  in
  let stmt =
    L.Block
      [
        dist_for "r1" 1
          (L.Send
             { dst = L.Int 0; buf = "src"; offset = [ L.Int 0 ];
               count = L.Int 2; props = { L.async = true } });
        dist_for "r0" 0
          (L.Recv
             { src = L.Int 1; buf = "out"; offset = [ L.Int 0 ];
               count = L.Int 4; props = { L.async = false } });
      ]
  in
  let bufs = [ B.Buffers.create "src" [| 8 |]; B.Buffers.create "out" [| 8 |] ] in
  match run_dist stmt bufs with
  | () -> Alcotest.fail "expected Comm_error for the size mismatch"
  | exception B.Exec.Comm_error { src; dst; channel; reason } ->
      Alcotest.(check int) "sending rank" 1 src;
      Alcotest.(check int) "receiving rank" 0 dst;
      Alcotest.(check string) "channel is the sender's buffer" "src" channel;
      Alcotest.(check bool) "reason says size mismatch" true
        (Astring.String.is_infix ~affix:"size mismatch" reason)

(* A halo send past the end of its buffer (a schedule sized for a larger
   image than the one it runs on) is a typed error naming the buffer, the
   offset and the count, on the compiled executor and on the interpreter
   alike — not a bare [Invalid_argument "Array.sub"]. *)
let out_of_range_send_diagnostic () =
  let stmt =
    L.Send
      { dst = L.Int 1; buf = "img"; offset = [ L.Int 6 ]; count = L.Int 4;
        props = { L.async = true } }
  in
  let check name run =
    match run [ B.Buffers.create "img" [| 8 |] ] with
    | () -> Alcotest.failf "%s: expected Comm_error for the slice" name
    | exception B.Interp.Comm_error { src; dst; channel; reason } ->
        Alcotest.(check int) (name ^ ": sending rank") 0 src;
        Alcotest.(check int) (name ^ ": receiving rank") 1 dst;
        Alcotest.(check string) (name ^ ": channel") "img" channel;
        List.iter
          (fun want ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: reason %S names %S" name reason want)
              true
              (Astring.String.is_infix ~affix:want reason))
          [ "offset 6"; "4 elements" ]
  in
  check "exec" (run_dist stmt);
  check "interp" (fun bufs ->
      B.Interp.run (B.Interp.create ~buffers:bufs ()) stmt)

(* ---------- pinned fuzz seeds for the new differential axes ---------- *)

let outcome =
  Alcotest.testable (Fmt.of_to_string Differential.outcome_str) ( = )

let check_pass name case =
  Alcotest.check outcome name Differential.Pass (Differential.run_case case)

(* Doubly-parallel coprime stencil: under the differential campaign's
   gpu-sim row the nest runs through the grid-simulation path (pool off,
   tape on), so a divergence in the target dispatch shows up bit-exactly
   against the interpreter. *)
let corpus_gpu_sim_axis =
  { extents = [ Lit 7; Lit 5 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Add, In ("a0", [ (0, -2); (1, 1) ]),
                 Bin (Mul, In ("a0", [ (0, 2); (1, 0) ]), Const 5)) } ];
    steps = [ Parallelize ("c0", "i"); Parallelize ("c0", "j") ] }

(* Reduction feeding a consumer: the dist row compiles it for a 4-rank
   Distributed target (sequential rank-by-rank execution), pinning the
   target-keyed cache path for reductions. *)
let corpus_dist_axis =
  { extents = [ Lit 4; Lit 6 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = Some 5;
          rc_expr = In ("a0", [ (0, -1); (2, 1) ]) };
        { rc_name = "c1"; rc_rank = 2; rc_red = None;
          rc_expr = Bin (Sub, Prod "c0", Const 2) } ];
    steps = [ Parallelize ("c0_upd", "i"); Split ("c1", "j", 4) ] }

let replay_new_axes () =
  check_pass "gpu-sim axis seed" corpus_gpu_sim_axis;
  check_pass "distributed axis seed" corpus_dist_axis

let () =
  Alcotest.run "target"
    [
      ( "target",
        [
          Alcotest.test_case "of_string round-trips" `Quick target_of_string;
          Alcotest.test_case "key strings are pairwise distinct" `Quick
            target_keys_distinct;
          Alcotest.test_case "capability flags" `Quick target_flags;
          Alcotest.test_case "gpu-sim blur claims one tape nest" `Quick
            (tape_claims_on (T.gpu_sim ()) Schedules.gpu_blur ~want:1);
          Alcotest.test_case "dist:4 blur claims two tape nests" `Quick
            (tape_claims_on (T.distributed ~ranks:4 ())
               (fun f -> Schedules.dist_blur f ~n:32 ~m:32 ~nodes:4)
               ~want:2);
          Alcotest.test_case "gpu-sim grid guard" `Quick gpu_grid_guard;
        ] );
      ("halo-exchange", halo_suite);
      ( "comm-errors",
        [
          Alcotest.test_case "unmatched send names ranks and channel" `Quick
            unmatched_send_diagnostic;
          Alcotest.test_case "sync recv with no message (deadlock analogue)"
            `Quick recv_no_message_diagnostic;
          Alcotest.test_case "size mismatch names the sender's buffer" `Quick
            size_mismatch_diagnostic;
          Alcotest.test_case "out-of-range send names buffer, offset, count"
            `Quick out_of_range_send_diagnostic;
        ] );
      ( "fuzz-axes",
        [ Alcotest.test_case "pinned seeds for gpu-sim and dist rows" `Quick
            replay_new_axes ] );
    ]
