(* Differential fuzzing harness: replay corpus, legality-oracle checks,
   and directed regressions for the backend fixes that rode along with it
   (floored div/mod, pool exception propagation, pragma placement,
   per-compile counters).

   Corpus entries are Case.t literals — shrunk outputs of the fuzzer in
   the very format `bin/fuzz.exe` prints on failure — so a future
   divergence lands here as a one-paste regression. *)

open Tiramisu_fuzz
open Case
module L = Tiramisu_codegen.Loop_ir
module B = Tiramisu_backends

let outcome = Alcotest.testable (Fmt.of_to_string Differential.outcome_str) ( = )

let check_pass name case =
  Alcotest.check outcome name Differential.Pass (Differential.run_case case)

let check_rejected name case =
  match Differential.run_case case with
  | Differential.Rejected _ -> ()
  | o ->
      Alcotest.failf "%s: expected the oracle to reject, got %s" name
        (Differential.outcome_str o)

(* ---------- replay corpus ---------- *)

(* Split + skew + negative shift drive floord/emod through negative
   operands in the backward schedule substitution (the div/mod semantics
   fix); shrunk from a fuzzer find against a truncating-division mutant. *)
let corpus_neg_floord =
  { extents = [ Lit 5 ];
    n_value = 0;
    inputs = [ ("a0", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
          rc_expr = Bin (Add, In ("a0", [ (0, -2) ]), In ("a0", [ (0, 1) ])) } ];
    steps = [ Split ("c0", "i", 4);
      Skew ("c0", "i1", "i0", 2);
      Shift ("c0", "i1", -3) ] }

(* Interchanged split halves of a single-iteration loop: the inner loop
   bound depends on floord of a negative numerator (shrunk fuzzer find). *)
let corpus_split_one =
  { extents = [ Lit 1 ];
    n_value = 0;
    inputs = [];
    comps = [ { rc_name = "c0"; rc_rank = 1; rc_red = None; rc_expr = Const 1 } ];
    steps = [ Split ("c0", "i", 3); Interchange ("c0", "i0", "i1") ] }

(* Size-0 dimension: empty lane blocks must not touch memory. *)
let corpus_zero_extent =
  { extents = [ Lit 0; Lit 3 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr = In ("a0", [ (0, 0); (1, -1) ]) } ];
    steps = [ Vectorize ("c0", "j", 4) ] }

(* One iteration under unroll-by-4: remainder-only driver. *)
let corpus_one_unroll =
  { extents = [ Lit 1 ];
    n_value = 0;
    inputs = [ ("a0", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
          rc_expr = In ("a0", [ (0, 2) ]) } ];
    steps = [ Unroll ("c0", "i", 4) ] }

(* Remainder 0: the unrolled driver must not run a stray epilogue. *)
let corpus_exact_unroll =
  { extents = [ Lit 8 ];
    n_value = 0;
    inputs = [ ("a0", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
          rc_expr = Bin (Mul, In ("a0", [ (0, 0) ]), Const 3) } ];
    steps = [ Unroll ("c0", "i", 4) ] }

(* 17 = 4 lane blocks + a 1-iteration scalar epilogue, parallelized. *)
let corpus_vector_epilogue =
  { extents = [ Lit 17 ];
    n_value = 0;
    inputs = [ ("a0", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
          rc_expr = Bin (Sub, In ("a0", [ (0, 1) ]), In ("a0", [ (0, -1) ])) } ];
    steps = [ Split ("c0", "i", 8);
      Parallelize ("c0", "i0");
      Vectorize ("c0", "i1", 4) ] }

(* Reduction (sgemm idiom) consumed downstream, with the free dim
   parallelized and the reduction dim unrolled. *)
let corpus_reduction =
  { extents = [ Lit 3; Lit 4 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = Some 3;
          rc_expr = In ("a0", [ (0, 0); (2, -1) ]) };
        { rc_name = "c1"; rc_rank = 2; rc_red = None; rc_expr = Prod "c0" } ];
    steps = [ Parallelize ("c0_upd", "i"); Unroll ("c0_upd", "r", 2) ] }

(* Doubly-parallel rectangular nest: the parallel planner coalesces the
   two [Parallel] dims into one fused loop, so the differential configs
   (plan auto / forced, tape on / off) diverge on any bug in the div/mod
   index recovery or the fused trip count.  Extents 5 x 7 are coprime so a
   stride mix-up cannot alias back to the right cell.  The forced plan runs
   the fused loop on the static pool schedule. *)
let corpus_coalesce =
  { extents = [ Lit 5; Lit 7 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr = Bin (Add, In ("a0", [ (0, 1); (1, -2) ]), Const 3) } ];
    steps = [ Parallelize ("c0", "i"); Parallelize ("c0", "j") ] }

(* Fuzz generator seed 222: the parallel loop is l0, the tile loop of the
   extent-3 dim tiled by 2, so its last tile is partial (2 iterations at
   l0 = 0, 1 at l0 = 1) and the shape rule gives it the dynamic pool
   schedule — the counterpart of [corpus_coalesce] for the other pool
   driver under the forced plan. *)
let corpus_dynamic =
  { extents = [ Lit 8; NParam; Lit 3 ];
    n_value = 8;
    inputs = [ ("a0", 2); ("a1", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 3; rc_red = None;
          rc_expr = In ("a1", [ (2, 2) ]) } ];
    steps = [ Tile ("c0", "j", "l", 2, 2);
      Tile ("c0", "i", "j0", 2, 2);
      Parallelize ("c0", "l0");
      Interchange ("c0", "j01", "i1") ] }

(* Fuzz generator seed 42: a parallel producer tiled after a reversed
   consumer was fused into it.  On every pool row [Pipeline.build]'s
   widen-parallel pass proves more dims of c0 safe to run in parallel
   than the schedule tagged, so the fuzzer's production path diffs a
   widened schedule, not the user's. *)
let corpus_widen =
  { extents = [ Lit 5; Lit 5 ];
    n_value = 8;
    inputs = [ ("a0", 2); ("a1", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Min, Bin (Mul, Const 6, In ("a0", [ (0, 1); (0, -1) ])),
                 Bin (Min, Const 7, In ("a1", [ (0, -2) ]))) };
        { rc_name = "c1"; rc_rank = 2; rc_red = None;
          rc_expr = Bin (Min, In ("a1", [ (1, 2) ]), Const 2) } ];
    steps = [ Reverse ("c1", "i");
      Parallelize ("c0", "i");
      Fuse ("c1", "c0", "j");
      Tile ("c0", "i", "j", 3, 2) ] }

(* Doubly-parallel rectangular stencil, extents coprime: with the tape
   knob on the planner keeps the nest intact (Keep_tape) and the executor
   runs it as bytecode, so the differential configs now split three ways —
   closure loops (tape off), fused-coalesced closures, and the tape — and
   any cursor-addressing bug diverges bit-exactly.  Pinned as a corpus
   seed so `make fuzz` replays it against all of them. *)
let corpus_tape_stencil =
  { extents = [ Lit 6; Lit 9 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Add, In ("a0", [ (0, -1); (1, 1) ]),
                 Bin (Mul, In ("a0", [ (0, 1); (1, 0) ]), Const 2)) } ];
    steps = [ Parallelize ("c0", "i"); Parallelize ("c0", "j") ] }

(* Reduction with an offset input access: the tape's register-resident
   accumulator (init/writeback outside the hot loop) against the
   interpreter's per-iteration stores.  The consumer reads the final
   accumulator, so a dropped writeback is visible downstream. *)
let corpus_tape_reduction =
  { extents = [ Lit 5; Lit 4 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = Some 6;
          rc_expr = In ("a0", [ (0, 1); (2, -2) ]) };
        { rc_name = "c1"; rc_rank = 2; rc_red = None; rc_expr = Prod "c0" } ];
    steps = [ Parallelize ("c0_upd", "i") ] }

(* The vector tape's masked epilogue: a lane-safe stencil whose inner
   extent (37) is not a multiple of the default lane width (8), so every
   row runs 4 full batches plus a 5-element scalar epilogue.  The config
   matrix diffs it against the forced-scalar tape and the interpreter
   bit-exactly; shrunk by hand from the width-boundary family. *)
let corpus_vector_tape_epilogue =
  { extents = [ Lit 5; Lit 37 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Add, In ("a0", [ (0, 0); (1, -1) ]),
                 Bin (Mul, In ("a0", [ (0, 1); (1, 1) ]), Const 3)) } ];
    steps = [ Parallelize ("c0", "i") ] }

(* Inner extents below the lane width (0, 1 and 3 against lanes=8): the
   whole segment is epilogue, and the zero-extent row must not touch
   memory at all. *)
let corpus_vector_tape_short j =
  { extents = [ Lit 3; Lit j ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr = Bin (Sub, In ("a0", [ (0, 0); (1, 0) ]), Const 2) } ];
    steps = [] }

(* Symbolic extent N: tiling a parametric loop exercises Passes.narrow's
   symbolic min/max bounds, at N = 5 and at the N = 0 boundary. *)
let corpus_nparam n =
  { extents = [ NParam; Lit 2 ];
    n_value = n;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr = Bin (Add, In ("a0", [ (0, -2); (1, 2) ]), Const 4) } ];
    steps = [ Tile ("c0", "i", "j", 2, 2); Parallelize ("c0", "i0") ] }

let replay_corpus () =
  check_pass "neg floord/emod" corpus_neg_floord;
  check_pass "split of 1 iteration" corpus_split_one;
  check_pass "zero extent" corpus_zero_extent;
  check_pass "one iteration unrolled" corpus_one_unroll;
  check_pass "exact unroll remainder 0" corpus_exact_unroll;
  check_pass "vector epilogue" corpus_vector_epilogue;
  check_pass "reduction" corpus_reduction;
  check_pass "coalesced parallel nest" corpus_coalesce;
  check_pass "dynamic pool schedule" corpus_dynamic;
  check_pass "tape stencil" corpus_tape_stencil;
  check_pass "tape reduction" corpus_tape_reduction;
  check_pass "vector tape epilogue" corpus_vector_tape_epilogue;
  check_pass "vector tape zero extent" (corpus_vector_tape_short 0);
  check_pass "vector tape one-trip" (corpus_vector_tape_short 1);
  check_pass "vector tape sub-lane extent" (corpus_vector_tape_short 3);
  check_pass "symbolic N = 5" (corpus_nparam 5);
  check_pass "symbolic N = 0" (corpus_nparam 0)

(* The tape seeds must actually reach the tape: compile each through the
   pipeline and check the per-compile counters, with the tape-off control
   at zero.  Guards the corpus against rotting into closure-only paths. *)
let tape_corpus_reaches_tape () =
  List.iter
    (fun (name, case) ->
      let b = Case.build case in
      let exec_of tape =
        (Tiramisu_kernels.Runner.build_native ~tape ~fn:b.Case.fn
           ~params:b.Case.params ~inputs:b.Case.fills ())
          .Tiramisu_pipeline.Pipeline.exec
      in
      let on = exec_of true and off = exec_of false in
      Alcotest.(check bool)
        (name ^ ": tape claims at least one nest")
        true
        (B.Exec.tape_count on >= 1);
      Alcotest.(check int)
        (name ^ ": no runtime fallbacks")
        0
        (B.Exec.tape_fallbacks on);
      Alcotest.(check int)
        (name ^ ": tape-off control compiles zero tapes")
        0 (B.Exec.tape_count off))
    [ ("stencil", corpus_tape_stencil); ("reduction", corpus_tape_reduction) ]

(* The two pool-schedule seeds must keep reaching their driver under the
   forced plan: the coalesced nest runs static, seed 222's kept loop runs
   dynamically (kept, yet not static). *)
let pool_corpus_reaches_both_schedules () =
  List.iter
    (fun (name, case, static) ->
      let b = Case.build case in
      let a =
        Tiramisu_pipeline.Pipeline.build
          ~knobs:
            { Tiramisu_pipeline.Pipeline.default_knobs with
              Tiramisu_pipeline.Pipeline.plan = `Force }
          ~fn:b.Case.fn ~params:b.Case.params ~inputs:b.Case.fills ()
      in
      Alcotest.(check int)
        (name ^ ": forced plan serializes nothing")
        0 a.Tiramisu_pipeline.Pipeline.plan_report
            .Tiramisu_codegen.Parallel_plan.r_serialized;
      Alcotest.(check int)
        (name ^ ": pool loops on the static schedule")
        static
        (B.Exec.static_count a.Tiramisu_pipeline.Pipeline.exec))
    [ ("coalesce", corpus_coalesce, 1); ("dynamic", corpus_dynamic, 0) ]

(* The fuzz rows are built by [Pipeline.build], so they run the passes
   users get: on seed 42 every pool row's trace must show widen-parallel
   widening at least one dim, and the case must still pass bit-exactly. *)
let pool_rows_run_widen_parallel () =
  let module P = Tiramisu_pipeline.Pipeline in
  let b = Case.build corpus_widen in
  let pool_rows =
    List.filter
      (fun (_, k) -> B.Target.pool_schedulable k.P.target)
      (Differential.exec_configs corpus_widen)
  in
  Alcotest.(check int) "five pool rows" 5 (List.length pool_rows);
  List.iter
    (fun ((tag, _) as row) ->
      let art, trace = Differential.run_row b row in
      art.P.release ();
      match
        List.find_opt (fun p -> p.P.p_name = "widen-parallel") trace.P.t_passes
      with
      | None -> Alcotest.failf "%s: no widen-parallel pass in the trace" tag
      | Some p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: widen-parallel widened a dim (%s)" tag
               p.P.p_note)
            true
            (p.P.p_note <> "no dim widened"))
    pool_rows;
  check_pass "seed 42 bit-exact on every row" corpus_widen

(* And the lane seeds must actually reach the vector tier (the scalar
   control at lanes=1 must not), or the epilogue corpus is testing
   nothing. *)
let vector_corpus_reaches_vector () =
  List.iter
    (fun (name, case) ->
      let b = Case.build case in
      let exec_of lanes =
        (Tiramisu_kernels.Runner.build_native ~lanes ~fn:b.Case.fn
           ~params:b.Case.params ~inputs:b.Case.fills ())
          .Tiramisu_pipeline.Pipeline.exec
      in
      let vec = exec_of 8 and scalar = exec_of 1 in
      Alcotest.(check bool)
        (name ^ ": vector tier binds at least one nest")
        true
        (B.Exec.tape_vec_count vec >= 1);
      Alcotest.(check int)
        (name ^ ": lanes=1 control binds none")
        0
        (B.Exec.tape_vec_count scalar))
    [ ("epilogue", corpus_vector_tape_epilogue);
      ("sub-lane", corpus_vector_tape_short 3) ]

(* ---------- legality oracle ---------- *)

(* Ordering a producer after its consumer must be rejected. *)
let oracle_rejects_inverted_order () =
  check_rejected "consumer before producer"
    { extents = [ Lit 4 ];
      n_value = 0;
      inputs = [ ("a0", 1) ];
      comps =
        [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
            rc_expr = In ("a0", [ (0, 0) ]) };
          { rc_name = "c1"; rc_rank = 1; rc_red = None; rc_expr = Prod "c0" } ];
      steps = [ Fuse ("c0", "c1", "root") ] }

(* Reversing the reduction dim inverts the in-place accumulation's
   self-dependence. *)
let oracle_rejects_reversed_reduction () =
  check_rejected "reversed reduction dim"
    { extents = [ Lit 3 ];
      n_value = 0;
      inputs = [ ("a0", 1) ];
      comps =
        [ { rc_name = "c0"; rc_rank = 1; rc_red = Some 3;
            rc_expr = In ("a0", [ (1, 0) ]) } ];
      steps = [ Reverse ("c0_upd", "r") ] }

(* The same reduction under legal steps passes, so the rejection above is
   the schedule's fault, not the program's. *)
let oracle_accepts_legal_reduction () =
  check_pass "legal reduction schedule"
    { extents = [ Lit 3 ];
      n_value = 0;
      inputs = [ ("a0", 1) ];
      comps =
        [ { rc_name = "c0"; rc_rank = 1; rc_red = Some 3;
            rc_expr = In ("a0", [ (1, 0) ]) } ];
      steps = [ Unroll ("c0_upd", "r", 2); Shift ("c0_upd", "i", 1) ] }

(* Fuzzer-found races (shrunk from sweep seeds 3320 and 1188): the
   time-space mapping orders these dependences correctly, but the shared
   fused loop is parallelized — by a *third* computation's tag in the
   first case — while vectorize's separation makes the producer write all
   its points at fused iteration 0, so the consumer at iteration i > 0
   reads across iterations of a parallel loop.  Sequential backends and
   the planner-serialized pool masked it; a per-entry domain-spawning
   executor lost the race.  The oracle must reject the tag, not just the
   mapping. *)
let oracle_rejects_parallel_carried () =
  let racy =
    { extents = [ Lit 2 ];
      n_value = 3;
      inputs = [ ("a0", 1) ];
      comps =
        [ { rc_name = "c0"; rc_rank = 1; rc_red = None; rc_expr = Const 6 };
          { rc_name = "c1"; rc_rank = 1; rc_red = None; rc_expr = Prod "c0" };
          { rc_name = "c2"; rc_rank = 1; rc_red = None; rc_expr = Const 1 } ];
      steps =
        [ Fuse ("c1", "c0", "i");
          Vectorize ("c0", "i", 4);
          Parallelize ("c2", "i");
          Fuse ("c2", "c1", "i") ] }
  in
  check_rejected "dep carried by a third comp's parallel tag" racy;
  (* Same fusion without the parallel tag is ordered by the mapping. *)
  check_pass "same fusion untagged"
    { racy with
      steps =
        [ Fuse ("c1", "c0", "i");
          Vectorize ("c0", "i", 4);
          Fuse ("c2", "c1", "i") ] };
  check_rejected "dep carried under split + parallel fusion"
    { extents = [ Lit 1; Lit 1; Lit 2 ];
      n_value = 5;
      inputs = [];
      comps =
        [ { rc_name = "c0"; rc_rank = 3; rc_red = None; rc_expr = Const 1 };
          { rc_name = "c1"; rc_rank = 3; rc_red = None; rc_expr = Prod "c0" } ];
      steps =
        [ Fuse ("c1", "c0", "l");
          Parallelize ("c0", "j");
          Split ("c0", "i", 4) ] }

(* ---------- directed: floored div/mod (loop-IR level) ---------- *)

let bits_equal (a : B.Buffers.t) (b : B.Buffers.t) =
  Array.length a.B.Buffers.data = Array.length b.B.Buffers.data
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a.B.Buffers.data b.B.Buffers.data

(* Interp vs every Exec configuration on a hand-built loop IR stmt: the
   tape on and off, crossed with the statement compiled verbatim and after
   the pipeline's statement passes ([Pipeline.prepare]). *)
let differential_stmt ?(strategies = [ `Seq ]) ~shapes ~fills stmt outs =
  let mk () =
    List.map
      (fun (name, dims) ->
        let b = B.Buffers.create name (Array.of_list dims) in
        (match List.assoc_opt name fills with
        | Some f -> B.Buffers.fill b f
        | None -> ());
        b)
      shapes
  in
  let t = B.Interp.create ~params:[] ~buffers:(mk ()) () in
  B.Interp.run t stmt;
  List.iter
    (fun strategy ->
      List.iter
        (fun (tape, prepared) ->
          let s =
            if prepared then
              Tiramisu_pipeline.Pipeline.prepare ~params:[] stmt
            else stmt
          in
          let c =
            B.Exec.compile
              ~target:(B.Target.cpu ~parallel:strategy ())
              ~tape ~params:[] ~buffers:(mk ()) s
          in
          B.Exec.run c;
          List.iter
            (fun o ->
              Alcotest.(check bool)
                (Printf.sprintf "%s bit-identical (tape=%b prepared=%b)" o
                   tape prepared)
                true
                (bits_equal (B.Interp.buffer t o) (B.Exec.buffer c o)))
            outs)
        [ (true, true); (false, true); (true, false); (false, false) ])
    strategies

(* i - 5 over i in [0, 9] gives negative numerators for both / and mod:
   floored semantics must agree between the interpreter and the executor
   (and differ from C's truncation, which the emod/floord helpers paper
   over in the C emitter). *)
let floored_div_mod_negative () =
  let num = L.(Bin (Sub, Var "i", Int 5)) in
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 9; tag = L.Seq;
        body =
          L.Block
            [
              L.Store ("q", [ L.Var "i" ], L.(Bin (FloorDiv, num, Int 3)));
              L.Store ("m", [ L.Var "i" ], L.(Bin (Mod, num, Int 3)));
              L.Store ("qn", [ L.Var "i" ], L.(Bin (FloorDiv, num, Int (-3))));
              L.Store ("mn", [ L.Var "i" ], L.(Bin (Mod, num, Int (-3))));
            ] }
  in
  differential_stmt stmt
    [ "q"; "m"; "qn"; "mn" ]
    ~shapes:[ ("q", [ 10 ]); ("m", [ 10 ]); ("qn", [ 10 ]); ("mn", [ 10 ]) ]
    ~fills:[];
  (* Pin the convention itself: floored, result takes the divisor's sign. *)
  let module I = Tiramisu_support.Ints in
  Alcotest.(check int) "fdiv (-5) 3" (-2) (I.fdiv (-5) 3);
  Alcotest.(check int) "emod (-5) 3" 1 (I.emod (-5) 3);
  Alcotest.(check int) "fdiv 5 (-3)" (-2) (I.fdiv 5 (-3));
  Alcotest.(check int) "emod 5 (-3)" (-1) (I.emod 5 (-3))

(* The C emitter must route % through the emod helper (and define it). *)
let c_emits_emod () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int (-4); hi = L.Int 4; tag = L.Seq;
        body =
          L.Store
            ( "out",
              [ L.Var "i" ],
              L.(Bin (Add, Bin (Mod, Var "i", Int 3),
                      Bin (FloorDiv, Var "i", Int 3))) ) }
  in
  let src =
    Tiramisu_codegen.C_emit.emit_function ~name:"k" ~params:[]
      ~buffers:[ ("out", [| 9 |]) ] stmt
  in
  let contains s sub = Astring.String.is_infix ~affix:sub s in
  Alcotest.(check bool) "emod helper defined" true
    (contains src "static inline int emod");
  Alcotest.(check bool) "mod emitted as emod call" true
    (contains src "emod(i, 3)");
  Alcotest.(check bool) "floordiv emitted as floord call" true
    (contains src "floord(i, 3)");
  Alcotest.(check bool) "no raw %% emitted in the body" false
    (contains src "i % 3")

(* ---------- directed: pragma placement ---------- *)

(* Every #pragma line must be immediately followed by its for-line — never
   separated by a guard if, a comment, or another statement. *)
let pragma_adjacency () =
  let inner tag =
    L.For
      { var = "j"; lo = L.Int 0; hi = L.Var "m"; tag;
        body = L.Store ("out", [ L.Var "j" ], L.Float 1.0) }
  in
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 7; tag = L.Parallel;
        body =
          L.Block
            [
              L.Comment "guarded vector loop";
              L.If
                ( L.Cmp (L.GeOp, L.Var "m", L.Int 0),
                  L.Block [ inner (L.Vectorized 4); inner L.Unrolled ],
                  None );
            ] }
  in
  let src =
    Tiramisu_codegen.C_emit.emit_function ~name:"k" ~params:[ "m" ]
      ~buffers:[ ("out", [| 64 |]) ] stmt
  in
  let lines =
    List.map String.trim (String.split_on_char '\n' src)
  in
  let rec check = function
    | p :: next :: rest ->
        if Astring.String.is_prefix ~affix:"#pragma" p then
          Alcotest.(check bool)
            (Printf.sprintf "pragma %S binds to a for-line (got %S)" p next)
            true
            (Astring.String.is_prefix ~affix:"for (" next);
        check (next :: rest)
    | _ -> ()
  in
  check lines;
  Alcotest.(check int) "all three pragmas emitted" 3
    (List.length
       (List.filter (Astring.String.is_prefix ~affix:"#pragma") lines))

(* ---------- directed: pool exception propagation ---------- *)

let pool_exception_propagates () =
  B.Pool.set_num_workers 4;
  (match
     B.Pool.parallel_for 0 10_000 ~body:(fun lo _hi ->
         if lo >= 0 then failwith "boom")
   with
  | () -> Alcotest.fail "expected the worker failure to surface"
  | exception Failure m ->
      Alcotest.(check string) "original exception surfaces" "boom" m);
  (* The pool survives the failed job: later loops run normally. *)
  let sum = Atomic.make 0 in
  B.Pool.parallel_for 1 100 ~body:(fun lo hi ->
      let s = ref 0 in
      for i = lo to hi do
        s := !s + i
      done;
      ignore (Atomic.fetch_and_add sum !s));
  Alcotest.(check int) "pool usable after a failure" 5050 (Atomic.get sum)

(* An out-of-bounds store inside a Parallel loop must surface as the
   original Invalid_argument through both runtime strategies. *)
let exec_parallel_exceptions () =
  B.Pool.set_num_workers 4;
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 999; tag = L.Parallel;
        body = L.Store ("out", [ L.Var "i" ], L.Float 1.0) }
  in
  List.iter
    (fun (name, strategy) ->
      let out = B.Buffers.create "out" [| 10 |] in
      let c =
        B.Exec.compile
          ~target:(B.Target.cpu ~parallel:strategy ())
          ~params:[] ~buffers:[ out ] stmt
      in
      match B.Exec.run c with
      | () -> Alcotest.failf "%s: expected Invalid_argument" name
      | exception Invalid_argument _ -> ())
    [ ("pool", `Pool); ("seq", `Seq) ]

(* ---------- directed: per-compile counters ---------- *)

let counters_per_compile () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 3; tag = L.Parallel;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 63; tag = L.Unrolled;
              body =
                L.Store
                  ( "out",
                    [ L.Var "i"; L.Var "j" ],
                    L.(Bin (Mul, Load ("a", [ Var "i"; Var "j" ]), Float 2.0))
                  ) } }
  in
  let mk () =
    [ B.Buffers.create "a" [| 4; 64 |]; B.Buffers.create "out" [| 4; 64 |] ]
  in
  let compile strategy =
    B.Exec.compile
      ~target:(B.Target.cpu ~parallel:strategy ())
      ~params:[] ~buffers:(mk ()) stmt
  in
  let c1 = compile `Pool and c2 = compile `Pool in
  Alcotest.(check int) "tape_count identical across recompiles"
    (B.Exec.tape_count c1) (B.Exec.tape_count c2);
  Alcotest.(check int) "static_count identical across recompiles"
    (B.Exec.static_count c1) (B.Exec.static_count c2);
  Alcotest.(check int) "no pool loops under Seq" 0
    (B.Exec.static_count (compile `Seq))

(* ---------- property: random seeds all pass ---------- *)

let prop_random_seeds =
  QCheck.Test.make ~count:40 ~name:"fuzz seeds pass differentially"
    (QCheck.make QCheck.Gen.(int_range 10_000 99_999))
    (fun seed ->
      match Fuzz.run_seed seed with
      | _, Differential.Pass -> true
      | _, o ->
          QCheck.Test.fail_reportf "seed %d: %s" seed
            (Differential.outcome_str o))

(* ---------- time limits ----------

   The fuzzer's guards budget CPU time, so a seed generates and judges the
   same case on an idle and on a busy machine; and a [Timeout] that lands
   in a pass's differential-verify probe propagates to the guard instead
   of being judged as "probe skipped" or "pass broke the program". *)

let cpu_limit_ignores_waiting () =
  let module Lm = Tiramisu_support.Limits in
  Alcotest.(check (option int)) "1.5 s asleep under a 1 s CPU limit" (Some 7)
    (Lm.with_time_limit ~cpu:true 1 (fun () -> Unix.sleepf 1.5; 7));
  let spin () =
    let r = ref [] in
    while true do r := [ 1 ] :: List.tl ([] :: !r) done
  in
  Alcotest.(check (option unit)) "a busy loop is stopped" None
    (Lm.with_time_limit ~cpu:true 1 spin)

let probe_timeout_propagates () =
  let module P = Tiramisu_pipeline.Pipeline in
  let module Lm = Tiramisu_support.Limits in
  let b = Case.build corpus_widen in
  let probe =
    Differential.probe_of b.fn ~params:b.params
      ~fills:(List.map (fun (n, _) -> (n, fun _ -> raise Lm.Timeout)) b.fills)
      ~outputs:b.outputs
  in
  let tracer = P.make_tracer ~probe ~name:"timeout" () in
  match P.lower ~tracer b.fn with
  | exception Lm.Timeout -> ()
  | exception e -> Alcotest.failf "lower raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "the probe's Timeout was swallowed"

let tests =
  [
    Alcotest.test_case "replay corpus" `Quick replay_corpus;
    Alcotest.test_case "oracle rejects inverted order" `Quick
      oracle_rejects_inverted_order;
    Alcotest.test_case "oracle rejects reversed reduction" `Quick
      oracle_rejects_reversed_reduction;
    Alcotest.test_case "oracle accepts legal reduction schedule" `Quick
      oracle_accepts_legal_reduction;
    Alcotest.test_case "oracle rejects parallel-carried dependences" `Quick
      oracle_rejects_parallel_carried;
    Alcotest.test_case "floored div/mod on negative operands" `Quick
      floored_div_mod_negative;
    Alcotest.test_case "C emitter uses emod/floord helpers" `Quick c_emits_emod;
    Alcotest.test_case "pragmas bind to their for-line" `Quick pragma_adjacency;
    Alcotest.test_case "pool propagates worker exceptions" `Quick
      pool_exception_propagates;
    Alcotest.test_case "exec surfaces exceptions from parallel loops" `Quick
      exec_parallel_exceptions;
    Alcotest.test_case "counters are per-compile" `Quick counters_per_compile;
    Alcotest.test_case "tape corpus reaches the tape" `Quick
      tape_corpus_reaches_tape;
    Alcotest.test_case "vector corpus reaches the vector tier" `Quick
      vector_corpus_reaches_vector;
    Alcotest.test_case "pool corpus reaches both pool schedules" `Quick
      pool_corpus_reaches_both_schedules;
    Alcotest.test_case "pool rows run widen-parallel" `Quick
      pool_rows_run_widen_parallel;
    QCheck_alcotest.to_alcotest prop_random_seeds;
    Alcotest.test_case "fuzz time limits count CPU, not waiting" `Quick
      cpu_limit_ignores_waiting;
    Alcotest.test_case "a Timeout in a verify probe propagates" `Quick
      probe_timeout_propagates;
  ]

let () =
  B.Pool.set_num_workers 4;
  Alcotest.run "fuzz" [ ("differential-fuzz", tests) ]
