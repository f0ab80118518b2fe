(* The flat-tape executor must be invisible: every nest it claims —
   rectangular, accumulating, parallel-prefixed, zero-trip — must produce
   bit-for-bit the floats the reference interpreter produces, the closure
   fallback must still be taken (and counted) when the whole-box corner
   check fails, and the compile cache must never serve a closure artifact
   when the tape is requested (or vice versa). *)

open Tiramisu_codegen
module L = Loop_ir
module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline

(* Interp vs exec on identical fresh buffer sets; returns the compiled
   program so callers can assert on the tape counters. *)
let differential ?(strategy = `Seq) ?(tape = true) ?lanes ?(params = [])
    ~shapes ~fills stmt outs =
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
  let t = B.Interp.create ~params ~buffers:(mk ()) () in
  B.Interp.run t stmt;
  let c =
    B.Exec.compile
      ~target:(B.Target.cpu ~parallel:strategy ())
      ?claims:(if tape then None else Some Tape_gen.no_claims)
      ?lanes ~params ~buffers:(mk ()) stmt
  in
  B.Exec.run c;
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (o ^ " bit-identical to interpreter")
        true
        (B.Buffers.bits_equal (B.Interp.buffer t o) (B.Exec.buffer c o)))
    outs;
  c

let fill_a idx =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7)) mod 29) /. 7.0

let fill_b idx = float_of_int ((idx.(0) * 5) mod 17) /. 3.0

let store buf idx v = L.Store (buf, idx, v)

(* blur-like: 2-deep rectangular nest, 3-point stencil along j *)
let blur_nest ?(tag_i = L.Seq) ?(tag_j = L.Seq) ?(hi_i = 19) ?(hi_j = 29) ()
    =
  L.For
    { var = "i"; lo = L.Int 0; hi = L.Int hi_i; tag = tag_i;
      body =
        L.For
          { var = "j"; lo = L.Int 0; hi = L.Int hi_j; tag = tag_j;
            body =
              store "out"
                [ L.Var "i"; L.Var "j" ]
                L.(
                  Bin
                    ( Mul,
                      Bin
                        ( Add,
                          Bin
                            ( Add,
                              Load ("a", [ Var "i"; Var "j" ]),
                              Load ("a", [ Var "i"; Bin (Add, Var "j", Int 1) ])
                            ),
                          Load ("a", [ Var "i"; Bin (Add, Var "j", Int 2) ]) ),
                      Float (1.0 /. 3.0) )) } }

let blur_shapes ?(hi_i = 19) ?(hi_j = 29) () =
  [ ("a", [ hi_i + 1; hi_j + 3 ]); ("out", [ hi_i + 1; hi_j + 1 ]) ]

(* sgemm-like: k-accumulation into out[i,j], read-modify-write leaf *)
let gemm_nest ?(tag_i = L.Seq) ?(tag_j = L.Seq) ~n () =
  L.For
    { var = "i"; lo = L.Int 0; hi = L.Int (n - 1); tag = tag_i;
      body =
        L.For
          { var = "j"; lo = L.Int 0; hi = L.Int (n - 1); tag = tag_j;
            body =
              L.For
                { var = "k"; lo = L.Int 0; hi = L.Int (n - 1); tag = L.Seq;
                  body =
                    store "out"
                      [ L.Var "i"; L.Var "j" ]
                      L.(
                        Bin
                          ( Add,
                            Load ("out", [ Var "i"; Var "j" ]),
                            Bin
                              ( Mul,
                                Load ("a", [ Var "i"; Var "k" ]),
                                Load ("b", [ Var "k"; Var "j" ]) ) )) } } }

let gemm_shapes n = [ ("a", [ n; n ]); ("b", [ n; n ]); ("out", [ n; n ]) ]

(* ---------- sequential claims ---------- *)

let blur_claimed () =
  let c =
    differential (blur_nest ()) [ "out" ] ~shapes:(blur_shapes ())
      ~fills:[ ("a", fill_a) ]
  in
  Alcotest.(check bool) "tape claimed the nest" true (B.Exec.tape_count c >= 1);
  Alcotest.(check bool) "instructions counted" true (B.Exec.tape_instrs c > 0);
  Alcotest.(check int) "no runtime fallback" 0 (B.Exec.tape_fallbacks c)

let gemm_accumulator () =
  let c =
    differential (gemm_nest ~n:17 ()) [ "out" ] ~shapes:(gemm_shapes 17)
      ~fills:[ ("a", fill_a); ("b", fill_b) ]
  in
  Alcotest.(check bool) "tape claimed the nest" true (B.Exec.tape_count c >= 1)

let gemm_disassembles_fma () =
  match Result.to_option (Tape_gen.classify (gemm_nest ~n:8 ())) with
  | None -> Alcotest.fail "gemm nest not claimable"
  | Some p ->
      let dis = Tape_gen.disassemble p in
      Alcotest.(check bool)
        "accumulator fused to fma" true
        (Astring.String.is_infix ~affix:"fma" dis);
      Alcotest.(check bool)
        "summary reports depth 3" true
        (Astring.String.is_infix ~affix:"depth=3" (Tape_gen.summary p))

let zero_trip () =
  (* inner extent 0: nothing must be stored, nothing must crash *)
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 4; tag = L.Seq;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int (-1); tag = L.Seq;
              body =
                store "out" [ L.Var "i"; L.Var "j" ] (L.Load ("a", [ L.Var "i"; L.Var "j" ])) } }
  in
  let c =
    differential stmt [ "out" ]
      ~shapes:[ ("a", [ 5; 3 ]); ("out", [ 5; 3 ]) ]
      ~fills:[ ("a", fill_a) ]
  in
  ignore c

let one_trip () =
  let stmt = blur_nest ~hi_i:0 ~hi_j:0 () in
  let c =
    differential stmt [ "out" ] ~shapes:(blur_shapes ~hi_i:0 ~hi_j:0 ())
      ~fills:[ ("a", fill_a) ]
  in
  Alcotest.(check bool) "tape claimed 1x1 nest" true (B.Exec.tape_count c >= 1)

(* Corner-check failure: i runs one row past [out]'s extent.  The tape
   detects it at nest entry, counts a fallback, and the closure path
   raises the same per-access error the interpreter raises. *)
let fallback_parity () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 5; tag = L.Seq;
        body = store "out" [ L.Var "i" ] (L.Float 1.0) }
  in
  let bufs () = [ B.Buffers.create "out" [| 5 |] ] in
  let interp_err =
    let t = B.Interp.create ~buffers:(bufs ()) () in
    try
      B.Interp.run t stmt;
      None
    with Invalid_argument m -> Some m
  in
  let c = B.Exec.compile
      ~target:(B.Target.cpu ~parallel:`Seq ())
      ~params:[] ~buffers:(bufs ()) stmt in
  Alcotest.(check bool) "tape claimed" true (B.Exec.tape_count c = 1);
  let exec_err =
    try
      B.Exec.run c;
      None
    with Invalid_argument m -> Some m
  in
  Alcotest.(check bool) "interpreter raised" true (interp_err <> None);
  Alcotest.(check (option string)) "same error" interp_err exec_err;
  Alcotest.(check int) "fallback counted" 1 (B.Exec.tape_fallbacks c);
  (* the first 5 stores land before the raise, exactly like the interp *)
  Alcotest.(check (float 0.0))
    "stores before the fault landed" 1.0
    (B.Exec.buffer c "out").B.Buffers.data.(4)

(* Stencil taps share one corner check over their extreme offsets: a
   nest whose lowest tap alone, or whose highest tap alone, leaves the
   buffer must still fail the check and fault exactly like the
   interpreter. *)
let stencil_tap_fallback () =
  List.iter
    (fun (lo_tap, hi_tap) ->
      let tap k =
        L.Load ("a", [ L.(Bin (Add, Var "i", Int k)) ])
      in
      let stmt =
        L.For
          { var = "i"; lo = L.Int 0; hi = L.Int 5; tag = L.Seq;
            body =
              store "out" [ L.Var "i" ]
                L.(Bin (Add, Bin (Add, tap lo_tap, tap 0), tap hi_tap)) }
      in
      let bufs () =
        let a = B.Buffers.create "a" [| 6 |] in
        B.Buffers.fill a (fun idx -> float_of_int idx.(0));
        [ a; B.Buffers.create "out" [| 6 |] ]
      in
      let run f = try f (); None with Invalid_argument m -> Some m in
      let t = B.Interp.create ~buffers:(bufs ()) () in
      let interp_err = run (fun () -> B.Interp.run t stmt) in
      let c =
        B.Exec.compile
          ~target:(B.Target.cpu ~parallel:`Seq ())
          ~params:[] ~buffers:(bufs ()) stmt
      in
      let name = Printf.sprintf "taps %d/%d" lo_tap hi_tap in
      Alcotest.(check bool) (name ^ ": interpreter raised") true
        (interp_err <> None);
      Alcotest.(check (option string)) (name ^ ": same error") interp_err
        (run (fun () -> B.Exec.run c));
      Alcotest.(check int) (name ^ ": fallback counted") 1
        (B.Exec.tape_fallbacks c))
    [ (-1, 0); (0, 1) ]

let tape_off_control () =
  let c =
    differential ~tape:false (blur_nest ()) [ "out" ]
      ~shapes:(blur_shapes ()) ~fills:[ ("a", fill_a) ]
  in
  Alcotest.(check int) "no nest claimed with tape off" 0 (B.Exec.tape_count c);
  Alcotest.(check int) "no instructions" 0 (B.Exec.tape_instrs c)

(* ---------- parallel claims ---------- *)

let parallel_fused () =
  B.Pool.set_num_workers 4;
  let stmt = blur_nest ~tag_i:L.Parallel ~tag_j:L.Parallel () in
  let c =
    differential ~strategy:`Pool stmt [ "out" ] ~shapes:(blur_shapes ())
      ~fills:[ ("a", fill_a) ]
  in
  Alcotest.(check bool)
    "tape claimed the doubly-parallel nest" true
    (B.Exec.tape_count c >= 1)

let parallel_accumulator () =
  B.Pool.set_num_workers 4;
  let stmt = gemm_nest ~tag_i:L.Parallel ~n:13 () in
  let c =
    differential ~strategy:`Pool stmt [ "out" ] ~shapes:(gemm_shapes 13)
      ~fills:[ ("a", fill_a); ("b", fill_b) ]
  in
  Alcotest.(check bool)
    "tape claimed the parallel reduction nest" true
    (B.Exec.tape_count c >= 1)

(* ---------- lane-batched (vector) execution ---------- *)

(* The stencil's inner extent (30) is not a lane multiple, so the vector
   path must run 3 full batches of 8 plus a 6-element scalar epilogue —
   and still match the interpreter bitwise. *)
let vector_claimed_bit_exact () =
  let c =
    differential ~shapes:(blur_shapes ()) ~fills:[ ("a", fill_a) ]
      (blur_nest ()) [ "out" ]
  in
  Alcotest.(check bool) "vector tier engaged" true
    (B.Exec.tape_vec_count c >= 1);
  Alcotest.(check int) "compiled at the default width" B.Tape.default_lanes
    (B.Exec.tape_lanes c);
  Alcotest.(check int) "no runtime fallback" 0 (B.Exec.tape_fallbacks c)

(* Same nest at lanes=1: the scalar tape, still claimed, zero vector
   bindings — the benchmarks' vector-off control. *)
let lanes_off_control () =
  let c =
    differential ~lanes:1 ~shapes:(blur_shapes ()) ~fills:[ ("a", fill_a) ]
      (blur_nest ()) [ "out" ]
  in
  Alcotest.(check bool) "still claimed" true (B.Exec.tape_count c >= 1);
  Alcotest.(check int) "no vector bindings" 0 (B.Exec.tape_vec_count c);
  Alcotest.(check int) "reports scalar" 0 (B.Exec.tape_lanes c)

(* The widths the multi-batch tests run at: the default, which the
   binding fits down to the segment, and narrow ones that split a
   segment into many full batches plus a narrower tail. *)
let test_widths = [ 2; 3; 8; B.Tape.default_lanes ]

(* Extents around, below and above the lane widths: 37 (full batches and
   a narrower tail), 8, 0/1/3 (shorter than a batch, or one leftover
   iteration), 256/257 and 600 (several default-width batches, a single
   scalar leftover, an 88-wide tail). *)
let vector_epilogue_extents () =
  List.iter
    (fun lanes ->
      List.iter
        (fun hi_j ->
          let shapes = blur_shapes ~hi_j () in
          let c =
            differential ~lanes ~shapes ~fills:[ ("a", fill_a) ]
              (blur_nest ~hi_j ()) [ "out" ]
          in
          Alcotest.(check int)
            (Printf.sprintf "lanes=%d hi_j=%d: no fallback" lanes hi_j)
            0 (B.Exec.tape_fallbacks c))
        [ 36; 7; 0; 2; 255; 256; 599 ])
    test_widths

(* ---------- register-blocked reductions: outer lanes ---------- *)

let lane_mode_str c =
  String.concat "; "
    (List.map
       (fun (n, m) -> n ^ ": " ^ B.Tape.mode_to_string m)
       (B.Exec.lane_modes c))

let lane_modes_of c =
  List.map (fun (_, m) -> B.Tape.mode_to_string m) (B.Exec.lane_modes c)

(* An accumulator nest batches along the level above its reduction
   whatever that level's tag: the bind-time proofs (the body reads
   neither lane variable, the accumulator moves along the level) make it
   exact, not the schedule.  An untagged gemm binds a 2-D block of [out]
   (rows along [i], lanes along [j]), as does one with [j] unrolled, and
   both match the interpreter bit for bit. *)
let untagged_gemm_binds_outer () =
  List.iter
    (fun (label, tag_j) ->
      let c =
        differential ~shapes:(gemm_shapes 9)
          ~fills:[ ("a", fill_a); ("b", fill_b) ]
          (gemm_nest ~tag_j ~n:9 ()) [ "out" ]
      in
      Alcotest.(check (list string))
        (label ^ ": outer block") [ "outer i x9 × j x9" ] (lane_modes_of c);
      Alcotest.(check int) (label ^ ": no fallback") 0
        (B.Exec.tape_fallbacks c))
    [ ("untagged j", L.Seq); ("unrolled j", L.Unrolled) ]

(* An accumulator with no level above its reduction outside the
   parallel prefix has nothing to batch along and stays scalar, still
   exact: a gemm with [i] and [j] both parallel (a worker boundary would
   split a lane run), and a depth-1 reduction [out[0] += a[k]]. *)
let no_lane_level_stays_scalar () =
  B.Pool.set_num_workers 4;
  let no_lane nest =
    nest ^ ": "
    ^ B.Tape.mode_to_string (B.Tape.Scalar B.Tape.Accum_no_lane_level)
  in
  Alcotest.(check string) "parallel i.j" (no_lane "i.j.k")
    (lane_mode_str
       (differential ~strategy:`Pool ~shapes:(gemm_shapes 9)
          ~fills:[ ("a", fill_a); ("b", fill_b) ]
          (gemm_nest ~tag_i:L.Parallel ~tag_j:L.Parallel ~n:9 ())
          [ "out" ]));
  let depth1 =
    L.For
      { var = "k"; lo = L.Int 0; hi = L.Int 11; tag = L.Seq;
        body =
          store "out" [ L.Int 0 ]
            L.(Bin (Add, Load ("out", [ Int 0 ]), Load ("a", [ Var "k" ]))) }
  in
  Alcotest.(check string) "depth 1" (no_lane "k")
    (lane_mode_str
       (differential ~shapes:[ ("a", [ 12 ]); ("out", [ 1 ]) ]
          ~fills:[ ("a", fun idx -> float_of_int ((idx.(0) * 5) mod 7) /. 3.0) ]
          depth1 [ "out" ]))

(* Fractional fills, so a reassociated sum would show in the low bits. *)
let sgemm_inputs =
  let f k idx =
    float_of_int ((((idx.(0) * 13) + (idx.(1) * 7) + k) mod 29) - 14) /. 7.0
  in
  [ ("A", f 1); ("B", f 2); ("C0", f 3) ]

let sgemm_configs =
  let open Tiramisu_kernels in
  [ ("bench config", Linalg.sgemm_tuned ~bi:8 ~bj:8 ~bk:8 ~vec:4 ~unr:2);
    ("tuned", fun f -> Linalg.sgemm_tuned f) ]

(* The interpreter on the unscheduled sgemm, once per size. *)
let sgemm_reference =
  let memo = Hashtbl.create 8 in
  fun s ->
    match Hashtbl.find_opt memo s with
    | Some r -> r
    | None ->
        let f, _, _ = Tiramisu_kernels.Linalg.sgemm () in
        let r =
          B.Interp.buffer
            (Tiramisu_kernels.Runner.run ~fn:f ~params:[ ("S", s) ]
               ~inputs:sgemm_inputs)
            "C"
        in
        Hashtbl.replace memo s r;
        r

(* sgemm under a hand configuration at size [s], lanes [lanes] and
   strategy [strategy], checked bit for bit against the interpreter on
   the unscheduled program. *)
let sgemm_native ?lanes ?(strategy = `Seq) (label, sched) s =
  let open Tiramisu_kernels in
  let params = [ ("S", s) ] in
  let f, _, _ = Linalg.sgemm () in
  sched f;
  let c =
    Runner.run_native
      ~target:(B.Target.cpu ~parallel:strategy ())
      ?lanes ~fn:f ~params ~inputs:sgemm_inputs ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s S=%d lanes=%s bit-exact" label s
       (match lanes with Some l -> string_of_int l | None -> "default"))
    true
    (B.Buffers.bits_equal (sgemm_reference s) (B.Exec.buffer c "C"));
  c

(* sgemm's update nest is the claimed nest whose innermost level is the
   reduction [k1]: it binds a 2-D block of accumulators, rows along
   [i1_1] (C's row stride clears the whole run) and lanes along the
   vectorized level above [k1], merged with [j1_1] into one run.  The
   benchmark's 8 x (2 x 4) tile is one 64-lane block at every size that
   is a multiple of 8; [tuned]'s 32 x (8 x 8) tile fits two 64-wide runs
   into the default 128 lanes at S=64, and 8 whole rows when S is 8 or
   16.
   Every binding runs with no fallback and matches the interpreter on
   the unscheduled program bit for bit. *)
let sgemm_outer_lanes () =
  let block rows width =
    Some
      (B.Tape.Outer
         { rows = Some ("i1_1", rows); level = "j1_v_1_ln"; width })
  in
  List.iter
    (fun ((label, _) as config, s, want) ->
      let c = sgemm_native config s in
      let update =
        List.find_map
          (fun (n, m) ->
            if String.ends_with ~suffix:".k1" n then Some m else None)
          (B.Exec.lane_modes c)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s S=%d update nest block (%s)" label s
           (lane_mode_str c))
        true (update = want);
      Alcotest.(check int)
        (Printf.sprintf "%s S=%d no fallback" label s)
        0 (B.Exec.tape_fallbacks c))
    (let bench = List.nth sgemm_configs 0
     and tuned = List.nth sgemm_configs 1 in
     [ (bench, 8, block 8 8); (bench, 16, block 8 8); (bench, 64, block 8 8);
       (tuned, 8, block 8 8); (tuned, 16, block 8 16);
       (tuned, 64, block 2 64) ])

(* Both configurations stay bit-exact wherever the blocks land: sizes
   with partial tiles (1, 3, 13, 70), runs shorter than a batch and row
   counts that leave a short last chunk (24 under [tuned]: 5 rows of 24),
   at widths that give 1-D runs (3), 8- and 20-lane budgets, the default,
   and the scalar control, sequentially and on the pool. *)
let sgemm_blocks_bit_exact () =
  B.Pool.set_num_workers 2;
  List.iter
    (fun config ->
      List.iter
        (fun s ->
          List.iter
            (fun lanes ->
              List.iter
                (fun strategy ->
                  let c = sgemm_native ?lanes ~strategy config s in
                  Alcotest.(check int) "no fallback" 0
                    (B.Exec.tape_fallbacks c))
                [ `Seq; `Pool ])
            [ Some 1; Some 3; Some 8; Some 20; None ])
        [ 1; 3; 13; 24; 70 ])
    sgemm_configs

(* out[i][j] += a[i][k] * b[k][j], j vectorized above k, i the level
   above the lane run; [row] is out's row stride.  A stride of at least
   the run (8) makes i a row level; a stride of 3 makes rows overlap. *)
let blocked_gemm ?(strategy = `Seq) ?(tag_i = L.Seq) ?(row_factor = L.Float 1.0)
    ~row () =
  let i = L.Var "i" and j = L.Var "j" and k = L.Var "k" in
  let at = L.(Bin (Add, Bin (Mul, Int row, i), j)) in
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 5; tag = tag_i;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 7; tag = L.Vectorized 8;
              body =
                L.For
                  { var = "k"; lo = L.Int 0; hi = L.Int 4; tag = L.Seq;
                    body =
                      store "out" [ at ]
                        L.(
                          Bin
                            ( Add,
                              Load ("out", [ at ]),
                              Bin
                                ( Mul,
                                  Bin (Mul, Load ("a", [ i; k ]), row_factor),
                                  Load ("b", [ k; j ]) ) )) } } }
  in
  differential ~strategy
    ~shapes:[ ("a", [ 6; 5 ]); ("b", [ 5; 8 ]); ("out", [ (5 * row) + 8 ]) ]
    ~fills:[ ("a", fill_a); ("b", fill_b); ("out", fill_b) ]
    stmt [ "out" ]

(* The row level's preconditions: a stride that clears the run binds the
   6 x 8 block; overlapping rows, or a body that reads the row variable,
   keep today's 1-D run at its width (and stay exact). *)
let outer_blocks_need_disjoint_unread_rows () =
  Alcotest.(check (list string)) "disjoint rows: 6 x 8 block"
    [ "outer i x6 × j x8" ] (lane_modes_of (blocked_gemm ~row:8 ()));
  Alcotest.(check (list string)) "overlapping rows: 1-D"
    [ "outer j x8" ] (lane_modes_of (blocked_gemm ~row:3 ()));
  Alcotest.(check (list string)) "body reads i: 1-D"
    [ "outer j x8" ]
    (lane_modes_of (blocked_gemm ~row_factor:(L.Var "i") ~row:8 ()))

(* conv2D's [cpu] schedule at 128x128: the steady piece of each unrolled
   channel store is a [j.j_v_ln] nest under the parallel [i], with no
   parallel prefix of its own, so its lane run merges [j] into [j_v_ln]
   down to level 0 and binds all 112 steady columns in one batch.  No
   entry falls back, and the image matches the interpreter on the
   unscheduled program bit for bit. *)
let conv2d_rows_reach_level_zero () =
  let open Tiramisu_kernels in
  let img idx =
    float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31)
    /. 7.0
  in
  let weights idx = float_of_int ((idx.(0) * 3) + idx.(1) + 1) /. 16.0 in
  let inputs = [ ("img", img); ("weights", weights) ] in
  let params = [ ("N", 128); ("M", 128) ] in
  let reference =
    let f, _, _ = Image.conv2d () in
    Runner.run ~fn:f ~params ~inputs
  in
  let f, _, _ = Image.conv2d () in
  Schedules.cpu_conv2d f;
  let c =
    Runner.run_native ~target:(B.Target.cpu ~parallel:`Seq ()) ~fn:f ~params
      ~inputs ()
  in
  Alcotest.(check (list string))
    (Printf.sprintf "three steady nests inner x112 (%s)" (lane_mode_str c))
    [ "inner x112"; "inner x112"; "inner x112" ]
    (List.filter_map
       (fun (n, m) ->
         if n = "j.j_v_ln" then Some (B.Tape.mode_to_string m) else None)
       (B.Exec.lane_modes c));
  Alcotest.(check int) "no fallback" 0 (B.Exec.tape_fallbacks c);
  Alcotest.(check bool) "bit-exact" true
    (B.Buffers.bits_equal (B.Interp.buffer reference "conv")
       (B.Exec.buffer c "conv"))

(* A parallel prefix is the range the pool splits, so the exec-view merge
   never folds into it.  A 20 x 30 copy whose rows linearize merges into
   one run (capped at the 128-lane request) under a sequential [i], but
   binds one 30-wide row per batch under a parallel [i]; an accumulator
   under a parallel [i] keeps its 1-D run, [i] being no row level. *)
let parallel_prefix_never_merged () =
  B.Pool.set_num_workers 4;
  let copy tag_i =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 19; tag = tag_i;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 29; tag = L.Seq;
              body =
                store "out"
                  [ L.Var "i"; L.Var "j" ]
                  L.(Bin (Mul, Load ("a", [ Var "i"; Var "j" ]), Float 2.0)) } }
  in
  let run strategy tag_i =
    differential ~strategy
      ~shapes:[ ("a", [ 20; 30 ]); ("out", [ 20; 30 ]) ]
      ~fills:[ ("a", fill_a) ] (copy tag_i) [ "out" ]
  in
  Alcotest.(check (list string)) "sequential i: one merged run"
    [ "inner x128" ] (lane_modes_of (run `Seq L.Seq));
  Alcotest.(check (list string)) "parallel i: rows stay split"
    [ "inner x30" ] (lane_modes_of (run `Pool L.Parallel));
  Alcotest.(check (list string)) "parallel i: accumulator stays 1-D"
    [ "outer j x8" ]
    (lane_modes_of (blocked_gemm ~strategy:`Pool ~tag_i:L.Parallel ~row:8 ()))

(* out[i] += a[i][j][k] with j vectorized above k: every j position sums
   into the same out[i], so lanes along j would race on one address —
   the accumulator's step along the lane level is 0 and the nest stays
   scalar, still exact.  baryon's unscheduled [Bl[t_1]], summed over an
   untagged [i.j.k], is the same shape in a catalog kernel. *)
let outer_lanes_step_zero_stays_scalar () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 4; tag = L.Seq;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 7; tag = L.Vectorized 8;
              body =
                L.For
                  { var = "k"; lo = L.Int 0; hi = L.Int 5; tag = L.Seq;
                    body =
                      store "out" [ L.Var "i" ]
                        L.(
                          Bin
                            ( Add,
                              Load ("out", [ Var "i" ]),
                              Load ("a", [ Var "i"; Var "j"; Var "k" ]) )) } } }
  in
  let fill3 idx =
    float_of_int (((idx.(0) * 5) + (idx.(1) * 3) + idx.(2)) mod 11) /. 7.0
  in
  let c =
    differential ~shapes:[ ("a", [ 5; 8; 6 ]); ("out", [ 5 ]) ]
      ~fills:[ ("a", fill3) ] stmt [ "out" ]
  in
  Alcotest.(check string)
    "scalar: accumulator step 0 along j"
    ("i.j.k: " ^ B.Tape.mode_to_string (B.Tape.Scalar B.Tape.Accum_step_zero))
    (lane_mode_str c);
  Alcotest.(check int) "not vector-bound" 0 (B.Exec.tape_vec_count c);
  let open Tiramisu_kernels in
  let k = List.find (fun k -> k.Catalog.k_name = "baryon") Catalog.kernels in
  let params = k.Catalog.params_small and inputs = k.Catalog.inputs in
  let reference = Runner.run ~fn:(k.Catalog.build ()) ~params ~inputs in
  let c =
    Runner.run_native ~target:(B.Target.cpu ~parallel:`Seq ())
      ~fn:(k.Catalog.build ()) ~params ~inputs ()
  in
  Alcotest.(check (list string)) "baryon t_1.i.j.k: scalar, step 0"
    [ B.Tape.mode_to_string (B.Tape.Scalar B.Tape.Accum_step_zero) ]
    (List.filter_map
       (fun (n, m) ->
         if n = "t_1.i.j.k" then Some (B.Tape.mode_to_string m) else None)
       (B.Exec.lane_modes c));
  Alcotest.(check bool) "baryon Bl bit-exact" true
    (B.Buffers.bits_equal (B.Interp.buffer reference "Bl")
       (B.Exec.buffer c "Bl"))

(* An unrolled reduction: three stores into the same out[i] per k
   iteration.  They fold into one register accumulator (no store left in
   the body, one fma per store) instead of three loads and stores of
   out[i], and the result stays exact. *)
let unrolled_reduction_one_accumulator () =
  let tap u =
    L.(Bin (Add, Bin (Mul, Int 3, Var "k"), Int u))
  in
  let upd u =
    store "out" [ L.Var "i" ]
      L.(
        Bin
          ( Add,
            Load ("out", [ Var "i" ]),
            Bin (Mul, Load ("a", [ Var "i"; tap u ]), Load ("b", [ tap u ])) ))
  in
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 6; tag = L.Seq;
        body =
          L.For
            { var = "k"; lo = L.Int 0; hi = L.Int 4; tag = L.Seq;
              body = L.Block [ upd 0; upd 1; upd 2 ] } }
  in
  (match Result.to_option (Tape_gen.classify stmt) with
  | None -> Alcotest.fail "unrolled reduction not claimable"
  | Some p ->
      let ops =
        List.init (Tape_gen.instr_count p) (fun k -> p.Tape_gen.p_code.(4 * k))
      in
      Alcotest.(check bool) "one accumulator, initialized from memory" true
        (match p.Tape_gen.p_accum with Some (_, _, true) -> true | _ -> false);
      Alcotest.(check int) "no store in the body" 0
        (List.length (List.filter (( = ) Tape_gen.op_store) ops));
      Alcotest.(check int) "one fma per store" 3
        (List.length (List.filter (( = ) Tape_gen.op_fma) ops)));
  ignore
    (differential ~shapes:[ ("a", [ 7; 15 ]); ("b", [ 15 ]); ("out", [ 7 ]) ]
       ~fills:[ ("a", fill_a); ("b", fun idx -> fill_b [| idx.(0); 0 |]) ]
       stmt [ "out" ])

(* Several stores into one buffer: lanes reorder them across iterations,
   so they batch only when the buffer feeds no load and no lane of one
   store meets a lane of another.  [stores] are (offset, value) pairs of
   [a[stride*i + offset]] over i in 0..36 (four batches and a remainder);
   [b] is the input. *)
let multi_store_nest ~stride stores =
  let i = L.Var "i" in
  L.For
    { var = "i"; lo = L.Int 0; hi = L.Int 36; tag = L.Seq;
      body =
        L.Block
          (List.map
             (fun (off, v) ->
               store "a" [ L.(Bin (Add, Bin (Mul, Int stride, i), Int off)) ] v)
             stores) }

let multi_store_run ~stride stores =
  let shapes = [ ("a", [ (stride * 36) + 8 ]); ("b", [ 37 ]) ] in
  differential ~shapes
    ~fills:[ ("b", fun idx -> float_of_int ((idx.(0) * 7) mod 11) /. 3.0) ]
    (multi_store_nest ~stride stores)
    [ "a" ]

let load_b = L.Load ("b", [ L.Var "i" ])

(* offsets 0/1/2 under stride 3: the offset differences are never a
   multiple of the step, so the stores interleave without meeting *)
let disjoint_stores_vectorize () =
  let c =
    multi_store_run ~stride:3
      [ (0, load_b);
        (1, L.(Bin (Mul, load_b, Float 2.0)));
        (2, L.(Bin (Add, load_b, Float 1.0))) ]
  in
  Alcotest.(check bool) "claimed" true (B.Exec.tape_count c >= 1);
  Alcotest.(check int) "vector-bound" 1 (B.Exec.tape_vec_count c)

(* a[2i] and a[2i+2]: d = s, so iteration i+1's first store overwrites
   iteration i's second one — a lane batch would reverse that *)
let colliding_stores_stay_scalar () =
  let c =
    multi_store_run ~stride:2
      [ (0, load_b); (2, L.(Bin (Mul, load_b, Float 2.0))) ]
  in
  Alcotest.(check bool) "claimed" true (B.Exec.tape_count c >= 1);
  Alcotest.(check int) "not vector-bound" 0 (B.Exec.tape_vec_count c)

(* a[3i] = b[i]; a[3i+1] = a[3i] + 1: the stored buffer is also read
   (through an exact alias of the first store) *)
let loaded_store_buffer_stays_scalar () =
  let c =
    multi_store_run ~stride:3
      [ (0, load_b);
        (1, L.(Bin (Add, Load ("a", [ Bin (Mul, Int 3, Var "i") ]), Float 1.0)))
      ]
  in
  Alcotest.(check bool) "claimed" true (B.Exec.tape_count c >= 1);
  Alcotest.(check int) "not vector-bound" 0 (B.Exec.tape_vec_count c)

(* a[i] and a[i+16]: the stores meet 16 iterations apart, so they batch
   at most 16 wide — the width is capped at the distance instead of the
   nest going scalar — and stay bit-exact against the scalar tape *)
let collision_caps_width () =
  let i = L.Var "i" in
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 36; tag = L.Seq;
        body =
          L.Block
            [ store "a" [ i ] load_b;
              store "a" [ L.(Bin (Add, i, Int 16)) ]
                L.(Bin (Mul, load_b, Float 2.0)) ] }
  in
  let run lanes =
    differential ~lanes
      ~shapes:[ ("a", [ 53 ]); ("b", [ 37 ]) ]
      ~fills:[ ("b", fun idx -> float_of_int ((idx.(0) * 7) mod 11) /. 3.0) ]
      stmt [ "a" ]
  in
  let v = run B.Tape.default_lanes and s = run 1 in
  Alcotest.(check (list string)) "binds inner x16" [ "inner x16" ]
    (List.map (fun (_, m) -> B.Tape.mode_to_string m) (B.Exec.lane_modes v));
  Alcotest.(check bool) "bit-identical to lanes=1" true
    (B.Buffers.bits_equal (B.Exec.buffer v "a") (B.Exec.buffer s "a"))

(* A nest whose exec-inner extent is the constant 24 binds 24 wide, not
   at the default request; a fresh state holds no lane registers, and
   the first vector batch grows them to exactly that width. *)
let fitted_width_lazy_registers () =
  let hi_j = 23 in
  let prog =
    match Result.to_option (Tape_gen.classify (blur_nest ~hi_j ())) with
    | Some p -> p
    | None -> Alcotest.fail "blur nest not claimable"
  in
  let bufs =
    List.map
      (fun (name, dims) ->
        let b = B.Buffers.create name (Array.of_list dims) in
        if name = "a" then B.Buffers.fill b fill_a;
        b)
      (blur_shapes ~hi_j ())
  in
  let t =
    match
      B.Tape.bind ~lanes:B.Tape.default_lanes
        ~buf:(fun n -> List.find_opt (fun b -> b.B.Buffers.name = n) bufs)
        ~slot:(fun _ -> 0) prog
    with
    | Some t -> t
    | None -> Alcotest.fail "blur nest did not bind"
  in
  Alcotest.(check string) "binds inner x24" "inner x24"
    (B.Tape.mode_to_string (B.Tape.mode t));
  let st = B.Tape.new_state t in
  Alcotest.(check int) "fresh state: no lane registers" 0
    (B.Tape.lane_width st);
  let env = [| 0 |] in
  let total = B.Tape.enter t st env in
  Alcotest.(check bool) "in bounds" true (total > 0);
  B.Tape.run_range t st env 0 (total - 1);
  Alcotest.(check int) "grown to the fitted width" 24 (B.Tape.lane_width st)

(* Per-domain tape states ([Pool.per_domain], as the executor keeps
   them): one domain gets the same state on every call, another domain
   its own, and the states go away with the getter (a compiled program
   does not pin its states, lane registers included, for the life of the
   process). *)
let domain_states_owned_by_getter () =
  let bind () =
    let bufs =
      List.map
        (fun (name, dims) -> B.Buffers.create name (Array.of_list dims))
        (blur_shapes ())
    in
    match
      Result.to_option (Tape_gen.classify (blur_nest ()))
      |> Option.map
           (B.Tape.bind ~lanes:B.Tape.default_lanes
              ~buf:(fun n -> List.find_opt (fun b -> b.B.Buffers.name = n) bufs)
              ~slot:(fun _ -> 0))
    with
    | Some (Some t) -> t
    | _ -> Alcotest.fail "blur nest did not bind"
  in
  let domain_state t = B.Pool.per_domain (fun () -> B.Tape.new_state t) in
  let get = domain_state (bind ()) in
  let st = get () in
  Alcotest.(check bool) "same domain, same state" true (get () == st);
  Alcotest.(check bool) "another domain, its own state" true
    (Domain.join (Domain.spawn get) != st);
  let weak = Weak.create 1 in
  let[@inline never] fill () =
    let get = domain_state (bind ()) in
    Weak.set weak 0 (Some (get ()))
  in
  fill ();
  Gc.full_major ();
  Alcotest.(check bool) "state freed with its getter" true
    (Weak.get weak 0 = None)

(* The clamped image kernels under their [cpu] schedules: clamp splitting
   leaves steady pieces the vector tape claims (conv2D's three unrolled
   channel stores share the [conv] buffer), and every size — including
   images too small for a steady piece — stays bit-exact against the
   interpreter on the lowered, unsplit program. *)
let clamped_kernels_vector_claimed () =
  let open Tiramisu_kernels in
  let img idx =
    float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31)
    /. 7.0
  in
  let weights idx = float_of_int ((idx.(0) * 3) + idx.(1) + 1) /. 16.0 in
  let kernels =
    [ ( "conv2D",
        (fun () ->
          let f, _, _ = Image.conv2d () in
          Schedules.cpu_conv2d f;
          f),
        [ ("img", img); ("weights", weights) ],
        "conv" );
      ( "gaussian",
        (fun () ->
          let f, _, _ = Image.gaussian () in
          Schedules.cpu_gaussian f;
          f),
        [ ("img", img) ],
        "gy" ) ]
  in
  let sizes = [ 1; 2; 3; 9; 64 ] in
  List.iter
    (fun (name, build, inputs, out) ->
      List.iter
        (fun n ->
          List.iter
            (fun m ->
              let params = [ ("N", n); ("M", m) ] in
              let interp = Runner.run ~fn:(build ()) ~params ~inputs in
              let c = Runner.run_native ~fn:(build ()) ~params ~inputs () in
              Alcotest.(check bool)
                (Printf.sprintf "%s %dx%d bit-exact" name n m)
                true
                (B.Buffers.bits_equal (B.Interp.buffer interp out)
                   (B.Exec.buffer c out));
              if n = 64 && m = 64 then
                Alcotest.(check bool)
                  (name ^ " 64x64: a vector nest claimed")
                  true
                  (B.Exec.tape_vec_count c >= 1))
            sizes)
        sizes)
    kernels

(* Vector and scalar tapes must produce bit-identical buffers — the
   differential the fuzzer's lanes axis runs, pinned here directly, at
   every test width and at extents that take one batch, several, and a
   narrow tail. *)
let vector_vs_scalar_identical () =
  let run ~hi_j lanes =
    let bufs =
      List.map
        (fun (name, dims) ->
          let b = B.Buffers.create name (Array.of_list dims) in
          if name = "a" then B.Buffers.fill b fill_a;
          b)
        (blur_shapes ~hi_j ())
    in
    let c =
      B.Exec.compile
        ~target:(B.Target.cpu ~parallel:`Seq ())
        ~lanes ~params:[] ~buffers:bufs (blur_nest ~hi_j ())
    in
    B.Exec.run c;
    c
  in
  List.iter
    (fun hi_j ->
      let s = run ~hi_j 1 in
      List.iter
        (fun lanes ->
          let v = run ~hi_j lanes in
          let name = Printf.sprintf "lanes=%d hi_j=%d" lanes hi_j in
          Alcotest.(check bool) (name ^ ": vector run is vector") true
            (B.Exec.tape_vec_count v >= 1 && B.Exec.tape_vec_count s = 0);
          Alcotest.(check bool) (name ^ ": bit-identical") true
            (B.Buffers.bits_equal (B.Exec.buffer v "out")
               (B.Exec.buffer s "out")))
        test_widths)
    [ 29; 257; 599 ]

(* The real blur kernel under its bench schedule (tile + parallelize +
   compute_at + vectorize) lowers with min/floord partial-tile bounds;
   the generator's bound grammar must still claim the work-carrying
   vector nests, and a full run must never take the closure fallback.
   Regression for the one bench kernel that used to fall off the tape. *)
let blur_kernel_claims_vector () =
  let open Tiramisu_core.Tiramisu in
  let f, _, _ = Tiramisu_kernels.Image.blur () in
  let bx = find_comp f "bx" and by = find_comp f "by" in
  tile by "i" "j" 8 8 "i0" "j0" "i1" "j1";
  parallelize by "j0";
  compute_at bx by "j0";
  vectorize by "j1" 8;
  let params = [ ("N", 40); ("M", 28) ] in
  let img i =
    float_of_int (((i.(0) * 13) + (i.(1) * 7) + (i.(2) * 3)) mod 31) /. 7.0
  in
  let c =
    Tiramisu_kernels.Runner.run_native ~fn:f ~params
      ~inputs:[ ("img", img) ] ()
  in
  Alcotest.(check bool) "blur nests tape-claimed" true
    (B.Exec.tape_count c >= 1);
  Alcotest.(check bool) "vector tier engaged" true
    (B.Exec.tape_vec_count c >= 1);
  Alcotest.(check int) "zero runtime fallbacks" 0 (B.Exec.tape_fallbacks c)

(* ---------- reject reasons ---------- *)

(* [classify] names the first check a nest fails, and [claims]
   heads each claimed nest with its enclosing loop's reason: a partial
   tile's vector bound reading [j], a parallel level under a sequential
   one, a GPU tag, and a loop holding two loops. *)
let reject_reasons () =
  let reason s =
    match Tape_gen.classify s with
    | Ok _ -> "claimed"
    | Error r -> Tape_gen.reject_to_string r
  in
  let x = L.Var "x" in
  let leaf v = store "out" [ L.Var "i"; v ] (L.Load ("a", [ L.Var "i"; v ])) in
  let partial =
    L.For
      { var = "j"; lo = L.Int 0; hi = L.Int 3; tag = L.Seq;
        body =
          L.For
            { var = "x"; lo = L.Int 0;
              hi =
                L.(
                  Bin
                    (MinOp, Bin (Sub, Int 29, Bin (Mul, Int 8, Var "j")), Int 7));
              tag = L.Vectorized 8;
              body = leaf L.(Bin (Add, Bin (Mul, Int 8, Var "j"), x)) } }
  in
  let outer =
    L.For { var = "i"; lo = L.Int 0; hi = L.Int 4; tag = L.Seq; body = partial }
  in
  Alcotest.(check string) "partial tile" "bound reads nest variable j"
    (reason outer);
  Alcotest.(check string) "parallel under seq"
    "parallel level below a sequential one"
    (reason (blur_nest ~tag_j:L.Parallel ()));
  Alcotest.(check string) "gpu tag" "non-CPU loop tag"
    (reason (blur_nest ~tag_i:(L.Gpu_block 0) ()));
  Alcotest.(check string) "two loops"
    "not a perfect nest over straight-line stores"
    (reason
       (L.For
          { var = "i"; lo = L.Int 0; hi = L.Int 4; tag = L.Seq;
            body = L.Block [ partial; partial ] }));
  Alcotest.(check (list string)) "claimed nest headed by its parent's reason"
    [ "j: bound reads nest variable j" ]
    (List.map
       (fun c ->
         match c.Tape_gen.cl_parent with
         | Some (v, r) -> v ^ ": " ^ Tape_gen.reject_to_string r
         | None -> "none")
       (Tape_gen.claims outer).Tape_gen.cs_nests)

(* ---------- partial-tile bound cuts ---------- *)

(* blur built, scheduled and compiled through the pipeline on the
   sequential target, with its [narrow] note; the pipeline cache is
   cleared first, since a hit would skip the pass whose note is read. *)
let blur_native ~sched ~n ~m =
  let open Tiramisu_kernels in
  let img i =
    float_of_int (((i.(0) * 13) + (i.(1) * 7) + (i.(2) * 3)) mod 31) /. 7.0
  in
  let params = [ ("N", n); ("M", m) ] and inputs = [ ("img", img) ] in
  let f, _, _ = Image.blur () in
  sched f;
  P.clear_cache ();
  let tracer = P.make_tracer ~name:"blur" () in
  let art =
    Runner.build_native ~tracer ~target:(B.Target.cpu ~parallel:`Seq ())
      ~fn:f ~params ~inputs ()
  in
  B.Exec.run art.P.exec;
  let note =
    match
      List.find_opt
        (fun p -> p.P.p_name = "narrow")
        (P.trace_of tracer).P.t_passes
    with
    | Some p -> p.P.p_note
    | None -> ""
  in
  let reference =
    let f, _, _ = Image.blur () in
    Runner.run ~fn:f ~params ~inputs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%dx%d bit-exact against the unscheduled program" n m)
    true
    (B.Buffers.bits_equal (B.Interp.buffer reference "by")
       (B.Exec.buffer art.P.exec "by"));
  Alcotest.(check int)
    (Printf.sprintf "%dx%d no fallbacks" n m)
    0
    (B.Exec.tape_fallbacks art.P.exec);
  (art.P.exec, note)

let has affix s = Astring.String.is_infix ~affix s

(* blur's [cpu] schedule (tile 32, vectorize 8) at partial-tile sizes:
   [narrow] cuts [j0] where the vector loop's bound [min(.., 7)] folds,
   so the steady tiles' [by] nest is one [i1.j1.j1_v.c_1] claim whose
   [j1 x j1_v x c_1] tile row (4 x 8 x 3) runs as one 96-lane batch; the
   parallel [i0] stays whole.  At an exact-tile
   size there is no partial tile and no bound cut. *)
let blur_steady_tiles_one_claim () =
  List.iter
    (fun n ->
      let c, note =
        blur_native ~sched:(fun f -> Tiramisu_kernels.Schedules.cpu_blur f)
          ~n ~m:n
      in
      let modes = B.Exec.lane_modes c in
      Alcotest.(check bool)
        (Printf.sprintf "%d: steady by nest i1.j1.j1_v.c_1 inner x96 (%s)" n
           (lane_mode_str c))
        true
        (List.assoc_opt "i1.j1.j1_v.c_1" modes = Some (B.Tape.Inner 96));
      Alcotest.(check bool)
        (Printf.sprintf "%d: j0 cut at its partial tile (%s)" n note)
        true
        (has "split j0 at" note && has "(bound j1_v)" note);
      Alcotest.(check bool)
        (Printf.sprintf "%d: parallel i0 not cut (%s)" n note)
        false (has "split i0" note))
    [ 72; 384 ];
  let _, note =
    blur_native ~sched:(fun f -> Tiramisu_kernels.Schedules.cpu_blur f)
      ~n:388 ~m:386
  in
  Alcotest.(check bool)
    (Printf.sprintf "388x386: no bound cut (%s)" note)
    false (has "bound" note)

(* [parallelize i; vectorize j 8] at M = 70: 68 columns, so the last
   8-wide block is partial.  The full blocks run as one [j.j_v.c] claim
   per row; only the partial block is a [j_v.c] claim of its own. *)
let blur_vector_blocks_one_claim () =
  let sched f =
    let open Tiramisu_core.Tiramisu in
    let by = find_comp f "by" in
    parallelize by "i";
    vectorize by "j" 8
  in
  let c, note = blur_native ~sched ~n:24 ~m:70 in
  let by_nests =
    List.filter
      (fun (nest, _) -> has "j_v" nest)
      (B.Exec.lane_modes c)
  in
  Alcotest.(check bool)
    (Printf.sprintf "bound cut on j (%s)" note)
    true (has "(bound j_v)" note);
  Alcotest.(check (list string))
    (Printf.sprintf "full blocks one nest, partial block one nest (%s)"
       (lane_mode_str c))
    [ "j_1.j_v.c_1"; "j_v.c_1" ]
    (List.map fst by_nests)

(* Guarded leaves (the coalesced-nest shape compute_at produces): a block
   of else-less [If]s with identical bodies claims as one piece-bounded
   nest.  [split] chooses where piece 0 ends and piece 1 starts. *)
let pieces_nest ~lo2 =
  let guard op k body = L.If (L.Cmp (op, L.Var "i", L.Int k), body, None) in
  let body =
    store "out"
      [ L.Var "i"; L.Var "j" ]
      L.(Bin (Mul, Load ("inp", [ Var "i"; Var "j" ]), Float 2.0))
  in
  L.For
    { var = "i"; lo = L.Int 0; hi = L.Int 9; tag = L.Seq;
      body =
        L.For
          { var = "j"; lo = L.Int 0; hi = L.Int 5; tag = L.Seq;
            body = L.Block [ guard L.LeOp 4 body; guard L.GeOp lo2 body ] } }

let guarded_pieces_claimed () =
  (* pieces [0..4] and [5..9] tile the union box contiguously: the nest
     runs on the tape with no runtime fallback *)
  let shapes = [ ("inp", [ 10; 6 ]); ("out", [ 10; 6 ]) ] in
  let c =
    differential ~shapes ~fills:[ ("inp", fill_a) ] (pieces_nest ~lo2:5)
      [ "out" ]
  in
  Alcotest.(check int) "nest claimed" 1 (B.Exec.tape_count c);
  Alcotest.(check int) "no fallbacks" 0 (B.Exec.tape_fallbacks c)

let guarded_pieces_gap_falls_back () =
  (* pieces [0..4] and [7..9] leave rows 5..6 unstored: the union box
     over-covers, the per-entry cover check must reject, and the counted
     closure fallback must reproduce the guards bit-exactly *)
  let shapes = [ ("inp", [ 10; 6 ]); ("out", [ 10; 6 ]) ] in
  let c =
    differential ~shapes ~fills:[ ("inp", fill_a) ] (pieces_nest ~lo2:7)
      [ "out" ]
  in
  Alcotest.(check int) "claimed at compile time" 1 (B.Exec.tape_count c);
  Alcotest.(check bool) "cover check took the fallback" true
    (B.Exec.tape_fallbacks c >= 1)

(* Bound construction pays the work budget: blur's compute_at producer
   nest (interval-guarded copies of one stencil, one per piece) claims on
   a budget but a tiny budget stops its bound trees. *)
let guarded_bounds_cost_fuel () =
  let module Limits = Tiramisu_support.Limits in
  let f, _, _ = Tiramisu_kernels.Image.blur () in
  let open Tiramisu_core.Tiramisu in
  let bx = find_comp f "bx" and by = find_comp f "by" in
  tile by "i" "j" 8 8 "i0" "j0" "i1" "j1";
  compute_at bx by "j0";
  let stmt =
    P.prepare ~params:[ ("N", 32); ("M", 32) ]
      (P.lower f).Tiramisu_core.Lower.ast
  in
  let rec nests s =
    match s with
    | L.For { body; _ } -> s :: nests body
    | L.Block l -> List.concat_map nests l
    | L.If (_, a, b) -> nests a @ Option.fold ~none:[] ~some:nests b
    | L.Alloc { body; _ } -> nests body
    | _ -> []
  in
  let rec guarded s =
    match s with
    | L.If _ -> true
    | L.For { body; _ } -> guarded body
    | L.Block l -> List.exists guarded l
    | _ -> false
  in
  match
    List.find_opt
      (fun s -> guarded s && Result.is_ok (Tape_gen.classify s))
      (nests stmt)
  with
  | None -> Alcotest.fail "no claimable guarded nest in blur's compute_at"
  | Some nest ->
      let claims fuel =
        Option.is_some
          (Limits.with_fuel fuel (fun () -> Tape_gen.classify nest))
      in
      Alcotest.(check bool) "claims on a budget" true (claims 10_000);
      Alcotest.(check bool) "a tiny budget stops it" false (claims 10)

(* ---------- qcheck properties ---------- *)

(* Random rectangular 2-deep nests with random affine cursor addressing:
   out[i, a·i + b·j + c] <- in[i, a·i + b·j + c] * 2 + j.  The buffer's
   inner dimension is sized to the maximal index, so the whole box is in
   bounds and the tape must claim and agree with the interpreter — this
   is the cursor-addressing-vs-flat-offsets property. *)
let gen_affine_case =
  QCheck.Gen.(
    let* ei = int_range 1 6 in
    let* ej = int_range 1 6 in
    let* a = int_range 0 3 in
    let* b = int_range 1 3 in
    let* c = int_range 0 4 in
    return (ei, ej, a, b, c))

let affine_nest (ei, ej, a, b, c) =
  let idx =
    L.(
      Bin
        ( Add,
          Bin
            ( Add,
              Bin (Mul, Int a, Var "i"),
              Bin (Mul, Int b, Var "j") ),
          Int c ))
  in
  L.For
    { var = "i"; lo = L.Int 0; hi = L.Int (ei - 1); tag = L.Seq;
      body =
        L.For
          { var = "j"; lo = L.Int 0; hi = L.Int (ej - 1); tag = L.Seq;
            body =
              store "out"
                [ L.Var "i"; idx ]
                L.(
                  Bin
                    ( Add,
                      Bin (Mul, Load ("inp", [ Var "i"; idx ]), Float 2.0),
                      Var "j" )) } }

let run_affine_case ?(strategy = `Seq) ((ei, ej, a, b, c) as case) =
  let width = (a * (ei - 1)) + (b * (ej - 1)) + c + 1 in
  let shapes = [ ("inp", [ ei; width ]); ("out", [ ei; width ]) ] in
  let stmt = affine_nest case in
  let mk () =
    List.map
      (fun (name, dims) ->
        let b = B.Buffers.create name (Array.of_list dims) in
        if name = "inp" then B.Buffers.fill b fill_a;
        b)
      shapes
  in
  let t = B.Interp.create ~buffers:(mk ()) () in
  B.Interp.run t stmt;
  let cc = B.Exec.compile
      ~target:(B.Target.cpu ~parallel:strategy ())
      ~params:[] ~buffers:(mk ()) stmt in
  B.Exec.run cc;
  B.Buffers.bits_equal (B.Interp.buffer t "out") (B.Exec.buffer cc "out")
  && B.Exec.tape_count cc = 1
  && B.Exec.tape_fallbacks cc = 0

let qcheck_cursor_addressing =
  QCheck.Test.make ~count:200
    ~name:"tape cursor addressing = interpreter flat offsets"
    (QCheck.make gen_affine_case) run_affine_case

(* Random 2-3-D reductions out[i(,j)] += a0[i][r] * a1[r][last] + 1 with
   the last free dim directly above the reduction vectorized or left
   untagged (it is the outer lane level either way), the reduction
   unrolled by 1, 2 or 3 and, in 3-D, the outer dim parallelized;
   extents 0-13.  Every combination of seq/pool, lanes 8/1 and tape
   on/off must reproduce the interpreter on the unscheduled program bit
   for bit (fractional inputs, so a reassociated sum would show). *)
let gen_reduction_case =
  QCheck.Gen.(
    let* rank = int_range 1 2 in
    let* exts = list_repeat rank (int_range 0 13) in
    let* red = int_range 0 13 in
    let* unroll = int_range 1 3 in
    let* width = oneofl [ 2; 4; 8 ] in
    let* par = bool in
    let* tagged = bool in
    return (exts, red, unroll, width, par && rank = 2, tagged))

let reduction_case (exts, red, unroll, width, par, tagged) =
  let open Tiramisu_fuzz.Case in
  let rank = List.length exts in
  { extents = List.map (fun e -> Lit e) exts;
    n_value = 0;
    inputs = [ ("a0", 2); ("a1", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = rank; rc_red = Some red;
          rc_expr =
            Bin (Add,
                 Bin (Mul, In ("a0", [ (0, 0); (rank, 0) ]),
                      In ("a1", [ (rank, 0); (rank - 1, 0) ])),
                 Const 1) } ];
    steps =
      (if par then [ Parallelize ("c0_upd", "i") ] else [])
      @ (if tagged then [ Vectorize ("c0_upd", dim_name (rank - 1), width) ]
         else [])
      @ if unroll > 1 then [ Unroll ("c0_upd", "r", unroll) ] else [] }

let run_reduction_case g =
  let module C = Tiramisu_fuzz.Case in
  let case = reduction_case g in
  let fills (b : C.built) =
    List.map
      (fun (n, f) -> (n, fun idx -> (f idx /. 7.0) +. 0.1))
      b.C.fills
  in
  let plain = C.build ~with_steps:false case in
  let reference =
    Tiramisu_kernels.Runner.run ~fn:plain.C.fn ~params:plain.C.params
      ~inputs:(fills plain)
  in
  List.for_all
    (fun (parallel, lanes, tape) ->
      let b = C.build case in
      let c =
        Tiramisu_kernels.Runner.run_native
          ~target:(B.Target.cpu ~parallel ())
          ~tape ~lanes ~fn:b.C.fn ~params:b.C.params ~inputs:(fills b) ()
      in
      List.for_all
        (fun o ->
          B.Buffers.bits_equal (B.Interp.buffer reference o)
            (B.Exec.buffer c o))
        b.C.outputs)
    (List.concat_map
       (fun par ->
         List.concat_map
           (fun lanes -> [ (par, lanes, true); (par, lanes, false) ])
           [ 8; 1 ])
       [ `Seq; `Pool ])

let qcheck_outer_lane_reductions =
  QCheck.Test.make ~count:40
    ~name:"vectorized-above-reduction nests = interpreter, every config"
    (QCheck.make
       ~print:(fun g -> Tiramisu_fuzz.Case.to_literal (reduction_case g))
       gen_reduction_case)
    run_reduction_case

(* Random extents drawn from {0, 1, 2}: the degenerate-trip property. *)
let qcheck_degenerate_extents =
  QCheck.Test.make ~count:100 ~name:"tape zero/one-trip extents"
    (QCheck.make
       QCheck.Gen.(
         let* ei = int_range 0 2 in
         let* ej = int_range 0 2 in
         return (ei, ej)))
    (fun (ei, ej) ->
      let stmt =
        L.For
          { var = "i"; lo = L.Int 0; hi = L.Int (ei - 1); tag = L.Seq;
            body =
              L.For
                { var = "j"; lo = L.Int 0; hi = L.Int (ej - 1); tag = L.Seq;
                  body =
                    store "out"
                      [ L.Var "i"; L.Var "j" ]
                      L.(
                        Bin
                          (Add, Load ("inp", [ Var "i"; Var "j" ]), Float 1.0))
                } }
      in
      let mk () =
        [
          (let b = B.Buffers.create "inp" [| 3; 3 |] in
           B.Buffers.fill b fill_a;
           b);
          B.Buffers.create "out" [| 3; 3 |];
        ]
      in
      let t = B.Interp.create ~buffers:(mk ()) () in
      B.Interp.run t stmt;
      let cc = B.Exec.compile
          ~target:(B.Target.cpu ~parallel:`Seq ())
          ~params:[] ~buffers:(mk ()) stmt in
      B.Exec.run cc;
      B.Buffers.bits_equal (B.Interp.buffer t "out") (B.Exec.buffer cc "out"))

(* ---------- pipeline integration ---------- *)

(* The PR-4 determinism class: flipping only the tape knob must miss the
   compile cache and recompile — a closure artifact must never be served
   for a tape request (or vice versa). *)
let cache_key_includes_tape () =
  P.clear_cache ();
  let stmt = blur_nest () in
  let extents =
    List.map
      (fun (n, dims) -> (n, Array.of_list dims, L.Host))
      (blur_shapes ())
  in
  let inputs = [ ("a", fill_a) ] in
  let on =
    P.build_stmt ~knobs:{ P.default_knobs with P.tape = true } ~params:[]
      ~extents ~inputs stmt
  in
  let off =
    P.build_stmt ~knobs:{ P.default_knobs with P.tape = false } ~params:[]
      ~extents ~inputs stmt
  in
  Alcotest.(check bool) "first build misses" true (on.P.cache = P.Miss);
  Alcotest.(check bool)
    "tape-off build misses too (knob is in the key)" true
    (off.P.cache = P.Miss);
  Alcotest.(check bool) "tape artifact uses the tape" true
    (B.Exec.tape_count on.P.exec >= 1);
  Alcotest.(check int) "tape-off artifact does not" 0
    (B.Exec.tape_count off.P.exec);
  (* same knobs again: a genuine hit, and it still reports tape use *)
  let again =
    P.build_stmt ~knobs:{ P.default_knobs with P.tape = true } ~params:[]
      ~extents ~inputs stmt
  in
  Alcotest.(check bool) "same knobs hit" true (again.P.cache = P.Hit)

(* Same determinism class for the lane width: vector and scalar tapes are
   different generated code, so flipping only [lanes] must miss — a
   scalar-tape artifact must never be served for a vector request. *)
let cache_key_includes_lanes () =
  P.clear_cache ();
  let stmt = blur_nest () in
  let extents =
    List.map
      (fun (n, dims) -> (n, Array.of_list dims, L.Host))
      (blur_shapes ())
  in
  let inputs = [ ("a", fill_a) ] in
  let build lanes =
    P.build_stmt ~knobs:{ P.default_knobs with P.lanes } ~params:[] ~extents
      ~inputs stmt
  in
  let vec = build 8 in
  let scalar = build 1 in
  Alcotest.(check bool) "first build misses" true (vec.P.cache = P.Miss);
  Alcotest.(check bool)
    "lanes=1 build misses too (width is in the key)" true
    (scalar.P.cache = P.Miss);
  Alcotest.(check bool) "vector artifact is vector-bound" true
    (B.Exec.tape_vec_count vec.P.exec >= 1);
  Alcotest.(check int) "scalar artifact is not" 0
    (B.Exec.tape_vec_count scalar.P.exec);
  let again = build 8 in
  Alcotest.(check bool) "same width hits" true (again.P.cache = P.Hit)

(* The planner must keep a tape-claimable fusible nest intact (the tape
   linearizes the prefix itself) instead of emitting div/mod binder loops
   that would destroy eligibility. *)
let planner_keeps_tape_nests () =
  let stmt = blur_nest ~tag_i:L.Parallel ~tag_j:L.Parallel () in
  let planned, rep =
    Parallel_plan.plan ~workers:4 ~params:[] ~force:true
      ~tape:true stmt
  in
  Alcotest.(check bool)
    "decision is tape[i+j]" true
    (List.exists
       (fun d ->
         match d.Parallel_plan.d_action with
         | `Keep_tape [ "i"; "j" ] -> true
         | _ -> false)
       rep.Parallel_plan.r_decisions);
  Alcotest.(check bool)
    "planned nest still claimable" true
    (Tape_gen.claimable planned);
  (* without the tape the same nest is coalesced into binder loops *)
  let planned', rep' =
    Parallel_plan.plan ~workers:4 ~params:[] ~force:true stmt
  in
  Alcotest.(check int) "control coalesces" 1 rep'.Parallel_plan.r_coalesced;
  Alcotest.(check bool)
    "binder loops are not claimable" false
    (Tape_gen.claimable planned')

(* [Tape.enter] evaluates bounds and piece covers into its state's
   scratch: a contiguous cover (pieces [0..4] and [5..9]) and an overlap
   ([0..4] and [3..9]) enter, a gap ([0..4] and [7..9]) reports the
   fallback, and a thousand entries allocate nothing. *)
let enter_allocates_nothing () =
  List.iter
    (fun (lo2, enters) ->
      let prog =
        match Result.to_option (Tape_gen.classify (pieces_nest ~lo2)) with
        | Some p -> p
        | None -> Alcotest.fail "pieces nest not claimable"
      in
      let bufs =
        List.map
          (fun n -> B.Buffers.create n [| 10; 6 |])
          [ "inp"; "out" ]
      in
      let t =
        match
          B.Tape.bind ~lanes:B.Tape.default_lanes
            ~buf:(fun n -> List.find_opt (fun b -> b.B.Buffers.name = n) bufs)
            ~slot:(fun _ -> 0) prog
        with
        | Some t -> t
        | None -> Alcotest.fail "pieces nest did not bind"
      in
      let st = B.Tape.new_state t and env = [| 0 |] in
      let first = B.Tape.enter t st env in
      Alcotest.(check bool)
        (Printf.sprintf "pieces from %d: enters = %b" lo2 enters)
        enters (first > 0);
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (B.Tape.enter t st env))
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Printf.sprintf "pieces from %d: %.0f words for 1000 entries" lo2 words)
        true (words < 100.))
    [ (5, true); (3, true); (7, false) ]

(* ---------- fused lane kernels ---------- *)

(* Values for the lane-kernel property: NaNs of three payloads, signed
   zeros, infinities, a subnormal, values beyond the int range (whose
   [int_of_float] the integer opcodes read; [0x1p62] converts to
   [min_int]) and a few ordinary numbers.  Drawn from a small pool, equal
   operands (min/max ties) are frequent. *)
let lane_values =
  [| Float.nan; Int64.float_of_bits 0x7ff8000000000002L;
     Int64.float_of_bits 0xfff8000000000000L; 0.0; -0.0; Float.infinity;
     Float.neg_infinity; 1.0; -1.0; 2.5; -2.5; 4.9e-320; 3.0; 0.1; 6e18;
     -1e19; 1e300; 0x1p62 |]

(* Divisors of [fdivi] / [modi]: mostly a nonzero integer part, so most
   batches run to the end; [-1] makes [min_int mod -1] overflow, and
   [0.5] stops a batch at a zero divisor. *)
let divisor_values = [| 1.0; 2.5; -2.5; 3.0; -7.9; 6e18; -1.0; 0.5 |]

let lane_value ?(pool = lane_values) salt k =
  pool.(((k * ((2 * salt) + 3)) + salt) mod Array.length pool)

(* One operand of a [rows x w] batch and the value it gives lane [j] of
   row [r].  Memory rows sit [row_step] apart without overlapping (or all
   on one row when [row_step] is 0), and a negative stride starts from
   the high end. *)
let lane_operand ?pool kind ~rows ~w ~salt =
  match kind with
  | `Reg ->
      let lanes = Array.init (rows * w) (lane_value ?pool salt) in
      (B.Tape.Reg lanes, fun r j -> lanes.((r * w) + j))
  | `Uniform ->
      let x = lane_value ?pool salt 5 in
      (B.Tape.Uniform x, fun _ _ -> x)
  | `Mem stride ->
      let span = (w - 1) * abs stride in
      let row_step = if salt mod 2 = 0 then span + 2 else 0 in
      let base = if stride < 0 then span else 0 in
      let data =
        Array.init
          (base + (rows * (row_step + 1)) + span + 1)
          (lane_value ?pool salt)
      in
      ( B.Tape.Mem { data; base; stride; row_step },
        fun r j -> data.(base + (r * row_step) + (j * stride)) )

(* every operand shape: a lane register, a uniform scalar, and memory at
   stride 0, unit stride and two other strides *)
let lane_kinds = [ `Reg; `Uniform; `Mem 0; `Mem 1; `Mem 3; `Mem (-2) ]

(* Every ALU opcode, its operand kinds (the fusable ones read every kind,
   the others lane registers only), the pool its second operand draws
   from, and its reference: the interpreter's expression for the same
   operation on the lane's accumulator [d] and operands [x], [y] (a
   unary opcode ignores [y]; [mov] is the operand itself). *)
let lane_ops =
  let open L in
  let call f args = Call (f, args) in
  let un f = ([ `Reg ], lane_values, fun _ x _ -> f x) in
  let bin ?(pool = lane_values) f = ([ `Reg ], pool, fun _ x y -> f x y) in
  let fused f = (lane_kinds, lane_values, fun _ x y -> f x y) in
  Tape_gen.
    [ (op_add, "add", fused (fun x y -> Bin (Add, x, y)));
      (op_sub, "sub", fused (fun x y -> Bin (Sub, x, y)));
      (op_mul, "mul", fused (fun x y -> Bin (Mul, x, y)));
      (op_div, "div", fused (fun x y -> Bin (Div, x, y)));
      (op_min, "min", fused (fun x y -> Bin (MinOp, x, y)));
      (op_max, "max", fused (fun x y -> Bin (MaxOp, x, y)));
      ( op_fma, "fma",
        (lane_kinds, lane_values, fun d x y -> Bin (Add, d, Bin (Mul, x, y)))
      );
      (op_mov, "mov", un (fun x -> x));
      (op_neg, "neg", un (fun x -> Neg x));
      (op_abs, "abs", un (fun x -> call "abs" [ x ]));
      (op_sqrt, "sqrt", un (fun x -> call "sqrt" [ x ]));
      (op_exp, "exp", un (fun x -> call "exp" [ x ]));
      (op_log, "log", un (fun x -> call "log" [ x ]));
      (op_sin, "sin", un (fun x -> call "sin" [ x ]));
      (op_cos, "cos", un (fun x -> call "cos" [ x ]));
      (op_floor, "floor", un (fun x -> call "floor" [ x ]));
      (op_pow, "pow", bin (fun x y -> call "pow" [ x; y ]));
      ( op_fdivi, "fdivi",
        bin ~pool:divisor_values (fun x y -> Bin (FloorDiv, x, y)) );
      (op_modi, "modi", bin ~pool:divisor_values (fun x y -> Bin (Mod, x, y)));
      (op_trunc, "trunc", un (fun x -> Cast (I32, x))) ]

let kind_str = function
  | `Reg -> "reg"
  | `Uniform -> "scalar"
  | `Mem s -> Printf.sprintf "mem@%d" s

let outcome f = match f () with v -> Ok v | exception e -> Error e

(* Every kernel of the vector interpreter's table against the reference
   interpreter.  Every ALU opcode over every pair of its operand kinds,
   widths 1 to 130 (each unroll remainder 0..3, single-lane rows, and
   rows past [block_min]) and 1 to 3 rows, memory rows [row_step] apart
   or all on one (row step 0): each lane equals the interpreter's
   expression on that lane's operands, bit for bit — NaN payloads,
   signed zeros, infinities, min/max ties and out-of-int-range
   conversions included — or, when some lane's expression raises (a
   divisor whose integer part is zero, [min_int mod -1]), the kernel
   raises what the first such lane raises.  Loads and stores at every
   stride likewise move exactly the addressed elements.  Every table
   entry must be reached.  The same values run each opcode through the
   scalar tape as well. *)
let lane_kernels_match_scalar () =
  let interp = B.Interp.create () in
  let eval e = B.Interp.eval_expr interp e in
  let bad = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun s -> if List.length !bad < 5 then bad := s :: !bad)
      fmt
  in
  let reached = Array.make B.Tape.kernel_count false in
  let run ~op ~rows ~w ~acc x y =
    outcome (fun () ->
        let id, out = B.Tape.lane_kernel ~op ~rows ~width:w ~acc x y in
        reached.(id) <- true;
        out)
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (op, name, (kinds, pool, reference)) ->
      List.iteri
        (fun a ka ->
          List.iteri
            (fun b kb ->
              for w = 1 to 130 do
                for rows = 1 to 3 do
                  let salt = (a * 7) + b + w + rows in
                  let x, xv = lane_operand ka ~rows ~w ~salt
                  and y, yv = lane_operand ~pool kb ~rows ~w ~salt:(salt + 1) in
                  let acc = Array.init (rows * w) (lane_value (salt + 2)) in
                  let want =
                    Array.init (rows * w) (fun k ->
                        let r = k / w and j = k mod w in
                        outcome (fun () ->
                            eval
                              (reference (L.Float acc.(k)) (L.Float (xv r j))
                                 (L.Float (yv r j)))))
                  in
                  let raised =
                    Array.find_map
                      (function Error e -> Some e | Ok _ -> None)
                      want
                  in
                  let where = Printf.sprintf "%s %s,%s w=%d rows=%d" name
                      (kind_str ka) (kind_str kb) w rows in
                  match (raised, run ~op ~rows ~w ~acc x y) with
                  | Some e, Error e' ->
                      if e <> e' then fail "%s: raised another exception" where
                  | Some _, Ok _ -> fail "%s: did not raise" where
                  | None, Error _ -> fail "%s: raised" where
                  | None, Ok out ->
                      Array.iteri
                        (fun k v ->
                          match v with
                          | Ok v when bits out.(k) = bits v -> ()
                          | _ -> fail "%s lane %d.%d" where (k / w) (k mod w))
                        want
                done
              done)
            kinds)
        kinds)
    lane_ops;
  (* loads: lane [j] of row [r] is the addressed element *)
  List.iter
    (fun (op, stride) ->
      for w = 1 to 130 do
        for rows = 1 to 3 do
          let x, xv = lane_operand (`Mem stride) ~rows ~w ~salt:(w + rows) in
          let acc = Array.make (rows * w) 0.0 in
          match run ~op ~rows ~w ~acc x (B.Tape.Uniform 0.0) with
          | Error _ -> fail "%s w=%d rows=%d: raised" (Tape_gen.op_name op) w rows
          | Ok out ->
              for r = 0 to rows - 1 do
                for j = 0 to w - 1 do
                  if bits out.((r * w) + j) <> bits (xv r j) then
                    fail "%s@%d w=%d rows=%d lane %d.%d" (Tape_gen.op_name op)
                      stride w rows r j
                done
              done
        done
      done)
    Tape_gen.
      [ (op_vload_unit, 1); (op_vload_strided, 3); (op_vload_strided, -2);
        (op_vload_bcast, 0) ];
  (* stores: the addressed elements take the lanes, rows in order (a row
     step of 0 leaves the last row), and nothing else moves *)
  List.iter
    (fun (op, stride) ->
      for w = 1 to 130 do
        for rows = 1 to 3 do
          let x, _ = lane_operand (`Mem stride) ~rows ~w ~salt:(w + rows) in
          let src = Array.init (rows * w) (lane_value (w + 1)) in
          match x with
          | B.Tape.Mem { data; base; stride; row_step } -> (
              let want = Array.copy data in
              for r = 0 to rows - 1 do
                for j = 0 to w - 1 do
                  want.(base + (r * row_step) + (j * stride)) <- src.((r * w) + j)
                done
              done;
              match run ~op ~rows ~w ~acc:src x (B.Tape.Reg src) with
              | Ok out when Array.map bits out = Array.map bits want -> ()
              | _ ->
                  fail "%s@%d w=%d rows=%d" (Tape_gen.op_name op) stride w rows)
          | _ -> assert false
        done
      done)
    Tape_gen.
      [ (op_vstore_unit, 1); (op_vstore_strided, 3); (op_vstore_strided, -2) ];
  Alcotest.(check (list string)) "every lane bit-exact" [] (List.rev !bad);
  let missed =
    List.filter_map
      (fun id -> if reached.(id) then None else Some (B.Tape.kernel_name id))
      (List.init B.Tape.kernel_count Fun.id)
  in
  Alcotest.(check (list string)) "every kernel reached" [] missed;
  (* the same values through the scalar tape ([lanes:1]), which runs
     every ALU arm of the scalar interpreter on a claimed loop; the
     divisors that stop a batch are left to the test below *)
  List.iter
    (fun (_, name, (_, pool, reference)) ->
      let pool =
        Array.of_seq
          (Seq.filter (fun v -> v <> -1.0 && v <> 0.5) (Array.to_seq pool))
      in
      let n = 390 in
      let ld b = L.Load (b, [ L.Var "i" ]) in
      let stmt =
        L.For
          { var = "i"; lo = L.Int 0; hi = L.Int (n - 1); tag = L.Seq;
            body =
              L.Store
                (name, [ L.Var "i" ], reference (ld name) (ld "x") (ld "y")) }
      in
      let c =
        differential ~lanes:1
          ~shapes:[ (name, [ n ]); ("x", [ n ]); ("y", [ n ]) ]
          ~fills:
            [ (name, fun ix -> lane_value 2 ix.(0));
              ("x", fun ix -> lane_value 0 ix.(0));
              ("y", fun ix -> lane_value ~pool 1 ix.(0)) ]
          stmt [ name ]
      in
      Alcotest.(check int) (name ^ ": one scalar tape nest") 1
        (B.Exec.tape_count c))
    lane_ops

(* The integer opcodes on floats beyond the int range: [int_of_float] of
   NaN, an infinity, [2^62] or [1e19] is unspecified in OCaml, so the
   executors must at least agree with each other.  Each value (and an
   ordinary 7), under each divisor, runs [fdivi], [modi] and [trunc]
   through the interpreter, the closure path, the scalar tape, the vector
   tape (one register kernel each) and the register kernel directly: all
   give the same bits or raise the same exception.  The interpreter
   raises [Division_by_zero] for every divisor whose integer part is
   zero (0.5, NaN, 1e300, ±0, ±infinity) and [Ints.Overflow] for [2^62
   modi -1] ([2^62] converts to [min_int]). *)
let int_opcodes_out_of_range () =
  let values =
    [ Float.nan; Float.infinity; Float.neg_infinity; 0x1p62; 1e19; -1e19;
      7.0 ]
  in
  let zero_divisors =
    [ 0.5; Float.nan; 1e300; 0.0; -0.0; Float.infinity; Float.neg_infinity ]
  in
  let divisors = zero_divisors @ [ 3.0; -1.0 ] in
  let n = 8 in
  let ops =
    L.
      [ ("fdivi", Tape_gen.op_fdivi, fun x y -> Bin (FloorDiv, x, y));
        ("modi", Tape_gen.op_modi, fun x y -> Bin (Mod, x, y));
        ("trunc", Tape_gen.op_trunc, fun x _ -> Cast (I32, x)) ]
  in
  let bufs x y =
    List.map
      (fun (name, v) ->
        let b = B.Buffers.create name [| n |] in
        B.Buffers.fill b (fun _ -> v);
        b)
      [ ("out", 0.0); ("x", x); ("y", y) ]
  in
  let ld b = L.Load (b, [ L.Var "i" ]) in
  let bits_of b = Array.map Int64.bits_of_float b.B.Buffers.data in
  List.iter
    (fun (name, op, e) ->
      let stmt =
        L.For
          { var = "i"; lo = L.Int 0; hi = L.Int (n - 1); tag = L.Seq;
            body = L.Store ("out", [ L.Var "i" ], e (ld "x") (ld "y")) }
      in
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              let what = Printf.sprintf "%s %h by %h" name x y in
              let interp =
                outcome (fun () ->
                    let t = B.Interp.create ~buffers:(bufs x y) () in
                    B.Interp.run t stmt;
                    bits_of (B.Interp.buffer t "out"))
              in
              let fault =
                if op = Tape_gen.op_trunc then None
                else if List.mem y zero_divisors then Some Division_by_zero
                else if op = Tape_gen.op_modi && x = 0x1p62 && y = -1.0 then
                  Some Tiramisu_support.Ints.Overflow
                else None
              in
              Option.iter
                (fun e ->
                  Alcotest.(check bool) (what ^ ": interpreter raises") true
                    (interp = Error e))
                fault;
              let compiled ?claims ?lanes expect_tape =
                outcome (fun () ->
                    let c =
                      B.Exec.compile ~target:(B.Target.cpu ()) ?claims ?lanes
                        ~params:[] ~buffers:(bufs x y) stmt
                    in
                    Alcotest.(check int) (what ^ ": tape nests") expect_tape
                      (B.Exec.tape_count c);
                    B.Exec.run c;
                    bits_of (B.Exec.buffer c "out"))
              in
              let kernel =
                outcome (fun () ->
                    let _, out =
                      B.Tape.lane_kernel ~op ~rows:2 ~width:(n / 2)
                        ~acc:(Array.make n 0.0)
                        (B.Tape.Reg (Array.make n x))
                        (B.Tape.Reg (Array.make n y))
                    in
                    Array.map Int64.bits_of_float out)
              in
              List.iter
                (fun (path, got) ->
                  Alcotest.(check bool) (what ^ ": " ^ path ^ " = interpreter")
                    true (got = interp))
                [ ("closure path", compiled ~claims:Tape_gen.no_claims 0);
                  ("scalar tape", compiled ~lanes:1 1);
                  ("vector tape", compiled 1);
                  ("lane kernel", kernel) ])
            divisors)
        values)
    ops

(* Hand-built tape programs over [i] (parallel when [par]) x [j], bound
   against named buffers: the fusion rule's negative cases need register
   shapes the generator never emits.  Registers 0 and 1 hold [i] and [j],
   [lits] follow. *)
let acc2 ?(stored = false) buf rows cols : Tape_gen.access =
  { Tape_gen.ac_buf = buf;
    ac_idx = [| rows; cols |];
    ac_stored = stored }

let level ?(tag = L.Seq) v n : Tape_gen.level =
  { Tape_gen.lv_var = v; lv_lo = Tape_gen.Baff ([], 0);
    lv_hi = Tape_gen.Baff ([], n - 1); lv_tag = tag }

let hand_program ?(accum = None) ?(rmw = [||]) ~levels ~par ~accesses ~nregs
    ~lits code : Tape_gen.program =
  let d = Array.length levels in
  { Tape_gen.p_levels = levels; p_par = par; p_accesses = accesses;
    p_nregs = nregs; p_lits = lits; p_hoists = [||];
    p_ivregs = Array.init d Fun.id; p_promos = [||]; p_accum = accum;
    p_code = Array.concat (List.map Array.of_list code);
    p_ivuse = Array.make d false; p_vec_ok = true; p_rmw = rmw;
    p_store_pairs = [||]; p_pieces = [||] }

(* Bind [prog] against fresh copies of [bufs] and run it whole — one
   range on one state, or split across the pool with per-domain states;
   returns the binding and the buffers. *)
let run_hand ~lanes ~strategy prog bufs =
  let bufs =
    List.map
      (fun (b : B.Buffers.t) ->
        { b with B.Buffers.data = Array.copy b.B.Buffers.data })
      bufs
  in
  let bt =
    match
      B.Tape.bind ~lanes
        ~buf:(fun n -> List.find_opt (fun b -> b.B.Buffers.name = n) bufs)
        ~slot:(fun _ -> 0) prog
    with
    | Some bt -> bt
    | None -> Alcotest.fail "hand program did not bind"
  in
  let state = B.Pool.per_domain (fun () -> B.Tape.new_state bt) in
  let env = [| 0 |] in
  let total = B.Tape.enter bt (state ()) env in
  Alcotest.(check bool) "in bounds" true (total > 0);
  (match strategy with
  | `Seq -> B.Tape.run_range bt (state ()) env 0 (total - 1)
  | `Pool ->
      B.Pool.parallel_for ~chunk:1 0 (total - 1) ~body:(fun lo hi ->
          B.Tape.run_range bt (state ()) env lo hi));
  (bt, bufs)

(* [prog] against [stmt], its meaning as loop IR: the interpreter runs
   the IR, the tape runs [prog] vector-bound (seq and pool) and at
   [lanes = 1]; every output must agree bit for bit.  Returns the vector
   binding's mode and folded-load count. *)
let hand_case prog stmt ~shapes ~fills outs =
  B.Pool.set_num_workers 2;
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
  let it = B.Interp.create ~buffers:(mk ()) () in
  B.Interp.run it stmt;
  let runs =
    List.map
      (fun (label, lanes, strategy) ->
        (label, run_hand ~lanes ~strategy prog (mk ())))
      [ ("seq", B.Tape.default_lanes, `Seq); ("pool", B.Tape.default_lanes, `Pool);
        ("lanes1", 1, `Seq) ]
  in
  List.iter
    (fun (label, (_, bufs)) ->
      List.iter
        (fun o ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s bit-identical to interpreter" label o)
            true
            (B.Buffers.bits_equal (B.Interp.buffer it o)
               (List.find (fun b -> b.B.Buffers.name = o) bufs)))
        outs)
    runs;
  let bt = fst (List.assoc "seq" runs) in
  (B.Tape.mode_to_string (B.Tape.mode bt), B.Tape.folded bt)

let ij = ([ ("i", 1) ], 0) and jj = ([ ("j", 1) ], 0)
let ins op dst a b = [ op; dst; a; b ]

let two_level_ir body =
  L.For
    { var = "i"; lo = L.Int 0; hi = L.Int 5; tag = L.Parallel;
      body = L.For { var = "j"; lo = L.Int 0; hi = L.Int 36; tag = L.Seq; body } }

let two_level_shapes = [ ("a", [ 6; 37 ]); ("out", [ 6; 37 ]) ]
let two_levels = [| level ~tag:L.Parallel "i" 6; level "j" 37 |]

(* Loads a fold must leave alone, each next to the same shape that does
   fold: a store into the load's buffer between the load and its reader
   (memory no longer holds the loaded value), a register read twice —
   by one instruction or by two — and, in an [Outer] body, a register
   read before its load (the previous iteration's value). *)
let fusion_legality () =
  let open Tape_gen in
  let a = L.Load ("a", [ L.Var "i"; L.Var "j" ]) in
  let case ?rmw ~accesses ~nregs ~lits code body =
    hand_case
      (hand_program ?rmw ~levels:two_levels ~par:1 ~accesses ~nregs ~lits code)
      (two_level_ir body) ~shapes:two_level_shapes ~fills:[ ("a", fill_a) ] [ "a"; "out" ]
  in
  (* r4 <- a; a <- 5.0; out <- r4 + 1.0 *)
  let store_between =
    case ~rmw:[| 0 |]
      ~accesses:[| acc2 ~stored:true "a" ij jj; acc2 ~stored:true "out" ij jj |]
      ~nregs:6 ~lits:[| (2, 5.0); (3, 1.0) |]
      [ ins op_load 4 0 0; ins op_store 0 0 2; ins op_add 5 4 3;
        ins op_store 0 1 5 ]
      (L.Block
         [ store "out" [ L.Var "i"; L.Var "j" ] L.(Bin (Add, a, Float 1.0));
           store "a" [ L.Var "i"; L.Var "j" ] (L.Float 5.0) ])
  in
  Alcotest.(check (pair string int)) "store between: unfused" ("inner x37", 0)
    store_between;
  (* the same with the store after the reader folds *)
  let store_after =
    case ~rmw:[| 0 |]
      ~accesses:[| acc2 ~stored:true "a" ij jj; acc2 ~stored:true "out" ij jj |]
      ~nregs:6 ~lits:[| (2, 5.0); (3, 1.0) |]
      [ ins op_load 4 0 0; ins op_add 5 4 3; ins op_store 0 0 2;
        ins op_store 0 1 5 ]
      (L.Block
         [ store "out" [ L.Var "i"; L.Var "j" ] L.(Bin (Add, a, Float 1.0));
           store "a" [ L.Var "i"; L.Var "j" ] (L.Float 5.0) ])
  in
  Alcotest.(check (pair string int)) "store after the reader: folded"
    ("inner x37", 1) store_after;
  let plain = [| acc2 "a" ij jj; acc2 ~stored:true "out" ij jj |] in
  (* r4 <- a; out <- r4 * r4 *)
  Alcotest.(check (pair string int)) "read twice by one reader: unfused"
    ("inner x37", 0)
    (case ~accesses:plain ~nregs:6 ~lits:[||]
       [ ins op_load 4 0 0; ins op_mul 5 4 4; ins op_store 0 1 5 ]
       (store "out" [ L.Var "i"; L.Var "j" ] L.(Bin (Mul, a, a))));
  (* r4 <- a; r5 <- r4 + 2.0; out <- r4 * r5 *)
  Alcotest.(check (pair string int)) "read by two readers: unfused"
    ("inner x37", 0)
    (case ~accesses:plain ~nregs:7 ~lits:[| (2, 2.0) |]
       [ ins op_load 4 0 0; ins op_add 5 4 2; ins op_mul 6 4 5;
         ins op_store 0 1 6 ]
       (store "out" [ L.Var "i"; L.Var "j" ]
          L.(Bin (Mul, a, Bin (Add, a, Float 2.0)))));
  (* out[i][j] += (a[i][k] * 2.0) * b[k][j], j vectorized above k: with
     [mov r7 <- r5] first, r5 is read before its load in every
     iteration after the first, so its load stays; b's folds either way *)
  let outer ~carried =
    let levels =
      [| level ~tag:L.Parallel "i" 6; level ~tag:(L.Vectorized 8) "j" 37;
         level "k" 5 |]
    in
    let kk = ([ ("k", 1) ], 0) in
    let accesses =
      [| acc2 ~stored:true "out" ij jj; acc2 "a" ij kk; acc2 "b" kk jj |]
    in
    let body =
      [ ins op_load 5 1 0; ins op_mul 6 5 3; ins op_load 8 2 0;
        ins op_fma 4 6 8 ]
    in
    let prog =
      hand_program ~accum:(Some (4, 0, true)) ~levels ~par:1 ~accesses
        ~nregs:9 ~lits:[| (3, 2.0) |]
        ((if carried then [ ins op_mov 7 5 0 ] else []) @ body)
    in
    let stmt =
      L.For
        { var = "i"; lo = L.Int 0; hi = L.Int 5; tag = L.Parallel;
          body =
            L.For
              { var = "j"; lo = L.Int 0; hi = L.Int 36; tag = L.Vectorized 8;
                body =
                  L.For
                    { var = "k"; lo = L.Int 0; hi = L.Int 4; tag = L.Seq;
                      body =
                        store "out" [ L.Var "i"; L.Var "j" ]
                          L.(
                            Bin
                              ( Add,
                                Load ("out", [ Var "i"; Var "j" ]),
                                Bin
                                  ( Mul,
                                    Bin (Mul, Load ("a", [ Var "i"; Var "k" ]), Float 2.0),
                                    Load ("b", [ Var "k"; Var "j" ]) ) )) } } }
    in
    hand_case prog stmt
      ~shapes:[ ("out", [ 6; 37 ]); ("a", [ 6; 5 ]); ("b", [ 5; 37 ]) ]
      ~fills:[ ("a", fill_a); ("b", fill_a); ("out", fill_b) ]
      [ "out" ]
  in
  Alcotest.(check (pair string int)) "outer body, carried read: one fold"
    ("outer j x37", 1) (outer ~carried:true);
  Alcotest.(check (pair string int)) "outer body, no carried read: two folds"
    ("outer j x37", 2) (outer ~carried:false)

(* The kernels the fold is for: conv2D's [cpu] schedule at 128² folds all
   27 strided image loads of each steady [j.j_v_ln] nest into their
   multiply-adds (no vector load left), nb's four unfused stages each
   fold their one load, and both stay bit-exact against the interpreter
   on the unscheduled program, sequential and on the pool. *)
let kernels_fold_loads () =
  let open Tiramisu_kernels in
  B.Pool.set_num_workers 2;
  let check name build sched ~params ~inputs outs want =
    let reference = Runner.run ~fn:(build ()) ~params ~inputs in
    List.iter
      (fun parallel ->
        let f = build () in
        sched f;
        let c =
          Runner.run_native ~target:(B.Target.cpu ~parallel ()) ~fn:f ~params
            ~inputs ()
        in
        List.iter
          (fun o ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %s bit-exact" name o)
              true
              (B.Buffers.bits_equal (B.Interp.buffer reference o)
                 (B.Exec.buffer c o)))
          outs;
        Alcotest.(check (list (pair string int)))
          (name ^ " folded loads per vector nest") want
          (List.filter_map
             (fun (n, bt) ->
               match B.Tape.mode bt with
               | B.Tape.Scalar _ -> None
               | _ ->
                   let l = B.Tape.listing bt in
                   Alcotest.(check bool)
                     (name ^ " " ^ n ^ ": no vector load left") false
                     (has "vload" l);
                   Some (B.Tape.mode_to_string (B.Tape.mode bt), B.Tape.folded bt))
             (List.filter
                (fun (n, _) -> name <> "conv2D" || n = "j.j_v_ln")
                (B.Exec.bound_tapes c))))
      [ `Seq; `Pool ]
  in
  let img idx =
    float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31)
    /. 7.0
  in
  check "conv2D"
    (fun () -> let f, _, _ = Image.conv2d () in f)
    Schedules.cpu_conv2d
    ~params:[ ("N", 128); ("M", 128) ]
    ~inputs:
      [ ("img", img);
        ("weights", fun idx -> float_of_int ((idx.(0) * 3) + idx.(1) + 1) /. 16.0) ]
    [ "conv" ]
    (List.init 3 (fun _ -> ("inner x112", 27)));
  check "nb"
    (fun () -> let f, _, _, _, _ = Image.nb () in f)
    (Schedules.cpu_nb ~fuse:false)
    ~params:[ ("N", 48); ("M", 48) ] ~inputs:[ ("img", img) ]
    [ "negative"; "brightened" ]
    (List.init 4 (fun _ -> ("inner x128", 1)))

let tests =
  [
    Alcotest.test_case "blur nest claimed and bit-exact" `Quick blur_claimed;
    Alcotest.test_case "gemm accumulator bit-exact" `Quick gemm_accumulator;
    Alcotest.test_case "gemm disassembles with fma" `Quick
      gemm_disassembles_fma;
    Alcotest.test_case "zero-trip inner extent" `Quick zero_trip;
    Alcotest.test_case "one-trip extents" `Quick one_trip;
    Alcotest.test_case "corner-check fallback parity" `Quick fallback_parity;
    Alcotest.test_case "stencil taps fall back like the interpreter" `Quick
      stencil_tap_fallback;
    Alcotest.test_case "tape=off control" `Quick tape_off_control;
    Alcotest.test_case "doubly-parallel nest on the pool" `Quick
      parallel_fused;
    Alcotest.test_case "parallel reduction nest on the pool" `Quick
      parallel_accumulator;
    Alcotest.test_case "vector tier claimed and bit-exact" `Quick
      vector_claimed_bit_exact;
    Alcotest.test_case "lanes=1 scalar-tape control" `Quick lanes_off_control;
    Alcotest.test_case "vector epilogue and short extents" `Quick
      vector_epilogue_extents;
    Alcotest.test_case "untagged gemm binds outer lanes" `Quick
      untagged_gemm_binds_outer;
    Alcotest.test_case "sgemm update nest binds outer lanes, bit-exact" `Quick
      sgemm_outer_lanes;
    Alcotest.test_case "accumulator step 0 along the lane level stays scalar"
      `Quick outer_lanes_step_zero_stays_scalar;
    Alcotest.test_case "unrolled reduction folds into one accumulator" `Quick
      unrolled_reduction_one_accumulator;
    Alcotest.test_case "vector = scalar tape bitwise" `Quick
      vector_vs_scalar_identical;
    Alcotest.test_case "disjoint stores into one buffer vectorize" `Quick
      disjoint_stores_vectorize;
    Alcotest.test_case "colliding stores stay scalar" `Quick
      colliding_stores_stay_scalar;
    Alcotest.test_case "stores into a loaded buffer stay scalar" `Quick
      loaded_store_buffer_stays_scalar;
    Alcotest.test_case "clamped kernels vector-claimed and bit-exact" `Quick
      clamped_kernels_vector_claimed;
    Alcotest.test_case "blur kernel vector-claimed, no fallbacks" `Quick
      blur_kernel_claims_vector;
    Alcotest.test_case "reject reasons name the failed check" `Quick
      reject_reasons;
    Alcotest.test_case "blur's steady tiles are one claim each" `Quick
      blur_steady_tiles_one_claim;
    Alcotest.test_case "full vector blocks are one claim" `Quick
      blur_vector_blocks_one_claim;
    Alcotest.test_case "guarded pieces claimed and bit-exact" `Quick
      guarded_pieces_claimed;
    Alcotest.test_case "non-contiguous pieces take the counted fallback"
      `Quick guarded_pieces_gap_falls_back;
    QCheck_alcotest.to_alcotest qcheck_cursor_addressing;
    QCheck_alcotest.to_alcotest qcheck_degenerate_extents;
    QCheck_alcotest.to_alcotest qcheck_outer_lane_reductions;
    Alcotest.test_case "compile-cache key includes the tape knob" `Quick
      cache_key_includes_tape;
    Alcotest.test_case "compile-cache key includes the lane width" `Quick
      cache_key_includes_lanes;
    Alcotest.test_case "planner keeps tape-claimable nests" `Quick
      planner_keeps_tape_nests;
    Alcotest.test_case "a store collision caps the width" `Quick
      collision_caps_width;
    Alcotest.test_case "width fitted to the extent, registers grown lazily"
      `Quick fitted_width_lazy_registers;
    Alcotest.test_case "per-domain states are owned by their getter" `Quick
      domain_states_owned_by_getter;
    Alcotest.test_case "sgemm blocks bit-exact at every size and width" `Quick
      sgemm_blocks_bit_exact;
    Alcotest.test_case "outer blocks need disjoint, unread rows" `Quick
      outer_blocks_need_disjoint_unread_rows;
    Alcotest.test_case "conv2D steady rows merge down to level 0" `Quick
      conv2d_rows_reach_level_zero;
    Alcotest.test_case "a parallel prefix is never merged into" `Quick
      parallel_prefix_never_merged;
    Alcotest.test_case "lane kernels = scalar opcodes, every operand kind"
      `Quick lane_kernels_match_scalar;
    Alcotest.test_case "integer opcodes agree on out-of-range floats" `Quick
      int_opcodes_out_of_range;
    Alcotest.test_case "loads fold only where the value is unchanged" `Quick
      fusion_legality;
    Alcotest.test_case "conv2D and nb fold their loads, bit-exact" `Quick
      kernels_fold_loads;
    Alcotest.test_case "tape entries allocate nothing" `Quick
      enter_allocates_nothing;
    Alcotest.test_case "accumulator without a lane level stays scalar"
      `Quick no_lane_level_stays_scalar;
    Alcotest.test_case "guarded bounds are charged to the work budget"
      `Quick guarded_bounds_cost_fuel;
  ]

(* ---------- one claim per compile ---------- *)

module Catalog = Tiramisu_kernels.Catalog

let scheduled (k : Catalog.kernel) apply =
  let f = k.Catalog.build () in
  apply f;
  f

let kernel name = List.find (fun k -> k.Catalog.k_name = name) Catalog.kernels

(* The [tape-compile] pass classifies the final statement once whether or
   not the build is traced: its note reads the record instead of
   classifying again. *)
let traced_build_classifies_once () =
  let k = kernel "conv2D" in
  let params = k.Catalog.params_small in
  let classify_calls tracer =
    P.clear_cache ();
    let fn = scheduled k (List.assoc "cpu" (k.Catalog.schedules params)) in
    let n0 = Tape_gen.classify_calls () in
    ignore (P.build ?tracer ~fn ~params ~inputs:k.Catalog.inputs ());
    Tape_gen.classify_calls () - n0
  in
  let untraced = classify_calls None in
  let traced = classify_calls (Some (P.make_tracer ())) in
  Alcotest.(check int) "traced = untraced classify calls" untraced traced

(* For every kernel x schedule pair, the executor claims exactly the nests
   of the record the [tape-compile] pass handed it, in order. *)
let executor_claims_the_record () =
  List.iter
    (fun (k : Catalog.kernel) ->
      let params = k.Catalog.params_small in
      List.iter
        (fun (sched, apply) ->
          let tracer = P.make_tracer () in
          P.clear_cache ();
          let art =
            P.build ~tracer ~fn:(scheduled k apply) ~params
              ~inputs:k.Catalog.inputs ()
          in
          let what = k.Catalog.k_name ^ " " ^ sched in
          let nests =
            match tracer.P.tr_claims with
            | Some cs -> cs.Tape_gen.cs_nests
            | None -> Alcotest.failf "%s: no tape-compile record" what
          in
          Alcotest.(check int) (what ^ ": tape_count") (List.length nests)
            (B.Exec.tape_count art.P.exec);
          Alcotest.(check (list string)) (what ^ ": nest names")
            (List.map (fun c -> Tape_gen.nest_name c.Tape_gen.cl_program) nests)
            (List.map fst (B.Exec.lane_modes art.P.exec)))
        (k.Catalog.schedules params))
    Catalog.kernels

(* A record made from another statement (here a structurally equal copy)
   is rejected, not silently run without the tape; the executor itself
   never classifies. *)
let stale_claims_rejected () =
  let mk () =
    List.map
      (fun (name, dims) -> B.Buffers.create name (Array.of_list dims))
      (blur_shapes ())
  in
  let stmt = blur_nest () in
  let claims = Tape_gen.claims stmt in
  Alcotest.check_raises "record of another statement"
    (Invalid_argument "Exec.compile: claims computed from another statement")
    (fun () ->
      ignore (B.Exec.compile ~claims ~params:[] ~buffers:(mk ()) (blur_nest ())));
  let n0 = Tape_gen.classify_calls () in
  let c = B.Exec.compile ~claims ~params:[] ~buffers:(mk ()) stmt in
  Alcotest.(check int) "no classify call in Exec.compile" 0
    (Tape_gen.classify_calls () - n0);
  Alcotest.(check int) "the record's nest claimed" 1 (B.Exec.tape_count c)

(* [Cost.estimate ~tape:true] of every kernel x schedule pair's prepared
   statement, bit-exact: reading the claim record prices the same nests
   the per-loop classification did.  sgemm's [none] and [pluto] update
   nests are priced with outer lanes along their untagged level above
   [k], which the tape binds; baryon's [none] reduction is not (step 0). *)
let cost_pinned =
  [ ("blur", "none", 0x1.67a547ae147aep+10);
    ("blur", "cpu", 0x1.e5f0f5c28f5c2p+12);
    ("blur", "gpu", 0x1.922e504816fp+14);
    ("blur", "dist", 0x1.413ce8b439582p+13);
    ("blur", "pencil", 0x1.23530147ae148p+13);
    ("cvtColor", "none", 0x1.14547ae147ae2p+9);
    ("cvtColor", "cpu", 0x1.f6e747ae147aep+11);
    ("cvtColor", "gpu", 0x1.d2c083126e978p+13);
    ("cvtColor", "pencil", 0x1.15a15c28f5c29p+12);
    ("conv2D", "none", 0x1.cca0000000001p+11);
    ("conv2D", "cpu", 0x1.3254c7ae147aep+12);
    ("conv2D", "gpu", 0x1.273b1de69ad42p+15);
    ("conv2D", "pencil", 0x1.d270ccccccccep+12);
    ("warpAffine", "none", 0x1.b88p+13);
    ("warpAffine", "cpu", 0x1.0196666666666p+12);
    ("warpAffine", "gpu", 0x1.08f3b645a1cacp+13);
    ("warpAffine", "pencil", 0x1.1ac3333333333p+14);
    ("gaussian", "none", 0x1.69bae147ae148p+11);
    ("gaussian", "cpu", 0x1.ff33133333333p+12);
    ("gaussian", "gpu", 0x1.4854c985f06f6p+15);
    ("gaussian", "pencil", 0x1.6a87c28f5c29p+13);
    ("nb", "none", 0x1.8dp+10);
    ("nb", "cpu", 0x1.f6e919999999ap+11);
    ("nb", "cpu-unfused", 0x1.f5068cccccccdp+13);
    ("nb", "gpu", 0x1.8de7ab7564303p+14);
    ("nb", "pencil", 0x1.1150ccccccccdp+14);
    ("edgeDetector", "none", 0x1.cbfdc28f5c28fp+9);
    ("edgeDetector", "cpu", 0x1.f78247ae147aep+12);
    ("edgeDetector", "gpu", 0x1.1ad52b020c49cp+13);
    ("edgeDetector", "pencil", 0x1.141c9c28f5c29p+13);
    ("ticket2373", "none", 0x1.f8e147ae147afp+5);
    ("ticket2373", "cpu", 0x1.f47e3851eb852p+11);
    ("ticket2373", "pencil", 0x1.fb8651eb851ecp+11);
    ("sgemm", "none", 0x1.0de6666666667p+11);
    ("sgemm", "tuned", 0x1.4bae666666666p+13);
    ("sgemm", "pluto", 0x1.8100000000001p+12);
    ("sgemm", "gpu", 0x1.21cb5dcc63f14p+13);
    ("hpcg", "none", 0x1.de51eb851eb86p+11);
    ("hpcg", "cpu", 0x1.3249d70a3d70ap+12);
    ("baryon", "none", 0x1.758e147ae147bp+10);
    ("baryon", "cpu", 0x1.e1bae147ae149p+8) ]

let cost_reads_the_record () =
  List.iter
    (fun (name, sched, want) ->
      let k = kernel name in
      let params = k.Catalog.params_small in
      let fn = scheduled k (List.assoc sched (k.Catalog.schedules params)) in
      let stmt = P.prepare ~params (P.lower fn).Tiramisu_core.Lower.ast in
      let got =
        (B.Cost.estimate ~tape:true ~params
           ~buffers:(P.extents_of_fn fn ~params) stmt)
          .B.Cost.time_ns
      in
      Alcotest.(check string) (name ^ " " ^ sched) (Printf.sprintf "%h" want)
        (Printf.sprintf "%h" got))
    cost_pinned

let claim_tests =
  [
    Alcotest.test_case "traced and untraced builds classify alike" `Quick
      traced_build_classifies_once;
    Alcotest.test_case "the executor claims the record, every kernel" `Quick
      executor_claims_the_record;
    Alcotest.test_case "a record of another statement is rejected" `Quick
      stale_claims_rejected;
    Alcotest.test_case "cost model prices the record, bit-exact" `Quick
      cost_reads_the_record;
  ]

let () =
  Alcotest.run "tape" [ ("flat-tape", tests); ("claims", claim_tests) ]
