(* Innermost-loop kernel shapes — unrolled, vector with a scalar
   epilogue, loop-invariant loads, accumulating — must produce bit-for-bit
   the floats the reference interpreter produces, both when the flat tape
   claims the nest and on the plain closure path with the tape off.  The
   parallel planner serializes tiny pool loops; forking one anyway must
   only change scheduling, never values.
   Plus golden checks for the C pragmas and the odometer buffer fill. *)

open Tiramisu_codegen
module L = Loop_ir
module B = Tiramisu_backends

(* ---------- differential harness ---------- *)

(* Build two identical buffer sets, run the interpreter on one and the
   compiled executor on the other, and demand bit-identity on [outs].
   Returns the compiled program so callers can assert on [tape_count] /
   [static_count]. *)
let differential ?(strategy = `Seq) ?(tape = true) ?(params = []) ~shapes
    ~fills stmt outs =
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
  let c = B.Exec.compile
      ~target:(B.Target.cpu ~parallel:strategy ())
      ?claims:(if tape then None else Some Tape_gen.no_claims)
      ~params ~buffers:(mk ()) stmt in
  B.Exec.run c;
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "%s bit-identical to interpreter (tape=%b)" o tape)
        true
        (B.Buffers.bits_equal (B.Interp.buffer t o) (B.Exec.buffer c o)))
    outs;
  c

(* The shape must be claimed by the tape, and must match the interpreter
   bit-for-bit both claimed and on the closure path (tape off). *)
let tape_and_closure ~shapes ~fills stmt outs =
  let c = differential ~shapes ~fills stmt outs in
  Alcotest.(check bool) "nest claimed by the tape" true (B.Exec.tape_count c > 0);
  Alcotest.(check int) "no tape fallbacks" 0 (B.Exec.tape_fallbacks c);
  let off = differential ~tape:false ~shapes ~fills stmt outs in
  Alcotest.(check int) "tape off claims nothing" 0 (B.Exec.tape_count off)

(* The tape programs the executor claims for [stmt]. *)
let claimed stmt =
  List.map
    (fun c -> c.Tape_gen.cl_program)
    (Tape_gen.claims (Tiramisu_pipeline.Pipeline.prepare ~params:[] stmt))
      .Tape_gen.cs_nests

let fill_a idx =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7)) mod 29) /. 7.0

let fill_b idx = float_of_int ((idx.(0) * 5) mod 17) /. 3.0

(* ---------- hand-built loops, one per kernel shape ---------- *)

(* Extent 100 with a one-store body stays above unroll_expand's body-size
   cap, so the Unrolled tag survives to the executor. *)
let unrolled_driver () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 5; tag = L.Seq;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 99; tag = L.Unrolled;
              body =
                L.Store
                  ( "out",
                    [ L.Var "i"; L.Var "j" ],
                    L.(
                      Bin
                        ( Add,
                          Bin (Mul, Load ("a", [ Var "i"; Var "j" ]),
                               Float 2.0),
                          Load ("b", [ Var "j" ]) )) ) } }
  in
  tape_and_closure stmt [ "out" ]
    ~shapes:[ ("a", [ 6; 100 ]); ("b", [ 100 ]); ("out", [ 6; 100 ]) ]
    ~fills:[ ("a", fill_a); ("b", fill_b) ]

(* Width 4 over extent 10: two full lane blocks plus a 2-iteration scalar
   epilogue. *)
let vector_epilogue () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 4; tag = L.Seq;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 9; tag = L.Vectorized 4;
              body =
                L.Store
                  ( "out",
                    [ L.Var "i"; L.Var "j" ],
                    L.(
                      Bin
                        ( Sub,
                          Load ("a", [ Var "i"; Var "j" ]),
                          Bin (Mul, Load ("b", [ Var "j" ]), Float 0.5) )) )
            } }
  in
  tape_and_closure stmt [ "out" ]
    ~shapes:[ ("a", [ 5; 10 ]); ("b", [ 10 ]); ("out", [ 5; 10 ]) ]
    ~fills:[ ("a", fill_a); ("b", fill_b) ]

(* c[i] is invariant in j: the tape promotes it to a register read once per
   entry of the j level. *)
let scalar_promotion () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 7; tag = L.Seq;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 30; tag = L.Seq;
              body =
                L.Store
                  ( "out",
                    [ L.Var "i"; L.Var "j" ],
                    L.(
                      Bin
                        ( Add,
                          Bin (Mul, Load ("a", [ Var "i"; Var "j" ]),
                               Load ("c", [ Var "i" ])),
                          Load ("c", [ Var "i" ]) )) ) } }
  in
  tape_and_closure stmt [ "out" ]
    ~shapes:[ ("a", [ 8; 31 ]); ("c", [ 8 ]); ("out", [ 8; 31 ]) ]
    ~fills:[ ("a", fill_a); ("c", fill_b) ];
  Alcotest.(check bool) "invariant load promoted" true
    (List.exists
       (fun p -> Array.length p.Tape_gen.p_promos > 0)
       (claimed stmt))

(* Reduction: out[i] accumulates over j (store offset invariant in j, the
   store location read back each iteration) — the tape keeps the running
   value in an accumulator register and must still round identically. *)
let accumulator () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 6; tag = L.Seq;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 40; tag = L.Seq;
              body =
                L.Store
                  ( "out",
                    [ L.Var "i" ],
                    L.(
                      Bin
                        ( Add,
                          Load ("out", [ Var "i" ]),
                          Bin (Mul, Load ("a", [ Var "i"; Var "j" ]),
                               Load ("b", [ Var "j" ])) )) ) } }
  in
  tape_and_closure stmt [ "out" ]
    ~shapes:[ ("a", [ 7; 41 ]); ("b", [ 41 ]); ("out", [ 7 ]) ]
    ~fills:[ ("a", fill_a); ("b", fill_b) ];
  Alcotest.(check bool) "accumulator register" true
    (List.exists (fun p -> p.Tape_gen.p_accum <> None) (claimed stmt))

(* ---------- pool demotion ---------- *)

(* A tiny Parallel loop is serialized by the parallel planner (its
   per-worker work is far below Parallel_plan.min_work, and with one worker
   every pool loop is), and the unplanned pool run of it — every outermost
   Parallel loop forks — still computes the interpreter's values. *)
let pool_demotion () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 3; tag = L.Parallel;
        body =
          L.Store
            ( "out",
              [ L.Var "i" ],
              L.(Bin (Mul, Load ("b", [ Var "i" ]), Float 3.0)) ) }
  in
  List.iter
    (fun workers ->
      let _, r = Parallel_plan.plan ~workers ~params:[] stmt in
      Alcotest.(check int)
        (Printf.sprintf "tiny parallel loop serialized (workers=%d)" workers)
        1 r.Parallel_plan.r_serialized)
    [ 4; 1 ];
  let c =
    differential stmt [ "out" ] ~strategy:`Pool
      ~shapes:[ ("b", [ 4 ]); ("out", [ 4 ]) ]
      ~fills:[ ("b", fill_b) ]
  in
  Alcotest.(check int) "unplanned pool run forks it (static schedule)" 1
    (B.Exec.static_count c)

(* ---------- randomized affine accesses (property) ---------- *)

(* Random two-level nests storing arithmetic over affine loads: shifted
   2-D reads, a strided output column, an optional invariant factor, under
   a random innermost tag.  The tape must claim every such nest, and the
   result must be bit-identical to the interpreter with the tape on and
   off. *)
let kernel_gen =
  QCheck.Gen.(
    let* ni = int_range 1 6 and* nj = int_range 1 12 in
    let* da = int_range 0 2 and* db = int_range 0 2 in
    let* stride = oneofl [ 1; 2; 3 ] in
    let* off = int_range 0 2 in
    let* k = map float_of_int (int_range (-4) 4) in
    let* op1 = oneofl [ L.Add; L.Sub; L.Mul ] in
    let* op2 = oneofl [ L.Add; L.Sub; L.Mul; L.MinOp; L.MaxOp ] in
    let* invariant = bool in
    let* tag = oneofl [ L.Seq; L.Unrolled; L.Vectorized 2; L.Vectorized 4 ] in
    return (ni, nj, da, db, stride, off, k, op1, op2, invariant, tag))

let build_kernel (ni, nj, da, db, stride, off, k, op1, op2, invariant, tag) =
  let value =
    let base =
      L.Bin
        ( op1,
          L.Load ("a", [ L.(Var "i" +! int da); L.(Var "j" +! int db) ]),
          L.Bin (op2, L.Load ("b", [ L.Var "j" ]), L.Float k) )
    in
    if invariant then L.Bin (L.Mul, base, L.Load ("c", [ L.Var "i" ]))
    else base
  in
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int (ni - 1); tag = L.Seq;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int (nj - 1); tag;
              body =
                L.Store
                  ( "out",
                    [ L.Var "i"; L.(Var "j" *! int stride +! int off) ],
                    value ) } }
  in
  let shapes =
    [ ("a", [ ni + 2; nj + 2 ]); ("b", [ nj ]); ("c", [ ni ]);
      ("out", [ ni; ((nj - 1) * stride) + off + 1 ]) ]
  in
  (stmt, shapes)

let prop_spec_matches_interp =
  QCheck.Test.make ~count:200
    ~name:"specialized executor bit-identical on random affine kernels"
    (QCheck.make kernel_gen)
    (fun g ->
      let stmt, shapes = build_kernel g in
      tape_and_closure stmt [ "out" ] ~shapes
        ~fills:[ ("a", fill_a); ("b", fill_b); ("c", fill_b) ];
      true)

(* ---------- golden C pragmas ---------- *)

let contains hay needle = Astring.String.is_infix ~affix:needle hay

let c_pragmas () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 7; tag = L.Unrolled;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 15; tag = L.Vectorized 4;
              body =
                L.Store
                  ( "out",
                    [ L.Var "i"; L.Var "j" ],
                    L.Load ("a", [ L.Var "i"; L.Var "j" ]) ) } }
  in
  let src =
    C_emit.emit_function ~name:"k" ~params:[]
      ~buffers:[ ("a", [| 8; 16 |]); ("out", [| 8; 16 |]) ]
      stmt
  in
  Alcotest.(check bool) "#pragma unroll emitted" true
    (contains src "#pragma unroll");
  Alcotest.(check bool) "#pragma omp simd carries the width" true
    (contains src "#pragma omp simd simdlen(4)")

(* ---------- odometer fill ---------- *)

let odometer_fill () =
  let b = B.Buffers.create "t" [| 3; 4; 5 |] in
  let f idx =
    float_of_int ((idx.(0) * 100) + (idx.(1) * 10) + idx.(2))
  in
  B.Buffers.fill b f;
  for i = 0 to 2 do
    for j = 0 to 3 do
      for k = 0 to 4 do
        Alcotest.(check (float 0.0))
          (Printf.sprintf "t[%d][%d][%d]" i j k)
          (f [| i; j; k |])
          (B.Buffers.get b [| i; j; k |])
      done
    done
  done

let tests =
  [
    Alcotest.test_case "unrolled driver" `Quick unrolled_driver;
    Alcotest.test_case "vector lanes + scalar epilogue" `Quick vector_epilogue;
    Alcotest.test_case "scalar promotion of invariant loads" `Quick
      scalar_promotion;
    Alcotest.test_case "accumulator promotion" `Quick accumulator;
    Alcotest.test_case "pool demotion of tiny parallel loops" `Quick
      pool_demotion;
    QCheck_alcotest.to_alcotest prop_spec_matches_interp;
    Alcotest.test_case "C pragmas for unroll / simd width" `Quick c_pragmas;
    Alcotest.test_case "odometer fill visits every cell" `Quick odometer_fill;
  ]

let () = Alcotest.run "spec" [ ("kernel-specializer", tests) ]
