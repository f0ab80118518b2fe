(* The reference interpreter's semantics: golden counters of every CLI
   kernel, the exact error each faulting access raises, and the scoping of
   loop variables, parameters and Alloc'd buffers. *)

module B = Tiramisu_backends
module L = Tiramisu_codegen.Loop_ir
module Lower = Tiramisu_core.Lower

(* Counters of every CLI kernel at its small parameters, run on the
   interpreter as [tiramisuc run] does: unscheduled and at the kernel's
   CPU schedule ([tuned] for sgemm).  (flops, loads, stores, iterations). *)
let golden_counters =
  [
    ("blur", "none", (4284, 4284, 1428, 1938));
    ("blur", "cpu", (8064, 8064, 2688, 1988));
    ("cvtColor", "none", (2400, 1440, 480, 504));
    ("cvtColor", "cpu", (2400, 1440, 480, 624));
    ("conv2D", "none", (16320, 17280, 960, 1300));
    ("conv2D", "cpu", (16320, 17280, 960, 1700));
    ("warpAffine", "none", (43200, 1280, 320, 340));
    ("warpAffine", "cpu", (96960, 1280, 320, 420));
    ("gaussian", "none", (17280, 9600, 1920, 2600));
    ("gaussian", "cpu", (17280, 9600, 1920, 2760));
    ("nb", "none", (3840, 3840, 3840, 5200));
    ("nb", "cpu", (3840, 3840, 3840, 1380));
    ("edgeDetector", "none", (3592, 3336, 545, 578));
    ("edgeDetector", "cpu", (3592, 3336, 545, 710));
    ("ticket2373", "none", (0, 136, 136, 152));
    ("ticket2373", "cpu", (0, 136, 136, 152));
    ("sgemm", "none", (12544, 12544, 4352, 4640));
    ("sgemm", "tuned", (12544, 12544, 4352, 6134));
    ("hpcg", "none", (27136, 13824, 512, 584));
    ("hpcg", "cpu", (27136, 13824, 512, 712));
    ("baryon", "none", (2048, 2560, 520, 688));
    ("baryon", "cpu", (2048, 2560, 520, 732));
  ]

let counters_test () =
  let module K = Tiramisu_kernels.Catalog in
  List.iter
    (fun (name, sched, want) ->
      let k = List.find (fun (k : K.kernel) -> k.K.k_name = name) K.kernels in
      let params = k.K.params_small in
      let f = k.K.build () in
      (List.assoc sched (k.K.schedules params)) f;
      let ast = (Tiramisu_pipeline.Pipeline.lower f).Lower.ast in
      let it =
        B.Interp.reference ~params
          ~extents:(Tiramisu_pipeline.Pipeline.extents_of_fn f ~params)
          ~inputs:k.K.inputs ast
      in
      let c = B.Interp.counters it in
      Alcotest.(check (pair (pair int int) (pair int int)))
        (name ^ " " ^ sched)
        (let fl, ld, st, it = want in ((fl, ld), (st, it)))
        ((c.B.Interp.flops, c.B.Interp.loads),
         (c.B.Interp.stores, c.B.Interp.iterations));
      Alcotest.(check (pair int int)) (name ^ " " ^ sched ^ " messages")
        (0, 0) (c.B.Interp.messages, c.B.Interp.bytes_sent))
    golden_counters

(* A one-off interpreter over named buffers of the given dims. *)
let interp ?(params = []) bufs =
  B.Interp.create ~params
    ~buffers:(List.map (fun (n, dims) -> B.Buffers.create n dims) bufs)
    ()

let raises_exactly name exn f =
  match f () with
  | () -> Alcotest.failf "%s: no exception" name
  | exception e ->
      Alcotest.(check string) name (Printexc.to_string exn)
        (Printexc.to_string e)

let store b idx v = L.Store (b, idx, v)
let loop v lo hi body = L.For { var = v; lo = L.Int lo; hi; tag = L.Seq; body }

let error_tests =
  let run ?params bufs s () = B.Interp.run (interp ?params bufs) s in
  [
    Alcotest.test_case "unbound variable" `Quick (fun () ->
        raises_exactly "unbound" (Failure "Interp: unbound variable x")
          (run [ ("a", [| 4 |]) ] (store "a" [ L.Var "x" ] (L.Float 1.0))));
    Alcotest.test_case "unknown buffer on a load" `Quick (fun () ->
        raises_exactly "load" (Failure "Interp: unknown buffer q")
          (run [ ("a", [| 4 |]) ]
             (store "a" [ L.Int 0 ] (L.Load ("q", [ L.Int 0 ])))));
    Alcotest.test_case "unknown buffer on a store" `Quick (fun () ->
        raises_exactly "store" (Failure "Interp: unknown buffer q")
          (run [ ("a", [| 4 |]) ] (store "q" [ L.Int 0 ] (L.Float 1.0))));
    Alcotest.test_case "rank mismatch" `Quick (fun () ->
        raises_exactly "rank"
          (Invalid_argument "buffer a: rank 2 access on rank 1 buffer")
          (run [ ("a", [| 4 |]) ]
             (store "a" [ L.Int 0; L.Int 0 ] (L.Float 1.0))));
    Alcotest.test_case "out of bounds, after the earlier stores" `Quick
      (fun () ->
        let it = interp [ ("a", [| 4 |]) ] in
        raises_exactly "oob"
          (Invalid_argument "buffer a: index 4 out of bounds [0,4) at dim 0")
          (fun () ->
            B.Interp.run it
              (loop "i" 0 (L.Int 9)
                 (store "a" [ L.Var "i" ] (L.Float 2.0))));
        (* the counter is bumped before the check: the faulting store
           counts, its value does not land *)
        Alcotest.(check int) "stores counted" 5
          (B.Interp.counters it).B.Interp.stores;
        Alcotest.(check (array (float 0.0))) "values" [| 2.; 2.; 2.; 2. |]
          (B.Interp.buffer it "a").B.Buffers.data);
    Alcotest.test_case "evaluation order of a store"
      `Quick (fun () ->
        (* a load's indices come before its buffer: the unbound index wins *)
        raises_exactly "load index first"
          (Failure "Interp: unbound variable x")
          (run [ ("a", [| 4 |]) ]
             (store "a" [ L.Int 0 ] (L.Load ("q", [ L.Var "x" ]))));
        (* a store's buffer comes before its indices *)
        raises_exactly "store buffer first"
          (Failure "Interp: unknown buffer q")
          (run [ ("a", [| 4 |]) ] (store "q" [ L.Var "x" ] (L.Float 1.0)));
        (* the stored value is evaluated before the store's own check *)
        raises_exactly "value before check"
          (Invalid_argument "buffer a: index 7 out of bounds [0,4) at dim 0")
          (run [ ("a", [| 4 |]) ]
             (store "a" [ L.Int 5 ] (L.Load ("a", [ L.Int 7 ]))));
        (* every index is evaluated before any is checked *)
        raises_exactly "all indices first"
          (Failure "Interp: unbound variable y")
          (run [ ("m", [| 2; 2 |]) ]
             (store "m" [ L.Int 9; L.Var "y" ] (L.Float 1.0))));
  ]

let shadowing_tests =
  [
    Alcotest.test_case "nested loops reusing a name" `Quick (fun () ->
        (* the outer i is read after an inner loop over another i *)
        let it = interp [ ("out", [| 3 |]); ("inner", [| 2 |]) ] in
        B.Interp.run it
          (loop "i" 0 (L.Int 2)
             (L.Block
                [ loop "i" 0 (L.Int 1) (store "inner" [ L.Var "i" ] (L.Var "i"));
                  store "out" [ L.Var "i" ] (L.Var "i") ]));
        Alcotest.(check (array (float 0.0))) "outer i restored"
          [| 0.; 1.; 2. |] (B.Interp.buffer it "out").B.Buffers.data;
        Alcotest.(check (array (float 0.0))) "inner i" [| 0.; 1. |]
          (B.Interp.buffer it "inner").B.Buffers.data);
    Alcotest.test_case "an Alloc shadows a buffer and restores it" `Quick
      (fun () ->
        let it = interp [ ("t", [| 2 |]); ("out", [| 3 |]) ] in
        B.Interp.run it
          (L.Block
             [ store "t" [ L.Int 1 ] (L.Float 7.0);
               L.Alloc
                 { buf = "t"; dtype = L.F32; dims = [ L.Int 3 ]; mem = L.Host;
                   body =
                     L.Block
                       [ store "t" [ L.Int 2 ] (L.Float 5.0);
                         store "out" [ L.Int 0 ] (L.Load ("t", [ L.Int 2 ]));
                         store "out" [ L.Int 2 ]
                           (L.Load ("t", [ L.Int 1 ])) ] };
               store "out" [ L.Int 1 ] (L.Load ("t", [ L.Int 1 ])) ]);
        Alcotest.(check (array (float 0.0))) "out" [| 5.; 7.; 0. |]
          (B.Interp.buffer it "out").B.Buffers.data;
        Alcotest.(check (array (float 0.0))) "outer t untouched" [| 0.; 7. |]
          (B.Interp.buffer it "t").B.Buffers.data;
        (* a buffer only an Alloc binds is unknown outside it *)
        raises_exactly "scoped"
          (Failure "Interp: unknown buffer u")
          (fun () ->
            B.Interp.run it
              (L.Block
                 [ L.Alloc { buf = "u"; dtype = L.F32; dims = [ L.Int 1 ];
                             mem = L.Host; body = L.Comment "" };
                   store "out" [ L.Int 0 ] (L.Load ("u", [ L.Int 0 ])) ])));
    Alcotest.test_case "parameters and a shadowing loop"
      `Quick (fun () ->
        let it = interp ~params:[ ("N", 3) ] [ ("a", [| 4 |]) ] in
        B.Interp.run it
          (L.Block
             [ loop "i" 0 L.(Var "N" -! Int 1)
                 (store "a" [ L.Var "i" ] L.(Var "N" *! Var "i"));
               loop "N" 0 (L.Int 1) (L.Comment "");
               store "a" [ L.Int 3 ] (L.Var "N") ]);
        Alcotest.(check (array (float 0.0))) "a" [| 0.; 3.; 6.; 3. |]
          (B.Interp.buffer it "a").B.Buffers.data;
        (* a loop variable is unbound once its loop is over *)
        raises_exactly "loop variable out of scope"
          (Failure "Interp: unbound variable i")
          (fun () ->
            B.Interp.run it
              (L.Block
                 [ loop "i" 0 (L.Int 0) (L.Comment "");
                   store "a" [ L.Var "i" ] (L.Float 0.0) ])));
    Alcotest.test_case "a store hook sees every index"
      `Quick (fun () ->
        let it = interp [ ("m", [| 3; 4 |]) ] in
        let seen = ref [] in
        B.Interp.on_store it (fun b idx v -> seen := (b, idx, v) :: !seen);
        B.Interp.run it
          (loop "i" 0 (L.Int 2)
             (loop "j" 0 (L.Int 3)
                (store "m" [ L.Var "i"; L.Var "j" ]
                   L.(Var "i" *! Int 10 +! Var "j"))));
        let want =
          List.concat_map
            (fun i ->
              List.map
                (fun j -> ("m", [| i; j |], float_of_int ((i * 10) + j)))
                [ 0; 1; 2; 3 ])
            [ 0; 1; 2 ]
        in
        Alcotest.(check (list (triple string (array int) (float 0.0))))
          "kept" want (List.rev !seen));
  ]

let () =
  Alcotest.run "interp"
    [ ("counters",
       [ Alcotest.test_case "CLI kernels, unscheduled and CPU" `Quick
           counters_test ]);
      ("errors", error_tests); ("scoping", shadowing_tests) ]
