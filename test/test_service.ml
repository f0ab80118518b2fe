(* The compile service and its persistent store: on-disk integrity
   (truncation, bit flips, stale tape-generator versions), in-flight
   dedup, bounded admission, cooperative deadlines, and the end-to-end
   submit -> instantiate -> run path checked against the interpreter. *)

module L = Tiramisu_codegen.Loop_ir
module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline
module S = Tiramisu_service.Service
module Store = Tiramisu_service.Store
module Tape_gen = Tiramisu_codegen.Tape_gen
module Limits = Tiramisu_support.Limits

let fresh_root =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tiramisu_service_test_%d_%d" (Unix.getpid ()) !n)

(* A family of tiny kernels: out[i] = i * 2 + c over 16 elements. *)
let test_stmt c =
  L.For
    { var = "i"; lo = L.Int 0; hi = L.Int 15; tag = L.Seq;
      body =
        L.Store
          ( "out", [ L.Var "i" ],
            L.Bin (L.Add, L.Bin (L.Mul, L.Var "i", L.Int 2), L.Int c) ) }

let test_req ?deadline_s c =
  { S.rq_name = Printf.sprintf "t%d" c;
    rq_stmt = test_stmt c;
    rq_knobs = { P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () };
    rq_params = [];
    rq_extents = [ ("out", [| 16 |], L.Host) ];
    rq_deadline_s = deadline_s }

let expect_done = function
  | S.Done rs -> rs
  | S.Rejected -> Alcotest.fail "expected Done, got Rejected"
  | S.Failed m -> Alcotest.fail ("expected Done, got Failed: " ^ m)

let interp_out stmt =
  let interp = B.Interp.create ~params:[] () in
  B.Interp.add_buffer interp (B.Buffers.create "out" [| 16 |]);
  B.Interp.run interp stmt;
  Array.copy (B.Interp.buffer interp "out").B.Buffers.data

(* ---------- the store on its own ---------- *)

let payload_of c =
  let prepared, plan =
    P.prepare_and_plan
      ~knobs:{ P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () }
      ~params:[] (test_stmt c)
  in
  { Store.p_src = test_stmt c; p_stmt = prepared; p_plan = plan }

let seq_target = B.Target.to_key_string (B.Target.cpu ~parallel:`Seq ())

let store_roundtrip () =
  let st = Store.open_store (fresh_root ()) in
  let key = S.key_of (test_req 1) in
  let payload = payload_of 1 in
  Store.put st ~key ~target:seq_target payload;
  (match Store.get st ~key ~src:(test_stmt 1) ~target:seq_target with
  | Store.Hit p ->
      Alcotest.(check bool) "prepared statement survives the disk" true
        (p.Store.p_stmt = payload.Store.p_stmt)
  | Store.Miss -> Alcotest.fail "roundtrip missed"
  | Store.Quarantined r -> Alcotest.fail ("roundtrip quarantined: " ^ r));
  (* same key, different source statement: the digest-collision guard
     must report a miss, never hand back someone else's artifact *)
  (match Store.get st ~key ~src:(test_stmt 2) ~target:seq_target with
  | Store.Miss -> ()
  | _ -> Alcotest.fail "collision guard failed to miss");
  (* same key and source, different target string: a clean miss — one
     store holds artifacts for several targets without aliasing *)
  (match
     Store.get st ~key ~src:(test_stmt 1)
       ~target:(B.Target.to_key_string (B.Target.gpu_sim ()))
   with
  | Store.Miss -> ()
  | _ -> Alcotest.fail "target guard failed to miss");
  Alcotest.(check int) "nothing quarantined" 0 (Store.quarantined st)

(* Corrupt the artifact file via [mutate path], then check that the load
   quarantines it: verdict, file moved aside, subsequent load misses. *)
let corruption_case mutate =
  let st = Store.open_store (fresh_root ()) in
  let key = S.key_of (test_req 3) in
  Store.put st ~key ~target:seq_target (payload_of 3);
  let path = Store.path_of_key st key in
  mutate path;
  (match Store.get st ~key ~src:(test_stmt 3) ~target:seq_target with
  | Store.Quarantined _ -> ()
  | Store.Hit _ -> Alcotest.fail "corrupt file loaded as a hit"
  | Store.Miss -> Alcotest.fail "corrupt file reported a clean miss");
  Alcotest.(check int) "quarantine counted" 1 (Store.quarantined st);
  Alcotest.(check bool) "corpse moved out of the shard" false
    (Sys.file_exists path);
  Alcotest.(check bool) "corpse kept for post-mortem" true
    (Sys.file_exists
       (Filename.concat
          (Filename.concat (Store.root st) "quarantine")
          (key ^ ".art")));
  (match Store.get st ~key ~src:(test_stmt 3) ~target:seq_target with
  | Store.Miss -> ()
  | _ -> Alcotest.fail "quarantined key should now miss");
  (* recompile repairs the key *)
  Store.put st ~key ~target:seq_target (payload_of 3);
  match Store.get st ~key ~src:(test_stmt 3) ~target:seq_target with
  | Store.Hit _ -> ()
  | _ -> Alcotest.fail "re-put after quarantine should hit"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let store_truncation () =
  corruption_case (fun path ->
      let raw = read_file path in
      write_file path (String.sub raw 0 (String.length raw / 2)))

let store_bitflip () =
  corruption_case (fun path ->
      let raw = Bytes.of_string (read_file path) in
      let i = Bytes.length raw - 3 in
      Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 0x40));
      write_file path (Bytes.to_string raw))

let store_stale_tapegen () =
  let st = Store.open_store (fresh_root ()) in
  let key = S.key_of (test_req 4) in
  Store.put ~tapegen:(Tape_gen.version + 1) st ~key ~target:seq_target
    (payload_of 4);
  (match Store.get st ~key ~src:(test_stmt 4) ~target:seq_target with
  | Store.Miss -> ()
  | Store.Hit _ -> Alcotest.fail "stale tape-generator artifact hit"
  | Store.Quarantined r ->
      Alcotest.fail ("stale artifact quarantined as corrupt: " ^ r));
  (* stale is not corrupt: no quarantine, file left in place for overwrite *)
  Alcotest.(check int) "stale entries are not quarantined" 0
    (Store.quarantined st);
  Alcotest.(check bool) "stale file left for the next put" true
    (Sys.file_exists (Store.path_of_key st key))

(* A pre-refactor (v1) artifact must read as a clean miss — never a
   quarantine (the file is valid, just old), never a hit.  Write one by
   hand with the old record shape: same leading fields, no [f_target].
   The loader checks [f_format] before anything else, so the narrower
   block is never interpreted further. *)
let store_v1_format_miss () =
  let module V1 = struct
    type v1_persisted = {
      f_format : int;
      f_tapegen : int;
      f_key : string;
      f_prep_hash : int;
      f_payload : Store.payload;
    }
  end in
  let st = Store.open_store (fresh_root ()) in
  let key = S.key_of (test_req 5) in
  let payload = payload_of 5 in
  (* a real put first, to create the shard; then overwrite with v1 bytes *)
  Store.put st ~key ~target:seq_target payload;
  let record =
    { V1.f_format = 1; f_tapegen = Tape_gen.version; f_key = key;
      f_prep_hash = Tiramisu_codegen.Loop_ir.structural_hash
          payload.Store.p_stmt;
      f_payload = payload }
  in
  let body = Marshal.to_string record [] in
  write_file (Store.path_of_key st key) (Digest.string body ^ body);
  (match Store.get st ~key ~src:(test_stmt 5) ~target:seq_target with
  | Store.Miss -> ()
  | Store.Hit _ -> Alcotest.fail "v1 artifact served as a hit"
  | Store.Quarantined r -> Alcotest.fail ("v1 artifact quarantined: " ^ r));
  Alcotest.(check int) "v1 artifacts are not quarantined" 0
    (Store.quarantined st);
  (* the next put overwrites the stale file and the key hits again *)
  Store.put st ~key ~target:seq_target payload;
  match Store.get st ~key ~src:(test_stmt 5) ~target:seq_target with
  | Store.Hit _ -> ()
  | _ -> Alcotest.fail "re-put after a v1 miss should hit"

(* ---------- the service ---------- *)

let with_service ?workers ?queue_cap ?mem_cap ?before_compile ?root f =
  let root = match root with Some r -> r | None -> fresh_root () in
  let sv = S.create ?workers ?queue_cap ?mem_cap ?before_compile ~root () in
  Fun.protect ~finally:(fun () -> S.shutdown sv) (fun () -> f sv)

let service_tiers () =
  let root = fresh_root () in
  (* first server: cold compile, then a memory hit *)
  with_service ~workers:2 ~root (fun sv ->
      let req = test_req 10 in
      let rs = expect_done (S.submit sv req) in
      Alcotest.(check bool) "cold submit compiled" true
        (rs.S.rs_source = `Compiled);
      (* run the artifact and compare against the interpreter *)
      let exec = S.instantiate req rs ~inputs:[] in
      B.Exec.run exec;
      let got = (B.Exec.buffer exec "out").B.Buffers.data in
      let want = interp_out (test_stmt 10) in
      Alcotest.(check int) "output length" (Array.length want)
        (Array.length got);
      Array.iteri
        (fun i v -> Alcotest.(check (float 0.0)) "element" want.(i) v)
        got;
      let rs2 = expect_done (S.submit sv req) in
      Alcotest.(check bool) "second submit served from memory" true
        (rs2.S.rs_source = `Mem);
      let st = S.stats sv in
      Alcotest.(check int) "one compile" 1 st.S.compiles;
      Alcotest.(check int) "one memory hit" 1 st.S.mem_hits);
  (* second server on the same root: disk tier, no pass re-runs *)
  with_service ~workers:1 ~root (fun sv ->
      let rs = expect_done (S.submit sv (test_req 10)) in
      Alcotest.(check bool) "warm server hit the disk tier" true
        (rs.S.rs_source = `Disk);
      Alcotest.(check int) "no compiles on a warm store" 0
        (S.stats sv).S.compiles);
  (* third server: corrupt the artifact on disk; the service must
     quarantine and recompile, not crash or serve garbage *)
  with_service ~workers:1 ~root (fun sv ->
      let key = S.key_of (test_req 10) in
      let path = Store.path_of_key (S.store sv) key in
      let raw = read_file path in
      write_file path (String.sub raw 0 (String.length raw - 4));
      let rs = expect_done (S.submit sv (test_req 10)) in
      Alcotest.(check bool) "corrupt artifact recompiled" true
        (rs.S.rs_source = `Compiled);
      Alcotest.(check int) "corruption quarantined" 1
        (S.stats sv).S.quarantined)

let service_inflight_dedup () =
  (* the hook stalls the one real compile long enough that every other
     client observes the in-flight job and waits on it *)
  with_service ~workers:2
    ~before_compile:(fun _ -> Unix.sleepf 0.15)
    (fun sv ->
      let outcomes = Array.make 8 S.Rejected in
      let threads =
        List.init 8 (fun i ->
            Thread.create (fun () -> outcomes.(i) <- S.submit sv (test_req 20)) ())
      in
      List.iter Thread.join threads;
      Array.iter (fun o -> ignore (expect_done o)) outcomes;
      let st = S.stats sv in
      Alcotest.(check int) "eight clients, one compile" 1 st.S.compiles;
      Alcotest.(check int) "everyone else shared it" 7
        (st.S.dedup_waits + st.S.mem_hits))

let service_bounded_admission () =
  (* one worker stalled 300 ms, queue of one: near-simultaneous distinct
     keys past the first two must shed at admission *)
  with_service ~workers:1 ~queue_cap:1
    ~before_compile:(fun _ -> Unix.sleepf 0.3)
    (fun sv ->
      let n = 6 in
      let outcomes = Array.make n (S.Failed "unset") in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () -> outcomes.(i) <- S.submit sv (test_req (30 + i)))
              ())
      in
      List.iter Thread.join threads;
      let done_, rejected, failed =
        Array.fold_left
          (fun (d, r, f) -> function
            | S.Done _ -> (d + 1, r, f)
            | S.Rejected -> (d, r + 1, f)
            | S.Failed _ -> (d, r, f + 1))
          (0, 0, 0) outcomes
      in
      Alcotest.(check int) "no failures" 0 failed;
      Alcotest.(check int) "every request got an outcome" n (done_ + rejected);
      Alcotest.(check bool) "full queue sheds load" true (rejected >= 1);
      Alcotest.(check bool) "accepted requests complete" true (done_ >= 1);
      Alcotest.(check int) "stats agree" rejected (S.stats sv).S.rejected)

let service_deadline () =
  with_service ~workers:1
    ~before_compile:(fun _ -> Unix.sleepf 0.2)
    (fun sv ->
      (match S.submit sv (test_req ~deadline_s:0.01 40) with
      | S.Failed msg ->
          Alcotest.(check bool) "failure names the deadline" true
            (Astring.String.is_infix ~affix:"deadline" msg)
      | S.Done _ -> Alcotest.fail "deadline-expired request succeeded"
      | S.Rejected -> Alcotest.fail "deadline request was rejected");
      Alcotest.(check int) "failure counted" 1 (S.stats sv).S.failed;
      (* the worker survives a timed-out job *)
      let rs = expect_done (S.submit sv (test_req 41)) in
      Alcotest.(check bool) "next request compiles normally" true
        (rs.S.rs_source = `Compiled))

(* The same program compiled for Cpu and for Gpu_sim must produce two
   distinct artifacts in one store: distinct keys, two compiles, two
   files — and both execute to the interpreter's bits. *)
let service_target_distinct () =
  with_service ~workers:1 (fun sv ->
      let req_cpu = test_req 50 in
      let req_gpu =
        { req_cpu with
          S.rq_knobs = { P.default_knobs with P.target = B.Target.gpu_sim () }
        }
      in
      Alcotest.(check bool) "targets key differently" true
        (S.key_of req_cpu <> S.key_of req_gpu);
      let rs_cpu = expect_done (S.submit sv req_cpu) in
      let rs_gpu = expect_done (S.submit sv req_gpu) in
      Alcotest.(check bool) "both cold submits compiled" true
        (rs_cpu.S.rs_source = `Compiled && rs_gpu.S.rs_source = `Compiled);
      Alcotest.(check int) "two compiles for two targets" 2
        (S.stats sv).S.compiles;
      Alcotest.(check bool) "two artifact files on disk" true
        (Sys.file_exists (Store.path_of_key (S.store sv) rs_cpu.S.rs_key)
        && Sys.file_exists (Store.path_of_key (S.store sv) rs_gpu.S.rs_key));
      let run req rs =
        let exec = S.instantiate req rs ~inputs:[] in
        B.Exec.run exec;
        Array.copy (B.Exec.buffer exec "out").B.Buffers.data
      in
      let want = interp_out (test_stmt 50) in
      let check_out tag got =
        Alcotest.(check int) (tag ^ " length") (Array.length want)
          (Array.length got);
        Array.iteri
          (fun i v ->
            Alcotest.(check (float 0.0)) (tag ^ " element") want.(i) v)
          got
      in
      check_out "cpu" (run req_cpu rs_cpu);
      check_out "gpu-sim" (run req_gpu rs_gpu))

(* ---------- the cooperative deadline guard ---------- *)

let limits_deadline () =
  (* a loop that polls the guard times out... *)
  let r =
    Limits.with_deadline 0.005 (fun () ->
        let rec spin () =
          Limits.check_deadline ();
          spin ()
        in
        spin ())
  in
  Alcotest.(check bool) "polling loop hits the deadline" true (r = None);
  (* ...a fast function does not... *)
  Alcotest.(check bool) "fast body completes" true
    (Limits.with_deadline 5.0 (fun () -> 42) = Some 42);
  (* ...nesting keeps the tighter deadline... *)
  let nested =
    Limits.with_deadline 10.0 (fun () ->
        Limits.with_deadline 0.005 (fun () ->
            let rec spin () =
              Limits.check_deadline ();
              spin ()
            in
            spin ()))
  in
  Alcotest.(check bool) "inner deadline wins" true (nested = Some None)

(* ---------- the work budget ---------- *)

(* A small system whose feasibility test eliminates a variable: Omega
   charges the shadow it generates. *)
let omega_query () =
  Tiramisu_presburger.Omega.feasible ~n:2 ~eqs:[]
    ~ineqs:
      [ [| 0; 1; 0 |]; [| 10; -1; 0 |]; [| 0; -1; 1 |]; [| 5; 0; -1 |] ]

let limits_fuel () =
  let over n () = Limits.charge ~stage:"test" n in
  (* nested budgets charge both: the inner charge leaves the outer 70... *)
  Alcotest.(check (option unit)) "the outer budget paid for the inner charge"
    None
    (Limits.with_fuel 100 (fun () ->
         ignore (Limits.with_fuel 50 (over 30));
         over 71 ()));
  Alcotest.(check (option (option unit))) "...and had 70 left" (Some (Some ()))
    (Limits.with_fuel 100 (fun () ->
         ignore (Limits.with_fuel 50 (over 30));
         Limits.with_fuel 1000 (over 70)));
  (* ...and the tighter one fires first, whichever it is *)
  Alcotest.(check (option (option unit))) "tighter inner budget fires"
    (Some None)
    (Limits.with_fuel 100 (fun () -> Limits.with_fuel 10 (over 11)));
  Alcotest.(check (option (option unit))) "tighter outer budget fires" None
    (Limits.with_fuel 10 (fun () -> Limits.with_fuel 100 (over 11)));
  (* a refused charge spends nothing of the budgets around the one that
     fired *)
  Alcotest.(check (option unit)) "the outer budget kept its fuel" (Some ())
    (Limits.with_fuel 20 (fun () ->
         ignore (Limits.with_fuel 10 (over 15));
         over 20 ()));
  (* the exception names the stage that spent the budget *)
  Alcotest.(check (option string)) "stage named" (Some "omega.shadow")
    (Limits.with_fuel 1 (fun () ->
         try Limits.charge ~stage:"omega.shadow" 2; ""
         with Limits.Budget_exceeded stage -> stage));
  (* unbudgeted code charges nothing *)
  over max_int ();
  (* the polyhedral core charges the same budget on a spawned domain, and a
     domain starts with none of its parent's budgets *)
  let on_domain () =
    over max_int ();
    (Limits.with_fuel 0 omega_query, Limits.with_fuel 1000 omega_query)
  in
  let main = on_domain () in
  let spawned =
    Limits.with_fuel 5 (fun () -> Domain.join (Domain.spawn on_domain))
  in
  Alcotest.(check bool) "spent at once on the main domain" true
    (main = (None, Some true));
  Alcotest.(check bool) "the same verdicts on a spawned domain" true
    (spawned = Some main)

(* Two systhreads of one domain (as the compile server's connection
   threads are) whose budgets overlap: each thread charges only its own
   budget, and each removes only its own when it finishes, so neither the
   order they finish in nor the other's work changes a verdict. *)
let limits_fuel_threads () =
  let m = Mutex.create () and c = Condition.create () and step = ref 0 in
  let reach k =
    Mutex.protect m (fun () ->
        step := k;
        Condition.broadcast c)
  in
  let await k =
    Mutex.protect m (fun () -> while !step < k do Condition.wait c m done)
  in
  let outcome f =
    match f () with
    | Some () -> "done"
    | None -> "spent"
    | exception e -> Printexc.to_string e
  in
  let a = ref "" and b = ref "" in
  (* a opens 100, b opens 10 on top of it, a charges 50 and finishes
     first, then b charges 8 twice *)
  let ta =
    Thread.create
      (fun () ->
        (a :=
           outcome (fun () ->
               Limits.with_fuel 100 (fun () ->
                   reach 1;
                   await 2;
                   Limits.charge ~stage:"a" 50)));
        reach 3)
      ()
  in
  let tb =
    Thread.create
      (fun () ->
        await 1;
        b :=
          outcome (fun () ->
              Limits.with_fuel 10 (fun () ->
                  reach 2;
                  await 3;
                  Limits.charge ~stage:"b" 8;
                  Limits.charge ~stage:"b" 8)))
      ()
  in
  Thread.join ta;
  Thread.join tb;
  Alcotest.(check string) "b's budget did not pay for a's work" "done" !a;
  Alcotest.(check string) "b's budget is charged after a finished" "spent" !b;
  (* no budget is left open on the main domain *)
  Limits.charge ~stage:"after" max_int

(* An input naming no buffer of the request is the same error the
   pipeline, the kernel runner and the interpreter oracle raise
   (test_pipeline checks those paths). *)
let instantiate_unknown_input () =
  with_service ~workers:1 (fun sv ->
      let req = test_req 11 in
      let rs = expect_done (S.submit sv req) in
      Alcotest.check_raises "unknown input"
        (Invalid_argument "unknown input buffer nope") (fun () ->
          ignore (S.instantiate req rs ~inputs:[ ("nope", fun _ -> 1.0) ])))

let () =
  Alcotest.run "service"
    [
      ( "store",
        [
          Alcotest.test_case "put/get roundtrip + collision guard" `Quick
            store_roundtrip;
          Alcotest.test_case "truncated file quarantined then repaired"
            `Quick store_truncation;
          Alcotest.test_case "bit flip quarantined" `Quick store_bitflip;
          Alcotest.test_case "stale tape-generator version misses cleanly"
            `Quick store_stale_tapegen;
          Alcotest.test_case "pre-target (v1) artifact misses cleanly" `Quick
            store_v1_format_miss;
        ] );
      ( "service",
        [
          Alcotest.test_case "compile/mem/disk tiers + quarantine repair"
            `Quick service_tiers;
          Alcotest.test_case "in-flight dedup: 8 clients, 1 compile" `Quick
            service_inflight_dedup;
          Alcotest.test_case "bounded admission sheds load" `Quick
            service_bounded_admission;
          Alcotest.test_case "cooperative deadline fails the request" `Quick
            service_deadline;
          Alcotest.test_case "Cpu and Gpu_sim artifacts coexist in one store"
            `Quick service_target_distinct;
          Alcotest.test_case "instantiate rejects an unknown input" `Quick
            instantiate_unknown_input;
        ] );
      ( "limits",
        [ Alcotest.test_case "cooperative deadline guard" `Quick
            limits_deadline;
          Alcotest.test_case "work budget is per thread on one domain" `Quick
            limits_fuel_threads;
          Alcotest.test_case "work budget nests and works on every domain"
            `Quick limits_fuel ] );
    ]
