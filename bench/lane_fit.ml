(* Lane-cost fit of the vector tape: how much of a vector dispatch is a
   fixed cost and how much grows with its lanes.

   Two hand-built tape programs run through [Tape.bind] and
   [Tape.run_range], the path a claimed nest takes:
   - rows 1: a 1-D nest of 8192 iterations whose bound vector tape is
     six instructions per batch — [vadd X@u, Y@u], [vmul r, scalar],
     [vsub r, X@u], [vfma r, scalar], [vmax r, scalar], [vstore.u] —
     bound at widths 2..128, so a run is [8192 / w] batches;
   - rows 8: an accumulator nest [C[i][j] += (A[i][k] * 0.5) * B[k][j]]
     with [j] vectorized above the reduction [k], bound as an 8 x [w]
     block ([vmul A@b, scalar], [vfma r, B@u] per [k], 512 of them).
   Each (rows, width) point is the minimum over repeats of the time per
   dispatch; a least-squares line through the points of one run gives
   the per-dispatch cost (intercept) and the per-lane cost (slope, per
   lane of a dispatch).  Each of the runs also times a 64x64x64 matrix
   multiply in plain OCaml (the host probe, as in perfbench), and the
   report gives the median and interquartile range over runs of the raw
   costs and of the costs scaled to the median probe, so a run on a
   momentarily slower host counts at the typical speed.
   Report only: no gate. *)

module B = Tiramisu_backends
module T = Tiramisu_codegen.Tape_gen
module L = Tiramisu_codegen.Loop_ir

let widths = [ 2; 4; 8; 16; 32; 64; 128 ]
let runs = 7

let level ?(tag = L.Seq) v n : T.level =
  { T.lv_var = v; lv_lo = T.Baff ([], 0); lv_hi = T.Baff ([], n - 1);
    lv_tag = tag }

let access ?(stored = false) buf idx : T.access =
  { T.ac_buf = buf; ac_idx = idx; ac_stored = stored }

let program ?accum ~levels ~accesses ~nregs ~lits code : T.program =
  let d = Array.length levels in
  { T.p_levels = levels; p_par = 0; p_accesses = accesses; p_nregs = nregs;
    p_lits = lits; p_hoists = [||]; p_ivregs = Array.init d Fun.id;
    p_promos = [||]; p_accum = accum;
    p_code = Array.concat (List.map (fun (o, d, a, b) -> [| o; d; a; b |]) code);
    p_ivuse = Array.make d false; p_vec_ok = true; p_rmw = [||];
    p_store_pairs = [||]; p_pieces = [||] }

let var v = ([ (v, 1) ], 0)

(* rows 1: Z[i] = max(fma((X[i] + Y[i]) * 0.5 - X[i], ...)) *)
let n1 = 8192

let inner_nest () =
  let i = [| var "i" |] in
  let prog =
    program ~levels:[| level "i" n1 |] ~nregs:10
      ~lits:[| (1, 0.5); (2, 3.0) |]
      ~accesses:
        [| access "x" i; access "y" i; access ~stored:true "z" i;
           access "x" i |]
      T.
        [ (op_load, 3, 0, 0); (op_load, 4, 1, 0); (op_add, 5, 3, 4);
          (op_mul, 6, 5, 1); (op_load, 7, 3, 0); (op_sub, 8, 6, 7);
          (op_fma, 8, 5, 2); (op_max, 9, 8, 1); (op_store, 0, 2, 9) ]
  in
  let bufs =
    List.map
      (fun name ->
        let b = B.Buffers.create name [| n1 |] in
        B.Buffers.fill b (fun ix -> float_of_int ((ix.(0) * 7) mod 13) -. 6.0);
        b)
      [ "x"; "y"; "z" ]
  in
  (prog, bufs)

(* rows 8: C[i][j] += (A[i][k] * 0.5) * B[k][j] over an 8 x w block *)
let kk = 512

let outer_nest w =
  let prog =
    program
      ~accum:(4, 0, true)
      ~levels:[| level "i" 8; level ~tag:(L.Vectorized 8) "j" w; level "k" kk |]
      ~nregs:9 ~lits:[| (3, 0.5) |]
      ~accesses:
        [| access ~stored:true "c" [| var "i"; var "j" |];
           access "a" [| var "i"; var "k" |];
           access "b" [| var "k"; var "j" |] |]
      T.
        [ (op_load, 5, 1, 0); (op_mul, 6, 5, 3); (op_load, 8, 2, 0);
          (op_fma, 4, 6, 8) ]
  in
  let buf name dims =
    let b = B.Buffers.create name dims in
    B.Buffers.fill b (fun ix -> float_of_int ((ix.(0) + (3 * ix.(1))) mod 5));
    b
  in
  (prog, [ buf "c" [| 8; w |]; buf "a" [| 8; kk |]; buf "b" [| kk; w |] ])

let bind ~lanes prog bufs =
  match
    B.Tape.bind ~lanes
      ~buf:(fun n -> List.find_opt (fun b -> b.B.Buffers.name = n) bufs)
      ~slot:(fun _ -> 0) prog
  with
  | Some bt -> bt
  | None -> failwith "lane-fit: a hand program did not bind"

(* ns per dispatch of one bound nest: the minimum over five repeats,
   each running the nest until it has taken at least 2 ms *)
let per_dispatch bt dispatches =
  let st = B.Tape.new_state bt and env = [| 0 |] in
  let run () =
    let total = B.Tape.enter bt st env in
    B.Tape.run_range bt st env 0 (total - 1)
  in
  run ();
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = B.Clock.now_ms () and k = ref 0 in
    while B.Clock.now_ms () -. t0 < 2.0 do
      run ();
      incr k
    done;
    let ns = (B.Clock.now_ms () -. t0) *. 1e6 /. float_of_int (!k * dispatches) in
    best := Float.min !best ns
  done;
  !best

(* least squares y = a + b x *)
let fit pts =
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun s (x, _) -> s +. x) 0.0 pts
  and sy = List.fold_left (fun s (_, y) -> s +. y) 0.0 pts in
  let mx = sx /. n and my = sy /. n in
  let sxy = List.fold_left (fun s (x, y) -> s +. ((x -. mx) *. (y -. my))) 0.0 pts
  and sxx = List.fold_left (fun s (x, _) -> s +. ((x -. mx) ** 2.0)) 0.0 pts in
  let b = sxy /. sxx in
  (my -. (b *. mx), b)

let probe () =
  let n = 64 in
  let pa = Array.init (n * n) (fun i -> float_of_int (i mod 7))
  and pb = Array.init (n * n) (fun i -> float_of_int (i mod 5))
  and pc = Array.make (n * n) 0.0 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = B.Clock.now_ms () in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let s = ref 0.0 in
        for k = 0 to n - 1 do
          s := !s +. (pa.((i * n) + k) *. pb.((k * n) + j))
        done;
        pc.((i * n) + j) <- !s
      done
    done;
    best := Float.min !best (B.Clock.now_ms () -. t0)
  done;
  !best

(* instructions of a bound vector tape's section ({!Tape.listing} lines
   [  <tag><k>: ...]): [pro] and [epi] run once per batch of an
   accumulator block, the body once per batch or per reduction step *)
let count bt tag =
  List.length
    (List.filter
       (fun l -> String.length l > 9 && String.sub l 2 4 = tag && l.[8] = ':')
       (String.split_on_char '\n' (B.Tape.listing bt)))

let one_run () =
  let prog, bufs = inner_nest () in
  let inner =
    List.map
      (fun w ->
        let bt = bind ~lanes:w prog bufs in
        (match B.Tape.mode bt with
        | B.Tape.Inner w' when w' = w -> ()
        | m -> failwith ("lane-fit: rows 1 bound " ^ B.Tape.mode_to_string m));
        (float_of_int w, per_dispatch bt (count bt "    " * (n1 / w))))
      widths
  in
  let outer =
    List.map
      (fun w ->
        let prog, bufs = outer_nest w in
        let bt = bind ~lanes:(8 * w) prog bufs in
        (match B.Tape.mode bt with
        | B.Tape.Outer { rows = Some (_, 8); width; _ } when width = w -> ()
        | m -> failwith ("lane-fit: rows 8 bound " ^ B.Tape.mode_to_string m));
        let dispatches =
          count bt "pro " + count bt "epi " + (count bt "    " * kk)
        in
        (float_of_int (8 * w), per_dispatch bt dispatches))
      widths
  in
  (probe (), fit inner, fit outer)

let run () =
  let results = List.init runs (fun _ -> one_run ()) in
  let median l =
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  let quartiles l =
    let a = Array.of_list (List.sort compare l) in
    let q p =
      let x = p *. float_of_int (Array.length a - 1) in
      let i = int_of_float x in
      let f = x -. float_of_int i in
      if i + 1 < Array.length a then (a.(i) *. (1.0 -. f)) +. (a.(i + 1) *. f)
      else a.(i)
    in
    (q 0.25, q 0.75)
  in
  let probes = List.map (fun (p, _, _) -> p) results in
  let pmed = median probes in
  let show name get =
    let raw = List.map get results in
    let norm = List.map2 (fun (p, _, _) v -> v *. pmed /. p) results raw in
    let lo, hi = quartiles raw and nlo, nhi = quartiles norm in
    Printf.printf "  %-26s %6.2f ns [%5.2f-%5.2f]   at median probe %6.2f ns [%5.2f-%5.2f]\n"
      name (median raw) lo hi (median norm) nlo nhi
  in
  Printf.printf
    "lane-fit: %d runs, widths %s; host probe (64^3 matmul) median %.3f ms [%.3f-%.3f]\n"
    runs
    (String.concat "," (List.map string_of_int widths))
    pmed (fst (quartiles probes)) (snd (quartiles probes));
  show "rows 1: per dispatch" (fun (_, (a, _), _) -> a);
  show "rows 1: per lane" (fun (_, (_, b), _) -> b);
  show "rows 8: per dispatch" (fun (_, _, (a, _)) -> a);
  show "rows 8: per lane" (fun (_, _, (_, b)) -> b)
