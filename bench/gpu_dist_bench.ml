(* GPU-sim and distributed backend scaling benchmarks.

   Two artifacts, one driver:

   - BENCH_gpu.json  — the GPU expert schedules (§VI-B) executed on the
     [Target.Gpu_sim] backend across problem sizes, each point verified
     bit-exactly against the reference interpreter.
   - BENCH_dist.json — the Fig. 3c distributed schedules executed on the
     [Target.Distributed] backend across ranks × problem sizes.  Each
     point records the measured in-process time, the exact communication
     volume (messages / bytes from the executor counters), the α–β
     predicted communication cost (alpha·msgs + beta·bytes on the
     machine's network description), and the modeled scaling time
     t₁/ranks + comm — the curve the paper's cluster numbers trace.

   Every point also records [tape_nests], the nests the flat tape claimed
   in that compile (the closures run the rest).

   `gpu-smoke` / `dist-smoke` run tiny sizes and validate the normalized
   JSON shape against bench/gpu.golden and bench/dist.golden
   ([Common.golden_gate]; regenerate with TIRAMISU_UPDATE_GOLDEN=1).
   Verification is never skipped: even smoke mode replays every point
   against the interpreter. *)

open Tiramisu_kernels
module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline

(* Deterministic input fills (same family as the test suite's). *)
let img3 (idx : int array) =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31) /. 7.0

let kern3 (idx : int array) =
  [| 0.05; 0.1; 0.05; 0.1; 0.4; 0.1; 0.05; 0.1; 0.05 |].((idx.(0) * 3) + idx.(1))

let params n m = [ ("N", n); ("M", m) ]

(* Compile on [target], verify the output buffer bit-exactly against the
   interpreter on the same scheduled pipeline, then time [reps] runs and
   return (best ms, per-run comm messages, per-run comm bytes, claimed
   tape nests).  The comm
   counters are sampled after the single verification run — they
   accumulate across runs, and the per-run exchange volume is what the
   α–β model prices. *)
let run_point ~target ~reps ~fn ~prms ~inputs ~out =
  let interp = Runner.run ~fn ~params:prms ~inputs in
  let ex = Runner.prepare_native ~target ~fn ~params:prms ~inputs () in
  B.Exec.run ex;
  let want = B.Interp.buffer interp out and got = B.Exec.buffer ex out in
  if not (B.Buffers.equal ~eps:0.0 want got) then
    failwith
      (Printf.sprintf "gpu-dist-bench: %s diverges from interpreter on %s" out
         (B.Target.to_key_string target));
  let msgs = B.Exec.comm_msgs ex and bytes = B.Exec.comm_bytes ex in
  let best = ref infinity in
  for _ = 1 to reps do
    let (), ms = Common.time_ms (fun () -> B.Exec.run ex) in
    if ms < !best then best := ms
  done;
  (!best, msgs, bytes, B.Exec.tape_count ex)

(* ------------------------------------------------------------------ *)
(* GPU-sim section                                                     *)
(* ------------------------------------------------------------------ *)

type gpu_case = {
  g_name : string;
  g_build : unit -> Tiramisu_core.Ir.fn;
  g_sched : Tiramisu_core.Ir.fn -> unit;
  g_inputs : (string * (int array -> float)) list;
  g_out : string;
}

let gpu_cases =
  [
    {
      g_name = "blur";
      g_build = (fun () -> let f, _, _ = Image.blur () in f);
      g_sched = Schedules.gpu_blur;
      g_inputs = [ ("img", img3) ];
      g_out = "by";
    };
    {
      g_name = "cvtColor";
      g_build = (fun () -> let f, _ = Image.cvt_color () in f);
      g_sched = Schedules.gpu_cvt_color;
      g_inputs = [ ("img", img3) ];
      g_out = "gray";
    };
    {
      g_name = "conv2D";
      g_build = (fun () -> let f, _, _ = Image.conv2d () in f);
      g_sched = Schedules.gpu_conv2d;
      g_inputs = [ ("img", img3); ("weights", kern3) ];
      g_out = "conv";
    };
  ]

let gpu_json ~smoke () =
  let sizes = if smoke then [ 16 ] else [ 32; 64; 128 ] in
  let reps = if smoke then 1 else 5 in
  let target = B.Target.gpu_sim () in
  let kernels =
    List.map
      (fun c ->
        let points =
          List.map
            (fun n ->
              let fn = c.g_build () in
              c.g_sched fn;
              let ms, _, _, nests =
                run_point ~target ~reps ~fn ~prms:(params n n)
                  ~inputs:c.g_inputs ~out:c.g_out
              in
              Printf.sprintf
                "        { \"n\": %d, \"time_ms\": %.6f, \"tape_nests\": \
                 %d, \"verified\": true }"
                n ms nests)
            sizes
        in
        Printf.sprintf
          "    {\n\
          \      \"name\": \"%s\",\n\
          \      \"points\": [\n\
           %s\n\
          \      ]\n\
          \    }"
          c.g_name
          (String.concat ",\n" points))
      gpu_cases
  in
  Printf.sprintf
    "{\n\
    \  \"bench\": \"gpu-sim\",\n\
    \  \"target\": \"%s\",\n\
    \  \"kernels\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (B.Target.to_key_string target)
    (String.concat ",\n" kernels)

(* ------------------------------------------------------------------ *)
(* Distributed section                                                 *)
(* ------------------------------------------------------------------ *)

type dist_case = {
  d_name : string;
  d_build : unit -> Tiramisu_core.Ir.fn;
  d_sched : Tiramisu_core.Ir.fn -> n:int -> m:int -> nodes:int -> unit;
  d_inputs : (string * (int array -> float)) list;
  d_out : string;
}

let dist_cases =
  [
    {
      d_name = "blur";
      d_build = (fun () -> let f, _, _ = Image.blur () in f);
      d_sched =
        (fun f ~n ~m ~nodes -> Schedules.dist_blur f ~n ~m ~nodes);
      d_inputs = [ ("img", img3) ];
      d_out = "by";
    };
    {
      d_name = "cvtColor";
      d_build = (fun () -> let f, _ = Image.cvt_color () in f);
      d_sched =
        (fun f ~n ~m ~nodes -> Schedules.dist_cvt_color f ~n ~m ~nodes);
      d_inputs = [ ("img", img3) ];
      d_out = "gray";
    };
    {
      d_name = "conv2D";
      d_build = (fun () -> let f, _, _ = Image.conv2d () in f);
      d_sched =
        (fun f ~n ~m ~nodes -> Schedules.dist_conv2d f ~n ~m ~nodes);
      d_inputs = [ ("img", img3); ("weights", kern3) ];
      d_out = "conv";
    };
  ]

let dist_json ~smoke () =
  let sizes = if smoke then [ 16 ] else [ 32; 64; 128 ] in
  let ranks_axis = if smoke then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let reps = if smoke then 1 else 5 in
  let net = Common.machine.B.Machine.net in
  let kernels =
    List.map
      (fun c ->
        let curves =
          List.map
            (fun n ->
              let t1 = ref nan in
              let points =
                List.map
                  (fun ranks ->
                    let fn = c.d_build () in
                    c.d_sched fn ~n ~m:n ~nodes:ranks;
                    let ms, msgs, bytes, nests =
                      run_point
                        ~target:(B.Target.distributed ~ranks ())
                        ~reps ~fn ~prms:(params n n) ~inputs:c.d_inputs
                        ~out:c.d_out
                    in
                    if ranks = 1 then t1 := ms;
                    let comm_ms =
                      ((net.B.Machine.alpha *. float_of_int msgs)
                      +. (net.B.Machine.beta *. float_of_int bytes))
                      /. 1e6
                    in
                    (* The α–β scaling curve: perfect compute scaling of
                       the measured 1-rank time plus the modeled exchange
                       cost — the shape the paper's Fig. 7 axis traces. *)
                    let scaled_ms =
                      (!t1 /. float_of_int ranks) +. comm_ms
                    in
                    Printf.sprintf
                      "          { \"ranks\": %d, \"time_ms\": %.6f, \
                       \"comm_msgs\": %d, \"comm_bytes\": %d, \
                       \"predicted_comm_ms\": %.6f, \"model_scaled_ms\": \
                       %.6f, \"tape_nests\": %d, \"verified\": true }"
                      ranks ms msgs bytes comm_ms scaled_ms nests)
                  ranks_axis
              in
              Printf.sprintf
                "        {\n\
                \          \"n\": %d,\n\
                \          \"points\": [\n\
                 %s\n\
                \          ]\n\
                \        }"
                n
                (String.concat ",\n" points))
            sizes
        in
        Printf.sprintf
          "    {\n\
          \      \"name\": \"%s\",\n\
          \      \"curves\": [\n\
           %s\n\
          \      ]\n\
          \    }"
          c.d_name
          (String.concat ",\n" curves))
      dist_cases
  in
  Printf.sprintf
    "{\n\
    \  \"bench\": \"dist\",\n\
    \  \"alpha_ns\": %.1f,\n\
    \  \"beta_ns_per_byte\": %.3f,\n\
    \  \"kernels\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    net.B.Machine.alpha net.B.Machine.beta
    (String.concat ",\n" kernels)

(* ------------------------------------------------------------------ *)
(* Golden-schema gate (smoke) / artifact emission (full)               *)
(* ------------------------------------------------------------------ *)

let golden_gate ~tag ~golden_path json =
  Common.golden_gate ~tag ~golden_path json;
  Common.pf "%s: every point interpreter-verified, schema matches golden\n" tag

let run_gpu ?(smoke = false) () =
  P.clear_cache ();
  let json = gpu_json ~smoke () in
  if smoke then golden_gate ~tag:"gpu-smoke" ~golden_path:"bench/gpu.golden" json
  else begin
    let oc = open_out "BENCH_gpu.json" in
    output_string oc json;
    close_out oc;
    Common.pf "gpu: wrote BENCH_gpu.json (%d kernels)\n" (List.length gpu_cases)
  end

let run_dist ?(smoke = false) () =
  P.clear_cache ();
  let json = dist_json ~smoke () in
  if smoke then
    golden_gate ~tag:"dist-smoke" ~golden_path:"bench/dist.golden" json
  else begin
    let oc = open_out "BENCH_dist.json" in
    output_string oc json;
    close_out oc;
    Common.pf "dist: wrote BENCH_dist.json (%d kernels)\n"
      (List.length dist_cases)
  end
