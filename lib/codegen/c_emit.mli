(** C source emission from the loop IR.

    The paper lowers its AST to LLVM IR (via Halide) for CPUs and to CUDA
    for GPUs (§V-A).  This backend plays the same role textually: it turns
    generated loop nests into a self-contained, compilable C translation
    unit — OpenMP pragmas for [Parallel] loops, [#pragma omp simd] for
    vectorized loops, MPI-style calls for distributed send/receive, and a
    CUDA-flavoured rendering for GPU-tagged nests (kernel functions with
    blockIdx/threadIdx bindings). *)

val emit_function :
  name:string ->
  params:string list ->
  buffers:(string * int array) list ->
  Loop_ir.stmt ->
  string
(** A full translation unit: includes, buffer parameters (flat [float*]
    with explicit index linearization), and the loop nest. *)
