(** Uniform execution and modeling entry points for the benchmark kernels. *)

open Tiramisu_core
module B = Tiramisu_backends

val prepare :
  fn:Ir.fn ->
  params:(string * int) list ->
  inputs:(string * (int array -> float)) list ->
  (unit -> B.Interp.t)
(** Lower once and return a thunk that executes the generated code (for
    wall-clock measurement without recompilation). *)

val run :
  fn:Ir.fn ->
  params:(string * int) list ->
  inputs:(string * (int array -> float)) list ->
  B.Interp.t
(** Lower the pipeline and execute it with the reference interpreter
    ({!B.Interp.reference}); input buffers are filled from the given
    functions, every other buffer starts zeroed.  Returns the interpreter
    (query outputs via {!B.Interp.buffer}).
    @raise Invalid_argument ["unknown input buffer <name>"] when an input
    names no buffer of the function. *)

val model :
  ?machine:B.Machine.t ->
  fn:Ir.fn ->
  params:(string * int) list ->
  unit ->
  B.Cost.report
(** Lower the pipeline and estimate its execution time on the machine
    model. *)

val check :
  fn:Ir.fn ->
  params:(string * int) list ->
  inputs:(string * (int array -> float)) list ->
  output:string ->
  expect:(int array -> float) ->
  ?eps:float ->
  unit ->
  (unit, string) result
(** Run and compare the named output buffer element-wise against [expect]. *)

val build_native :
  ?tracer:Tiramisu_pipeline.Pipeline.tracer ->
  ?target:B.Target.t ->
  ?tape:bool ->
  ?lanes:int ->
  fn:Ir.fn ->
  params:(string * int) list ->
  inputs:(string * (int array -> float)) list ->
  unit ->
  Tiramisu_pipeline.Pipeline.artifact
(** Lower, allocate and fill buffers, and compile through the pipeline's
    compile cache — without running.  The returned artifact says whether
    the compile was a cache hit and carries the structural hash of the
    lowered statement.  [target] (default {!B.Target.default}, the pool
    CPU) selects the execution backend; [tape] (default [true]) gates the
    flat-tape backend, the knob the benchmarks use for their tape-off
    control; [lanes] (default the pipeline's, {!B.Tape.default_lanes}) is
    the widest lane batch claimed nests are bound with ([<= 1] forces the scalar tape, the
    benchmarks' vector-off control). *)

val prepare_native :
  ?tracer:Tiramisu_pipeline.Pipeline.tracer ->
  ?target:B.Target.t ->
  ?tape:bool ->
  ?lanes:int ->
  fn:Ir.fn ->
  params:(string * int) list ->
  inputs:(string * (int array -> float)) list ->
  unit ->
  B.Exec.compiled
(** [build_native] returning just the executor.  The wall-clock benchmarks
    compile once and time [B.Exec.run] repeatedly. *)

val run_native :
  ?target:B.Target.t ->
  ?tape:bool ->
  ?lanes:int ->
  fn:Ir.fn ->
  params:(string * int) list ->
  inputs:(string * (int array -> float)) list ->
  unit ->
  B.Exec.compiled
(** Closure-compiled execution with real multicore parallelism (OCaml 5
    domains on the persistent pool); the fast counterpart of {!run}. *)

val autoschedule :
  ?config:Tiramisu_autosched.Search.config ->
  name:string ->
  build:(unit -> Ir.fn) ->
  params:(string * int) list ->
  inputs:(string * (int array -> float)) list ->
  ?outputs:string list ->
  unit ->
  Tiramisu_autosched.Search.result
(** Measurement-driven schedule search over [build ()]'s schedule space
    (see {!Tiramisu_autosched.Search}).  [outputs] — the buffers the
    winner must replay bit-exactly against the interpreter — defaults to
    every non-input buffer of the pipeline. *)
