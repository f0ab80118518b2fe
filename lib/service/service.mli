(** Kernel-compilation-as-a-service: a concurrent compile server over the
    pipeline, the persistent {!Store} and an in-memory artifact tier.

    The production-scale story of ROADMAP item 3: many clients submit
    kernels; the server compiles each unique configuration at most once —
    whatever the concurrency — and serves everyone else from one of three
    tiers:

    + {b in-flight dedup}: N requests for one key while it is queued or
      compiling become one compile and N waiters on its result;
    + {b memory tier}: a bounded LRU of recently produced artifacts;
    + {b disk tier}: the content-addressed {!Store}, which survives
      processes — a fresh server on a warm store never re-runs a pass.

    Compiles run on a pool of dedicated worker domains fed by a {e
    bounded} admission queue: when the queue is full, new keys are
    rejected immediately ({!Rejected}) instead of building unbounded
    backlog — load sheds at admission, and dedup waiters are exempt (they
    consume no queue slot).  Per-request deadlines use the {e cooperative}
    guard ({!Tiramisu_support.Limits.with_deadline}): the pipeline checks
    it at every pass boundary, so a slow compile aborts between passes.

    What the service produces and persists is the prepared+planned
    statement (every pipeline pass applied); {!instantiate} turns a
    response into a runnable executor with the backend compile stage
    only. *)

module P = Tiramisu_pipeline.Pipeline

type request = {
  rq_name : string;  (** diagnostic label (kernel name) *)
  rq_stmt : Tiramisu_codegen.Loop_ir.stmt;  (** lowered source statement *)
  rq_knobs : P.knobs;
  rq_params : (string * int) list;
  rq_extents :
    (string * int array * Tiramisu_codegen.Loop_ir.mem_space) list;
  rq_deadline_s : float option;
      (** processing budget in seconds, counted from submission; enforced
          cooperatively at pass boundaries *)
}

type source =
  [ `Compiled  (** ran the pipeline passes; artifact persisted *)
  | `Disk      (** loaded from the store, integrity-checked *)
  | `Mem       (** served from the in-memory tier *) ]

type response = {
  rs_key : string;  (** content address (hex digest of the cache key) *)
  rs_source : source;
  rs_ms : float;  (** server-side processing time (queue wait excluded for
                      [`Mem], included for waiters sharing a compile) *)
  rs_prepared : Tiramisu_codegen.Loop_ir.stmt;
  rs_plan : Tiramisu_codegen.Parallel_plan.report;
}

type outcome =
  | Done of response
  | Rejected            (** admission queue full — try again later *)
  | Failed of string    (** pass rejection, deadline expiry, shutdown *)

type stats = {
  requests : int;
  compiles : int;      (** pipeline pass runs — at most one per unique key *)
  mem_hits : int;
  disk_hits : int;
  dedup_waits : int;   (** requests that waited on another's compile *)
  rejected : int;
  failed : int;
  quarantined : int;   (** corrupt store files moved aside (see {!Store}) *)
}

type t

val create :
  ?workers:int ->
  ?queue_cap:int ->
  ?mem_cap:int ->
  ?before_compile:(request -> unit) ->
  root:string ->
  unit ->
  t
(** Start a server: [workers] compile domains (default
    [max 1 (recommended_domain_count - 1)]), a [queue_cap]-bounded
    admission queue (default 64), a [mem_cap]-entry memory tier (default
    256).  [before_compile] is an instrumentation hook run by the worker
    just before the pipeline passes (tracing, fault injection in tests).
    [root] is the disk store directory. *)

val key_of : request -> string
(** The request's content address — [Pipeline.key_digest] of its full
    compile-cache key (includes {!Tiramisu_codegen.Tape_gen.version} and
    the pool environment). *)

val submit : t -> request -> outcome
(** Submit and block until the artifact is available (or rejected/failed).
    Safe to call from any thread or domain; concurrent submissions of the
    same key share one compile. *)

val stats : t -> stats
val store : t -> Store.t

val shutdown : t -> unit
(** Drain the queue (every accepted request still gets its outcome), stop
    and join the workers.  Subsequent {!submit}s fail. *)

val request_of_fn :
  ?knobs:P.knobs ->
  ?deadline_s:float ->
  fn:Tiramisu_core.Ir.fn ->
  params:(string * int) list ->
  unit ->
  request
(** Build a request from a scheduled function: applies the same
    schedule-level widening + lowering as [Pipeline.build], and derives
    the buffer extents from the function's declarations. *)

val instantiate :
  request ->
  response ->
  inputs:(string * (int array -> float)) list ->
  Tiramisu_backends.Exec.compiled
(** Turn a response into a runnable executor: fresh buffers at the
    request's extents, inputs filled ({!Tiramisu_backends.Buffers.instantiate}),
    backend compile stage only (no pass re-runs).  Each call returns an
    independent executor+buffer pair, so concurrent clients never share
    mutable state.
    @raise Invalid_argument ["unknown input buffer <name>"] when an input
    names no buffer of the request. *)
