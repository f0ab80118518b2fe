(** Process-lifetime domain pool for [Parallel]-tagged loops.

    Workers are spawned once (lazily, on the first {!parallel_for}) and kept
    for the life of the process, replacing the seed executor's per-loop-entry
    [Domain.spawn]/[Domain.join].  Ranges are split into ~4 chunks per worker
    and distributed over per-worker deques; idle workers steal from the front
    of other deques, which load-balances the irregular extents of triangular
    domains and partial tiles.  The caller of {!parallel_for} participates as
    a worker while it waits.  The pool holds no scheduling policy: which
    loops reach it, and whether through {!static_for} or {!parallel_for},
    is the parallel planner's decision (its work threshold and shape rule,
    {!Tiramisu_codegen.Parallel_plan}).

    Pool size resolution, first match wins: {!set_num_workers}, the
    [TIRAMISU_NUM_DOMAINS] environment variable, then
    [Domain.recommended_domain_count ()].  With one worker, {!parallel_for}
    degenerates to an inline sequential call with no synchronization. *)

val num_workers : unit -> int
(** Resolved pool size (total parallelism, the calling domain included).
    Does not force pool creation. *)

val set_num_workers : int -> unit
(** Override the pool size.  Stops the current workers (if any); the next
    {!parallel_for} re-creates the pool at the new size.
    @raise Invalid_argument if the size is < 1. *)

val effective_parallelism : unit -> int
(** The parallelism the pool can actually realize: {!num_workers} capped by
    [Domain.recommended_domain_count ()].  A pool sized larger than the CPUs
    the OS grants this process time-slices instead of parallelizing, so the
    parallel planner serializes every pool loop when this is 1. *)

val parallel_for : ?chunk:int -> int -> int -> body:(int -> int -> unit) -> unit
(** [parallel_for lo hi ~body] runs [body clo chi] over disjoint inclusive
    sub-ranges covering [lo..hi] exactly once, possibly concurrently on
    several domains.  Empty when [hi < lo].  [body] must be safe to run
    concurrently on disjoint ranges.  [?chunk] forces the chunk size.

    Exceptions: the first exception raised by any chunk is re-raised in the
    caller with its original backtrace; chunks of the failed job that have
    not started yet are cancelled (drained without running), so a bounds
    failure stops the loop's remaining work instead of letting it keep
    mutating buffers.  The pool itself stays usable — a later
    [parallel_for] runs normally. *)

val static_for : int -> int -> body:(int -> int -> int -> unit) -> unit
(** [static_for lo hi ~body] splits [lo..hi] into [min (num_workers ())
    extent] contiguous near-equal ranges and runs [body k clo chi] once per
    range, possibly concurrently.  The range index [k] is stable (range [k]
    is always the [k]-th contiguous slice, whichever domain executes it), so
    [body] can key persistent per-range scratch on it — this is the static
    schedule for rectangular parallel loops: one hand-off per worker, no
    per-chunk allocation.  Work stealing still rebalances if a worker domain
    is descheduled mid-job.  Inlines as [body 0 lo hi] with one worker or
    inside a nested parallel region; exception semantics as
    {!parallel_for}. *)

val shutdown : unit -> unit
(** Stop and join the workers.  Called automatically [at_exit]; a later
    {!parallel_for} re-creates the pool. *)
