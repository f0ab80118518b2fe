(** Process-lifetime domain pool for [Parallel]-tagged loops.

    Workers are spawned once (lazily, on the first submission) and kept
    for the life of the process, replacing the seed executor's per-loop-entry
    [Domain.spawn]/[Domain.join].  {!parallel_for} and {!static_for} cut
    their ranges differently but submit them the same way: over per-worker
    deques, where idle workers steal from the front of other deques, which
    load-balances the irregular extents of triangular domains and partial
    tiles.  The caller participates as a worker while it waits.  A range may
    run on any domain, so a body that needs scratch takes it from a
    {!per_domain} getter.  The pool holds no scheduling policy: which loops
    reach it, and whether through {!static_for} or {!parallel_for}, is the
    parallel planner's decision (its work threshold and shape rule,
    {!Tiramisu_codegen.Parallel_plan}).

    Pool size resolution, first match wins: {!set_num_workers}, the
    [TIRAMISU_NUM_DOMAINS] environment variable (a value that is not an
    integer in [1..128] is reported once on stderr and ignored), then
    [Domain.recommended_domain_count ()].  With one worker, both entry
    points degenerate to an inline sequential call with no
    synchronization. *)

val num_workers : unit -> int
(** Resolved pool size (total parallelism, the calling domain included).
    Does not force pool creation. *)

val set_num_workers : int -> unit
(** Override the pool size.  Stops the current workers (if any); the next
    {!parallel_for} re-creates the pool at the new size.
    @raise Invalid_argument, leaving the pool as it was, if the size is
    < 1 or > 128 (OCaml 5.1's limit on domains running at once). *)

val effective_parallelism : unit -> int
(** The parallelism the pool can actually realize: {!num_workers} capped by
    [Domain.recommended_domain_count ()].  A pool sized larger than the CPUs
    the OS grants this process time-slices instead of parallelizing, so the
    parallel planner serializes every pool loop when this is 1. *)

val parallel_for : ?chunk:int -> int -> int -> body:(int -> int -> unit) -> unit
(** [parallel_for lo hi ~body] runs [body clo chi] over disjoint inclusive
    sub-ranges covering [lo..hi] exactly once, possibly concurrently on
    several domains.  Empty when [hi < lo]; one inline [body lo hi] with
    one worker or when called from inside a pool task (a nested
    submission does not oversubscribe).  [body] must be safe to run
    concurrently on disjoint ranges.  [?chunk] forces the chunk size.

    Exceptions: the first exception raised by any chunk is re-raised in the
    caller with its original backtrace; chunks of the failed job that have
    not started yet are cancelled (drained without running), so a bounds
    failure stops the loop's remaining work instead of letting it keep
    mutating buffers.  The pool itself stays usable — a later
    [parallel_for] runs normally. *)

val static_for : int -> int -> body:(int -> int -> unit) -> unit
(** [static_for lo hi ~body] splits [lo..hi] into [min (num_workers ())
    extent] contiguous near-equal ranges and runs [body clo chi] once per
    range, possibly concurrently — the static schedule for rectangular
    parallel loops: one hand-off per worker.  Work stealing still
    rebalances if a worker domain is descheduled mid-job, so a range may
    run on any domain.  Inline, empty-range and exception semantics as
    {!parallel_for}. *)

val per_domain : (unit -> 'a) -> unit -> 'a
(** [per_domain make] is a getter for per-domain scratch: each domain that
    calls it gets its own value, made by [make] on its first call and
    reused after.  The values live as long as the getter (a [Domain.DLS]
    key would pin them for the life of the domain), except that the values
    of a stopped pool's workers are dropped at the getter's next miss.  A pool body may use
    its domain's value for the length of one range: ranges never
    interleave on one domain. *)

val shutdown : unit -> unit
(** Stop and join the workers.  Called automatically [at_exit]; a later
    {!parallel_for} re-creates the pool. *)
