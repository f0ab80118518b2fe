(** Monotonic wall-clock (CLOCK_MONOTONIC), shared by {!Exec.time_run} and
    the benchmark harness.  Never jumps backwards, unlike
    [Unix.gettimeofday]. *)

val now_s : unit -> float
val now_ms : unit -> float

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed wall-clock
    seconds. *)
