(* Time guards for the polyhedral machinery and the compile service.

   Two mechanisms, picked by context:

   - [with_time_limit]: the signal guard, on the wall clock (SIGALRM) or,
     with [~cpu:true], on the process's CPU time (SIGVTALRM).  Deeply
     stacked split/tile schedules can blow up the Omega-test elimination in the legality
     check (exponential constraint growth), so both candidate vetting and
     case execution run under an alarm: a candidate that cannot be
     decided in time is dropped, never allowed to wedge the campaign.
     The signal raises at the next allocation point — the presburger code
     allocates constantly, so delivery is prompt.  But the alarm and the
     handler are PROCESS-GLOBAL state: two domains arming alarms race
     each other's timer resets, and the signal is delivered to
     whichever domain the runtime picks — a slow Omega-test query on one
     domain could fire [Timeout] into an unrelated domain's compile.
     [with_time_limit] therefore only arms the alarm on the main domain,
     and every other domain blocks both signals ([block_alarm]): OCaml
     runs a signal's handler on whichever domain polls first among those
     that do not block it, so an idle pool worker would otherwise take
     the main domain's [Timeout] — dying with it between tasks, to
     re-raise it from [Domain.join] much later — while the guarded code
     ran on unbounded.  The CPU clock is for guards whose verdict must not
     depend on how busy the machine is (the fuzzer's: a vetting timeout
     changes which case a seed generates); it does not advance while the
     process waits.

   - [with_deadline] / [check_deadline]: the cooperative guard.  The
     deadline is domain-local state; the guarded code observes it by
     calling [check_deadline] at its safe points (the pipeline checks at
     every pass boundary).  No signals, no cross-domain interference —
     this is the only guard the concurrent compile service uses, and
     what [with_time_limit] degrades to off the main domain. *)

exception Timeout

(* ---------- cooperative deadline guard (domain-safe) ---------- *)

(* Absolute deadline (epoch seconds) for the current domain, [None] when
   unguarded.  Domain-local: a deadline set by a service worker is
   invisible to every other domain. *)
let deadline_key : float option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let deadline_remaining () =
  match Domain.DLS.get deadline_key with
  | None -> None
  | Some t -> Some (t -. Unix.gettimeofday ())

let deadline_expired () =
  match deadline_remaining () with Some r -> r <= 0.0 | None -> false

let check_deadline () = if deadline_expired () then raise Timeout

(** [with_deadline secs f] runs [f] with the current domain's deadline set
    [secs] from now (nested deadlines keep the tighter one) and returns
    [Some (f ())], or [None] if [f] raised {!Timeout} — which only happens
    at [f]'s own {!check_deadline} points; nothing fires asynchronously. *)
let with_deadline secs f =
  let prev = Domain.DLS.get deadline_key in
  let t = Unix.gettimeofday () +. secs in
  let t = match prev with Some p -> Float.min p t | None -> t in
  Domain.DLS.set deadline_key (Some t);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set deadline_key prev)
    (fun () -> try Some (f ()) with Timeout -> None)

(* ---------- signal guard (main domain only) ---------- *)

(** [block_alarm ()] keeps SIGALRM and SIGVTALRM, and so
    [with_time_limit]'s [Timeout], off the calling domain.  Every spawned
    domain calls it first. *)
let block_alarm () =
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigalrm; Sys.sigvtalrm ])

let with_time_limit ?(cpu = false) secs f =
  if Domain.is_main_domain () then begin
    let signal, timer =
      if cpu then (Sys.sigvtalrm, Unix.ITIMER_VIRTUAL)
      else (Sys.sigalrm, Unix.ITIMER_REAL)
    in
    let arm s =
      ignore (Unix.setitimer timer { Unix.it_interval = 0.; it_value = s })
    in
    let old = Sys.signal signal (Sys.Signal_handle (fun _ -> raise Timeout)) in
    arm (float_of_int secs);
    Fun.protect
      ~finally:(fun () ->
        arm 0.;
        Sys.set_signal signal old)
      (fun () -> try Some (f ()) with Timeout -> None)
  end
  else
    (* Arming a timer here would race the main domain's and could deliver
       the signal into unrelated code; degrade to the cooperative (wall
       clock) deadline — [f] is interrupted at its [check_deadline]
       points. *)
    with_deadline (float_of_int secs) f
