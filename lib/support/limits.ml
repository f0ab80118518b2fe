(* Work and time guards for the polyhedral machinery and the compile
   service.

   - [with_fuel] / [charge]: the work budget.  Deeply stacked split/tile
     schedules can blow up the Omega-test elimination in the legality
     check and the widening trials (exponential constraint growth), so
     candidate vetting, case execution and each widening trial run on a
     budget of fuel.  The polyhedral core charges it per step — an
     equality substituted, a splinter tried, each pair of bounds a
     Fourier–Motzkin step combines (Omega's shadows included) — never
     per arithmetic operation, and a spent budget raises
     [Budget_exceeded] at the charge that spent it.
     The verdict is a function of the work alone: the same on an idle or
     a loaded machine, a slow or a fast one, and on every domain and
     thread (a budget is charged only by the thread that opened it; no
     signal, timer or mask is involved).

   - [with_deadline] / [check_deadline]: the cooperative latency guard.
     The deadline is domain-local wall-clock state; the guarded code
     observes it by calling [check_deadline] at its safe points (the
     pipeline checks at every pass boundary, the search between timing
     reps).  It bounds how long a caller waits — the compile service's
     requests, the search's measuring — not how much work a query may
     take. *)

exception Timeout

(* ---------- work budget ---------- *)

exception Budget_exceeded of string

let () =
  Printexc.register_printer (function
    | Budget_exceeded stage -> Some ("work budget exceeded in " ^ stage)
    | _ -> None)

(* One enclosing [with_fuel]: the systhread that opened it, the fuel it
   has left, and whether a charge it could not cover was refused. *)
type frame = { owner : int; mutable left : int; mutable refused : bool }

(* The current domain's open budgets, innermost first.  Every systhread of
   a domain sees this one list (the compile server runs a thread per
   connection on the main domain, each of which may widen under a
   budget), so a frame names the thread that opened it and only that
   thread charges it, and a thread adds or removes only its own frame,
   by compare-and-set, so a thread switch in between loses no one
   else's.  Each domain's list is set before any second thread can run
   on it: the main domain's at initialisation below, a spawned domain's
   (empty: it inherits no budget) by [split_from_parent] at the spawn. *)
let frames_key : frame list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key
    ~split_from_parent:(fun _ -> Atomic.make [])
    (fun () -> Atomic.make [])

let () = ignore (Domain.DLS.get frames_key)

let rec update a f =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (f old)) then update a f

let self () = Thread.id (Thread.self ())

(** [charge ~stage n] spends [n] fuel from every budget the calling thread
    has open before the work it pays for is done.  When one of them
    cannot cover it, the charge is refused: nothing is spent, the
    innermost such budget fires, and [Budget_exceeded stage] is raised.
    With no budget open it does nothing. *)
let charge ~stage n =
  match Atomic.get (Domain.DLS.get frames_key) with
  | [] -> ()
  | frames -> (
      let me = self () in
      match List.find_opt (fun fr -> fr.owner = me && fr.left < n) frames with
      | Some fr ->
          fr.refused <- true;
          raise (Budget_exceeded stage)
      | None ->
          List.iter
            (fun fr -> if fr.owner = me then fr.left <- fr.left - n)
            frames)

(** [with_fuel budget f] runs [f] with [budget] fuel and returns
    [Some (f ())], or [None] if a charge in [f] overran it.  Nested
    budgets charge every enclosing budget, so the tightest fires first: a
    [Budget_exceeded] from an enclosing budget passes through an inner one
    that still has fuel, and an inner budget that fires leaves the
    enclosing ones as they were before the refused charge.  Budgets are
    per thread: work on another thread or domain never charges this one. *)
let with_fuel budget f =
  let frames = Domain.DLS.get frames_key in
  let fr = { owner = self (); left = budget; refused = false } in
  update frames (fun l -> fr :: l);
  Fun.protect
    ~finally:(fun () -> update frames (List.filter (fun x -> x != fr)))
    (fun () -> try Some (f ()) with Budget_exceeded _ when fr.refused -> None)

(* ---------- cooperative deadline guard ---------- *)

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

(* ---------- budgets ---------- *)

(** Fuel for one fuzz case ([Differential.run_case]), one generator vet
    and one search candidate's vetting and build.  It was set where it
    reproduced, on generator seeds 1–20000, the verdicts of the CPU-time
    guard it replaced (11 vets asked for 11.65 million units or more, all
    of it duplicate rows multiplying through Omega's shadows).  Since each
    Fourier–Motzkin step keeps one row per coefficient vector, no case
    comes near it: over those seeds every vet uses at most 2785 units and
    every whole fuzz case at most 5272, and autosched-smoke's search
    candidates at most 872.  It stays a backstop for what the generator
    and the search do not draw. *)
let case_fuel = 11_500_000
