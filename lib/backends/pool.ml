(* Persistent domain pool for [Parallel]-tagged loops.

   The seed executor paid a [Domain.spawn]/[Domain.join] round-trip on every
   entry of a parallel loop — hundreds of microseconds that dwarf the body of
   a tile-sized loop nest.  This module spawns the worker domains once per
   process and hands them index ranges through per-worker deques:

   - the pool holds [num_workers () - 1] domains (the submitting caller is
     the remaining worker and participates);
   - [parallel_for lo hi] cuts ~4 chunks per worker and deals them
     round-robin; [static_for lo hi] cuts one near-equal range per worker
     and deals one to a deque.  Both hand their ranges to one submit path;
   - each worker pops from the back of its own deque (LIFO, cache-friendly)
     and steals from the front of the others (FIFO), which balances the
     irregular extents produced by triangular domains and partial tiles;
   - a nested submission from inside a pool task runs inline on that worker
     instead of oversubscribing the machine;
   - a loop body that needs scratch (a register file, a tape state) takes
     it from a {!per_domain} getter: a range may run on any domain, but
     never on two at once.

   Sizing: {!set_num_workers}, then [TIRAMISU_NUM_DOMAINS] (both at most
   [max_workers]), then [Domain.recommended_domain_count].  Workers sleep
   on a condition variable between jobs; an [at_exit] hook stops them so
   the runtime can terminate (OCaml waits for all domains at exit). *)

(* ---------- work-stealing deque (mutex-protected, two-list) ---------- *)

module Deque = struct
  (* front-to-back order is [xs @ List.rev sx] *)
  type 'a t = { mu : Mutex.t; mutable xs : 'a list; mutable sx : 'a list }

  let create () = { mu = Mutex.create (); xs = []; sx = [] }

  let push_back d v =
    Mutex.lock d.mu;
    d.sx <- v :: d.sx;
    Mutex.unlock d.mu

  let pop_back d =
    Mutex.lock d.mu;
    let r =
      match d.sx with
      | v :: rest ->
          d.sx <- rest;
          Some v
      | [] -> (
          match List.rev d.xs with
          | v :: rest ->
              d.xs <- [];
              d.sx <- rest;
              Some v
          | [] -> None)
    in
    Mutex.unlock d.mu;
    r

  let steal_front d =
    Mutex.lock d.mu;
    let r =
      match d.xs with
      | v :: rest ->
          d.xs <- rest;
          Some v
      | [] -> (
          match List.rev d.sx with
          | v :: rest ->
              d.xs <- rest;
              d.sx <- [];
              Some v
          | [] -> None)
    in
    Mutex.unlock d.mu;
    r
end

(* ---------- jobs and tasks ---------- *)

type job = {
  mutable pending : int; (* chunks not yet finished *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
  jmu : Mutex.t;
  jcv : Condition.t;
}

type task = { t_lo : int; t_hi : int; t_run : int -> int -> unit; t_job : job }

type pool = {
  nworkers : int; (* total parallelism, caller included *)
  deques : task Deque.t array;
  mu : Mutex.t; (* guards gen/stop *)
  cv : Condition.t;
  mutable gen : int; (* bumped on every submission: the wakeup ticket *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let worker_flag = Domain.DLS.new_key (fun () -> ref false)
let in_worker () = !(Domain.DLS.get worker_flag)

(* Pools are numbered from 1 as they are made (under [pool_mu]).  A
   worker domain records its pool's number, any other domain keeps 0;
   [live_pool] is the running pool's number, 0 when none.  {!per_domain}
   drops the scratch of workers whose pool has stopped. *)
let pool_serial = ref 0
let worker_pool = Domain.DLS.new_key (fun () -> 0)
let live_pool = Atomic.make 0

let exec_task t =
  let j = t.t_job in
  (* Once a sibling chunk failed, the job's result is its exception: skip
     the remaining in-flight chunks instead of running them (a bounds
     failure in one chunk must not let the others keep mutating buffers),
     but still decrement [pending] so the caller's wait terminates. *)
  Mutex.lock j.jmu;
  let cancelled = j.failed <> None in
  Mutex.unlock j.jmu;
  (if not cancelled then
     try t.t_run t.t_lo t.t_hi
     with e ->
       (* First failure wins; keep its backtrace so the caller re-raises
          the original exception, not a context-free copy. *)
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock j.jmu;
       if j.failed = None then j.failed <- Some (e, bt);
       Mutex.unlock j.jmu);
  Mutex.lock j.jmu;
  j.pending <- j.pending - 1;
  if j.pending = 0 then Condition.broadcast j.jcv;
  Mutex.unlock j.jmu

(* Own deque back first, then sweep the others front-first. *)
let try_claim p me =
  match Deque.pop_back p.deques.(me) with
  | Some t -> Some t
  | None ->
      let n = Array.length p.deques in
      let rec go k =
        if k >= n - 1 then None
        else
          match Deque.steal_front p.deques.((me + 1 + k) mod n) with
          | Some t -> Some t
          | None -> go (k + 1)
      in
      go 0

let rec worker_loop p me =
  (* Read the ticket before looking for work: a submission between the
     failed claim and the wait bumps [gen], so the wait falls through. *)
  Mutex.lock p.mu;
  let g = p.gen and stop = p.stop in
  Mutex.unlock p.mu;
  if not stop then
    match try_claim p me with
    | Some t ->
        exec_task t;
        worker_loop p me
    | None ->
        Mutex.lock p.mu;
        while p.gen = g && not p.stop do
          Condition.wait p.cv p.mu
        done;
        Mutex.unlock p.mu;
        worker_loop p me

(* ---------- pool lifecycle ---------- *)

let pool_mu = Mutex.create ()
let the_pool : pool option ref = ref None
let requested : int option ref = ref None

(* OCaml 5.1 runs at most 128 domains at once ([Max_domains] in
   [caml/domain.h]): a larger pool would fail part-way through spawning. *)
let max_workers = 128

(* Read under [pool_mu], like [requested]. *)
let env_warned = ref false

let env_workers () =
  match Sys.getenv_opt "TIRAMISU_NUM_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 && n <= max_workers -> Some n
      | _ ->
          if not !env_warned then begin
            env_warned := true;
            Printf.eprintf
              "warning: ignoring TIRAMISU_NUM_DOMAINS=%S (want 1..%d)\n%!" s
              max_workers
          end;
          None)

let resolve_workers () =
  match !requested with
  | Some n -> n
  | None -> (
      match env_workers () with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())

let num_workers () =
  Mutex.lock pool_mu;
  let n = resolve_workers () in
  Mutex.unlock pool_mu;
  n

let stop_pool p =
  Mutex.lock p.mu;
  p.stop <- true;
  p.gen <- p.gen + 1;
  Condition.broadcast p.cv;
  Mutex.unlock p.mu;
  List.iter Domain.join p.domains

let make_pool n =
  incr pool_serial;
  let serial = !pool_serial in
  let p =
    {
      nworkers = n;
      deques = Array.init (max 1 n) (fun _ -> Deque.create ());
      mu = Mutex.create ();
      cv = Condition.create ();
      gen = 0;
      stop = false;
      domains = [];
    }
  in
  (* One spawn at a time: when one fails, the workers already running are
     stopped and joined before the error reaches the caller. *)
  (try
     for i = 0 to n - 2 do
       let d =
         Domain.spawn (fun () ->
             Domain.DLS.get worker_flag := true;
             Domain.DLS.set worker_pool serial;
             worker_loop p i)
       in
       p.domains <- d :: p.domains
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     stop_pool p;
     Printexc.raise_with_backtrace e bt);
  p

let get_pool () =
  Mutex.protect pool_mu (fun () ->
      match !the_pool with
      | Some p -> p
      | None ->
          let p = make_pool (resolve_workers ()) in
          the_pool := Some p;
          Atomic.set live_pool !pool_serial;
          p)

let shutdown () =
  Mutex.lock pool_mu;
  let p = !the_pool in
  the_pool := None;
  Atomic.set live_pool 0;
  Mutex.unlock pool_mu;
  Option.iter stop_pool p

let set_num_workers n =
  if n < 1 || n > max_workers then
    invalid_arg
      (Printf.sprintf "Pool.set_num_workers: %d workers (want 1..%d)" n
         max_workers);
  shutdown ();
  Mutex.lock pool_mu;
  requested := Some n;
  Mutex.unlock pool_mu

let () = at_exit shutdown

(* How many domains can actually run at once: the configured pool size
   capped by the CPUs the OS grants this process.  A pool of 4 workers on a
   single-CPU container time-slices, it does not parallelize. *)
let effective_parallelism () =
  min (num_workers ()) (Domain.recommended_domain_count ())

(* ---------- per-domain scratch ---------- *)

(* One value per domain, held by the returned closure and so freed with
   it.  A [Domain.DLS] key would do the same job, but a key lives as long
   as its domain: every compiled program would pin its scratch, lane
   registers included, for the rest of the process.  The owners list holds
   one entry per domain that called the getter; a miss drops the entries
   of workers whose pool has stopped, so resizing the pool does not grow
   it.  A dropped entry only costs its domain a fresh value. *)
let per_domain make =
  let owners = Atomic.make [] in
  fun () ->
    let id = (Domain.self () :> int) in
    let rec find = function
      | [] ->
          let v = make () and pool = Domain.DLS.get worker_pool in
          let rec push () =
            let l = Atomic.get owners and live = Atomic.get live_pool in
            let kept = List.filter (fun (_, p, _) -> p = 0 || p = live) l in
            if not (Atomic.compare_and_set owners l ((id, pool, v) :: kept))
            then push ()
          in
          push ();
          v
      | (d, _, v) :: rest -> if d = id then v else find rest
    in
    find (Atomic.get owners)

(* ---------- parallel_for / static_for ---------- *)

let chunks_per_worker = 4

(* The one submit path.  [ranges nworkers extent] cuts [lo..hi] into [n]
   ranges, range [c] starting [cut c] past [lo] (clipped at [hi]); range
   [c] is dealt onto deque [home ndeques c].  The caller wakes the
   workers, helps drain the job, then re-raises the first failure with its
   backtrace.  Empty ranges do nothing; one worker, a nested submission or
   a single range run [body lo hi] inline. *)
let submit lo hi ~body ~ranges ~home =
  if hi >= lo then begin
    let p = get_pool () in
    let n, cut =
      if p.nworkers <= 1 || in_worker () then (1, Fun.id)
      else ranges p.nworkers (hi - lo + 1)
    in
    if n <= 1 then body lo hi
    else begin
      let job =
        { pending = n; failed = None; jmu = Mutex.create ();
          jcv = Condition.create () }
      in
      let nd = Array.length p.deques in
      for c = 0 to n - 1 do
        Deque.push_back p.deques.(home nd c)
          { t_lo = lo + cut c; t_hi = min hi (lo + cut (c + 1) - 1);
            t_run = body; t_job = job }
      done;
      Mutex.lock p.mu;
      p.gen <- p.gen + 1;
      Condition.broadcast p.cv;
      Mutex.unlock p.mu;
      (* The caller is a worker too: claim tasks until the job drains, then
         sleep on the job's condition for the stragglers. *)
      let me = nd - 1 in
      let flag = Domain.DLS.get worker_flag in
      flag := true;
      let rec help () =
        Mutex.lock job.jmu;
        let finished = job.pending = 0 in
        Mutex.unlock job.jmu;
        if not finished then
          match try_claim p me with
          | Some t ->
              exec_task t;
              help ()
          | None ->
              Mutex.lock job.jmu;
              while job.pending > 0 do
                Condition.wait job.jcv job.jmu
              done;
              Mutex.unlock job.jmu
      in
      (* The flag reset must survive an exception: leaving it set would
         make every later submission from this domain run inline. *)
      Fun.protect ~finally:(fun () -> flag := false) help;
      match job.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let parallel_for ?chunk lo hi ~body =
  submit lo hi ~body
    ~home:(fun nd c -> c mod nd)
    ~ranges:(fun nworkers extent ->
      let csize =
        match chunk with
        | Some c when c >= 1 -> c
        | _ -> max 1 (extent / (nworkers * chunks_per_worker))
      in
      ((extent + csize - 1) / csize, fun c -> c * csize))

(* One contiguous near-equal range per worker, dealt one to a deque from
   the caller's own (the last) down, so each worker's own pop finds its own
   range; stealing still rebalances if a worker is descheduled. *)
let static_for lo hi ~body =
  submit lo hi ~body
    ~home:(fun nd c -> nd - 1 - c)
    ~ranges:(fun nworkers extent ->
      let n = min nworkers extent in
      (n, fun c -> (c * (extent / n)) + min c (extent mod n)))
