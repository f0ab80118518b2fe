(* Persistent domain pool for [Parallel]-tagged loops.

   The seed executor paid a [Domain.spawn]/[Domain.join] round-trip on every
   entry of a parallel loop — hundreds of microseconds that dwarf the body of
   a tile-sized loop nest.  This module spawns the worker domains once per
   process and hands them chunked index ranges through per-worker deques:

   - the pool holds [num_workers () - 1] domains (the caller of
     [parallel_for] is the remaining worker and participates);
   - a [parallel_for lo hi] is split into ~4 chunks per worker and the chunk
     descriptors are dealt round-robin across the deques;
   - each worker pops from the back of its own deque (LIFO, cache-friendly)
     and steals from the front of the others (FIFO), which balances the
     irregular extents produced by triangular domains and partial tiles;
   - a nested [parallel_for] issued from inside a pool task runs inline on
     that worker instead of oversubscribing the machine.

   Sizing: [TIRAMISU_NUM_DOMAINS] overrides, then {!set_num_workers}, then
   [Domain.recommended_domain_count].  Workers sleep on a condition variable
   between jobs; an [at_exit] hook stops them so the runtime can terminate
   (OCaml waits for all domains at exit). *)

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

let env_workers () =
  match Sys.getenv_opt "TIRAMISU_NUM_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

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

let make_pool n =
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
  p.domains <-
    List.init (n - 1) (fun i ->
        Domain.spawn (fun () ->
            Tiramisu_support.Limits.block_alarm ();
            Domain.DLS.get worker_flag := true;
            worker_loop p i));
  p

let stop_pool p =
  Mutex.lock p.mu;
  p.stop <- true;
  p.gen <- p.gen + 1;
  Condition.broadcast p.cv;
  Mutex.unlock p.mu;
  List.iter Domain.join p.domains

let get_pool () =
  Mutex.lock pool_mu;
  let p =
    match !the_pool with
    | Some p -> p
    | None ->
        let p = make_pool (resolve_workers ()) in
        the_pool := Some p;
        p
  in
  Mutex.unlock pool_mu;
  p

let shutdown () =
  Mutex.lock pool_mu;
  let p = !the_pool in
  the_pool := None;
  Mutex.unlock pool_mu;
  Option.iter stop_pool p

let set_num_workers n =
  if n < 1 then invalid_arg "Pool.set_num_workers: need at least one worker";
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

(* ---------- parallel_for / static_for ---------- *)

let chunks_per_worker = 4

(* Wake the workers for the tasks just pushed, help drain the job from the
   calling domain, and re-raise the first failure with its backtrace. *)
let drive p job =
  Mutex.lock p.mu;
  p.gen <- p.gen + 1;
  Condition.broadcast p.cv;
  Mutex.unlock p.mu;
  (* The caller is a worker too: claim tasks until the job drains, then
     sleep on the job's condition for the stragglers. *)
  let me = Array.length p.deques - 1 in
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
  (* The flag reset must survive an exception: leaving it set would make
     every later parallel_for on this domain run inline. *)
  Fun.protect ~finally:(fun () -> flag := false) help;
  match job.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let fresh_job pending =
  { pending; failed = None; jmu = Mutex.create (); jcv = Condition.create () }

let parallel_for ?chunk lo hi ~body =
  if hi < lo then ()
  else
    let extent = hi - lo + 1 in
    let p = get_pool () in
    if p.nworkers <= 1 || in_worker () then
      (* pool disabled, or nested parallel region: run on this worker *)
      body lo hi
    else
      let csize =
        match chunk with
        | Some c when c >= 1 -> c
        | _ -> max 1 (extent / (p.nworkers * chunks_per_worker))
      in
      let nchunks = (extent + csize - 1) / csize in
      if nchunks <= 1 then body lo hi
      else begin
        let job = fresh_job nchunks in
        let nd = Array.length p.deques in
        for c = 0 to nchunks - 1 do
          let clo = lo + (c * csize) in
          let chi = min hi (clo + csize - 1) in
          Deque.push_back p.deques.(c mod nd)
            { t_lo = clo; t_hi = chi; t_run = body; t_job = job }
        done;
        drive p job
      end

let static_for lo hi ~body =
  if hi < lo then ()
  else
    let extent = hi - lo + 1 in
    let p = get_pool () in
    if p.nworkers <= 1 || in_worker () then body 0 lo hi
    else
      let nr = min p.nworkers extent in
      if nr <= 1 then body 0 lo hi
      else begin
        (* One contiguous near-equal range per worker, dealt one-to-a-deque
           so each worker's own pop finds its own range; stealing still
           rebalances if a worker is descheduled.  Range [k] always runs
           under index [k] no matter which domain executes it, so [body]
           can key persistent scratch on it. *)
        let job = fresh_job nr in
        let base = extent / nr and rem = extent mod nr in
        let start = ref lo in
        let nd = Array.length p.deques in
        for k = 0 to nr - 1 do
          let len = base + if k < rem then 1 else 0 in
          let clo = !start in
          let chi = clo + len - 1 in
          start := chi + 1;
          Deque.push_back
            p.deques.((nd - 1 - k + nd) mod nd)
            { t_lo = clo; t_hi = chi; t_run = (fun l h -> body k l h);
              t_job = job }
        done;
        drive p job
      end
