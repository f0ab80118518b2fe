module P = Tiramisu_pipeline.Pipeline
module L = Tiramisu_codegen.Loop_ir
module Plan = Tiramisu_codegen.Parallel_plan
module B = Tiramisu_backends
module Limits = Tiramisu_support.Limits
module Ir = Tiramisu_core.Ir
module Lower = Tiramisu_core.Lower

type request = {
  rq_name : string;
  rq_stmt : L.stmt;
  rq_knobs : P.knobs;
  rq_params : (string * int) list;
  rq_extents : (string * int array * L.mem_space) list;
  rq_deadline_s : float option;
}

type source = [ `Compiled | `Disk | `Mem ]

type response = {
  rs_key : string;
  rs_source : source;
  rs_ms : float;
  rs_prepared : L.stmt;
  rs_plan : Plan.report;
}

type outcome = Done of response | Rejected | Failed of string

type stats = {
  requests : int;
  compiles : int;
  mem_hits : int;
  disk_hits : int;
  dedup_waits : int;
  rejected : int;
  failed : int;
  quarantined : int;
}

(* One queued/in-flight compile; all fields guarded by [sv_m].  Waiters
   block on [sv_done] (a single broadcast condition: completions are rare
   events next to compiles, so thundering-herd re-checks are noise). *)
type job = {
  j_key : string;
  j_req : request;
  j_deadline : float option;  (* absolute, epoch seconds *)
  mutable j_outcome : outcome option;
}

type mem_entry = { me_payload : Store.payload; mutable me_gen : int }

type t = {
  sv_store : Store.t;
  sv_m : Mutex.t;
  sv_work : Condition.t;
  sv_done : Condition.t;
  sv_queue : job Queue.t;
  sv_queue_cap : int;
  sv_inflight : (string, job) Hashtbl.t;
  sv_mem : (string, mem_entry) Hashtbl.t;
  sv_mem_cap : int;
  sv_before_compile : (request -> unit) option;
  mutable sv_tick : int;
  mutable sv_down : bool;
  mutable sv_workers : unit Domain.t list;
  mutable c_requests : int;
  mutable c_compiles : int;
  mutable c_mem_hits : int;
  mutable c_disk_hits : int;
  mutable c_dedup_waits : int;
  mutable c_rejected : int;
  mutable c_failed : int;
}

let key_of (req : request) =
  let hash = P.structural_hash_memo req.rq_stmt in
  P.key_digest
    (P.make_key ~knobs:req.rq_knobs ~params:req.rq_params
       ~extents:req.rq_extents hash)

(* ---------- memory tier (LRU by generation, mutex held) ---------- *)

let mem_get_locked t key =
  match Hashtbl.find_opt t.sv_mem key with
  | None -> None
  | Some me ->
      t.sv_tick <- t.sv_tick + 1;
      me.me_gen <- t.sv_tick;
      Some me.me_payload

let mem_put_locked t key payload =
  if not (Hashtbl.mem t.sv_mem key) then begin
    if Hashtbl.length t.sv_mem >= t.sv_mem_cap then begin
      (* evict the least-recently-used entry — one, never the lot *)
      let victim = ref None in
      Hashtbl.iter
        (fun k me ->
          match !victim with
          | None -> victim := Some (k, me.me_gen)
          | Some (_, g) -> if me.me_gen < g then victim := Some (k, me.me_gen))
        t.sv_mem;
      match !victim with
      | Some (k, _) -> Hashtbl.remove t.sv_mem k
      | None -> ()
    end;
    t.sv_tick <- t.sv_tick + 1;
    Hashtbl.replace t.sv_mem key { me_payload = payload; me_gen = t.sv_tick }
  end

(* ---------- the worker side ---------- *)

(* Produce the artifact for [job]: disk tier first, then the pipeline
   passes.  Runs on a worker domain, outside the server mutex. *)
let produce t (job : job) : (source * Store.payload) =
  let req = job.j_req in
  let target = B.Target.to_key_string req.rq_knobs.P.target in
  Limits.check_deadline ();
  match Store.get t.sv_store ~key:job.j_key ~src:req.rq_stmt ~target with
  | Store.Hit payload -> (`Disk, payload)
  | Store.Miss | Store.Quarantined _ ->
      (* a quarantined file is a miss that also moved the corpse aside;
         recompiling below repairs the key *)
      (match t.sv_before_compile with Some h -> h req | None -> ());
      let prepared, plan =
        P.prepare_and_plan ~knobs:req.rq_knobs ~params:req.rq_params
          req.rq_stmt
      in
      let payload =
        { Store.p_src = req.rq_stmt; p_stmt = prepared; p_plan = plan }
      in
      Store.put t.sv_store ~key:job.j_key ~target payload;
      (`Compiled, payload)

let process t (job : job) =
  let t0 = B.Clock.now_ms () in
  let result =
    try
      let run () = produce t job in
      match job.j_deadline with
      | None -> Ok (run ())
      | Some abs -> (
          let remain = abs -. Unix.gettimeofday () in
          if remain <= 0.0 then Error "deadline expired while queued"
          else
            match Limits.with_deadline remain run with
            | Some r -> Ok r
            | None -> Error "deadline expired during compile")
    with
    | P.Error e -> Error (P.error_to_string e)
    | Limits.Timeout -> Error "deadline expired during compile"
    | e -> Error (Printexc.to_string e)
  in
  let ms = B.Clock.now_ms () -. t0 in
  Mutex.protect t.sv_m (fun () ->
      let outcome =
        match result with
        | Ok (src, payload) ->
            (match src with
            | `Compiled -> t.c_compiles <- t.c_compiles + 1
            | `Disk -> t.c_disk_hits <- t.c_disk_hits + 1
            | `Mem -> ());
            mem_put_locked t job.j_key payload;
            Done
              { rs_key = job.j_key; rs_source = src; rs_ms = ms;
                rs_prepared = payload.Store.p_stmt;
                rs_plan = payload.Store.p_plan }
        | Error msg ->
            t.c_failed <- t.c_failed + 1;
            Failed (job.j_req.rq_name ^ ": " ^ msg)
      in
      job.j_outcome <- Some outcome;
      Hashtbl.remove t.sv_inflight job.j_key;
      Condition.broadcast t.sv_done)

let rec worker t =
  let next =
    Mutex.protect t.sv_m (fun () ->
        while Queue.is_empty t.sv_queue && not t.sv_down do
          Condition.wait t.sv_work t.sv_m
        done;
        (* drain even when shutting down: every accepted job owes its
           waiters an outcome *)
        if Queue.is_empty t.sv_queue then None else Some (Queue.pop t.sv_queue))
  in
  match next with
  | None -> ()
  | Some job ->
      process t job;
      worker t

(* ---------- the client side ---------- *)

let create ?workers ?(queue_cap = 64) ?(mem_cap = 256) ?before_compile ~root
    () =
  let workers =
    match workers with
    | Some w ->
        if w < 1 then invalid_arg "Service.create: workers < 1";
        w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  if queue_cap < 1 then invalid_arg "Service.create: queue_cap < 1";
  let t =
    { sv_store = Store.open_store root;
      sv_m = Mutex.create ();
      sv_work = Condition.create ();
      sv_done = Condition.create ();
      sv_queue = Queue.create ();
      sv_queue_cap = queue_cap;
      sv_inflight = Hashtbl.create 64;
      sv_mem = Hashtbl.create 64;
      sv_mem_cap = mem_cap;
      sv_before_compile = before_compile;
      sv_tick = 0;
      sv_down = false;
      sv_workers = [];
      c_requests = 0; c_compiles = 0; c_mem_hits = 0; c_disk_hits = 0;
      c_dedup_waits = 0; c_rejected = 0; c_failed = 0 }
  in
  t.sv_workers <- List.init workers (fun _ ->
        Domain.spawn (fun () ->
            Limits.block_alarm ();
            worker t));
  t

let submit t (req : request) : outcome =
  let key = key_of req in
  let t0 = B.Clock.now_ms () in
  let decision =
    Mutex.protect t.sv_m (fun () ->
        t.c_requests <- t.c_requests + 1;
        match mem_get_locked t key with
        | Some payload ->
            t.c_mem_hits <- t.c_mem_hits + 1;
            `Mem payload
        | None -> (
            match Hashtbl.find_opt t.sv_inflight key with
            | Some job ->
                t.c_dedup_waits <- t.c_dedup_waits + 1;
                `Wait job
            | None ->
                if t.sv_down then `Down
                else if Queue.length t.sv_queue >= t.sv_queue_cap then begin
                  t.c_rejected <- t.c_rejected + 1;
                  `Reject
                end
                else begin
                  let job =
                    { j_key = key; j_req = req;
                      j_deadline =
                        Option.map
                          (fun d -> Unix.gettimeofday () +. d)
                          req.rq_deadline_s;
                      j_outcome = None }
                  in
                  Hashtbl.replace t.sv_inflight key job;
                  Queue.push job t.sv_queue;
                  Condition.signal t.sv_work;
                  `Wait job
                end))
  in
  match decision with
  | `Mem payload ->
      Done
        { rs_key = key; rs_source = `Mem; rs_ms = B.Clock.now_ms () -. t0;
          rs_prepared = payload.Store.p_stmt;
          rs_plan = payload.Store.p_plan }
  | `Reject -> Rejected
  | `Down -> Failed (req.rq_name ^ ": service is shut down")
  | `Wait job ->
      Mutex.protect t.sv_m (fun () ->
          while job.j_outcome = None do
            Condition.wait t.sv_done t.sv_m
          done;
          Option.get job.j_outcome)

let stats t =
  Mutex.protect t.sv_m (fun () ->
      { requests = t.c_requests; compiles = t.c_compiles;
        mem_hits = t.c_mem_hits; disk_hits = t.c_disk_hits;
        dedup_waits = t.c_dedup_waits; rejected = t.c_rejected;
        failed = t.c_failed; quarantined = Store.quarantined t.sv_store })

let store t = t.sv_store

let shutdown t =
  let ws =
    Mutex.protect t.sv_m (fun () ->
        t.sv_down <- true;
        Condition.broadcast t.sv_work;
        let ws = t.sv_workers in
        t.sv_workers <- [];
        ws)
  in
  List.iter Domain.join ws

let request_of_fn ?(knobs = P.default_knobs) ?deadline_s ~fn ~params () =
  P.lower_for_build ~knobs fn (fun lowered ->
      { rq_name = fn.Ir.fn_name;
        rq_stmt = lowered.Lower.ast;
        rq_knobs = knobs;
        rq_params = params;
        rq_extents = P.extents_of_fn fn ~params;
        rq_deadline_s = deadline_s })

let instantiate (req : request) (rs : response) ~inputs =
  let buffers = B.Buffers.instantiate ~extents:req.rq_extents ~inputs in
  P.compile_stage ~knobs:req.rq_knobs ~params:req.rq_params ~buffers
    rs.rs_prepared
