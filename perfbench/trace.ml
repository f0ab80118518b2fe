(* In-memory spans recorded around the benchmark's calls into each layer
   (name, start, end, parent, request id), kept until the run ends and
   then written out.  Recording is off unless the run is traced, so
   untraced runs pay one load per wrapped call.

   Spans are recorded from the service's client systhreads and its worker
   domain too, so the store is mutex-protected and the stack of open spans
   is kept per thread. *)

module P = Tiramisu_pipeline.Pipeline

type span = {
  id : int;
  name : string;
  parent : int;  (* 0: no parent *)
  rid : int;  (* request id; 0 when the span serves no single request *)
  t0 : float;  (* ms, monotonic *)
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 1
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let reset () =
  Mutex.protect lock (fun () ->
      spans := [];
      next_id := 1;
      Hashtbl.reset stacks)

let self_key () = Thread.id (Thread.self ())

let open_span () =
  Mutex.protect lock (fun () ->
      let id = !next_id in
      incr next_id;
      let k = self_key () in
      let stack = Option.value (Hashtbl.find_opt stacks k) ~default:[] in
      Hashtbl.replace stacks k (id :: stack);
      (id, match stack with p :: _ -> p | [] -> 0))

let close_span s =
  Mutex.protect lock (fun () ->
      let k = self_key () in
      (match Hashtbl.find_opt stacks k with
       | Some (_ :: rest) -> Hashtbl.replace stacks k rest
       | _ -> ());
      spans := s :: !spans)

(* Record [f ()] as span [name]; [on_close id t0] runs after the span is
   closed (used to attach the pipeline tracer's pass records as
   children). *)
let with_span ?(rid = 0) ?on_close name f =
  if not !enabled then f ()
  else begin
    let id, parent = open_span () in
    let t0 = Util.now_ms () in
    let finish () =
      let t1 = Util.now_ms () in
      close_span { id; name; parent; rid; t0; t1 };
      match on_close with Some g -> g id t0 | None -> ()
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(* A span measured elsewhere (e.g. queue wait: submit on a client thread,
   dequeue on the worker domain). *)
let record ?(rid = 0) ?(parent = 0) name t0 t1 =
  if !enabled then
    Mutex.protect lock (fun () ->
        let id = !next_id in
        incr next_id;
        spans := { id; name; parent; rid; t0; t1 } :: !spans)

(* The pipeline tracer times each pass but not its start: passes run back
   to back, so they are laid out in order from the start of the enclosing
   call. *)
let attach_passes tracer parent t0 =
  let tr = P.trace_of tracer in
  ignore
    (List.fold_left
       (fun t (p : P.pass_trace) ->
         record ~parent ("pass." ^ p.P.p_name) t (t +. p.P.p_ms);
         t +. p.P.p_ms)
       t0 tr.P.t_passes)

(* Wrap a call that takes an optional pipeline tracer: traced runs hand it
   a fresh tracer and record its passes under the span. *)
let with_tracer ?rid name (f : P.tracer option -> 'a) : 'a =
  if not !enabled then f None
  else
    let tracer = P.make_tracer ~name () in
    with_span ?rid name
      ~on_close:(fun id t0 -> attach_passes tracer id t0)
      (fun () -> f (Some tracer))

let all () = Mutex.protect lock (fun () -> List.rev !spans)

let dur s = s.t1 -. s.t0

(* Self time: a span's duration minus its children's. *)
let self_times () =
  let spans = all () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let n, total = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0) in
      Hashtbl.replace by_name s.name (n + 1, total +. self))
    spans;
  List.sort compare (Hashtbl.fold (fun k (n, t) acc -> (k, n, t) :: acc) by_name [])

let write path =
  Util.mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %s, \"parent\": %d, \"rid\": %d, \"start_ms\": %s, \"end_ms\": %s}\n"
            s.id (Util.json_str s.name) s.parent s.rid (Util.json_num s.t0)
            (Util.json_num s.t1))
        (all ()))
