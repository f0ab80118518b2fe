(** On-disk content-addressed compile-artifact store.

    The persistent tier of the compile service: every artifact is a
    prepared+planned statement (the output of
    {!Tiramisu_pipeline.Pipeline.prepare_and_plan}) keyed by the hex
    digest of its full compile-cache key — structural hash of the source
    statement, knobs, params, extents, pool environment and
    {!Tiramisu_codegen.Tape_gen.version}.  A warm load therefore skips
    every pipeline pass and goes straight to the backend compile stage.

    Layout: [root/<hh>/<key>.art] where [<hh>] is the first two hex
    characters of the key — 256 shards, each with its own lock, so
    concurrent service workers loading or persisting different keys
    almost never contend.  Writes go through a temp file + atomic rename,
    so a crashed writer leaves no half-written artifact under the key.

    Integrity: the file carries a whole-payload digest and the payload
    re-states the prepared statement's structural hash, which is
    recomputed on load.  Any mismatch — truncation, bit flip, partial
    write that survived rename, unmarshallable bytes — moves the file to
    [root/quarantine/] and reports {!Quarantined}: corrupt entries are
    misses that can never wedge the service, and the quarantined file is
    kept for post-mortem.  An artifact persisted by a different
    {!Tiramisu_codegen.Tape_gen.version} or store format version is a
    clean {!Miss} (stale, not corrupt) and is overwritten by the next
    {!put}. *)

type t

type payload = {
  p_src : Tiramisu_codegen.Loop_ir.stmt;
      (** the source statement, stored verbatim: the digest collision
          guard — load compares it structurally against the requested
          statement, exactly as the in-memory cache buckets do *)
  p_stmt : Tiramisu_codegen.Loop_ir.stmt;  (** prepared+planned statement *)
  p_plan : Tiramisu_codegen.Parallel_plan.report;
}

type verdict =
  | Hit of payload
  | Miss
      (** absent, persisted by an older tape-generator / format version,
          or a digest collision with a different source statement *)
  | Quarantined of string
      (** integrity check failed (reason attached); the file was moved to
          [root/quarantine/] and the key now misses *)

val open_store : string -> t
(** Create/open a store rooted at the given directory (created, with its
    shard directories, on demand). *)

val root : t -> string

val put : ?tapegen:int -> t -> key:string -> target:string -> payload -> unit
(** Persist an artifact under [key] (lower-case hex, as produced by
    {!Tiramisu_pipeline.Pipeline.key_digest}), recording the execution
    target it was prepared for ([target] is
    {!Tiramisu_backends.Target.to_key_string}).  [tapegen] overrides the
    recorded generator version — exposed so tests can fabricate stale
    entries; real callers never pass it. *)

val get :
  t ->
  key:string ->
  src:Tiramisu_codegen.Loop_ir.stmt ->
  target:string ->
  verdict
(** An artifact recorded for a different [target] is a clean {!Miss} —
    one store holds CPU, GPU-sim and distributed artifacts without
    aliasing. *)

val quarantined : t -> int
(** Number of files this store instance moved to quarantine. *)

val path_of_key : t -> string -> string
(** Absolute artifact path for a key (exposed for tests that corrupt
    files on purpose). *)
