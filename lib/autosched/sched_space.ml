(* The schedule-space vocabulary shared by the random fuzzer (lib/fuzz) and
   the measurement-driven beam search (search.ml): one first-class action
   type covering the Table II commands the repo exercises, an applier that
   replays an action onto a freshly-built [Ir.fn], a literal printer for
   replayable OCaml, and the tracked-dim-name machinery that mirrors how
   split/tile/vectorize derive and retire dynamic-dim names.

   Both clients build candidate pipelines the same way: draw (or enumerate)
   actions against the tracked names, rebuild the program from scratch with
   the candidate appended, and keep it only if the dependence oracle
   (Deps.legal_under_schedule) and lowering accept it.  Factoring the
   vocabulary here means the fuzzer's corpus literals and the search's
   winning schedules are the same artifact. *)

open Tiramisu_core
open Tiramisu
module R = Random.State

type action =
  | Split of string * string * int
      (** comp, dyn name v, factor — derived names [v0], [v1] *)
  | Tile of string * string * string * int * int
      (** comp, i, j (adjacent), factors — derived [i0 j0 i1 j1] *)
  | Interchange of string * string * string
  | Shift of string * string * int
  | Skew of string * string * string * int
  | Reverse of string * string
  | Parallelize of string * string
  | Vectorize of string * string * int  (** derived inner name [v_v] *)
  | Unroll of string * string * int  (** derived inner name [v_u] *)
  | Fuse of string * string * string
      (** [after c b lvl], lvl = "root" or a loop of b *)
  | Compute_at of string * string * string
      (** [compute_at producer consumer lvl] — the stencil-locality move
          (Fig. 2 of the paper); search-only, never drawn randomly because
          the fuzz corpus predates it. *)

let apply fn = function
  | Split (c, v, f) -> split (find_comp fn c) v f (v ^ "0") (v ^ "1")
  | Tile (c, i, j, t1, t2) ->
      tile (find_comp fn c) i j t1 t2 (i ^ "0") (j ^ "0") (i ^ "1") (j ^ "1")
  | Interchange (c, i, j) -> interchange (find_comp fn c) i j
  | Shift (c, i, s) -> shift (find_comp fn c) i s
  | Skew (c, i, j, f) -> skew (find_comp fn c) i j f
  | Reverse (c, i) -> reverse (find_comp fn c) i
  | Parallelize (c, i) -> parallelize (find_comp fn c) i
  | Vectorize (c, i, w) -> vectorize (find_comp fn c) i w
  | Unroll (c, i, f) -> unroll (find_comp fn c) i f
  | Fuse (c, b, lvl) -> after (find_comp fn c) (find_comp fn b) lvl
  | Compute_at (c, b, lvl) -> compute_at (find_comp fn c) (find_comp fn b) lvl

let to_literal = function
  | Split (c, v, f) -> Printf.sprintf "Split (%S, %S, %d)" c v f
  | Tile (c, i, j, a, b) -> Printf.sprintf "Tile (%S, %S, %S, %d, %d)" c i j a b
  | Interchange (c, i, j) -> Printf.sprintf "Interchange (%S, %S, %S)" c i j
  | Shift (c, i, s) -> Printf.sprintf "Shift (%S, %S, %d)" c i s
  | Skew (c, i, j, f) -> Printf.sprintf "Skew (%S, %S, %S, %d)" c i j f
  | Reverse (c, i) -> Printf.sprintf "Reverse (%S, %S)" c i
  | Parallelize (c, i) -> Printf.sprintf "Parallelize (%S, %S)" c i
  | Vectorize (c, i, w) -> Printf.sprintf "Vectorize (%S, %S, %d)" c i w
  | Unroll (c, i, f) -> Printf.sprintf "Unroll (%S, %S, %d)" c i f
  | Fuse (c, b, l) -> Printf.sprintf "Fuse (%S, %S, %S)" c b l
  | Compute_at (c, b, l) -> Printf.sprintf "Compute_at (%S, %S, %S)" c b l

(* ---------- tracked dynamic-dim names ---------- *)

type entry = string * string list ref
(** computation name, current dynamic-dim names (outer to inner) *)

let replace1 l v repl =
  List.concat_map (fun s -> if s = v then repl else [ s ]) l

let replace_pair l i j repl =
  let rec go = function
    | a :: b :: tl when a = i && b = j -> repl @ tl
    | a :: tl -> a :: go tl
    | [] -> []
  in
  go l

let swap l a b =
  List.map (fun s -> if s = a then b else if s = b then a else s) l

let copy_entries entries = List.map (fun (c, r) -> (c, ref !r)) entries

(* Replay the name derivation an action performs, so an action sequence can
   be re-tracked deterministically (the search replays prefixes this way;
   the fuzzer uses per-candidate commit thunks with identical effect). *)
let commit entries act =
  let upd c f =
    match List.assoc_opt c entries with Some r -> r := f !r | None -> ()
  in
  match act with
  | Split (c, v, _) -> upd c (fun l -> replace1 l v [ v ^ "0"; v ^ "1" ])
  | Tile (c, i, j, _, _) ->
      upd c (fun l -> replace_pair l i j [ i ^ "0"; j ^ "0"; i ^ "1"; j ^ "1" ])
  | Interchange (c, a, b) -> upd c (fun l -> swap l a b)
  | Vectorize (c, v, _) -> upd c (fun l -> replace1 l v [ v; v ^ "_v" ])
  | Unroll (c, v, _) -> upd c (fun l -> replace1 l v [ v; v ^ "_u" ])
  | Shift _ | Skew _ | Reverse _ | Parallelize _ | Fuse _ | Compute_at _ -> ()

(* ---------- random candidates (the fuzzer's draw) ---------- *)

let pick rng arr = arr.(R.int rng (Array.length arr))
let pick_list rng l = List.nth l (R.int rng (List.length l))
let factor_pool = [| 2; 2; 3; 4 |]

(* One candidate action, or None when the drawn shape does not apply.
   Returns the action plus a commit thunk updating the tracked names.

   Split/Tile only apply to names of length <= 2 (the base dims plus one
   derivation level): each stacked split or tile adds another div/mod pair
   to every access relation, and the legality check's Omega queries grow
   with those.  Measured on a 2-CPU x86-64 VM over generator seeds 1-100,
   with a chain of 2-way splits stacked on every computation's [i] (and a
   reduction's [r]): the legality check takes at most 24 ms and allocates
   at most 7 MB at two levels, 52 ms / 15 MB at three, 125 ms / 32 MB at
   four.  The bound stays because the pinned fuzz corpus and the
   benchmark's programs are drawn under it; the 5 s vet timeout backstops
   whatever it still lets through.

   The draw sequence against [rng] is load-bearing: the pinned fuzz corpus
   seeds (test/test_fuzz.ml) replay through this exact R.int stream. *)
let random_candidate rng (entries : entry list) =
  let cname, nref = pick_list rng entries in
  let names = !nref in
  let nn = List.length names in
  if nn = 0 then None
  else
    let nm i = List.nth names i in
    let rand_name () = nm (R.int rng nn) in
    match R.int rng 11 with
    | 0 | 1 ->
        let v = rand_name () in
        if
          String.length v > 2
          || List.mem (v ^ "0") names
          || List.mem (v ^ "1") names
        then None
        else
          Some
            ( Split (cname, v, pick rng factor_pool),
              fun () -> nref := replace1 !nref v [ v ^ "0"; v ^ "1" ] )
    | 2 ->
        if nn < 2 then None
        else
          let p = R.int rng (nn - 1) in
          let i = nm p and j = nm (p + 1) in
          let derived = [ i ^ "0"; j ^ "0"; i ^ "1"; j ^ "1" ] in
          if
            String.length i > 2 || String.length j > 2
            || List.exists (fun s -> List.mem s names) derived
          then None
          else
            Some
              ( Tile (cname, i, j, pick rng factor_pool, pick rng factor_pool),
                fun () -> nref := replace_pair !nref i j derived )
    | 3 ->
        if nn < 2 then None
        else
          let a = rand_name () and b = rand_name () in
          if a = b then None
          else Some (Interchange (cname, a, b), fun () -> nref := swap !nref a b)
    | 4 -> Some (Shift (cname, rand_name (), R.int rng 7 - 3), fun () -> ())
    | 5 ->
        if nn < 2 then None
        else
          let a = rand_name () and b = rand_name () in
          if a = b then None
          else Some (Skew (cname, a, b, 1 + R.int rng 2), fun () -> ())
    | 6 -> Some (Reverse (cname, rand_name ()), fun () -> ())
    | 7 ->
        let v = rand_name () in
        if v.[0] = 'r' then None
        else Some (Parallelize (cname, v), fun () -> ())
    | 8 ->
        let v = nm (nn - 1) in
        if v.[0] = 'r' || List.mem (v ^ "_v") names then None
        else
          Some
            ( Vectorize (cname, v, pick rng [| 2; 4; 8 |]),
              fun () -> nref := replace1 !nref v [ v; v ^ "_v" ] )
    | 9 ->
        let v = nm (nn - 1) in
        if List.mem (v ^ "_u") names then None
        else
          Some
            ( Unroll (cname, v, pick rng [| 2; 3; 4 |]),
              fun () -> nref := replace1 !nref v [ v; v ^ "_u" ] )
    | _ ->
        if List.length entries < 2 then None
        else
          let c, _ = pick_list rng entries in
          let b, bref = pick_list rng entries in
          if c = b then None
          else
            let lvl =
              if R.int rng 3 = 0 && !bref <> [] then pick_list rng !bref
              else "root"
            in
            Some (Fuse (c, b, lvl), fun () -> ())

(* ---------- exhaustive enumeration (the search's frontier) ---------- *)

type menu = {
  tile_sizes : int list;  (** square tile edge — power-of-two menu *)
  split_factors : int list;
  vec_widths : int list;
  unroll_factors : int list;
  lane_widths : int list;
      (* tape lane widths the search probes the incumbent with — a
         backend knob, not a schedule action, so [enumerate] never
         consumes it *)
}

let default_menu =
  {
    tile_sizes = [ 8; 16; 32; 64 ];
    split_factors = [ 4; 8; 16 ];
    vec_widths = [ 4; 8 ];
    unroll_factors = [ 2; 4 ];
    lane_widths = [ 1; 4; 16 ];
  }

(* All single actions applicable to the tracked state, in a deterministic
   order.  Same structural guards as [random_candidate]; tags are bounded
   to the shapes the cost model can reward (parallelize outer, vectorize /
   unroll innermost), and compute_at/fuse enumerate producer->consumer
   pairs at the consumer's outer levels only. *)
let enumerate ?(menu = default_menu) (entries : entry list) : action list =
  let acc = ref [] in
  let push a = acc := a :: !acc in
  List.iter
    (fun (cname, nref) ->
      let names = !nref in
      let nn = List.length names in
      if nn > 0 then begin
        (* splits *)
        List.iter
          (fun v ->
            if
              String.length v <= 2
              && (not (List.mem (v ^ "0") names))
              && not (List.mem (v ^ "1") names)
            then
              List.iter (fun f -> push (Split (cname, v, f))) menu.split_factors)
          names;
        (* square tiles of adjacent pairs *)
        for p = 0 to nn - 2 do
          let i = List.nth names p and j = List.nth names (p + 1) in
          let derived = [ i ^ "0"; j ^ "0"; i ^ "1"; j ^ "1" ] in
          if
            String.length i <= 2 && String.length j <= 2
            && not (List.exists (fun s -> List.mem s names) derived)
          then List.iter (fun t -> push (Tile (cname, i, j, t, t))) menu.tile_sizes
        done;
        (* adjacent interchanges *)
        for p = 0 to nn - 2 do
          push (Interchange (cname, List.nth names p, List.nth names (p + 1)))
        done;
        (* parallelize the outermost non-reduction dim *)
        (match names with
        | v :: _ when v.[0] <> 'r' -> push (Parallelize (cname, v))
        | _ -> ());
        (* vectorize / unroll the innermost dim *)
        let v = List.nth names (nn - 1) in
        if v.[0] <> 'r' && not (List.mem (v ^ "_v") names) then
          List.iter (fun w -> push (Vectorize (cname, v, w))) menu.vec_widths;
        if not (List.mem (v ^ "_u") names) then
          List.iter (fun f -> push (Unroll (cname, v, f))) menu.unroll_factors
      end)
    entries;
  (* cross-computation moves: fuse at root, compute_at the consumer's outer
     levels, for every ordered pair.  The entries carry no dataflow, so a
     compute_at whose consumer does not read its producer is proposed too;
     the legality oracle passes it (it checks the flow dependences outside
     compute_at and the coverage of reads that exist) and lowering rejects
     it, so a caller that knows the dataflow drops it first, as the search
     does ([Search.expand]). *)
  List.iter
    (fun (c, _) ->
      List.iter
        (fun (b, bref) ->
          if c <> b then begin
            push (Fuse (c, b, "root"));
            List.iteri
              (fun k lvl -> if k < 2 then push (Compute_at (c, b, lvl)))
              !bref
          end)
        entries)
    entries;
  List.rev !acc
