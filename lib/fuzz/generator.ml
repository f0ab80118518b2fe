(* Seeded random generation of fuzz cases.

   Programs: 1-3 dims with boundary-heavy extents (0, 1, small, and the
   symbolic parameter N), 1-2 padded inputs, 1-3 computations (some
   reductions) whose expressions are magnitude-tracked so every value stays
   an exact integer-valued float.

   Schedules: candidate steps are drawn against a per-computation record of
   the current dynamic-dim names (mirroring how split/tile/vectorize derive
   and retire names), then *vetted*: the case is rebuilt from scratch with
   the candidate appended, run through the legality oracle
   (Deps.legal_under_schedule) and through lowering.  Only candidates that
   survive are kept, so every emitted case is legal by construction — and
   every oracle rejection is counted, which is how the harness exercises
   the oracle itself.

   Split/Tile only apply to names of length <= 2 (the base dims plus one
   derivation level): each stacked split or tile adds another div/mod pair
   to every access relation, and the legality check's Omega queries grow
   with those.  Measured on a 2-CPU x86-64 VM over generator seeds 1-100,
   with a chain of 2-way splits stacked on every computation's [i] (and a
   reduction's [r]): the legality check takes at most 24 ms and allocates
   at most 7 MB at two levels, 52 ms / 15 MB at three, 125 ms / 32 MB at
   four.  The bound stays because the pinned fuzz corpus and the
   benchmark's programs are drawn under it; the vet's work budget
   ([Limits.case_fuel]) backstops whatever it still lets through.

   The oracle checks hardware tags too (a dependence carried by a
   parallelized or vectorized loop is rejected — found by this fuzzer,
   sweep seeds 3320/1188), so tag candidates need no special safety
   handling here; the generator still skips parallelizing or vectorizing
   the reduction dim (and its r-prefixed derivatives) purely to avoid
   proposing steps the oracle would refuse anyway.  Unrolling r is fine —
   unrolled drivers preserve sequential order. *)

module R = Random.State

type stats = {
  mutable cases : int;
  mutable steps_accepted : int;
  mutable steps_illegal : int;  (** rejected by the legality oracle *)
  mutable steps_errored : int;  (** apply/lower raised (malformed) *)
}

let mk_stats () =
  { cases = 0; steps_accepted = 0; steps_illegal = 0; steps_errored = 0 }

module S = Tiramisu_autosched.Sched_space

let pick = S.pick
let pick_list = S.pick_list
let extent_pool = [| 0; 1; 2; 3; 3; 4; 5; 8; 17 |]

(* Magnitude cap keeping every intermediate integer exactly representable
   (reductions multiply by at most 4, leaving headroom below 2^53). *)
let mag_cap = 1 lsl 40

(* Returns (expr, magnitude bound).  [nall] counts the consumer dims an
   input access may map to; [prods] lists earlier computations usable as
   producers, already filtered to rank <= consumer free rank. *)
let rec gen_expr rng ~depth ~nall ~inputs ~prods =
  let gen_input () =
    let name, irank = pick_list rng inputs in
    let dims =
      List.init irank (fun _ -> (R.int rng nall, R.int rng 5 - 2))
    in
    (Case.In (name, dims), 8)
  in
  let leaf () =
    match R.int rng 4 with
    | 0 -> (Case.Const (R.int rng 17 - 8), 8)
    | 1 | 2 -> gen_input ()
    | _ ->
        if prods = [] then gen_input ()
        else
          let name, _, mag = pick_list rng prods in
          (Case.Prod name, mag)
  in
  if depth = 0 || R.int rng 3 = 0 then leaf ()
  else
    let a, ma = gen_expr rng ~depth:(depth - 1) ~nall ~inputs ~prods in
    let b, mb = gen_expr rng ~depth:(depth - 1) ~nall ~inputs ~prods in
    let op, m =
      match pick rng [| `Add; `Add; `Sub; `Mul; `Min; `Max |] with
      | `Add -> (Case.Add, ma + mb)
      | `Sub -> (Case.Sub, ma + mb)
      | `Mul -> (Case.Mul, ma * mb)
      | `Min -> (Case.Min, max ma mb)
      | `Max -> (Case.Max, max ma mb)
    in
    if m > mag_cap then (Case.Bin (Case.Min, a, b), max ma mb)
    else (Case.Bin (op, a, b), m)

(* ---------- schedule candidates against tracked dim names ---------- *)

(* The candidate draw lives in Sched_space (shared with the beam search);
   the R.int stream it consumes is unchanged, so pinned sweep seeds and the
   replay corpus are unaffected by the factoring. *)
let candidate : R.t -> S.entry list -> (Case.step * (unit -> unit)) option =
  S.random_candidate

(* Rebuild from scratch and check: schedule applies, the oracle accepts,
   lowering succeeds.  Runs on a work budget: candidates whose legality
   check blows up are dropped as errored, not allowed to hang, and neither
   the host nor its load changes which candidates a seed keeps. *)
let vet case =
  let module Lm = Tiramisu_support.Limits in
  match
    Lm.with_fuel Lm.case_fuel (fun () ->
        match Case.build case with
        | exception e -> `Err (Printexc.to_string e)
        | b -> (
            match Tiramisu_deps.Deps.legal_under_schedule b.Case.fn with
            | Error e -> `Illegal e
            | Ok () -> (
                match Tiramisu_pipeline.Pipeline.lower b.Case.fn with
                | exception e -> `Err (Printexc.to_string e)
                | _ -> `Ok)))
  with
  | Some r -> r
  | None -> `Err "vet over the work budget"

(* Schedulable computations with their initial dynamic-dim names. *)
let schedulable (t : Case.t) =
  List.concat_map
    (fun (rc : Case.rcomp) ->
      let free = List.init rc.Case.rc_rank Case.dim_name in
      match rc.Case.rc_red with
      | None -> [ (rc.Case.rc_name, ref free) ]
      | Some _ ->
          [
            (rc.Case.rc_name ^ "_init", ref free);
            (rc.Case.rc_name ^ "_upd", ref (free @ [ "r" ]));
          ])
    t.Case.comps

let gen ?(stats = mk_stats ()) rng : Case.t =
  stats.cases <- stats.cases + 1;
  let ndims = 1 + R.int rng 3 in
  let n_value = pick rng extent_pool in
  let extents =
    List.init ndims (fun _ ->
        if R.int rng 4 = 0 then Case.NParam else Case.Lit (pick rng extent_pool))
  in
  let ninputs = 1 + R.int rng 2 in
  let inputs =
    List.init ninputs (fun k -> ("a" ^ string_of_int k, 1 + R.int rng ndims))
  in
  let ncomps = 1 + R.int rng 3 in
  let comps = ref [] and prods = ref [] in
  for k = 0 to ncomps - 1 do
    let rank = 1 + R.int rng ndims in
    let red =
      if R.int rng 10 < 3 then Some (1 + R.int rng 4) else None
    in
    let nall = rank + if red = None then 0 else 1 in
    let usable = List.filter (fun (_, r, _) -> r <= rank) !prods in
    let name = "c" ^ string_of_int k in
    let expr, mag =
      gen_expr rng ~depth:(1 + R.int rng 2) ~nall ~inputs ~prods:usable
    in
    let mag = match red with None -> mag | Some kx -> kx * mag in
    comps := { Case.rc_name = name; rc_rank = rank; rc_red = red; rc_expr = expr } :: !comps;
    prods := (name, rank, mag) :: !prods
  done;
  let base =
    {
      Case.extents;
      n_value;
      inputs;
      comps = List.rev !comps;
      steps = [];
    }
  in
  let entries = schedulable base in
  let target = R.int rng 5 in
  let case = ref base in
  let attempts = ref 0 in
  while List.length !case.Case.steps < target && !attempts < target * 4 do
    incr attempts;
    match candidate rng entries with
    | None -> ()
    | Some (st, commit) -> (
        let cand = { !case with Case.steps = !case.Case.steps @ [ st ] } in
        match vet cand with
        | `Ok ->
            commit ();
            case := cand;
            stats.steps_accepted <- stats.steps_accepted + 1
        | `Illegal _ -> stats.steps_illegal <- stats.steps_illegal + 1
        | `Err _ -> stats.steps_errored <- stats.steps_errored + 1)
  done;
  !case
