(* Greedy shrinking: propose structurally smaller variants of a failing
   case and keep any variant that still fails, to a fixpoint.  Variants
   that no longer build (e.g. a step referencing a dropped computation's
   loops) simply don't fail and are discarded by the predicate, so moves
   don't need to be individually safe — only plausible. *)

let rec prods_of = function
  | Case.Prod p -> [ p ]
  | Case.Bin (_, a, b) -> prods_of a @ prods_of b
  | Case.Un (_, a) -> prods_of a
  | Case.Const _ | Case.In _ | Case.Clamped _ -> []

let rec inputs_of = function
  | Case.In (n, _) | Case.Clamped (n, _) -> [ n ]
  | Case.Bin (_, a, b) -> inputs_of a @ inputs_of b
  | Case.Un (_, a) -> inputs_of a
  | Case.Const _ | Case.Prod _ -> []

let step_touches names = function
  | Case.Split (c, _, _)
  | Case.Tile (c, _, _, _, _)
  | Case.Interchange (c, _, _)
  | Case.Shift (c, _, _)
  | Case.Skew (c, _, _, _)
  | Case.Reverse (c, _)
  | Case.Parallelize (c, _)
  | Case.Vectorize (c, _, _)
  | Case.Unroll (c, _, _) ->
      List.mem c names
  | Case.Fuse (c, b, _) | Case.Compute_at (c, b, _) ->
      List.mem c names || List.mem b names

(* Every variant with one schedule step removed. *)
let drop_steps (t : Case.t) =
  List.mapi
    (fun i _ ->
      { t with Case.steps = List.filteri (fun j _ -> j <> i) t.Case.steps })
    t.Case.steps

(* Drop a computation no later computation reads, along with the steps
   that schedule it. *)
let drop_comps (t : Case.t) =
  List.filter_map
    (fun (rc : Case.rcomp) ->
      let name = rc.Case.rc_name in
      let used =
        List.exists
          (fun (rc' : Case.rcomp) ->
            rc'.Case.rc_name <> name
            && List.mem name (prods_of rc'.Case.rc_expr))
          t.Case.comps
      in
      if used || List.length t.Case.comps <= 1 then None
      else
        let dead = [ name; name ^ "_init"; name ^ "_upd" ] in
        Some
          {
            t with
            Case.comps =
              List.filter (fun (c : Case.rcomp) -> c.Case.rc_name <> name) t.Case.comps;
            steps = List.filter (fun s -> not (step_touches dead s)) t.Case.steps;
          })
    t.Case.comps

(* Drop an input no computation reads. *)
let drop_inputs (t : Case.t) =
  List.filter_map
    (fun (name, _) ->
      let used =
        List.exists
          (fun (rc : Case.rcomp) -> List.mem name (inputs_of rc.Case.rc_expr))
          t.Case.comps
      in
      if used then None
      else
        Some
          { t with Case.inputs = List.filter (fun (n, _) -> n <> name) t.Case.inputs })
    t.Case.inputs

(* Replace a computation's expression by a constant or by one child of its
   top-level operator; the shrink fixpoint deepens this one level at a
   time. *)
let simplify_exprs (t : Case.t) =
  List.concat_map
    (fun (rc : Case.rcomp) ->
      let with_expr e =
        {
          t with
          Case.comps =
            List.map
              (fun (c : Case.rcomp) ->
                if c.Case.rc_name = rc.Case.rc_name then { c with Case.rc_expr = e }
                else c)
              t.Case.comps;
        }
      in
      match rc.Case.rc_expr with
      | Case.Bin (_, a, b) -> [ with_expr a; with_expr b; with_expr (Case.Const 1) ]
      | Case.Un (_, a) -> [ with_expr a; with_expr (Case.Const 1) ]
      | Case.Const 1 -> []
      | _ -> [ with_expr (Case.Const 1) ])
    t.Case.comps

(* Turn a reduction into a plain computation, or shorten it. *)
let shrink_reductions (t : Case.t) =
  List.concat_map
    (fun (rc : Case.rcomp) ->
      match rc.Case.rc_red with
      | None -> []
      | Some k ->
          let with_red r =
            let dead = [ rc.Case.rc_name ^ "_init"; rc.Case.rc_name ^ "_upd" ] in
            {
              t with
              Case.comps =
                List.map
                  (fun (c : Case.rcomp) ->
                    if c.Case.rc_name = rc.Case.rc_name then
                      { c with Case.rc_red = r }
                    else c)
                  t.Case.comps;
              steps =
                (if r = None then
                   List.filter (fun s -> not (step_touches dead s)) t.Case.steps
                 else t.Case.steps);
            }
          in
          (if k > 1 then [ with_red (Some (k - 1)) ] else [])
          @ [ with_red None ])
    t.Case.comps

(* Shrink extents and the parameter value toward boundary values. *)
let shrink_extents (t : Case.t) =
  let smaller n =
    List.sort_uniq compare
      (List.filter (fun v -> v >= 0 && v < n) [ 0; 1; 2; n / 2; n - 1 ])
  in
  let at_pos i e =
    {
      t with
      Case.extents = List.mapi (fun j e0 -> if j = i then e else e0) t.Case.extents;
    }
  in
  List.concat
    (List.mapi
       (fun i e ->
         match e with
         | Case.Lit n -> List.map (fun v -> at_pos i (Case.Lit v)) (smaller n)
         | Case.NParam -> [ at_pos i (Case.Lit t.Case.n_value) ])
       t.Case.extents)
  @
  if List.mem Case.NParam t.Case.extents then
    List.map (fun v -> { t with Case.n_value = v }) (smaller t.Case.n_value)
  else []

let candidates t =
  List.concat
    [
      drop_steps t;
      drop_comps t;
      drop_inputs t;
      shrink_reductions t;
      shrink_extents t;
      simplify_exprs t;
    ]

let shrink still_fails case =
  let rec go case rounds =
    if rounds = 0 then case
    else
      match List.find_opt still_fails (candidates case) with
      | Some c -> go c (rounds - 1)
      | None -> case
  in
  go case 50
