type t = { space : Space.set; polys : Poly.t list }

let of_polys space polys =
  let n = Space.set_arity space in
  List.iter (fun p -> if Poly.dim p <> n then invalid_arg "Iset: arity") polys;
  { space; polys }

let universe space = of_polys space [ Poly.universe (Space.set_arity space) ]
let empty space = of_polys space []
let space s = s.space
let n_vars s = Array.length s.space.Space.vars
let n_params s = Array.length s.space.Space.params

let poly_of_constraints space cs =
  List.fold_left
    (Poly.add_cstr ~cols:(Space.set_cols space))
    (Poly.universe (Space.set_arity space))
    cs

let of_constraints space cs = { space; polys = [ poly_of_constraints space cs ] }

let add_constraints s cs =
  let extra = poly_of_constraints s.space cs in
  { s with polys = List.map (Poly.intersect extra) s.polys }

let same_shape a b =
  if not (Space.set_equal a.space b.space) then
    invalid_arg "Iset: space mismatch"

let intersect a b =
  same_shape a b;
  {
    a with
    polys =
      List.concat_map
        (fun p -> List.map (fun q -> Poly.intersect p q) b.polys)
        a.polys;
  }

let union a b =
  same_shape a b;
  { a with polys = a.polys @ b.polys }

let subtract a b =
  same_shape a b;
  {
    a with
    polys =
      List.fold_left
        (fun pieces q -> List.concat_map (fun p -> Poly.subtract p q) pieces)
        a.polys b.polys;
  }

let is_empty s = List.for_all Poly.is_empty s.polys

let subset a b =
  same_shape a b;
  is_empty (subtract a b)

let equal a b = subset a b && subset b a

let mem s ~params pt =
  let full = Array.append params pt in
  List.exists (fun p -> Poly.mem p full) s.polys

let sample s = List.find_map Poly.sample s.polys

let fix_params s bindings =
  let np = n_params s in
  let fix p =
    List.fold_left
      (fun p (name, v) ->
        let idx = ref (-1) in
        Array.iteri
          (fun i n -> if n = name && !idx < 0 then idx := i)
          s.space.Space.params;
        if !idx < 0 then p else Poly.fix_var p !idx v)
      p bindings
  in
  ignore np;
  { s with polys = List.map fix s.polys }

let fix_var s i v =
  let np = n_params s in
  { s with polys = List.map (fun p -> Poly.fix_var p (np + i) v) s.polys }

let rename_vars s names =
  if List.length names <> n_vars s then invalid_arg "Iset.rename_vars";
  { s with space = { s.space with Space.vars = Array.of_list names } }

let points s ~params =
  let limit = 1 lsl 20 in
  let s = fix_params s params in
  let nv = n_vars s and np = n_params s in
  let acc = ref [] in
  List.iter
    (fun p ->
      (* Enumerate recursively: bound each var via FM projection. *)
      let rec go p depth prefix =
        if depth = nv then acc := Array.of_list (List.rev prefix) :: !acc
        else
          let v = np + depth in
          (* Outer variables and parameters are already fixed by equalities,
             so eliminating everything but [v] leaves constant bounds. *)
          let proj, _ = Poly.eliminate p ~keep:(fun i -> i = v) in
          let lo, hi =
            List.fold_left
              (fun (lo, hi) row ->
                let c = row.(v + 1) in
                let k = row.(0) in
                if c > 0 then (max lo (Tiramisu_support.Ints.cdiv (-k) c), hi)
                else if c < 0 then (lo, min hi (Tiramisu_support.Ints.fdiv k (-c)))
                else (lo, hi))
              (-limit, limit)
              (Poly.to_ineqs proj)
          in
          if hi - lo > limit then invalid_arg "Iset.points: unbounded";
          for x = lo to hi do
            let p' = Poly.fix_var p v x in
            if not (Poly.is_empty p') then go p' (depth + 1) (x :: prefix)
          done
      in
      go p 0 [])
    s.polys;
  (* Deduplicate (union pieces may overlap) and sort lexicographically. *)
  let cmp a b = Stdlib.compare (Array.to_list a) (Array.to_list b) in
  List.sort_uniq cmp !acc

let pp_poly ~cols ppf p =
  let { Poly.eqs; ineqs; _ } = p in
  let parts =
    List.map (fun r -> Format.asprintf "%a = 0" Aff.pp (Aff.of_row ~cols r)) eqs
    @ List.map
        (fun r -> Format.asprintf "%a >= 0" Aff.pp (Aff.of_row ~cols r))
        ineqs
  in
  Format.fprintf ppf "%s" (String.concat " and " parts)

let pp ppf s =
  let cols = Space.set_cols s.space in
  let params = s.space.Space.params in
  if Array.length params > 0 then
    Format.fprintf ppf "[%s] -> "
      (String.concat ", " (Array.to_list params));
  let tuple =
    Printf.sprintf "%s[%s]"
      (Option.value s.space.Space.set_name ~default:"")
      (String.concat ", " (Array.to_list s.space.Space.vars))
  in
  match s.polys with
  | [] -> Format.fprintf ppf "{ %s : false }" tuple
  | polys ->
      Format.fprintf ppf "{ ";
      List.iteri
        (fun i p ->
          if i > 0 then Format.fprintf ppf "; ";
          Format.fprintf ppf "%s" tuple;
          if p.Poly.eqs <> [] || p.Poly.ineqs <> [] then
            Format.fprintf ppf " : %a" (pp_poly ~cols) p)
        polys;
      Format.fprintf ppf " }"

let to_string s = Format.asprintf "%a" pp s
