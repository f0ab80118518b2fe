open Tiramisu_support

type t = { space : Space.map; polys : Poly.t list }

let of_polys space polys =
  let n = Space.map_arity space in
  List.iter (fun p -> if Poly.dim p <> n then invalid_arg "Imap: arity") polys;
  { space; polys }

let universe space = of_polys space [ Poly.universe (Space.map_arity space) ]

let of_constraints space cs =
  let p =
    List.fold_left
      (Poly.add_cstr ~cols:(Space.map_cols space))
      (Poly.universe (Space.map_arity space))
      cs
  in
  { space; polys = [ p ] }

let from_exprs ?(extra = []) space outs =
  let souts = space.Space.outs in
  if List.length outs <> Array.length souts then
    invalid_arg "Imap.from_exprs: arity mismatch";
  let eqs =
    List.mapi (fun i e -> Cstr.Eq (Aff.var souts.(i), e)) outs
  in
  of_constraints space (eqs @ extra)

let identity space =
  if Array.length space.Space.ins <> Array.length space.Space.outs then
    invalid_arg "Imap.identity";
  from_exprs space
    (Array.to_list (Array.map Aff.var space.Space.ins))

let space m = m.space
let n_ins m = Array.length m.space.Space.ins
let n_outs m = Array.length m.space.Space.outs
let n_params m = Array.length m.space.Space.mparams

let same_shape a b =
  if
    a.space.Space.mparams <> b.space.Space.mparams
    || n_ins a <> n_ins b || n_outs a <> n_outs b
  then invalid_arg "Imap: space mismatch"

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

let is_empty m = List.for_all Poly.is_empty m.polys

let domain m =
  let np = n_params m and ni = n_ins m and no = n_outs m in
  let polys =
    List.map (fun p -> fst (Poly.project_out p ~at:(np + ni) ~count:no)) m.polys
  in
  Iset.of_polys (Space.domain_of_map m.space) polys

let range m =
  let np = n_params m and ni = n_ins m in
  let polys =
    List.map (fun p -> fst (Poly.project_out p ~at:np ~count:ni)) m.polys
  in
  Iset.of_polys (Space.range_of_map m.space) polys

let inverse m =
  let np = n_params m and ni = n_ins m and no = n_outs m in
  let perm = Array.init (np + ni + no) Fun.id in
  (* Columns: params unchanged; new ins (old outs) then new outs (old ins). *)
  for i = 0 to no - 1 do
    perm.(np + i) <- np + ni + i
  done;
  for i = 0 to ni - 1 do
    perm.(np + no + i) <- np + i
  done;
  let space' =
    {
      m.space with
      Space.ins = m.space.Space.outs;
      outs = m.space.Space.ins;
      in_name = m.space.Space.out_name;
      out_name = m.space.Space.in_name;
    }
  in
  { space = space'; polys = List.map (fun p -> Poly.permute p perm) m.polys }

let apply s m =
  let np = n_params m and ni = n_ins m in
  if Iset.n_vars s <> ni then invalid_arg "Imap.apply: arity mismatch";
  if Array.length s.Iset.space.Space.params <> np then
    invalid_arg "Imap.apply: parameter mismatch";
  let no = n_outs m in
  let polys =
    List.concat_map
      (fun sp ->
        List.map
          (fun mp ->
            (* Lift the set poly into the map's column layout and intersect,
               then project out the inputs. *)
            let lifted = Poly.insert_vars sp ~at:(np + ni) ~count:no in
            let inter = Poly.intersect lifted mp in
            fst (Poly.project_out inter ~at:np ~count:ni))
          m.polys)
      s.Iset.polys
  in
  Iset.of_polys (Space.range_of_map m.space) polys

let compose f g =
  let np = n_params f in
  if n_outs f <> n_ins g then invalid_arg "Imap.compose: arity mismatch";
  let a = n_ins f and b = n_outs f and c = n_outs g in
  (* Work in columns [params; A; B; C]. *)
  let polys =
    List.concat_map
      (fun fp ->
        List.map
          (fun gp ->
            let fp' = Poly.insert_vars fp ~at:(np + a + b) ~count:c in
            let gp' = Poly.insert_vars gp ~at:np ~count:a in
            let inter = Poly.intersect fp' gp' in
            fst (Poly.project_out inter ~at:(np + a) ~count:b))
          g.polys)
      f.polys
  in
  let space' =
    {
      f.space with
      Space.outs = g.space.Space.outs;
      out_name = g.space.Space.out_name;
    }
  in
  { space = space'; polys }

let intersect_domain m s =
  let np = n_params m and ni = n_ins m and no = n_outs m in
  if Iset.n_vars s <> ni then invalid_arg "Imap.intersect_domain";
  let polys =
    List.concat_map
      (fun mp ->
        List.map
          (fun sp ->
            Poly.intersect mp (Poly.insert_vars sp ~at:(np + ni) ~count:no))
          s.Iset.polys)
      m.polys
  in
  { m with polys }

let fix_params m bindings =
  let fix p =
    List.fold_left
      (fun p (name, v) ->
        let idx = ref (-1) in
        Array.iteri
          (fun i n -> if n = name && !idx < 0 then idx := i)
          m.space.Space.mparams;
        if !idx < 0 then p else Poly.fix_var p !idx v)
      p bindings
  in
  { m with polys = List.map fix m.polys }

(* Solve the equality system for the given block of columns (offset, count),
   expressing each as an affine expression over the remaining columns. *)
let solve_block m ~offset ~count =
  match m.polys with
  | [ p ] -> (
      let n = Poly.dim p in
      let rows =
        List.map (fun r -> Array.map Rat.of_int r) p.Poly.eqs
      in
      let rows = Array.of_list rows in
      let nrows = Array.length rows in
      let pivot_of = Array.make count (-1) in
      let used = Array.make nrows false in
      (try
         for j = 0 to count - 1 do
           let col = offset + j + 1 in
           (* Find an unused row with a nonzero pivot. *)
           let r = ref (-1) in
           for i = 0 to nrows - 1 do
             if !r < 0 && (not used.(i)) && Rat.sign rows.(i).(col) <> 0 then
               r := i
           done;
           if !r >= 0 then begin
             used.(!r) <- true;
             pivot_of.(j) <- !r;
             let pr = rows.(!r) in
             let inv = Rat.inv pr.(col) in
             for k = 0 to n do
               pr.(k) <- Rat.mul pr.(k) inv
             done;
             for i = 0 to nrows - 1 do
               if i <> !r && Rat.sign rows.(i).(col) <> 0 then begin
                 let f = rows.(i).(col) in
                 for k = 0 to n do
                   rows.(i).(k) <- Rat.sub rows.(i).(k) (Rat.mul f pr.(k))
                 done
               end
             done
           end
         done;
         (* Each block column must have a pivot row whose other block
            coefficients are zero (guaranteed by Gauss-Jordan) and whose
            non-block coefficients are integers. *)
         let cols = Space.map_cols m.space in
         let exprs =
           Array.init count (fun j ->
               let r = pivot_of.(j) in
               if r < 0 then raise Exit;
               let pr = rows.(r) in
               (* pr: col has coeff 1; expression = -(rest). *)
               let acc = ref (Aff.const 0) in
               for k = 0 to n do
                 let within_block = k > offset && k <= offset + count in
                 if k <> offset + j + 1 && Rat.sign pr.(k) <> 0 then begin
                   if within_block then raise Exit;
                   if not (Rat.is_int pr.(k)) then raise Exit;
                   let c = -pr.(k).Rat.num in
                   if k = 0 then acc := Aff.add !acc (Aff.const c)
                   else acc := Aff.add !acc (Aff.term c cols.(k - 1))
                 end
               done;
               !acc)
         in
         Some exprs
       with Exit -> None))
  | _ -> None

let solve_outs m =
  let np = n_params m and ni = n_ins m in
  solve_block m ~offset:(np + ni) ~count:(n_outs m)

let solve_ins m =
  let np = n_params m in
  solve_block m ~offset:np ~count:(n_ins m)

let pairs m ~params =
  let ni = n_ins m in
  let wrap_space =
    Space.set_space
      ~params:(Array.to_list m.space.Space.mparams)
      (Array.to_list (Array.append m.space.Space.ins m.space.Space.outs))
  in
  let wrapped = Iset.of_polys wrap_space m.polys in
  List.map
    (fun pt -> (Array.sub pt 0 ni, Array.sub pt ni (Array.length pt - ni)))
    (Iset.points wrapped ~params)

let pp ppf m =
  let cols = Space.map_cols m.space in
  let params = m.space.Space.mparams in
  if Array.length params > 0 then
    Format.fprintf ppf "[%s] -> "
      (String.concat ", " (Array.to_list params));
  let tuple name vars =
    Printf.sprintf "%s[%s]"
      (Option.value name ~default:"")
      (String.concat ", " (Array.to_list vars))
  in
  let arrow =
    Printf.sprintf "%s -> %s"
      (tuple m.space.Space.in_name m.space.Space.ins)
      (tuple m.space.Space.out_name m.space.Space.outs)
  in
  match m.polys with
  | [] -> Format.fprintf ppf "{ %s : false }" arrow
  | polys ->
      Format.fprintf ppf "{ ";
      List.iteri
        (fun i p ->
          if i > 0 then Format.fprintf ppf "; ";
          Format.fprintf ppf "%s" arrow;
          if p.Poly.eqs <> [] || p.Poly.ineqs <> [] then begin
            let parts =
              List.map
                (fun r -> Format.asprintf "%a = 0" Aff.pp (Aff.of_row ~cols r))
                p.Poly.eqs
              @ List.map
                  (fun r ->
                    Format.asprintf "%a >= 0" Aff.pp (Aff.of_row ~cols r))
                  p.Poly.ineqs
            in
            Format.fprintf ppf " : %s" (String.concat " and " parts)
          end)
        polys;
      Format.fprintf ppf " }"

let to_string m = Format.asprintf "%a" pp m
