type set = { params : string array; set_name : string option; vars : string array }

type map = {
  mparams : string array;
  in_name : string option;
  ins : string array;
  out_name : string option;
  outs : string array;
}

let check_distinct names =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Space: duplicate dimension name %s" n)
      else Hashtbl.add seen n ())
    names

let set_space ?name ~params vars =
  let s =
    {
      params = Array.of_list params;
      set_name = name;
      vars = Array.of_list vars;
    }
  in
  check_distinct (Array.append s.params s.vars);
  s

let map_space ?in_name ?out_name ~params ~ins outs =
  let m =
    {
      mparams = Array.of_list params;
      in_name;
      ins = Array.of_list ins;
      out_name;
      outs = Array.of_list outs;
    }
  in
  check_distinct (Array.concat [ m.mparams; m.ins; m.outs ]);
  m

let set_cols s = Array.append s.params s.vars
let map_cols m = Array.concat [ m.mparams; m.ins; m.outs ]
let set_arity s = Array.length s.params + Array.length s.vars

let map_arity m =
  Array.length m.mparams + Array.length m.ins + Array.length m.outs

let domain_of_map m =
  { params = m.mparams; set_name = m.in_name; vars = m.ins }

let range_of_map m =
  { params = m.mparams; set_name = m.out_name; vars = m.outs }

let set_equal a b =
  a.params = b.params && Array.length a.vars = Array.length b.vars
