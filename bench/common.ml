(* Shared helpers for the paper-figure benchmark drivers. *)

open Tiramisu_kernels
module B = Tiramisu_backends

let machine = B.Machine.default

(* Monotonic wall clock (ms) — immune to NTP slews, unlike gettimeofday. *)
let now_ms = B.Clock.now_ms

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* Model-estimated execution time (ms) of a scheduled pipeline. *)
let model_ms ?(machine = machine) fn params =
  (Runner.model ~machine ~fn ~params ()).B.Cost.time_ns /. 1e6

let model_report ?(machine = machine) fn params =
  Runner.model ~machine ~fn ~params ()

(* Halide compiled pipeline time (ms). *)
let halide_ms (b : Tiramisu_halide.Hkernels.bench) sched =
  sched ();
  let c =
    Tiramisu_halide.Halide.compile b.Tiramisu_halide.Hkernels.b_pipe
      ~outputs:
        (List.map
           (fun f -> (f, b.Tiramisu_halide.Hkernels.b_out_bounds))
           b.Tiramisu_halide.Hkernels.b_out)
      ~inputs:b.Tiramisu_halide.Hkernels.b_inputs ~params:[]
  in
  (Tiramisu_halide.Halide.estimate ~machine c ~params:[]).B.Cost.time_ns /. 1e6

let pf = Printf.printf

(* Print a one-row normalized table: first entry is the baseline. *)
let normalized_table ~title ~baseline rows =
  pf "\n%s\n%s\n" title (String.make (String.length title) '-');
  let base =
    match List.assoc_opt baseline rows with
    | Some v -> v
    | None -> invalid_arg "normalized_table: missing baseline"
  in
  List.iter
    (fun (name, v) ->
      pf "  %-14s %8.2f ms   normalized %6.2f\n" name v (v /. base))
    rows

let heat_cell = function
  | Some v -> Printf.sprintf "%6.2f" v
  | None -> "     -"

(* Nearest-rank percentile of [samples], [p] in (0, 1]; 0 when empty. *)
let percentile samples p =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(Int.min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* Every digit run, with the decimal points inside or after it, becomes N. *)
let collapse_digits line =
  let n = String.length line in
  let buf = Buffer.create n in
  let digit c = c >= '0' && c <= '9' in
  let i = ref 0 in
  while !i < n do
    if digit line.[!i] then begin
      Buffer.add_char buf 'N';
      while !i < n && (digit line.[!i] || line.[!i] = '.') do
        incr i
      done
    end
    else begin
      Buffer.add_char buf line.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* The schema gates: [text] (a JSON report) must match the golden file at
   [golden_path] once both are normalized line by line — [rewrite], then
   every number collapsed to N — so what the golden pins is the schema,
   not the machine's numbers.  On a mismatch the first differing line is
   reported and the process exits 1.  With TIRAMISU_UPDATE_GOLDEN=1 set
   the golden is rewritten instead. *)
let golden_gate ?(rewrite = Fun.id) ~tag ~golden_path text =
  let normalize s =
    List.map (fun l -> collapse_digits (rewrite l)) (String.split_on_char '\n' s)
  in
  let got = normalize text in
  if Sys.getenv_opt "TIRAMISU_UPDATE_GOLDEN" <> None then begin
    Out_channel.with_open_bin golden_path (fun oc ->
        output_string oc (String.concat "\n" got));
    pf "%s: updated %s\n" tag golden_path
  end
  else begin
    let want =
      try normalize (In_channel.with_open_bin golden_path In_channel.input_all)
      with Sys_error e -> failwith (tag ^ ": cannot read golden file: " ^ e)
    in
    let rec first_diff i = function
      | w :: ws, g :: gs ->
          if String.equal w g then first_diff (i + 1) (ws, gs) else Some (i, w, g)
      | [], [] -> None
      | w :: _, [] -> Some (i, w, "<missing>")
      | [], g :: _ -> Some (i, "<missing>", g)
    in
    match first_diff 1 (want, got) with
    | None -> ()
    | Some (line, w, g) ->
        Printf.eprintf
          "%s: output diverges from %s at line %d\n\
          \  golden: %s\n\
          \  got:    %s\n\
           %s: regenerate with TIRAMISU_UPDATE_GOLDEN=1 if the schema change \
           is intentional\n"
          tag golden_path line w g tag;
        exit 1
  end
