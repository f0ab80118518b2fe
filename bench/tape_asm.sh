#!/usr/bin/env bash
# Register-residency report for the vector interpreter: builds the
# library, disassembles tiramisu_backends__Tape.o and prints the
# instruction count of exec_code_vec and, per lane kernel (one entry of
# the kernel table in lib/backends/tape.ml, in table order), its
# instruction count, the size of its unrolled loop (the innermost loop
# moving the most floats) and the loads from the stack (%rsp) inside
# that loop.  Needs objdump and a build with debug line information
# (dune's default profile).  Run from the root of a checkout:
#   bash bench/tape_asm.sh
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --display quiet lib/backends/tiramisu_backends.cmxa 1>&2
obj=_build/default/lib/backends/.tiramisu_backends.objs/native/tiramisu_backends__Tape.o
src=lib/backends/tape.ml
lo=$(grep -n '^let kernels : kernel array' "$src" | cut -d: -f1)
hi=$(awk -v lo="$lo" 'NR > lo && /\|\]/ { print NR; exit }' "$src")
count=$(sed -n "${lo},${hi}p" "$src" | grep -o '(fun ' | wc -l)
# The kernel table is built at module initialisation from one static
# closure per entry: the initialiser's relocations give the closures in
# table order, the .data relocations each closure's code symbol.
{ objdump -t "$obj" | sed 's/^/T /'
  objdump -r -j .data "$obj" | sed 's/^/R /'
  objdump -d -r -l --no-show-raw-insn "$obj" | sed 's/^/D /'
} | awk -v lo="$lo" -v hi="$hi" -v count="$count" '
function hex(s,   i, n, c) {
  n = 0
  for (i = 1; i <= length(s); i++) {
    c = index("0123456789abcdef", substr(s, i, 1)) - 1
    n = n * 16 + c
  }
  return n
}
function flush(   k, j, t, inner, best, bsize, bfl, size, fl, rsp) {
  if (fname == "") return
  if (fname ~ /\.exec_code_vec_[0-9]+$/) vec = n
  # backward jumps are loops; an innermost one holds no other loop'"'"'s jump
  best = -1; bsize = 0; bfl = -1
  for (k = 1; k <= nj; k++) {
    inner = 1
    for (j = 1; j <= nj; j++)
      if (j != k && jsrc[j] < jsrc[k] && jdst[j] >= jdst[k]) inner = 0
    if (inner) {
      size = 0; fl = 0
      for (t = 1; t <= n; t++)
        if (addr[t] >= jdst[k] && addr[t] <= jsrc[k]) { size++; if (txt[t] ~ /^movsd/) fl++ }
      if (fl > bfl || (fl == bfl && size > bsize)) { bsize = size; bfl = fl; best = k }
    }
  }
  rsp = 0
  if (best > 0)
    for (t = 1; t <= n; t++)
      if (addr[t] >= jdst[best] && addr[t] <= jsrc[best] && txt[t] !~ /^lea/ \
          && txt[t] ~ /\(%rsp\),/)
        rsp++
  fn_n[fname] = n; fn_loop[fname] = bsize; fn_rsp[fname] = rsp
}
$1 == "T" && $NF ~ /^caml/ { label[$NF] = hex($2); next }
$1 == "R" && $2 ~ /^[0-9a-f]+$/ { nr++; roff[nr] = hex($2); rsym[nr] = $4; next }
$1 != "D" { next }
{ sub(/^D /, "") }
/^[0-9a-f]+ <.*>:$/ {
  flush()
  fname = $2; gsub(/[<>:]/, "", fname)
  n = 0; nj = 0
  next
}
/tape\.ml:[0-9]+/ { l = $0; sub(/.*tape\.ml:/, "", l); cline = l + 0; next }
/R_X86_64_REX_GOTPCRELX/ {
  if (fname ~ /\.entry$/ && cline >= lo && cline <= hi \
      && $NF ~ /\.[0-9]+-0x[0-9a-f]+$/) {
    pend = $NF; sub(/-0x[0-9a-f]+$/, "", pend)
  }
  next
}
/^ +[0-9a-f]+:\t/ {
  a = $1; sub(/:$/, "", a)
  line = $0; sub(/^ +[0-9a-f]+:\t/, "", line)
  # the closure just loaded is stored into the table at its index
  if (pend != "" && line ~ /^mov +%r[a-z0-9]+,(0x[0-9a-f]+)?\(%r[a-z0-9]+\)$/) {
    off = line; sub(/^mov +%r[a-z0-9]+,/, "", off); sub(/\(.*/, "", off)
    k = (off == "" ? 0 : hex(substr(off, 3)) / 8) + 1
    if (k <= count) { kclo[k] = pend; if (k > nk) nk = k }
    pend = ""
  }
  n++; addr[n] = hex(a); txt[n] = line
  if (line ~ /^j[a-z]+ +[0-9a-f]+ </) {
    split(line, f, /[ \t]+/)
    d = hex(f[2])
    if (d < addr[n] && n > 1 && d >= addr[1]) { nj++; jsrc[nj] = addr[n]; jdst[nj] = d }
  }
}
END {
  flush()
  split("add sub mul div min max fma", alu, " ")
  split("r scalar @u @b @s", sh, " ")
  split("neg abs sqrt exp log sin cos floor pow fdivi modi trunc", un, " ")
  split("vload.u vload.s vbcast vstore.u vstore.s vmov", mem, " ")
  printf "exec_code_vec: %d instructions\n", vec
  printf "%-16s %6s %5s %9s  %s\n", "kernel", "insns", "loop", "rsp-loads", "symbol"
  bad = 0; badu = 0; tot = 0
  for (i = 1; i <= nk; i++) {
    # the closure'"'"'s code pointer: the first function symbol past its label
    code = ""
    for (r = 1; r <= nr && code == ""; r++)
      if (roff[r] >= label[kclo[i]] && rsym[r] ~ /\.fun_[0-9]+$/) code = rsym[r]
    id = i - 1
    if (id < 175) {
      a = int(id % 25 / 5); b = id % 5
      name = "v" alu[int(id / 25) + 1] " " sh[a + 1] "," sh[b + 1]
    } else if (id < 187) name = "v" un[id - 174]
    else name = mem[id - 186]
    unit = (name !~ /@s/ && name != "vload.s" && name != "vstore.s")
    sym = code; sub(/.*\./, "", sym)
    printf "%-16s %6d %5d %9d  %s\n", name, fn_n[code], fn_loop[code], fn_rsp[code], sym
    tot += fn_n[code]
    if (fn_rsp[code] > 0) { bad++; if (unit) { badu++; ubad = ubad " " name } }
  }
  printf "%d kernels, %d instructions; %d load from %%rsp inside their unrolled loop;", nk, tot, bad
  printf " without a strided operand: %d:%s\n", badu, ubad
}'
