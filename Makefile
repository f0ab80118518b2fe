# Convenience targets; dune is the real build system.

.PHONY: all build test bench exec-smoke bench-smoke fuzz check pipeline-smoke autosched-smoke service-smoke gpu-smoke dist-smoke lane-fit tape-asm clean

all: build

build:
	dune build

test:
	dune runtest

# The paper figures (fig1/5/6/7, table1) and the autosched, service, gpu
# and dist benches (rewrites the committed BENCH_*.json).  The executor's
# timing is perfbench's (bash perfbench/run.sh; BENCHMARK.json).
bench:
	dune exec bench/main.exe

# Differential fuzzing: 500 seeded random programs + schedules, every
# backend configuration built through Pipeline.build (the path users run)
# and diffed bit-exactly against the interpreter (exit 1 + shrunk
# OCaml-literal repro on divergence).
fuzz:
	dune exec bin/fuzz.exe -- -count 500

# Compile the three bench kernels through the pipeline pass manager,
# validate the per-pass trace JSON shape against bench/pass_trace.golden
# (regenerate with TIRAMISU_UPDATE_GOLDEN=1), and assert the warm-cache
# recompile of each kernel reports a hit.
pipeline-smoke:
	dune exec bench/main.exe -- pipeline-smoke

# Budgeted autoscheduler search on the smoke kernels (small extents):
# the searched schedule must never regress the measured default (the
# search's incumbent starts there), every winner must replay bit-exactly
# against the interpreter, and the emitted JSON must match the golden
# schema in bench/autosched.golden (regenerate with
# TIRAMISU_UPDATE_GOLDEN=1).
autosched-smoke:
	dune exec bench/main.exe -- autosched-smoke

# Compile-service gate: closed-loop clients at 1/8/64 concurrency against
# the worker-domain compile server.  Asserts exactly one pipeline compile
# per unique kernel hash (in-flight dedup + memory + disk tiers), the
# 64-clients-one-kernel dedup headline, incremental LRU eviction in the
# pipeline cache (never a wipe, hot entry survives), warm p50 beating
# cold, and pins the BENCH_service.json schema against
# bench/service.golden (regenerate with TIRAMISU_UPDATE_GOLDEN=1).
service-smoke:
	dune exec bench/main.exe -- service-smoke

# GPU-sim backend gate: the GPU expert schedules executed on the
# Target.Gpu_sim backend, every point verified bit-exactly against the
# interpreter, and the BENCH_gpu.json schema pinned against
# bench/gpu.golden (regenerate with TIRAMISU_UPDATE_GOLDEN=1).
gpu-smoke:
	dune exec bench/main.exe -- gpu-smoke

# Distributed backend gate: the Fig. 3c halo-exchange schedules executed
# rank-by-rank on the Target.Distributed backend, bit-exact against the
# interpreter, comm volume priced on the α–β network model, and the
# BENCH_dist.json schema pinned against bench/dist.golden.
dist-smoke:
	dune exec bench/main.exe -- dist-smoke

# Perf regression gate on the smoke kernels, by min-over-reps, in the regime
# the OS-granted CPUs decide: on a multicore box the pool (planner on) must
# beat sequential by >= 1.5x on at least 2 of 3 kernels; on a single
# effective CPU it must stay within 1.1x of sequential (planning must never
# make things worse) and says loudly that scaling went unverified.  A vector
# sub-gate, sequential on both sides, requires the lane-batched tape to beat
# the lanes=1 scalar tape by >= 1.2x on at least 2 of 3 kernels.
bench-smoke:
	dune exec bench/main.exe -- bench-smoke

# Executor gate: builds and runs the smoke kernels once in every
# configuration (sequential with the tape on, off and at lanes=1, the pool,
# and the pool at 1/2/4 workers with the tape on and off), asserts the
# compiled counters are per-compile snapshots, and that a warm
# compile-cache rebuild is a hit >= 10x faster than a cold compile.
exec-smoke:
	dune exec bench/main.exe -- exec-smoke

# Report only, not part of check.  The vector tape's lane-cost fit:
# per-dispatch and per-lane ns by least squares over widths 2-128, rows 1
# and 8, median and interquartile range over seven runs, raw and scaled
# to the median host probe.
lane-fit:
	dune exec bench/main.exe -- lane-fit

# Report only, not part of check.  Register residency of the vector
# interpreter: exec_code_vec's instruction count and, per lane kernel, its
# instruction count and the stack (%rsp) loads inside its unrolled loop,
# from the built tiramisu_backends__Tape.o (needs objdump).
tape-asm:
	bash bench/tape_asm.sh

# The pre-commit gate: tier-1 (build + tests), the exec smoke gate, the
# pipeline/compile-cache smoke gate, the pool-vs-seq perf gate, the
# autoscheduler and compile-service gates, the GPU-sim and distributed
# backend gates, plus the 500-case differential fuzz sweep.  Every gate
# runs even when an earlier one fails; each gate's wall time follows it,
# the summary lists every gate's time and names each failed gate, and the
# target fails if any did.
check:
	@failed=""; times=""; \
	for gate in build test exec-smoke pipeline-smoke bench-smoke \
	    autosched-smoke service-smoke gpu-smoke dist-smoke fuzz; do \
	  echo "=== check: $$gate"; \
	  t0=$$(date +%s%N); \
	  $(MAKE) --no-print-directory $$gate || failed="$$failed $$gate"; \
	  ms=$$(( ($$(date +%s%N) - t0) / 1000000 )); \
	  took="$$((ms / 1000)).$$((ms % 1000 / 100)) s"; \
	  echo "=== check: $$gate took $$took"; \
	  times="$$times $$gate $$took,"; \
	done; \
	echo "=== check: wall time:$${times%,}"; \
	if [ -n "$$failed" ]; then \
	  echo "=== check: FAILED:$$failed"; exit 1; \
	fi; \
	echo "=== check: every gate passed"

clean:
	dune clean
