# Convenience entry points; everything is plain dune underneath.
#
#   make build              compile everything
#   make test               tier-1 verification (dune build && dune runtest)
#   make test-fault         fault-tolerance suite only (injection, retry,
#                           journal, resume)
#   make bench-smoke        timed smoke-scale bench run, all cores, report in
#                           BENCH_runtime.json
#   make bench-resume-smoke kill a cold fig2 run (slowed by a delay fault)
#                           mid-sweep and resume it: some but not all records
#                           replay and the CSV is byte-identical; ablations
#                           and table4 exit 1 under a crash on every unit
#   make chaos-smoke        ratsd end-to-end under fire: live socket session,
#                           delay faults + kill -9 mid-trace (bit-exact
#                           resume), slow-client eviction, overload
#                           shedding/deadlines, corrupt/disconnect survival,
#                           selftest load driver
#   make workload-smoke     workload.exe three-arm study: same-seed byte
#                           determinism, save-trace/replay round-trip, worker
#                           independence, output files in missing
#                           directories, --queue-limit 0 a usage error
#   make studio-smoke       cold traced fig2 run, validated by studio check
#                           (bench counters) and rendered by studio report
#                           into a self-contained HTML report with its
#                           trace timeline; bench sweep replays it from the
#                           cache byte-identically; CLI errors leave the
#                           journal untouched;
#                           A/B diff with the scale-mismatch guard, one-shot
#                           live serve
#   make flags-check        diff README's CLI flag table against each binary's
#                           --help
#   make lint               rats_lint whole-program static analysis
#                           (determinism, taint, domain-safety rules —
#                           docs/LINTING.md); fails on any unsuppressed
#                           finding; JSON report lands in
#                           bench_results/lint.json
#   make lint-smoke         analyzer acceptance: cold run under the 2s
#                           budget, second run byte-identical, fixture tree
#                           equal to its golden, DOT graph export
#   make bench-archive      snapshot BENCH_runtime.json as
#                           bench_results/archive/BENCH_runtime.<LABEL>.json
#                           (LABEL=... required) so studio diffs can reach
#                           past runs
#   make salt-check         warn when code feeding cached results changed
#                           (lib/{sim,core,dag,redist,daggen,platform,util,
#                           exp}) without a Cache.version bump (STRICT=1 to
#                           fail)
#   make check              build + tier-1 tests + lint + lint-smoke +
#                           chaos-smoke + workload-smoke + studio-smoke +
#                           bench-resume-smoke + flags-check + advisory
#                           salt-check
#   make clean-cache        drop the on-disk result cache and journal
#                           (bench_results/.cache, bench_results/.journal)
#   make clean              dune clean

JOBS ?= 0   # 0 = auto (RATS_JOBS or all cores; this container has 2)
JOBS_FLAG := $(if $(filter-out 0,$(JOBS)),-j $(JOBS),)

.PHONY: build test test-fault bench-smoke bench-resume-smoke bench-archive \
  chaos-smoke workload-smoke studio-smoke \
  flags-check lint lint-smoke salt-check check clean-cache clean

build:
	dune build

test: build
	dune runtest

test-fault: build
	dune exec test/test_fault.exe

# Wall time per target (and in total) lands in BENCH_runtime.json.
bench-smoke: build
	RATS_SCALE=smoke dune exec bench/main.exe -- all $(JOBS_FLAG)

# Crash-resume acceptance: a cold fig2 (cache off, so the journal is the
# only persistence) slowed by a delay fault on every unit is SIGKILLed
# mid-sweep; the resumed run must replay some but not all configurations
# from the journal and write fig2's CSV byte for byte. Under a crash on
# every unit, ablations and table4 must exit 1, not 125. Runs in a temp
# directory, so the committed BENCH_runtime.json stays untouched.
bench-resume-smoke: build
	tools/resume_smoke.sh

# Service and robustness acceptance: a live daemon/client session over the
# socket, deterministic fault injection at every service-layer site, kill -9
# + --resume under delay faults with a byte-identical event log, slow-client
# eviction without disturbing other tenants, overload shedding with
# retry-after hints, queue-wait deadlines, survival under corrupted reads /
# forced disconnects (docs/SERVER.md "Failure semantics"), and the selftest
# load driver's byte-level determinism check and its usage error on a bad
# load parameter.
chaos-smoke: build
	tools/chaos_smoke.sh

# Multi-tenant workload engine acceptance: a small three-arm study must be
# byte-deterministic across reruns, survive a save-trace/replay round-trip
# unchanged, and be independent of the worker-pool size (docs/WORKLOAD.md).
workload-smoke: build
	tools/workload_smoke.sh

# Observability and experiment studio acceptance: a cold traced smoke fig2
# run (fresh cache directory, so every counter the validator requires
# actually moves) must pass studio check --require-bench-counters, then
# render into a single self-contained HTML report (inline SVGs, trace
# timeline, counter table, per-target breakdown, no external fetches);
# `studio diff` must print per-target deltas and warn when comparing runs of
# different scale, and one-shot `studio serve` must answer an HTTP request
# (docs/STUDIO.md). On fig2's cache, `bench/main.exe sweep --csv` must
# write fig2's CSV byte for byte with 0 misses, and a bad -j/--timeout/
# --retries value or a mistyped target must exit non-zero without
# rewriting a planted journal. Runs in a temp directory, so the committed
# BENCH_runtime.json stays untouched.
studio-smoke: build
	tools/studio_smoke.sh

flags-check: build
	tools/flags_check.sh

lint: build
	dune exec --no-build bin/lint.exe -- --json bench_results/lint.json

lint-smoke: build
	tools/lint_smoke.sh

# Archive convention: bench_results/archive/BENCH_runtime.<label>.json.
# Labeled snapshots survive later bench runs, so `studio diff` can compare
# against any archived run, not just the latest.
bench-archive:
	@test -n "$(LABEL)" || { echo "usage: make bench-archive LABEL=<label>"; exit 2; }
	@test -f BENCH_runtime.json || { echo "bench-archive: BENCH_runtime.json missing — run make bench-smoke first"; exit 2; }
	mkdir -p bench_results/archive
	cp BENCH_runtime.json bench_results/archive/BENCH_runtime.$(LABEL).json
	@echo "archived: bench_results/archive/BENCH_runtime.$(LABEL).json"

# Advisory by default (comment-only edits to the salted paths are legal);
# STRICT=1 turns a violation into a failure.
salt-check:
	tools/salt_check.sh $(if $(STRICT),--strict,)

check: build
	dune runtest
	$(MAKE) lint
	$(MAKE) lint-smoke
	$(MAKE) chaos-smoke
	$(MAKE) workload-smoke
	$(MAKE) studio-smoke
	$(MAKE) bench-resume-smoke
	$(MAKE) flags-check
	$(MAKE) salt-check

clean-cache:
	rm -rf bench_results/.cache bench_results/.journal

clean:
	dune clean
