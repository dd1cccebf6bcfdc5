#!/bin/sh
# Full CI pipeline: build everything, run the unit/property suites (at the
# pinned qcheck seed, then once at a rotating one), then
# the end-to-end aliases (telemetry artifacts, networked sessions, the
# parallel-vs-sequential exploration differential).  The aliases are
# --force'd so the e2e paths re-run even on a warm _build.
set -eux

cd "$(dirname "$0")/.."

dune build
dune runtest

# The properties above ran at the pinned default seed (test/prop.ml).  One
# more pass draws a fresh seed and prints it first, so a failure replays
# with `QCHECK_SEED=<seed> dune runtest --force`.  It runs the quick tests
# only: the slow ones (the kernel golden digest, the exhaustive registry
# sweep) draw nothing from qcheck and already ran above.
seed=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "rotating qcheck seed: $seed"
QCHECK_SEED=$seed ALCOTEST_QUICK_TESTS=1 dune runtest --force
dune build @check-obs @check-net @check-par --force

# The benchmark's own differential checks: every perfbench workload for one
# second, untimed and traced.  A library change that breaks what the
# benchmark checks fails here, not only when the benchmark is next run.
# The last line of each run is its result object; it must read correct
# with no failed operation.
for w in run-frozen run-sync verify net-loopback; do
  for t in 0 1; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace "$t" | tail -n 1 \
      | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'
  done
done

# The linear-time kernel at scale: a 100000-node SIMASYNC BUILD run must
# finish (in seconds) with a valid answer.
dune build @check-scale --force

# Distributed tracing end to end: merged multi-process Chrome traces from
# the loopback, socket and parallel-exploration paths, validated by
# check_trace (causal structure must close).
dune build @check-span --force

# Static analysis: the tree must lint clean across all three tiers —
# syntactic, typed poly-compare, and the whole-program domain-safety race
# check — and the linter itself must keep finding the seeded fixture
# violations (including the deliberately-racy Tier C tree in
# test/lintfix, pinned by kind and line through check_lint --tierc).
dune build @lint @check-lint --force

# Profiling is opt-in: the same run with and without --profile/WB_PROF=1,
# validated on disk (no prof.* series when off, all four when on, every
# OpenMetrics exposition grammatically valid).
dune build @check-prof --force

# The communication-cost observatory: the full-registry certificate
# sweep at n in {16, 64, 256, 1024} (measured <= envelope, >= Lemma 3
# floor where declared), the same-seed byte-determinism of the cost
# table, and the on-disk proof that a never-enabled run registers no
# cost.* series while --cost/WB_COST=1 both do.
dune build @check-cost --force

# The chaos referee: deterministic fault-injection campaigns — a pinned
# same-seed report diff, a campaign from the committed plan fixture, and
# a 100+-run seed sweep across all four model classes with the
# crash-replay differential enforced on every run.
dune build @check-chaos --force

# The bench history and regression gate: two fast suite runs through
# `wbctl bench`, a benchdiff of the second against the first (the table
# lands in the job log and as an artifact), and the pinned gate fixture
# that must exit 1.
dune build @check-bench --force
