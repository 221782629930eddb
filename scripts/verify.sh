#!/usr/bin/env bash
# Full verification gate: build, tests, formatting, lints.
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release test suite (debug tests only)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --workspace --release

if [[ "$quick" == 1 ]]; then
    echo "== cargo test (debug, quick) =="
    cargo test --workspace -q
else
    echo "== cargo test --release =="
    cargo test --workspace -q --release
fi

# Fault-injection suite, run explicitly so a regression in the degraded
# paths is named in CI output. Fault hooks are always compiled (no cargo
# feature): an empty FaultPlan is free on the hot path, and feature-gating
# would let the supervised/gated paths rot untested in default builds.
echo "== cargo test --test pipeline_faults (fault injection) =="
cargo test -q --test pipeline_faults

# Smoke the prediction-throughput / serving-engine benchmark (DESIGN.md
# §12): races the recursive, flat, quantized, and quantized+pruned
# engines over the same rows and writes results/BENCH_fig7.json — the
# quantized >= 3x speedup gate and every engine's bit-equality with the
# flat walk are enforced inside the run, so a kernel regression fails
# verify here.
echo "== repro --smoke fig7 (engine-comparison smoke) =="
cargo run -q --release -p bench --bin repro -- --smoke fig7

# Smoke the end-to-end sharded serving benchmark (DESIGN.md §9): trains a
# small model, replays the smoke-scale trace at 1 and 2 shards through the
# one quantized+pruned engine, and writes results/BENCH_serve.json. The
# run asserts that the deterministic 1-shard fleet's BHR equals the
# unsharded reference's exactly, so a routing, pooling, frontier, or
# engine regression fails verify, not just the full quick-scale run.
echo "== repro --smoke serve (sharded serving smoke) =="
cargo run -q --release -p bench --bin repro -- --smoke serve

# The repository benchmark (perfbench/, a cargo workspace of its own)
# compiles against public gbdt/lfo APIs that the root workspace does not
# build: build it and run its statistics tests, so an API change that
# breaks it fails here.
echo "== perfbench: build + unit tests =="
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# One short untraced prod-serve run. Its in-run checks (every fleet serves
# quantized+pruned, a 1-shard fleet matches the unsharded replay counter
# for counter) decide the "correct" flag of its last stdout line.
echo "== perfbench --workload prod-serve (smoke) =="
last=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload prod-serve --seed 1 --seconds 1 --trace 0 | tail -n 1)
if [[ "$last" != *'"correct": true'* ]]; then
    echo "perfbench smoke run failed its checks: $last" >&2
    exit 1
fi

# Smoke the kill/restart durability experiment (DESIGN.md §10): persists
# artifacts mid-run, restarts from the store through the gated warm-start
# path, and writes results/BENCH_restart.json — so a persistence or
# restore regression fails verify before the full quick-scale run.
echo "== repro --smoke restart (artifact durability smoke) =="
cargo run -q --release -p bench --bin repro -- --smoke restart

# Smoke the scratch-vs-incremental retraining comparison (DESIGN.md §11):
# runs both pipelines plus the binning/warm-start micro-benches and writes
# results/BENCH_retrain.json — so a warm-start, frozen-bin-map, or
# fallback regression fails verify before the full quick-scale run.
echo "== repro --smoke retrain (incremental retraining smoke) =="
cargo run -q --release -p bench --bin repro -- --smoke retrain

# The runtime-guardrail bound under adversarial workloads (DESIGN.md §13).
# Quick scale, not smoke: smoke traces close too few guardrail windows to
# assert anything, while at quick scale the run itself asserts the bound —
# the unguarded policy must break it on >= 2 scenarios, the guarded replay
# must hold it on all, and the benign overhead must stay within 0.005 BHR
# and 2% reqs/s. Writes results/BENCH_adversarial.json.
echo "== repro --quick adversarial (guardrail bound, asserted in-run) =="
cargo run -q --release -p bench --bin repro -- --quick adversarial

# Memory-bounded serving state at huge-catalog scale (DESIGN.md §14).
# Quick scale, not smoke: smoke catalogs are too small for the exact
# tracker to dwarf the bounded one, while at quick scale the run asserts
# its own gates — at least one tracker-budget × sample-K configuration
# must cut metadata bytes per cached object >= 10x within 0.01 BHR of the
# exact baseline, and the sampled hit path must match the exact queue's
# requests/s in an interleaved duel. Writes results/BENCH_memory.json.
echo "== repro --quick memory (bounded serving state, asserted in-run) =="
cargo run -q --release -p bench --bin repro -- --quick memory

# Multi-PoP edge/regional topology with federated rollout (DESIGN.md §15).
# Quick scale, not smoke: tiny smoke traces make topology ratios too noisy
# to compare, while at quick scale the run asserts its own gates — both
# two-tier variants (per-PoP scratch and federated delta-tree rollouts)
# must beat independent single-tier LFO on origin offload at matched total
# cache bytes, and the federated rollout's mean per-PoP trainer cost must
# undercut per-PoP scratch training. Writes results/BENCH_pops.json.
echo "== repro --quick pops (multi-PoP topology, asserted in-run) =="
cargo run -q --release -p bench --bin repro -- --quick pops

# Fleet-shared doorkeeper across shard counts (DESIGN.md §16). Quick
# scale, not smoke: 2-shard smoke fleets make the ratios noise, while at
# quick scale the run asserts its own gates at 4 shards — shared-sketch
# fleet doorkeeper memory <= 1.2x the single-cache budget (vs ~Nx for
# per-shard sketches), BHR within 0.01 of the per-shard placement, and
# paired-duel reqs/s >= 0.95x per-shard. Writes
# results/BENCH_concurrency.json.
echo "== repro --quick concurrency (fleet-shared doorkeeper, asserted in-run) =="
cargo run -q --release -p bench --bin repro -- --quick concurrency

echo "verify: OK"
