#!/usr/bin/env bash
# The full local CI gate: build, tests, formatting, lints.
# The build environment is offline; all dependencies are path deps
# (crates/* and the vendored shims/*), so --offline must always work.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace
# The benchmark is its own package outside the workspace; building and
# testing it here makes a core API change that breaks it fail CI.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo fmt --check
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# Durable patch pool end to end: a second run over the journaled pool
# directory must fail zero times (the example asserts it).
cargo run --release --offline --example patch_persistence

# Fault-injection liveness gate: every named scenario must leave the
# runtime live (input conservation is asserted inside the bench).
cargo run --release --offline -p fa-bench --bin faults -- --check

# Performance regression gate: wall-clock throughput and snapshot cost
# vs the committed results/perf.json baseline, plus diagnosis virtual
# time within 1.25x of baseline on Apache and Squid. A baseline that
# exists but does not parse fails the gate.
cargo run --release --offline -p fa-bench --bin perf -- --check

# The wall-clock benchmark, once, on the workload with the largest
# checkpoints (thousands of dirty pages each): a full-size run that must
# finish correct, inside the benchmark's own time cap. The benchmark's
# unit tests above run at 1% size and take no checkpoint.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload cow-bigheap --seconds 5 --trace 0

# The same, once, on the recovery workload: all nine Table-3 bugs are
# diagnosed under re-execution (fills, canaries, rollbacks), and the run
# fails unless every case's first recovery is Patched with the expected
# bug type.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload recover --seconds 2 --trace 0

# Sentry gate: at rate 1/64 the mean allocator overhead must stay under
# the 5% always-on budget and at least one run must be caught before its
# organic crash point; the sweep is virtual-clock-deterministic, so the
# comparison against results/sentry.json is exact.
cargo run --release --offline -p fa-bench --bin sentry -- --check

# Crash-safety gate: a killed supervisor must recover its journaled
# state in under 5% of a cold fleet start, lose zero patch epochs,
# re-converge byte-identically, and stay immunized. (The per-kill-point
# acceptance sweep runs in the root test suite: crash_supervision.rs.)
cargo run --release --offline -p fa-bench --bin crash -- --check

# Patch-plane scale gate: lock-free reads must beat the locked baseline
# by >=5x under contention, time-to-fleet-immunity must stay sublinear
# from 10^2 to 10^5 workers, and the virtual-time propagation outputs
# must match results/fleet_scale.json exactly (seeded + deterministic)
# in each of the 5 runs per scale point. The fastest of those runs must
# keep at least 70% of the baseline's query throughput, which fails most
# 2x per-query slowdowns and every 3x one. Single-worker throughput
# regressions are covered by the perf gate above; this gate covers the
# fleet-scale query path.
cargo run --release --offline -p fa-bench --bin fleet_scale -- --check
