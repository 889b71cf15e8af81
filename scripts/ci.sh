#!/usr/bin/env bash
# The full local CI gate: build, tests, formatting, lints.
# The build environment is offline; all dependencies are path deps
# (crates/* and the vendored shims/*), so --offline must always work.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every dependency a manifest declares must be named by a .rs file of
# its package (a text search; no build needed).
scripts/check_deps.sh

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

# Fault-injection gate: the full 16-case matrix (every named scenario on
# Apache and Squid) must conserve its input stream (asserted inside the
# bench) and match results/faults.json in every field. All of them are
# on the virtual clock, so a changed retry gate, watchdog or trial
# penalty fails the comparison.
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
# patch pool in under 5% of a cold fleet start, lose zero patch epochs,
# re-converge byte-identically, and stay immunized; and the journal must
# hold one record per patch epoch (the runs have no revocation or canary
# traffic, so any other record is one the pool never reads). (The
# per-kill-point acceptance sweep runs in the root test suite:
# crash_supervision.rs.)
cargo run --release --offline -p fa-bench --bin crash -- --check

# Patch-pool scale gate: a worker's per-input quiet path (one epoch-signal
# load) must beat a locked get_with_epoch by >=5x under contention,
# time-to-fleet-immunity must stay sublinear from 10^2 to 10^5 workers,
# and the virtual-time propagation outputs must match
# results/fleet_scale.json exactly (seeded + deterministic) in every run.
# Each run serves every block of 8 simulated workers with and without
# the per-input check; the signal path's throughput as a fraction of the
# unchecked passes' must keep at least 70% of the baseline's, so a locked
# read per input fails while machine speed cancels out. Single-worker
# throughput regressions are covered by the perf gate above; this gate
# covers the fleet-scale query path.
cargo run --release --offline -p fa-bench --bin fleet_scale -- --check
