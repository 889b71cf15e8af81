//! Sentry sweep: overhead vs detection latency. Writes `results/sentry.json`.
//!
//! `--check` is the CI gate: it replays the sweep (fully deterministic —
//! every number comes from the virtual clock), compares it against the
//! committed baseline in `results/sentry.json`, enforces the <5%
//! mean-overhead budget and the ≥1-app early-catch requirement at rate
//! 1/64, and exits nonzero on any violation (or on a baseline that
//! exists but does not parse) without touching the baseline.

use fa_bench::{gate, sentry};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let report = sentry::measure();
    println!("{}", sentry::render(&report));
    if check {
        let baseline: Option<sentry::SentryReport> = gate::baseline("sentry");
        gate::enforce("sentry", &sentry::check(baseline.as_ref(), &report));
        return;
    }
    gate::write_results("sentry", &report);
}
