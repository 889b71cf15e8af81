//! Experiment drivers: one module per table/figure of the paper's
//! evaluation (§7) and per extension experiment. Four binaries drive
//! them: `repro` writes and checks every deterministic result file, and
//! `perf`, `crash` and `fleet_scale` measure the wall clock against
//! their own rule-based gates. Integration tests assert the qualitative
//! claims (who wins, what is prevented, which overheads are small).
//!
//! | module | regenerates |
//! |---|---|
//! | [`table2`] | Table 2 — applications and bugs |
//! | [`table3`] | Table 3 — diagnosis, recovery time, rollbacks, prevention |
//! | [`table4`] | Table 4 — call-sites/objects touched, First-Aid vs Rx |
//! | [`table5`] | Table 5 — patch space overhead |
//! | [`table6`] | Table 6 — allocator-extension space overhead |
//! | [`table7`] | Table 7 — checkpointing space overhead |
//! | [`fig4`]   | Fig. 4 — throughput under repeated bug triggers |
//! | [`fig5`]   | Fig. 5 — the Apache bug report |
//! | [`fig6`]   | Fig. 6 — normal-execution time overhead |
//! | [`ablation`] | Ablations — padding, quarantine threshold, adaptive interval |
//! | [`fleet`]  | Fleet immunization — shared patch pool vs per-worker ablation |
//! | [`faults`] | Fault injection — pipeline-stage failures and the degradation ladder |
//! | [`sentry`] | Sentry tier — sampling overhead vs detection latency |
//! | [`perf`]   | Wall-clock throughput, snapshot/restore, TLB and diagnosis-latency regression gate |
//! | [`crash`]  | Crash-safe supervision — journal recovery cost vs a cold fleet start |
//! | [`fleet_scale`] | 10²–10⁵ workers — per-input epoch signal, gossip propagation gates |
//!
//! [`repro`] holds the table of deterministic outputs and their
//! comparison with `results/`. [`gate`] holds what every binary shares:
//! where `results/` is, baseline loading for the `--check` gates, and
//! writing files there.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod crash;
pub mod faults;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fleet;
pub mod fleet_scale;
pub mod gate;
pub mod perf;
pub mod repro;
pub mod sentry;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use first_aid_core::FirstAidConfig;

/// The experiment-wide First-Aid configuration: the runtime's defaults,
/// whose 200 ms checkpoint intervals are the paper's (§7.2).
pub fn paper_config() -> FirstAidConfig {
    FirstAidConfig::default()
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}
