//! Offline shim for the `criterion` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the subset of criterion's API its benches use. Each benchmark is
//! warmed up briefly, then timed over a fixed sampling budget; results
//! print as one `name: median ns/iter` line. No statistics beyond the
//! median, no HTML reports.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-iteration timing collector passed to benchmark closures.
pub struct Bencher {
    /// Median nanoseconds per iteration, filled in by [`Bencher::iter`].
    median_ns: f64,
}

impl Bencher {
    /// Times `f`, recording the median over several samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and batch-size calibration: grow the batch until one
        // batch takes ≥ ~1 ms, so per-iter cost is resolvable.
        let mut batch: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t0.elapsed();
            if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
                break;
            }
            batch *= 8;
        }
        let mut samples: Vec<f64> = (0..15)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t0.elapsed().as_secs_f64() * 1e9 / batch as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        self.median_ns = samples[samples.len() / 2];
    }
}

fn run_one(label: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher { median_ns: 0.0 };
    f(&mut b);
    println!("{label}: {:.1} ns/iter", b.median_ns);
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_owned(),
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        run_one(name, &mut f);
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup {
    name: String,
}

impl BenchmarkGroup {
    /// Declares the per-iteration throughput (accepted, not reported).
    pub fn throughput(&mut self, _t: Throughput) {}

    /// Sets the sample count (accepted; this shim uses a fixed count).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkId, mut f: F) {
        run_one(&format!("{}/{}", self.name, id.into_label()), &mut f);
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        run_one(&format!("{}/{}", self.name, id.label), &mut |b| f(b, input));
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Throughput declarations (accepted for API compatibility).
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier with an optional parameter.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id like `name/parameter`.
    pub fn new(name: &str, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }
}

/// Things accepted as a benchmark id by [`BenchmarkGroup::bench_function`].
pub trait IntoBenchmarkId {
    /// The printable label.
    fn into_label(self) -> String;
}

impl IntoBenchmarkId for &str {
    fn into_label(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkId for String {
    fn into_label(self) -> String {
        self
    }
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
