//! A small wall-clock micro-benchmark harness.
//!
//! The bench targets in `benches/` used to wrap the external `criterion`
//! crate; the hermetic (offline, std-only) build replaces it with this
//! module. It keeps the parts the experiments actually used — named
//! groups, per-input benchmark ids, configurable sample counts, byte
//! throughput — and prints one summary line per benchmark:
//!
//! ```text
//! redis_latency/flacos_ipc_set/4096  med 12.41 µs  mean 12.63 µs  min 12.02 µs  (20 samples × 805 iters)
//! ```
//!
//! Measurement model: a warm-up phase estimates the per-iteration cost,
//! iterations are batched so each sample lasts ~`TARGET_SAMPLE`, and
//! the median over samples is the headline number (robust to scheduler
//! noise, unlike the mean).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Warm-up budget before any sample is recorded.
const WARMUP: Duration = Duration::from_millis(100);
/// Wall-clock target for a single sample (batch of iterations).
const TARGET_SAMPLE: Duration = Duration::from_millis(10);
/// Default number of recorded samples per benchmark.
const DEFAULT_SAMPLES: usize = 20;

/// Top-level harness; hands out named [`Group`]s.
#[derive(Debug, Default)]
pub struct Harness {
    _priv: (),
}

impl Harness {
    pub fn new() -> Self {
        Harness { _priv: () }
    }

    /// Start a named benchmark group. Results print as `group/bench`.
    pub fn group(&mut self, name: &str) -> Group {
        Group {
            name: name.to_string(),
            samples: DEFAULT_SAMPLES,
            throughput_bytes: None,
        }
    }
}

/// A named group of benchmarks sharing sample-count / throughput config.
#[derive(Debug)]
pub struct Group {
    name: String,
    samples: usize,
    throughput_bytes: Option<u64>,
}

impl Group {
    /// Number of recorded samples per benchmark (default 20).
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Report throughput as `bytes` processed per iteration.
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Self {
        self.throughput_bytes = Some(bytes);
        self
    }

    /// Run one benchmark. `f` receives a [`Bencher`]; setup done before
    /// `b.iter(..)` is excluded from the measurement.
    pub fn bench<F: FnOnce(&mut Bencher)>(&mut self, id: &str, f: F) {
        let mut b = Bencher {
            samples: self.samples,
            result: None,
        };
        f(&mut b);
        let m = b.result.expect("benchmark closure must call Bencher::iter");
        println!("{}/{}  {}", self.name, id, m.summary(self.throughput_bytes));
    }

    /// Explicit end-of-group marker (parity with the old criterion API).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; `iter` runs the measurement.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    result: Option<Measurement>,
}

impl Bencher {
    /// Measure `f`, batching iterations into `self.samples` samples.
    /// The return value is passed through [`black_box`] so the optimizer
    /// cannot delete the work.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters);
        let batch = ((TARGET_SAMPLE.as_nanos() / per_iter.max(1)) as u64).clamp(1, 1 << 20);

        let mut sample_ns: Vec<f64> = Vec::with_capacity(self.samples);
        let mut total_iters: u64 = 0;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            sample_ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
            total_iters += batch;
        }
        sample_ns.sort_by(|a, b| a.total_cmp(b));
        self.result = Some(Measurement {
            sample_ns,
            batch,
            total_iters,
        });
    }
}

/// Collected samples for one benchmark, sorted ascending (ns/iter).
#[derive(Debug)]
struct Measurement {
    sample_ns: Vec<f64>,
    batch: u64,
    total_iters: u64,
}

impl Measurement {
    fn median(&self) -> f64 {
        let n = self.sample_ns.len();
        if n % 2 == 1 {
            self.sample_ns[n / 2]
        } else {
            (self.sample_ns[n / 2 - 1] + self.sample_ns[n / 2]) / 2.0
        }
    }

    fn summary(&self, throughput_bytes: Option<u64>) -> String {
        let med = self.median();
        let mean = self.sample_ns.iter().sum::<f64>() / self.sample_ns.len() as f64;
        let min = self.sample_ns[0];
        let mut s = format!(
            "med {}  mean {}  min {}  ({} samples × {} iters)",
            fmt_ns(med),
            fmt_ns(mean),
            fmt_ns(min),
            self.sample_ns.len(),
            self.batch
        );
        if let Some(bytes) = throughput_bytes {
            let gibps = bytes as f64 / med / 1.073_741_824; // bytes/ns → GiB/s
            s.push_str(&format!("  {gibps:.3} GiB/s"));
        }
        let _ = self.total_iters;
        s
    }
}

/// Render nanoseconds with an auto-scaled unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut b = Bencher {
            samples: 3,
            result: None,
        };
        b.iter(|| std::hint::black_box(1u64 + 1));
        let m = b.result.unwrap();
        assert_eq!(m.sample_ns.len(), 3);
        assert!(m.median() > 0.0);
        assert!(m.batch >= 1);
    }

    #[test]
    fn group_runs_and_prints() {
        let mut h = Harness::new();
        let mut g = h.group("unit");
        g.sample_size(2).throughput_bytes(64);
        g.bench("noop", |b| b.iter(|| 0u8));
        g.finish();
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.000 s");
    }
}
