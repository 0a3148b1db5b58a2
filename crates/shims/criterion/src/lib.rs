//! Offline stand-in for the `criterion` crate exposing the API subset this
//! workspace's benches use: `Criterion::bench_function`, benchmark groups
//! with `bench_function` / `bench_with_input`, `BenchmarkId`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Each benchmark is warmed up, then timed adaptively until the sampling
//! budget (`SQUID_BENCH_MS`, default 300 ms per benchmark) is spent. With
//! `SQUID_BENCH_RUNS=N` (default 1) the whole measurement repeats `N`
//! times and the run with the smallest mean is kept — min-of-N discards
//! scheduler and frequency-scaling noise, which is what you want when
//! gating on ratios between runs. Mean wall-clock times are printed and,
//! when `SQUID_BENCH_JSON` names a file, written there as a flat
//! `{"bench_id": mean_ns}` JSON object so perf trajectories can be diffed
//! across commits (see `BENCH_squid.json`).
//!
//! Under `cargo test` (the harness passes `--test`) every benchmark runs a
//! single iteration as a smoke check and no JSON is emitted.

#![warn(missing_docs)]

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Full benchmark id (`group/function`).
    pub id: String,
    /// Mean wall-clock time per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Iterations measured.
    pub iters: u64,
}

/// Parameterized benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Id rendered from a parameter value, e.g. `10`.
    pub fn from_parameter<P: Display>(p: P) -> Self {
        BenchmarkId(p.to_string())
    }

    /// Id with a function name and a parameter, e.g. `fold/10`.
    pub fn new<P: Display>(function: &str, p: P) -> Self {
        BenchmarkId(format!("{function}/{p}"))
    }
}

/// Per-iteration input sizing hint (API parity with criterion; the shim
/// times each routine call individually, so the hint is not needed).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small inputs: many per batch in real criterion.
    SmallInput,
    /// Large inputs: few per batch in real criterion.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Timing driver handed to bench closures.
pub struct Bencher {
    budget: Duration,
    test_mode: bool,
    result: Option<(f64, u64)>,
}

impl Bencher {
    /// Measure `routine` repeatedly on fresh inputs from `setup`, timing
    /// only the routine (criterion's `iter_batched`): the way to bench a
    /// mutation without paying for state reconstruction in the measurement.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        if self.test_mode {
            black_box(routine(setup()));
            self.result = Some((0.0, 1));
            return;
        }
        // Warmup: one untimed call (fills caches, triggers lazy init).
        black_box(routine(setup()));
        let mut iters = 0u64;
        let mut measured = Duration::ZERO;
        let started = Instant::now();
        loop {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            measured += t.elapsed();
            iters += 1;
            if started.elapsed() >= self.budget || iters >= 100_000 {
                break;
            }
        }
        self.result = Some((measured.as_nanos() as f64 / iters as f64, iters));
    }

    /// Measure `f` repeatedly and record the mean iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            self.result = Some((0.0, 1));
            return;
        }
        // Warmup: one untimed call (fills caches, triggers lazy init).
        black_box(f());
        let mut iters = 0u64;
        let started = Instant::now();
        loop {
            black_box(f());
            iters += 1;
            if started.elapsed() >= self.budget || iters >= 100_000 {
                break;
            }
        }
        let total = started.elapsed();
        self.result = Some((total.as_nanos() as f64 / iters as f64, iters));
    }
}

/// Top-level benchmark driver (stand-in for criterion's `Criterion`).
pub struct Criterion {
    budget: Duration,
    /// Independent measurement repetitions per benchmark; the smallest
    /// mean wins (`SQUID_BENCH_RUNS`, default 1).
    runs: u32,
    test_mode: bool,
    records: Vec<BenchRecord>,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        let budget_ms: u64 = std::env::var("SQUID_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300);
        let runs: u32 = std::env::var("SQUID_BENCH_RUNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
            .max(1);
        Criterion {
            budget: Duration::from_millis(budget_ms),
            runs,
            test_mode,
            records: Vec::new(),
        }
    }
}

impl Criterion {
    /// Run one named benchmark: `runs` independent measurements, keeping
    /// the one with the smallest mean (min-of-N noise rejection).
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let id = id.to_string();
        let runs = if self.test_mode { 1 } else { self.runs };
        let mut best: Option<(f64, u64)> = None;
        for _ in 0..runs {
            let mut b = Bencher {
                budget: self.budget,
                test_mode: self.test_mode,
                result: None,
            };
            f(&mut b);
            let run = b.result.unwrap_or((0.0, 0));
            best = Some(match best {
                Some(prev) if prev.0 <= run.0 => prev,
                _ => run,
            });
        }
        let (mean_ns, iters) = best.unwrap_or((0.0, 0));
        if !self.test_mode {
            eprintln!("bench {id:<50} {:>12.1} ns/iter ({iters} iters)", mean_ns);
        }
        self.records.push(BenchRecord { id, mean_ns, iters });
        self
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
        }
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        if self.test_mode || self.records.is_empty() {
            return;
        }
        let Ok(path) = std::env::var("SQUID_BENCH_JSON") else {
            return;
        };
        let mut out = String::from("{\n");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            out.push_str(&format!(
                "  \"{}\": {{\"mean_ns\": {:.1}, \"iters\": {}}}{comma}\n",
                r.id.replace('"', "'"),
                r.mean_ns,
                r.iters
            ));
        }
        out.push_str("}\n");
        // One JSON file per bench binary: append a suffix when the file
        // exists so parallel bench targets don't clobber each other.
        let mut target = std::path::PathBuf::from(&path);
        let mut n = 1;
        while target.exists() {
            target = std::path::PathBuf::from(format!("{path}.{n}"));
            n += 1;
        }
        if let Ok(mut f) = std::fs::File::create(&target) {
            let _ = f.write_all(out.as_bytes());
        }
    }
}

/// Scoped group of related benchmarks (`group/name` ids).
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        self.c.bench_function(full, f);
        self
    }

    /// Run one parameterized benchmark inside the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.0);
        self.c.bench_function(full, |b| f(b, input));
        self
    }

    /// Finish the group (drop marker; kept for API parity).
    pub fn finish(self) {}
}

/// Bundle benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_a_measurement() {
        let mut c = Criterion {
            budget: Duration::from_millis(5),
            runs: 1,
            test_mode: false,
            records: Vec::new(),
        };
        c.bench_function("smoke", |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(c.records.len(), 1);
        assert!(c.records[0].iters > 0);
        c.records.clear(); // avoid Drop writing JSON in tests
    }

    #[test]
    fn iter_batched_times_only_the_routine() {
        let mut c = Criterion {
            budget: Duration::from_millis(5),
            runs: 1,
            test_mode: false,
            records: Vec::new(),
        };
        c.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u64; 16],
                |v| black_box(v.iter().sum::<u64>()),
                BatchSize::SmallInput,
            )
        });
        assert_eq!(c.records.len(), 1);
        assert!(c.records[0].iters > 0);
        c.records.clear(); // avoid Drop writing JSON in tests
    }

    #[test]
    fn min_of_n_runs_every_measurement_and_keeps_one() {
        let mut c = Criterion {
            budget: Duration::from_millis(1),
            runs: 3,
            test_mode: false,
            records: Vec::new(),
        };
        let mut measurements = 0;
        c.bench_function("min_of_n", |b| {
            measurements += 1;
            b.iter(|| black_box(2 + 2));
        });
        assert_eq!(measurements, 3, "each run re-measures");
        assert_eq!(c.records.len(), 1, "only the best run is recorded");
        assert!(c.records[0].iters > 0);
        c.records.clear(); // avoid Drop writing JSON in tests
    }

    #[test]
    fn groups_prefix_ids() {
        let mut c = Criterion {
            budget: Duration::from_millis(1),
            runs: 1,
            test_mode: false,
            records: Vec::new(),
        };
        {
            let mut g = c.benchmark_group("g");
            g.bench_with_input(BenchmarkId::from_parameter(7), &7, |b, &x| {
                b.iter(|| black_box(x * 2))
            });
            g.finish();
        }
        assert_eq!(c.records[0].id, "g/7");
        c.records.clear();
    }
}
