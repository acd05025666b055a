//! Offline stand-in for `criterion`.
//!
//! Mirrors the API surface this workspace's benches use (`benchmark_group`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Throughput`,
//! `criterion_group!`, `criterion_main!`) with a deliberately simple
//! protocol: a short warm-up, then timed batches until the measurement
//! budget is spent. Each group writes `BENCH_<group>.json` into the current
//! working directory so results are tracked across runs: one row per
//! benchmark, its throughput annotation as `params`, `mean_ns` and `iters`
//! as `metrics`, stamped with the CPU count, build profile and revision.

use std::fmt::Display;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (tests/benches import it from
/// `std::hint` in this workspace, but older code paths may use this one).
pub use std::hint::black_box;

/// Top-level harness handle.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 10,
            warm_up: Duration::from_millis(200),
            measurement: Duration::from_secs(1),
            throughput: None,
            results: Vec::new(),
        }
    }

    /// One-off benchmark outside a group.
    pub fn bench_function<F>(&mut self, name: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group("ungrouped");
        g.bench_function(name, f);
        g.finish();
        self
    }
}

/// Identifier for a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// Bare parameter identifier.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Throughput annotation (recorded in the JSON artifact).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// One measured benchmark.
struct BenchResult {
    id: String,
    mean_ns: f64,
    iters: u64,
    throughput: Option<Throughput>,
}

/// A group of related benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    throughput: Option<Throughput>,
    results: Vec<BenchResult>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed batches per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Warm-up budget before measurement.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Total measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks a closure.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.to_string();
        let (mean_ns, iters) =
            run_bench(self.warm_up, self.measurement, self.sample_size, |b| f(b));
        eprintln!(
            "bench {:<40} {:>14.1} ns/iter ({} iters)",
            format!("{}/{}", self.name, id),
            mean_ns,
            iters
        );
        self.results.push(BenchResult {
            id,
            mean_ns,
            iters,
            throughput: self.throughput,
        });
        self
    }

    /// Benchmarks a closure with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Writes the group's `BENCH_<name>.json` artifact in the workspace's
    /// one artifact shape, `{group, env: {cpus, profile, rev}, rows: [{id,
    /// params, metrics}]}`; `tests/bench_artifacts.rs` reads it with the
    /// same reader as the hand-written artifacts.
    pub fn finish(&mut self) {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"group\": \"{}\",", self.name);
        let _ = writeln!(
            json,
            "  \"env\": {{\"cpus\": {}, \"profile\": \"{}\", \"rev\": \"{}\"}},",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev()
        );
        json.push_str("  \"rows\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let params = match r.throughput {
                Some(Throughput::Elements(n)) => format!("\"elements\": {n}"),
                Some(Throughput::Bytes(n)) => format!("\"bytes\": {n}"),
                None => String::new(),
            };
            let _ = write!(
                json,
                "    {{\"id\": \"{}\", \"params\": {{{params}}}, \
                 \"metrics\": {{\"mean_ns\": {:.1}, \"iters\": {}}}}}",
                r.id, r.mean_ns, r.iters
            );
            json.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        json.push_str("  ]\n}\n");
        let path = format!("BENCH_{}.json", self.name.replace(['/', ' '], "_"));
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("(could not write {path}: {e})");
        } else {
            eprintln!("wrote {path}");
        }
    }
}

/// `git describe --always --dirty` of the working directory's checkout, or
/// `unknown` outside one.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Passed to benchmark closures; [`Bencher::iter`] runs and times the body.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` `self.iters` times, accumulating elapsed wall time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_bench(
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    mut run: impl FnMut(&mut Bencher),
) -> (f64, u64) {
    // warm-up: single iterations until the budget is spent (at least once)
    let warm_start = Instant::now();
    let mut per_iter;
    let mut warm_iters = 0u64;
    loop {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        run(&mut b);
        per_iter = b.elapsed.max(Duration::from_nanos(1));
        warm_iters += 1;
        if warm_start.elapsed() >= warm_up || warm_iters >= 10 {
            break;
        }
    }
    // measurement: sample_size batches sized to fill the budget
    let per_sample = measurement / sample_size as u32;
    let iters_per_sample =
        ((per_sample.as_secs_f64() / per_iter.as_secs_f64()).ceil() as u64).clamp(1, 1_000_000);
    let mut total = Duration::ZERO;
    let mut total_iters = 0u64;
    let deadline = Instant::now() + measurement;
    for _ in 0..sample_size {
        let mut b = Bencher {
            iters: iters_per_sample,
            elapsed: Duration::ZERO,
        };
        run(&mut b);
        total += b.elapsed;
        total_iters += iters_per_sample;
        if Instant::now() >= deadline {
            break;
        }
    }
    let mean_ns = if total_iters > 0 {
        total.as_nanos() as f64 / total_iters as f64
    } else {
        f64::NAN
    };
    (mean_ns, total_iters)
}

/// Declares a group-running function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-running functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
