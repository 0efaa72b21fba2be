//! The repository's benchmark: four workloads driven from one process,
//! through the crates' public functions and over TCP to a real
//! `simserved` child. See `NOTES.md` beside this crate for why each
//! workload exists and which layer moves which figure.
//!
//! ```text
//! perfbench --workload <paper-suite|serve-hot|serve-cold|dse-search|all>
//!           --seed N --seconds S --trace <0|1> --simserved PATH
//! ```
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it records spans, writes a Chrome trace to
//! `perfbench/out`, and prints every per-layer metric (`metrics.rs` lists
//! both). The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`.

mod dse;
mod json;
mod layers;
mod metrics;
mod net;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
pub struct Ctx {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// How long the measured legs run in total.
    pub budget: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
    /// The `simserved` binary.
    pub simserved: PathBuf,
    /// Where trace files are kept (`perfbench/out`).
    pub out: PathBuf,
    /// This run's scratch directory (cache dirs, port files), removed at
    /// the end.
    pub scratch: PathBuf,
}

/// Operations attempted, failures, and metrics of one workload run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_owned(), value, unit));
        } else {
            self.fail(format!("{name} was not measured"));
        }
    }

    /// Counts one failed operation; the first few reasons are printed.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why.into());
        }
    }

    /// Puts the metrics in the order of the list the run prints (end-to-
    /// end or per-layer). A per-layer metric whose layer this workload
    /// does not exercise reads 0; a missing end-to-end metric, or one in
    /// the wrong unit, is a failure; a metric the list does not name is
    /// shown on stderr only.
    fn conform(&mut self, traced: bool) {
        let list: &[(&str, &str)] = if traced {
            &metrics::PER_LAYER
        } else {
            &metrics::END_TO_END
        };
        let mut taken = std::mem::take(&mut self.metrics);
        for (name, unit) in list {
            match taken.iter().position(|(n, _, _)| n == name) {
                Some(i) => {
                    let (n, value, u) = taken.remove(i);
                    if u != *unit {
                        self.fail(format!("{name} measured in {u}, listed in {unit}"));
                    }
                    self.metrics.push((n, value, unit));
                }
                None if traced => self.metrics.push(((*name).to_owned(), 0.0, unit)),
                None => self.fail(format!("{name} was not reported")),
            }
        }
        for (name, value, unit) in taken {
            eprintln!("  (not listed) {name} {value} {unit}");
        }
    }

    fn json(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_str(&mut out, &format!("{prefix}{name}"));
            out.push_str(&format!(": {{\"value\": {value}, \"unit\": "));
            json::push_str(&mut out, unit);
            out.push('}');
        }
        out
    }
}

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper-suite", "serve-hot", "serve-cold", "dse-search"];

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    match name {
        "paper-suite" => suite::run(ctx),
        "serve-hot" => serve::hot(ctx),
        "serve-cold" => serve::cold(ctx),
        "dse-search" => dse::run(ctx),
        _ => unreachable!("workload names are checked when parsing arguments"),
    }
}

/// The host's core count, the cap on the benchmark's threads and
/// connections.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    net::peak_rss_mb("/proc/self/status").unwrap_or(f64::NAN)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace <0|1> \
         --simserved PATH",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut simserved = None;
    let out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--simserved" => simserved = Some(PathBuf::from(value)),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced), Some(simserved)) =
        (workload, seed, seconds, traced, simserved)
    else {
        return usage();
    };
    let names: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        name if WORKLOADS.contains(&name) => vec![name],
        _ => return usage(),
    };
    if !simserved.is_file() {
        eprintln!("perfbench: no simserved binary at {}", simserved.display());
        return ExitCode::FAILURE;
    }
    let scratch = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        budget: Duration::from_secs_f64(seconds),
        traced,
        simserved,
        out,
        scratch,
    };

    let mut total = Report::default();
    let mut metrics = Vec::new();
    for name in &names {
        let started = Instant::now();
        let mut report = run_workload(name, &ctx);
        report.conform(ctx.traced);
        if report.attempted == 0 {
            report.attempted = 1;
            report.fail("no operation was attempted");
        }
        println!(
            "{name}: attempted {} failed {} ({:.1} s, {} cores)",
            report.attempted,
            report.failed,
            started.elapsed().as_secs_f64(),
            host_cores()
        );
        for (metric, value, unit) in &report.metrics {
            println!("  {metric:<28} {value:>14.4} {unit}");
        }
        for problem in &report.problems {
            eprintln!("  FAILED: {problem}");
        }
        total.attempted += report.attempted;
        total.failed += report.failed;
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        metrics.push(report.json(&prefix));
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.failed == 0,
        total.attempted,
        total.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
