//! Per-layer figures shared by the workloads.

use crate::stats::median;
use crate::trace::Tracer;
use crate::Report;
use mpsoc_kernel::activity;
use std::time::{Duration, Instant};

/// Kernel activity (deltas of the process-wide counters) over a set of
/// calls, with the wall time they took.
#[derive(Default)]
pub struct KernelLayer {
    edges: u64,
    ticks: u64,
    skipped: u64,
    ff_windows: u64,
    ff_elided: u64,
    wall: Duration,
}

impl KernelLayer {
    /// Runs `f`, adding its kernel activity and wall time.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = activity::snapshot();
        let started = Instant::now();
        let out = f();
        self.wall += started.elapsed();
        let d = activity::snapshot().since(before);
        self.edges += d.edges;
        self.ticks += d.ticks;
        self.skipped += d.skipped;
        self.ff_windows += d.ff_windows;
        self.ff_elided += d.ff_elided;
        out
    }

    /// Share of would-be cycles the fast gear elided.
    pub fn ff_elided_ratio(&self) -> f64 {
        ratio(self.ff_elided, self.ff_elided + self.ticks)
    }

    /// Reports the counts per `unit` (a suite pass, a search, a request)
    /// and the wall time per tick and edge.
    pub fn report(&self, r: &mut Report, units: usize) {
        let per_call = |x: u64| x as f64 / units.max(1) as f64;
        let ns = self.wall.as_secs_f64() * 1e9;
        r.metric("kernel.edges", per_call(self.edges), "count");
        r.metric("kernel.ticks", per_call(self.ticks), "count");
        r.metric("kernel.skipped", per_call(self.skipped), "count");
        r.metric(
            "kernel.skip_ratio",
            ratio(self.skipped, self.skipped + self.ticks),
            "ratio",
        );
        r.metric("kernel.ns_per_tick", ns / self.ticks.max(1) as f64, "ns");
        r.metric("kernel.ns_per_edge", ns / self.edges.max(1) as f64, "ns");
        r.metric("kernel.ff_windows", per_call(self.ff_windows), "count");
        r.metric("kernel.ff_elided", per_call(self.ff_elided), "count");
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

/// Reports the median duration of the spans named `span` as `metric`, in
/// `unit` (`"us"`, `"ms"` or `"s"`).
pub fn span_median(r: &mut Report, tracer: &Tracer, span: &str, metric: &str, unit: &'static str) {
    let scale = match unit {
        "us" => 1e6,
        "ms" => 1e3,
        _ => 1.0,
    };
    let durations = tracer.durations();
    match durations.get(span).and_then(|d| median(&secs(d))) {
        Some(m) => r.metric(metric, m * scale, unit),
        None => r.fail(format!("traced run recorded no '{span}' span")),
    }
}

/// Tracing overhead on a workload's headline figure, in percent of the
/// untraced value measured in the same process.
pub fn overhead(r: &mut Report, untraced: Option<f64>, traced: Option<f64>) {
    match (untraced, traced) {
        (Some(u), Some(t)) if u > 0.0 => {
            eprintln!("tracing overhead: headline figure {u:.6} untraced, {t:.6} traced");
            r.metric("trace.overhead_pct", (t / u - 1.0) * 100.0, "%");
        }
        _ => r.fail("tracing overhead not measured"),
    }
}

/// Writes the tracer's spans as a Chrome trace into the output directory.
pub fn write_trace(r: &mut Report, ctx: &crate::Ctx, workload: &str, tracer: &Tracer) {
    let path = ctx
        .out
        .join(format!("trace-{workload}-seed{}.json", ctx.seed));
    match std::fs::write(&path, tracer.chrome_json()) {
        Ok(()) => eprintln!("{workload}: Chrome trace written to {}", path.display()),
        Err(e) => r.fail(format!("cannot write {}: {e}", path.display())),
    }
}
