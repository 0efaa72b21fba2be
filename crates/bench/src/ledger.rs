//! The `BENCH_kernel.json` performance ledger.
//!
//! One machine-readable file records the kernel's measured throughput from
//! two producers:
//!
//! * the `repro` binary writes the `"experiments"` section (per-experiment
//!   edges/sec and simulated-cycles/sec),
//! * `repro --warm-fork` writes the `"warm_fork"` section (cold vs
//!   checkpoint-forked fig4 sweep wall time and the speedup ratio), and
//! * the `kernel_hotpath` microbench writes the `"microbench"` section
//!   (bucketed vs naive scheduler edges/sec and the speedup ratio) and the
//!   `"sparse"` section (sparse vs dense ticking on the idle-heavy case),
//!   and
//! * the `loadgen` client writes the `"server"` section (sweep-server
//!   requests/sec, latency percentiles and warm-cache hit rate), and
//! * `repro --exp dse` writes the `"dse"` section (design-space search
//!   shape, per-rung sim-cycle accounting, Pareto-front size and the
//!   evaluation fan-out speedup).
//!
//! Each writer regenerates the whole file but preserves the other's section
//! verbatim. The file layout is deliberately line-oriented — every section
//! is one compact JSON value on its own line — so preserving a section is a
//! prefix match, not a JSON parse. Only this module writes the file, so the
//! invariant holds.

use std::io;
use std::path::{Path, PathBuf};

/// Default ledger file name; see [`default_path`] for where it lands.
pub const LEDGER_PATH: &str = "BENCH_kernel.json";

/// The workspace root: the nearest ancestor of the current directory that
/// contains a `Cargo.lock` (whether the writer is a binary run from the
/// root or a bench run from its package directory), falling back to the
/// current directory itself.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return cwd,
        }
    }
}

/// Default ledger location: `target/BENCH_kernel.json` under the workspace
/// root. `target/` is gitignored, so routine runs never dirty the working
/// tree; refreshing the *committed* ledger takes an explicit
/// `--bench-out` (see [`committed_path`]).
pub fn default_path() -> PathBuf {
    workspace_root().join("target").join(LEDGER_PATH)
}

/// The committed ledger checked into the repository root. Only written
/// when a caller passes it explicitly (e.g. `repro --bench-out`).
pub fn committed_path() -> PathBuf {
    workspace_root().join(LEDGER_PATH)
}

/// Schema tag stamped into the ledger. `v2` added the sparse-ticking
/// fields (`skipped` per experiment, the idle-heavy microbench case);
/// `v3` added the `"parallel"` section plus the `host_cores` and
/// `tick_jobs` fields that make a recorded parallel speedup judgeable on
/// a different machine; `v4` added the `"fast_forward"` section (the
/// loosely-timed gear's warm-phase speedup, error and quantum-1 identity)
/// and the per-experiment `ff_windows`/`ff_elided` counters; `v5` added
/// the `"server"` section (the sweep server's requests/sec, latency
/// percentiles and warm-cache hit rate, recorded by `loadgen
/// --bench-out`); `v6` added the `"dse"` section (the design-space
/// explorer's candidate count, per-rung sim-cycle accounting, wall
/// seconds, Pareto-front size and evaluation fan-out speedup, recorded
/// by `repro --exp dse`); `v7` added the per-jobs scaling curves — the
/// `"parallel"` section's `scaling` array (compute-heavy microbench at
/// jobs 1/2/4/8) and the `"experiments"` section's `fig4_scaling` array
/// (the end-to-end fig4 sweep over the same job ladder) — plus the
/// per-experiment parallel activity counters (`par_edges`,
/// `par_computed`, `par_reticked`, `par_fallback_*`); `v8` extended the
/// `"server"` section with the coalescing/persistence figures
/// (`warm_ups`, `distinct_keys`, `batched_requests_per_sec`,
/// `unbatched_requests_per_sec`, `batch_speedup`,
/// `cold_start_first_micros`, `warm_restart_first_micros` and the
/// per-connections `conn_scaling` curve) and annotated scaling-curve
/// points with `effective_jobs`/`oversubscribed` (worker counts are now
/// clamped to the host's cores unless forced); `v9` removed intra-edge
/// parallel ticking and with it the `"parallel"` section, the
/// `fig4_scaling` array and the per-experiment `par_*` counters. Readers
/// scan by field prefix and accept any version.
pub const SCHEMA: &str = "mpsoc-bench/kernel-v9";

/// The known top-level sections, in the order they appear in the file.
const SECTIONS: [&str; 7] = [
    "experiments",
    "warm_fork",
    "microbench",
    "sparse",
    "fast_forward",
    "server",
    "dse",
];

/// Replaces `section` of the ledger at `path` with `value_json`, keeping
/// every other known section from the existing file (if any).
///
/// `value_json` must be a single-line JSON value; this is asserted because
/// a multi-line value would break the line-oriented preservation scheme.
///
/// # Errors
///
/// Propagates I/O errors from reading or writing the ledger file.
pub fn update_section(path: &Path, section: &str, value_json: &str) -> io::Result<()> {
    assert!(
        SECTIONS.contains(&section),
        "unknown ledger section '{section}'"
    );
    assert!(
        !value_json.contains('\n'),
        "ledger sections must be single-line JSON"
    );

    let existing = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }

    let mut doc = format!("{{\n\"schema\": {SCHEMA:?}");
    for &name in &SECTIONS {
        let value = if name == section {
            Some(value_json.to_string())
        } else {
            extract_section(&existing, name)
        };
        if let Some(value) = value {
            doc.push_str(&format!(",\n\"{name}\": {value}"));
        }
    }
    doc.push_str("\n}\n");
    std::fs::write(path, doc)
}

/// Pulls the raw single-line value of `name` out of an existing ledger.
pub fn extract_section(doc: &str, name: &str) -> Option<String> {
    let prefix = format!("\"{name}\": ");
    for line in doc.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            return Some(rest.trim_end_matches(',').to_string());
        }
    }
    None
}

/// Pulls `(experiment id, edges_per_sec)` pairs out of a ledger document's
/// `"experiments"` section. Tolerant of absent sections (returns an empty
/// list); the scan relies only on the field order this crate's own writer
/// emits, so it needs no general JSON parser.
pub fn experiment_rates(doc: &str) -> Vec<(String, f64)> {
    let Some(section) = extract_section(doc, "experiments") else {
        return Vec::new();
    };
    let mut rates = Vec::new();
    let mut rest = section.as_str();
    while let Some(pos) = rest.find("\"id\":\"") {
        rest = &rest[pos + 6..];
        let Some(end) = rest.find('"') else { break };
        let id = rest[..end].to_string();
        rest = &rest[end..];
        let Some(pos) = rest.find("\"edges_per_sec\":") else {
            break;
        };
        rest = &rest[pos + 16..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        if let Ok(rate) = rest[..end].trim().parse::<f64>() {
            rates.push((id, rate));
        }
        rest = &rest[end..];
    }
    rates
}

/// Pulls the measured cold/fork speedup out of a ledger document's
/// `"warm_fork"` section. Returns `None` when the section is absent or
/// malformed.
pub fn warm_fork_speedup(doc: &str) -> Option<f64> {
    section_speedup(doc, "warm_fork")
}

/// Pulls the measured sparse-vs-dense speedup out of a ledger document's
/// `"sparse"` section (the idle-heavy `kernel_hotpath` case). Returns
/// `None` when the section is absent or malformed.
pub fn sparse_speedup(doc: &str) -> Option<f64> {
    section_speedup(doc, "sparse")
}

/// Pulls the measured cycle-vs-fast warm-phase speedup out of a ledger
/// document's `"fast_forward"` section (the loosely-timed gear at the
/// default quantum). Returns `None` when the section is absent or
/// malformed.
pub fn fast_forward_speedup(doc: &str) -> Option<f64> {
    section_speedup(doc, "fast_forward")
}

/// Pulls the quantum the `"fast_forward"` section was measured at.
pub fn fast_forward_quantum(doc: &str) -> Option<u64> {
    section_u64(doc, "fast_forward", "quantum")
}

/// Pulls the recorded quantum-1 identity verdict of the `"fast_forward"`
/// section. `Some(false)` means the recording run saw the degenerate gear
/// diverge from cycle-accurate — a correctness failure, not a perf one.
pub fn fast_forward_q1_identical(doc: &str) -> Option<bool> {
    let section = extract_section(doc, "fast_forward")?;
    let pos = section.find("\"q1_identical\":")?;
    let rest = section[pos + 15..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Pulls the warm-cache hit rate (0..=1) out of a ledger document's
/// `"server"` section. Returns `None` when the section is absent or
/// malformed.
pub fn server_hit_rate(doc: &str) -> Option<f64> {
    section_f64(doc, "server", "hit_rate")
}

/// Pulls the served request throughput out of a ledger document's
/// `"server"` section.
pub fn server_requests_per_sec(doc: &str) -> Option<f64> {
    section_f64(doc, "server", "requests_per_sec")
}

/// Pulls the hit-vs-miss latency ratio (p50 miss / p50 hit) out of a
/// ledger document's `"server"` section. Above 1 means forking a cached
/// warm state was faster than running the warm-up.
pub fn server_hit_speedup(doc: &str) -> Option<f64> {
    section_f64(doc, "server", "hit_speedup")
}

/// Pulls the host core count recorded alongside the `"server"` section's
/// measurement. A latency ratio measured on a single-core box is noisy
/// under concurrent load; readers use this to warn instead of failing.
pub fn server_host_cores(doc: &str) -> Option<u64> {
    section_u64(doc, "server", "host_cores")
}

/// Pulls the steady-state cache-hit p50 latency out of a ledger document's
/// `"server"` section — the yardstick the warm-restart first-request
/// latency is judged against.
pub fn server_p50_hit_micros(doc: &str) -> Option<u64> {
    section_u64(doc, "server", "p50_hit_micros")
}

/// Pulls the number of warm-up simulations the recording run cost out of
/// a ledger document's `"server"` section. Coalescing makes this at most
/// [`server_distinct_keys`] even under a duplicate-heavy concurrent mix.
pub fn server_warm_ups(doc: &str) -> Option<u64> {
    section_u64(doc, "server", "warm_ups")
}

/// Pulls the number of distinct warm keys the recording mix touched out
/// of a ledger document's `"server"` section.
pub fn server_distinct_keys(doc: &str) -> Option<u64> {
    section_u64(doc, "server", "distinct_keys")
}

/// Pulls the batched-vs-unbatched throughput ratio out of a ledger
/// document's `"server"` section: the same mix replayed with
/// `"coalesce":false`, fresh server both times. Above 1 means coalescing
/// paid for its window.
pub fn server_batch_speedup(doc: &str) -> Option<f64> {
    section_f64(doc, "server", "batch_speedup")
}

/// Pulls the first-request latency of a cold-started server (empty cache,
/// empty spill directory) out of a ledger document's `"server"` section.
pub fn server_cold_start_first_micros(doc: &str) -> Option<u64> {
    section_u64(doc, "server", "cold_start_first_micros")
}

/// Pulls the first-request latency of a *restarted* server (fresh
/// process, warm spill directory) out of a ledger document's `"server"`
/// section. The persistence contract is that this sits near the
/// steady-state hit latency, not near [`server_cold_start_first_micros`].
pub fn server_warm_restart_first_micros(doc: &str) -> Option<u64> {
    section_u64(doc, "server", "warm_restart_first_micros")
}

/// One point of the server's recorded per-connections scaling curve
/// (closed-loop, warm cache, so it measures the connection layer and not
/// the simulator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnScalingPoint {
    /// Concurrent closed-loop connections the point was measured at.
    pub connections: u64,
    /// Served throughput at that connection count.
    pub requests_per_sec: f64,
    /// Speedup over the connections = 1 point of the same curve.
    pub speedup: f64,
}

/// Pulls the per-connections scaling curve out of a ledger document's
/// `"server"` section (`conn_scaling` array, recorded since kernel-v8).
/// Empty for pre-v8 ledgers.
pub fn server_conn_scaling(doc: &str) -> Vec<ConnScalingPoint> {
    let Some(section) = extract_section(doc, "server") else {
        return Vec::new();
    };
    let Some(pos) = section.find("\"conn_scaling\":[") else {
        return Vec::new();
    };
    let rest = &section[pos + 16..];
    let end = rest.find(']').unwrap_or(rest.len());
    let mut points = Vec::new();
    for object in rest[..end].split('{').skip(1) {
        let (Some(connections), Some(speedup)) = (
            field_u64(object, "connections"),
            field_f64(object, "speedup"),
        ) else {
            continue;
        };
        points.push(ConnScalingPoint {
            connections,
            requests_per_sec: field_f64(object, "requests_per_sec").unwrap_or(0.0),
            speedup,
        });
    }
    points
}

/// Pulls the Pareto-front size out of a ledger document's `"dse"`
/// section. Returns `None` when the section is absent or malformed.
pub fn dse_front_size(doc: &str) -> Option<u64> {
    section_u64(doc, "dse", "front_size")
}

/// Pulls the number of distinct fabric families on the recorded Pareto
/// front out of a ledger document's `"dse"` section.
pub fn dse_families(doc: &str) -> Option<u64> {
    section_u64(doc, "dse", "families")
}

/// Pulls the fanned-out vs serial search wall-time ratio out of a ledger
/// document's `"dse"` section (1.0 when the recording run was serial).
pub fn dse_fanout_speedup(doc: &str) -> Option<f64> {
    section_f64(doc, "dse", "fanout_speedup")
}

/// Pulls the evaluation fan-out the `"dse"` section was recorded at.
pub fn dse_jobs(doc: &str) -> Option<u64> {
    section_u64(doc, "dse", "jobs")
}

/// Pulls the host core count recorded alongside the `"dse"` section's
/// measurement; see [`core_gated_floor`] for how readers use it.
pub fn dse_host_cores(doc: &str) -> Option<u64> {
    section_u64(doc, "dse", "host_cores")
}

/// Verdict of a [`core_gated_floor`] judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloorVerdict {
    /// The measured value clears the floor.
    Met,
    /// Below the floor, but the recording host demonstrably lacked the
    /// cores the measurement needed — a warning, not a failure.
    Ungated,
    /// Below the floor on a host that (as far as the record shows) had
    /// the cores: a real regression.
    Missed,
}

/// Judges a speedup floor that is only meaningful when the recording
/// host had enough hardware: a parallel speedup measured on a box with
/// fewer cores than worker threads, or a latency split measured while
/// client and server contend for one CPU, says nothing about the code.
///
/// The floor *arms* only when `host_cores` and `needed_cores` are both
/// recorded and the host had enough of them; otherwise a miss downgrades
/// to [`FloorVerdict::Ungated`]. An unrecorded core count does **not**
/// disarm the floor — old ledgers without the field still fail, which is
/// what forces them to be regenerated with the provenance attached.
pub fn core_gated_floor(
    measured: f64,
    floor: f64,
    host_cores: Option<u64>,
    needed_cores: Option<u64>,
) -> FloorVerdict {
    if measured >= floor {
        FloorVerdict::Met
    } else if let (Some(cores), Some(needed)) = (host_cores, needed_cores) {
        if cores < needed {
            FloorVerdict::Ungated
        } else {
            FloorVerdict::Missed
        }
    } else {
        FloorVerdict::Missed
    }
}

/// Per-experiment activity counters recorded in the `"experiments"`
/// section, scanned for `repro --list` annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentActivity {
    /// Experiment id.
    pub id: String,
    /// Component ticks executed.
    pub ticks: u64,
    /// Ticks the sparse scheduler skipped.
    pub skipped: u64,
    /// Component-cycles elided by fast-forward windows.
    pub ff_elided: u64,
}

impl ExperimentActivity {
    /// Fraction of component-edge slots the sparse scheduler skipped.
    pub fn skip_fraction(&self) -> f64 {
        let total = self.ticks + self.skipped;
        if total == 0 {
            0.0
        } else {
            self.skipped as f64 / total as f64
        }
    }
}

/// Pulls each experiment's recorded activity counters out of a ledger
/// document's `"experiments"` section. Tolerant of absent sections and of
/// pre-v4 ledgers without `ff_elided` (reported as 0).
pub fn experiment_activity(doc: &str) -> Vec<ExperimentActivity> {
    let Some(section) = extract_section(doc, "experiments") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = section.as_str();
    while let Some(pos) = rest.find("\"id\":\"") {
        rest = &rest[pos + 6..];
        let Some(end) = rest.find('"') else { break };
        let id = rest[..end].to_string();
        rest = &rest[end..];
        let run_end = rest.find('}').unwrap_or(rest.len());
        let run = &rest[..run_end];
        out.push(ExperimentActivity {
            id,
            ticks: field_u64(run, "ticks").unwrap_or(0),
            skipped: field_u64(run, "skipped").unwrap_or(0),
            ff_elided: field_u64(run, "ff_elided").unwrap_or(0),
        });
        rest = &rest[run_end..];
    }
    out
}

/// Scans a flat JSON object fragment for an integer `field`.
fn field_u64(fragment: &str, field: &str) -> Option<u64> {
    let tag = format!("\"{field}\":");
    let pos = fragment.find(&tag)?;
    let rest = &fragment[pos + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse::<u64>().ok()
}

/// Scans a flat JSON object fragment for a float `field`.
fn field_f64(fragment: &str, field: &str) -> Option<f64> {
    let tag = format!("\"{field}\":");
    let pos = fragment.find(&tag)?;
    let rest = &fragment[pos + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse::<f64>().ok()
}

/// Scans `section` of `doc` for its `"speedup"` field.
fn section_speedup(doc: &str, name: &str) -> Option<f64> {
    let section = extract_section(doc, name)?;
    let pos = section.find("\"speedup\":")?;
    let rest = &section[pos + 10..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse::<f64>().ok()
}

/// Scans `section` of `doc` for a float `field`.
fn section_f64(doc: &str, name: &str, field: &str) -> Option<f64> {
    let section = extract_section(doc, name)?;
    let tag = format!("\"{field}\":");
    let pos = section.find(&tag)?;
    let rest = &section[pos + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse::<f64>().ok()
}

/// Scans `section` of `doc` for an integer `field`.
fn section_u64(doc: &str, name: &str, field: &str) -> Option<u64> {
    let section = extract_section(doc, name)?;
    let tag = format!("\"{field}\":");
    let pos = section.find(&tag)?;
    let rest = &section[pos + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse::<u64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mpsoc-ledger-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn writes_a_fresh_ledger() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        update_section(&path, "experiments", r#"{"runs":[]}"#).expect("writes");
        let doc = std::fs::read_to_string(&path).expect("readable");
        assert!(doc.contains(r#""schema": "mpsoc-bench/kernel-v9""#));
        assert!(doc.contains(r#""experiments": {"runs":[]}"#));
        assert!(!doc.contains("microbench"));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn preserves_the_other_section() {
        let path = tmp("merge");
        let _ = std::fs::remove_file(&path);
        update_section(&path, "experiments", r#"{"runs":[1]}"#).expect("writes");
        update_section(&path, "microbench", r#"{"speedup":2.5}"#).expect("writes");
        // Overwrite experiments again; microbench must survive.
        update_section(&path, "experiments", r#"{"runs":[2]}"#).expect("writes");
        let doc = std::fs::read_to_string(&path).expect("readable");
        assert!(doc.contains(r#""experiments": {"runs":[2]}"#));
        assert!(doc.contains(r#""microbench": {"speedup":2.5}"#));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn default_path_is_gitignored_committed_path_is_not() {
        let path = default_path();
        assert!(path.ends_with(Path::new("target").join(LEDGER_PATH)));
        let committed = committed_path();
        assert!(committed.ends_with(LEDGER_PATH));
        assert!(!committed.to_string_lossy().contains("target"));
    }

    #[test]
    fn extracts_sections_by_prefix() {
        let doc =
            "{\n\"schema\": \"x\",\n\"experiments\": {\"a\":1},\n\"microbench\": {\"b\":2}\n}\n";
        let experiments = extract_section(doc, "experiments");
        assert_eq!(experiments.as_deref(), Some(r#"{"a":1}"#));
        let microbench = extract_section(doc, "microbench");
        assert_eq!(microbench.as_deref(), Some(r#"{"b":2}"#));
        assert_eq!(extract_section(doc, "nope"), None);
    }

    #[test]
    fn warm_fork_speedup_is_scanned() {
        let doc = concat!(
            "{\n\"schema\": \"x\",\n",
            "\"warm_fork\": {\"cold_seconds\":1.5,\"fork_seconds\":0.6,\"speedup\":2.5}\n}\n"
        );
        assert_eq!(warm_fork_speedup(doc), Some(2.5));
        assert_eq!(warm_fork_speedup("{}\n"), None);
    }

    #[test]
    fn sparse_speedup_is_scanned() {
        let doc = concat!(
            "{\n\"schema\": \"x\",\n",
            "\"sparse\": {\"skip_fraction\":0.9,\"speedup\":3.25}\n}\n"
        );
        assert_eq!(sparse_speedup(doc), Some(3.25));
        assert_eq!(sparse_speedup("{}\n"), None);
    }

    #[test]
    fn fast_forward_section_is_scanned() {
        let doc = concat!(
            "{\n\"schema\": \"x\",\n",
            "\"fast_forward\": {\"scale\":1,\"quantum\":64,",
            "\"warm_cycle_seconds\":0.012,\"warm_fast_seconds\":0.003,",
            "\"speedup\":4.0,\"max_err_permille\":1399,\"q1_identical\":true}\n}\n"
        );
        assert_eq!(fast_forward_speedup(doc), Some(4.0));
        assert_eq!(fast_forward_quantum(doc), Some(64));
        assert_eq!(fast_forward_q1_identical(doc), Some(true));
        assert_eq!(fast_forward_speedup("{}\n"), None);
        assert_eq!(fast_forward_q1_identical("{}\n"), None);
    }

    #[test]
    fn server_section_is_scanned() {
        let doc = concat!(
            "{\n\"schema\": \"x\",\n",
            "\"server\": {\"requests\":48,\"points\":48,\"connections\":4,",
            "\"requests_per_sec\":120.5,\"p50_micros\":800,\"p99_micros\":9000,",
            "\"hits\":44,\"misses\":4,\"hit_rate\":0.916667,",
            "\"p50_hit_micros\":700,\"p50_miss_micros\":8400,",
            "\"hit_speedup\":12.0,\"host_cores\":8}\n}\n"
        );
        assert_eq!(server_p50_hit_micros(doc), Some(700));
        assert_eq!(server_hit_rate(doc), Some(0.916667));
        assert_eq!(server_requests_per_sec(doc), Some(120.5));
        assert_eq!(server_hit_speedup(doc), Some(12.0));
        assert_eq!(server_host_cores(doc), Some(8));
        assert_eq!(server_hit_rate("{}\n"), None);
        assert_eq!(server_hit_speedup("{}\n"), None);
    }

    #[test]
    fn server_v8_fields_are_scanned() {
        let doc = concat!(
            "{\n\"schema\": \"x\",\n",
            "\"server\": {\"requests\":48,\"warm_ups\":2,\"distinct_keys\":2,",
            "\"batched_requests_per_sec\":150.0,\"unbatched_requests_per_sec\":100.0,",
            "\"batch_speedup\":1.5,\"cold_start_first_micros\":90000,",
            "\"warm_restart_first_micros\":1200,",
            "\"conn_scaling\":[{\"connections\":1,\"requests_per_sec\":100.0,\"speedup\":1.0},",
            "{\"connections\":8,\"requests_per_sec\":260.0,\"speedup\":2.6}],",
            "\"host_cores\":8}\n}\n"
        );
        assert_eq!(server_warm_ups(doc), Some(2));
        assert_eq!(server_distinct_keys(doc), Some(2));
        assert_eq!(server_batch_speedup(doc), Some(1.5));
        assert_eq!(server_cold_start_first_micros(doc), Some(90000));
        assert_eq!(server_warm_restart_first_micros(doc), Some(1200));
        let curve = server_conn_scaling(doc);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].connections, 1);
        assert_eq!(curve[1].connections, 8);
        assert!((curve[1].speedup - 2.6).abs() < 1e-9);
        assert!((curve[1].requests_per_sec - 260.0).abs() < 1e-9);
        // Pre-v8 ledgers: everything degrades to None / empty.
        assert_eq!(server_warm_ups("{}\n"), None);
        assert_eq!(server_warm_restart_first_micros("{}\n"), None);
        assert!(server_conn_scaling("{}\n").is_empty());
    }

    #[test]
    fn dse_section_is_scanned() {
        let doc = concat!(
            "{\n\"schema\": \"x\",\n",
            "\"dse\": {\"scale\":1,\"seed\":3499,\"jobs\":4,\"host_cores\":8,",
            "\"candidates\":12,\"front_size\":4,\"families\":3,",
            "\"sim_ticks\":185768,\"wall_seconds\":0.8,\"fanout_speedup\":2.4,",
            "\"rungs\":[{\"budget_ps\":4000000,\"population\":12,",
            "\"survivors\":6,\"sim_ticks\":27980}]}\n}\n"
        );
        assert_eq!(dse_front_size(doc), Some(4));
        assert_eq!(dse_families(doc), Some(3));
        assert_eq!(dse_fanout_speedup(doc), Some(2.4));
        assert_eq!(dse_jobs(doc), Some(4));
        assert_eq!(dse_host_cores(doc), Some(8));
        assert_eq!(dse_front_size("{}\n"), None);
        assert_eq!(dse_fanout_speedup("{}\n"), None);
    }

    #[test]
    fn core_gated_floor_arms_only_with_enough_recorded_cores() {
        use FloorVerdict::*;
        // Clearing the floor never consults the core counts.
        assert_eq!(core_gated_floor(2.0, 1.5, None, None), Met);
        assert_eq!(core_gated_floor(1.5, 1.5, Some(1), Some(4)), Met);
        // A miss on a host that lacked the cores is a warning...
        assert_eq!(core_gated_floor(1.0, 1.5, Some(1), Some(4)), Ungated);
        assert_eq!(core_gated_floor(1.0, 1.2, Some(1), Some(2)), Ungated);
        // ...but a miss with the cores present, or with unrecorded
        // provenance, is a real failure.
        assert_eq!(core_gated_floor(1.0, 1.5, Some(8), Some(4)), Missed);
        assert_eq!(core_gated_floor(1.0, 1.5, None, Some(4)), Missed);
        assert_eq!(core_gated_floor(1.0, 1.5, Some(8), None), Missed);
    }

    #[test]
    fn experiment_activity_scans_the_runs_array() {
        let doc = concat!(
            "{\n\"schema\": \"x\",\n",
            "\"experiments\": {\"scale\":1,\"runs\":[",
            "{\"id\":\"fig3\",\"wall_seconds\":0.5,\"edges\":10,",
            "\"ticks\":20,\"skipped\":60,\"ff_windows\":5,\"ff_elided\":7,",
            "\"edges_per_sec\":1.0,\"sim_cycles_per_sec\":2.0},",
            "{\"id\":\"fig4\",\"wall_seconds\":0.1,\"edges\":4,",
            "\"ticks\":8,\"edges_per_sec\":99,\"sim_cycles_per_sec\":1.0}",
            "]}\n}\n"
        );
        let activity = experiment_activity(doc);
        assert_eq!(activity.len(), 2);
        assert_eq!(activity[0].id, "fig3");
        assert_eq!(activity[0].ticks, 20);
        assert_eq!(activity[0].skipped, 60);
        assert_eq!(activity[0].ff_elided, 7);
        assert!((activity[0].skip_fraction() - 0.75).abs() < 1e-9);
        // Pre-v4 run without ff fields: elided reads as zero.
        assert_eq!(activity[1].ff_elided, 0);
        assert!(experiment_activity("{}\n").is_empty());
    }

    #[test]
    fn experiment_rates_scan_the_runs_array() {
        let doc = concat!(
            "{\n\"schema\": \"x\",\n",
            "\"experiments\": {\"scale\":1,\"runs\":[",
            "{\"id\":\"fig3\",\"wall_seconds\":0.5,\"edges\":10,",
            "\"ticks\":20,\"edges_per_sec\":123456.5,\"sim_cycles_per_sec\":2.0},",
            "{\"id\":\"fig4\",\"wall_seconds\":0.1,\"edges\":4,",
            "\"ticks\":8,\"edges_per_sec\":99,\"sim_cycles_per_sec\":1.0}",
            "]}\n}\n"
        );
        let rates = experiment_rates(doc);
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0].0, "fig3");
        assert!((rates[0].1 - 123456.5).abs() < 1e-9);
        assert_eq!(rates[1], ("fig4".to_string(), 99.0));
        assert!(experiment_rates("{}\n").is_empty());
    }
}
