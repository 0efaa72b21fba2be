//! `paper-suite`: every experiment of the registry, serially, at scale 2,
//! small enough that each experiment runs a dozen times or more in a run.
//!
//! The kernel and the component-model crates do nearly all the work and
//! no server code runs, so kernel and model changes show here and server
//! changes must not move it.

use crate::layers::{overhead, secs, span_median, write_trace, KernelLayer};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::{own_peak_rss_mb, Ctx, Report};
use mpsoc_bench::{run_experiment, EXPERIMENT_REGISTRY};
use mpsoc_platform::{build_platform, PlatformSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const SUITE_SCALE: u64 = 2;

/// The seed the recorded digests belong to: the workspace's default.
pub const DEFAULT_SEED: u64 = mpsoc_platform::experiments::DEFAULT_SEED;

/// FNV-1a digests of each registry table at [`SUITE_SCALE`] and
/// [`DEFAULT_SEED`], host-time columns blanked. A table that changes is a
/// wrong output; an experiment added later is checked for repeatability
/// only.
const SUITE_DIGESTS: &[(&str, u64)] = &[
    ("many-to-many", 0xd4ce_8852_b07e_513e),
    ("many-to-one", 0x5092_8126_a5a2_8d43),
    ("fig3", 0xdeba_9ed6_90cf_a213),
    ("fig4", 0xd788_9f07_7395_5049),
    ("fig5", 0x1b50_bac2_e2eb_ea56),
    ("fig6", 0xe1e3_da4d_2d78_fd57),
    ("buffering", 0x6ca7_7f8a_b87d_d291),
    ("bridges", 0x1c2f_0808_7dec_282c),
    ("lmi", 0x5124_d333_37e9_62b5),
    ("arbitration", 0x1fc8_78b7_e3a3_35c3),
    ("noc", 0x1df7_e215_3576_49ac),
    ("tlm", 0x95b9_2ec5_96be_19f7),
    ("fidelity", 0x6e9b_8ce9_7817_9c72),
    ("dual-channel", 0x86fc_0f06_ae7c_5aff),
    ("robustness", 0x049d_26c1_1761_3333),
    ("dse", 0x39d8_9f0d_8a97_6c37),
];

/// Passes needed for a mean and a cross-pass agreement check.
const MIN_PASSES: usize = 3;

/// One sample of an in-process workload's set-up: a fresh `build_platform`
/// of its first platform. Workloads take one before every call they time,
/// so the set-up median spans the whole run.
pub fn setup_build(spec: &PlatformSpec, tracer: &Tracer, r: &mut Report) -> Duration {
    r.attempted += 1;
    let (built, dur) = tracer.span("builder.build", || build_platform(spec));
    match built {
        Ok(platform) => drop(std::hint::black_box(platform)),
        Err(e) => r.fail(format!("build_platform: {e}")),
    }
    dur
}

/// Each call's mean run, in milliseconds. The host's speed switches, for
/// seconds at a time, between a usual level and spells up to 1.7 times
/// faster that come from its other tenants. The mean over a run moves in
/// proportion to the share of it spent fast; a call's median, or its
/// fastest run, jumps from one level to the other as that share crosses
/// a half, or as a run catches a fast spell or not.
pub fn means<K>(times: &BTreeMap<K, Vec<Duration>>) -> Vec<f64> {
    times
        .values()
        .filter_map(|d| mean(&secs(d)))
        .map(|s| s * 1e3)
        .collect()
}

/// The sum over calls of each call's mean run, in seconds.
pub fn sum_of_means<K>(times: &BTreeMap<K, Vec<Duration>>) -> Option<f64> {
    let m = means(times);
    (!m.is_empty()).then(|| m.iter().sum::<f64>() / 1e3)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let spec = PlatformSpec {
        scale: SUITE_SCALE,
        seed: ctx.seed,
        ..PlatformSpec::default()
    };
    let mut setup = Vec::new();
    // Untimed-by-the-tracer passes, and (traced run only) traced passes
    // alternating with them, so the overhead is measured in one process.
    let mut times: [BTreeMap<&str, Vec<Duration>>; 2] = Default::default();
    let mut tables: BTreeMap<&str, String> = BTreeMap::new();
    let mut kernel = KernelLayer::default();
    let deadline = Instant::now() + ctx.budget;
    let mut passes = 0;
    while passes < MIN_PASSES * if ctx.traced { 2 } else { 1 } || Instant::now() < deadline {
        let traced = ctx.traced && passes % 2 == 1;
        let tracer = if traced { &on } else { &off };
        for desc in EXPERIMENT_REGISTRY {
            setup.push(setup_build(&spec, tracer, &mut r));
            r.attempted += 1;
            let run = || {
                tracer.span(&format!("suite.{}", desc.id), || {
                    run_experiment(desc.id, SUITE_SCALE, ctx.seed)
                })
            };
            let (table, dur) = if traced { kernel.measure(run) } else { run() };
            times[usize::from(traced)]
                .entry(desc.id)
                .or_default()
                .push(dur);
            match table {
                Err(e) => r.fail(format!("{}: {e}", desc.id)),
                Ok(table) => {
                    let table = simulated_part(desc.id, &table);
                    match tables.get(desc.id) {
                        None => {
                            tables.insert(desc.id, table);
                        }
                        Some(first) if *first != table => {
                            r.fail(format!("{}: table differs between passes", desc.id));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        passes += 1;
    }
    if ctx.seed == DEFAULT_SEED {
        check_digests(&tables, &mut r);
    }
    if ctx.traced {
        kernel.report(&mut r, passes / 2);
        for (id, d) in &times[1] {
            let m = mean(&secs(d)).unwrap_or(f64::NAN);
            r.metric(&format!("suite.{id}_s"), m, "s");
        }
        span_median(&mut r, &on, "builder.build", "builder.build_us", "us");
        overhead(&mut r, sum_of_means(&times[0]), sum_of_means(&times[1]));
        write_trace(&mut r, ctx, "paper-suite", &on);
    } else {
        // An operation is one experiment: the latencies are taken over
        // the registry's experiments, each at its mean run, and the
        // throughput is experiments per second over a pass.
        match sum_of_means(&times[0]) {
            Some(s) => {
                let per_call = means(&times[0]);
                let p50 = median(&per_call).unwrap_or(f64::NAN);
                r.metric("latency_p50_ms", p50, "ms");
                let p90 = quantile(&per_call, 0.9).unwrap_or(f64::NAN);
                r.metric("latency_p90_ms", p90, "ms");
                r.metric("throughput_per_s", per_call.len() as f64 / s, "1/s");
            }
            None => r.fail("no suite pass completed"),
        }
        match median(&secs(&setup)) {
            Some(s) => r.metric("setup_s", s, "s"),
            None => r.fail("no set-up build completed"),
        }
        r.metric("peak_rss_mb", own_peak_rss_mb(), "MB");
    }
    r
}

fn check_digests(tables: &BTreeMap<&str, String>, r: &mut Report) {
    for (id, want) in SUITE_DIGESTS {
        match tables.get(id) {
            Some(table) if fnv1a(table.as_bytes()) != *want => {
                r.fail(format!(
                    "{id}: table digest {:#018x} differs from the recorded {want:#018x}",
                    fnv1a(table.as_bytes())
                ));
            }
            Some(_) => {}
            None => eprintln!("paper-suite: registry no longer has '{id}'"),
        }
    }
    for (id, table) in tables {
        if !SUITE_DIGESTS.iter().any(|(known, _)| known == id) {
            eprintln!(
                "paper-suite: no recorded digest for '{id}' ({:#018x})",
                fnv1a(table.as_bytes())
            );
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The table with its host-time fields blanked. Two registry tables
/// print host time next to simulated results: `tlm` (`<n> us host time`
/// and `host-time speedup <n>x`) and `fidelity` (the `warm ms` and
/// `speedup` columns). Everything else a table prints is simulated and
/// must repeat exactly.
pub fn simulated_part(id: &str, table: &str) -> String {
    let mut out = String::with_capacity(table.len());
    for line in table.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let kept: Vec<&str> = match id {
            "tlm" => {
                let end = (0..tokens.len())
                    .find(|&i| tokens[i] == "/" || tokens[i + 1..].starts_with(&["us", "host"]))
                    .unwrap_or(tokens.len());
                tokens[..end].to_vec()
            }
            "fidelity" if tokens.get(2).is_some_and(|t| t.ends_with('x')) => tokens
                .iter()
                .enumerate()
                .map(|(i, t)| if i == 1 || i == 2 { "-" } else { t })
                .collect(),
            _ => tokens,
        };
        out.push_str(&kept.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_time_fields_are_blanked() {
        let tlm = "EXT-TLM multi-abstraction speed/accuracy trade-off\n\
                   cycle-accurate          49621 cycles     57594 us host time\n\
                   TLM timing error 3.4%  /  host-time speedup 1.10x\n";
        assert_eq!(
            simulated_part("tlm", tlm),
            "EXT-TLM multi-abstraction speed/accuracy trade-off\n\
             cycle-accurate 49621 cycles\n\
             TLM timing error 3.4%\n"
        );
        let fidelity = " quantum    warm ms   speedup    max err (‰)      table\n\
                        \x20      4      37.15     1.77x            327     approx\n";
        assert_eq!(
            simulated_part("fidelity", fidelity),
            "quantum warm ms speedup max err (‰) table\n4 - - 327 approx\n"
        );
        assert_eq!(simulated_part("fig3", "a  1.5x\n"), "a 1.5x\n");
    }

    #[test]
    fn digests_are_stable_across_two_passes() {
        for id in ["fig4", "tlm", "fidelity"] {
            let a = run_experiment(id, 1, DEFAULT_SEED).expect("runs");
            let b = run_experiment(id, 1, DEFAULT_SEED).expect("runs");
            assert_eq!(
                fnv1a(simulated_part(id, &a).as_bytes()),
                fnv1a(simulated_part(id, &b).as_bytes()),
                "{id}"
            );
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
