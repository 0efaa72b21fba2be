//! `dse-search`: `mpsoc_dse::explore` at scale 8 with one job per core.
//!
//! The only workload where the DSE crate, the fast gear, warm-fork
//! promotions and cross-simulation `parallel_map` do most of the work; in
//! `paper-suite` they are a small share, and `parallel_map` runs inline at
//! one job.

use crate::layers::{overhead, ratio, secs, span_median, write_trace, KernelLayer};
use crate::stats::{median, quantile};
use crate::suite::{fnv1a, means, setup_build, sum_of_means, DEFAULT_SEED};
use crate::trace::Tracer;
use crate::{host_cores, own_peak_rss_mb, Ctx, Report};
use mpsoc_dse::{explore, DseConfig, DseResult, FrontPoint};
use mpsoc_platform::PlatformSpec;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const DSE_SCALE: u64 = 8;

/// Searches per run. One search's time depends on the candidates its
/// seed draws, so a run explores a panel of seeds and reports the mean.
pub const PANEL: u64 = 8;

/// Floors of a healthy search: points and fabric families. The finalists
/// must always keep them (the promotion cut preserves every family still
/// in the race). The front is the Pareto subset of the finalists and can
/// legitimately collapse to one family when that family dominates, so
/// off the default seed a front below the floors is counted, not failed.
const MIN_FRONT: usize = 3;
const MIN_FAMILIES: usize = 2;

fn families(points: &[FrontPoint]) -> usize {
    let mut tags: Vec<u8> = points.iter().map(|p| p.candidate.family.tag()).collect();
    tags.sort_unstable();
    tags.dedup();
    tags.len()
}

/// FNV-1a digest of the panel's fronts at [`DEFAULT_SEED`].
const FRONT_DIGEST: u64 = 0x004b_d2fe_6d0b_4675;

fn config(seed: u64, j: u64) -> DseConfig {
    DseConfig {
        scale: DSE_SCALE,
        seed: seed.wrapping_mul(PANEL).wrapping_add(j),
        jobs: host_cores(),
        ..DseConfig::default()
    }
}

/// The front as text: every field of every point, floats by their bits.
fn front_text(result: &DseResult) -> String {
    let mut out = String::new();
    for p in &result.front {
        out.push_str(&format!(
            "{} {} {} {:x} {:x} {} {} {}\n",
            p.candidate.index,
            p.candidate.family.label(),
            p.candidate.summary(),
            p.score.throughput.to_bits(),
            p.score.latency_ns.to_bits(),
            p.score.p95_ns,
            p.score.completed,
            p.score.cost,
        ));
    }
    out
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let spec = PlatformSpec {
        scale: DSE_SCALE,
        seed: ctx.seed,
        ..PlatformSpec::default()
    };
    let mut setup = Vec::new();

    let mut fronts: Vec<Option<String>> = vec![None; PANEL as usize];
    // Search times by panel entry, untraced [0] and traced [1].
    let mut times: [BTreeMap<u64, Vec<Duration>>; 2] = Default::default();
    let mut kernel = KernelLayer::default();
    let (mut ticks, mut candidates, mut front_ratio, mut traced_runs) = (0u64, 0u64, 0.0, 0u32);
    let mut floor_misses = 0u32;
    let deadline = Instant::now() + ctx.budget;
    let mut round = 0;
    while round < 2 || Instant::now() < deadline {
        let traced = ctx.traced && round % 2 == 1;
        let tracer = if traced { &on } else { &off };
        for j in 0..PANEL {
            setup.push(setup_build(&spec, tracer, &mut r));
            let cfg = config(ctx.seed, j);
            r.attempted += 1;
            let search = || tracer.span("dse.explore", || explore(&cfg));
            let (result, dur) = if traced {
                kernel.measure(search)
            } else {
                search()
            };
            times[usize::from(traced)].entry(j).or_default().push(dur);
            let result = match result {
                Ok(result) => result,
                Err(e) => {
                    r.fail(format!("explore seed {}: {e}", cfg.seed));
                    continue;
                }
            };
            if result.finalists.len() < MIN_FRONT || families(&result.finalists) < MIN_FAMILIES {
                r.fail(format!(
                    "explore seed {}: {} finalists in {} families",
                    cfg.seed,
                    result.finalists.len(),
                    families(&result.finalists)
                ));
            }
            if result.front.len() < MIN_FRONT || result.families_on_front < MIN_FAMILIES {
                let why = format!(
                    "explore seed {}: front of {} points in {} families",
                    cfg.seed,
                    result.front.len(),
                    result.families_on_front
                );
                if ctx.seed == DEFAULT_SEED || result.front.is_empty() {
                    r.fail(why);
                } else if round == 0 {
                    eprintln!("dse-search: below the front floors: {why}");
                    floor_misses += 1;
                }
            }
            if traced {
                ticks += result.total_sim_ticks();
                candidates += result.candidates as u64;
                front_ratio += ratio(result.front.len() as u64, result.candidates as u64);
                traced_runs += 1;
            }
            let text = front_text(&result);
            match &fronts[j as usize] {
                None => fronts[j as usize] = Some(text),
                Some(first) if *first != text => {
                    r.fail(format!(
                        "explore seed {}: front differs between runs",
                        cfg.seed
                    ));
                }
                Some(_) => {}
            }
        }
        round += 1;
    }
    if ctx.seed == DEFAULT_SEED {
        let all: String = fronts.iter().flatten().cloned().collect();
        if fnv1a(all.as_bytes()) != FRONT_DIGEST {
            r.fail(format!(
                "front digest {:#018x} differs from the recorded {FRONT_DIGEST:#018x}",
                fnv1a(all.as_bytes())
            ));
        }
    }
    // Mean over the panel of each configuration's mean search.
    let front_s = |k: usize| sum_of_means(&times[k]).map(|s| s / PANEL as f64);

    if ctx.traced {
        kernel.report(&mut r, traced_runs as usize);
        let n = f64::from(traced_runs.max(1));
        r.metric("dse.ticks", ticks as f64 / n, "count");
        r.metric("dse.ticks_per_candidate", ratio(ticks, candidates), "count");
        r.metric("dse.front_ratio", front_ratio / n, "ratio");
        r.metric("dse.ff_elided_ratio", kernel.ff_elided_ratio(), "ratio");
        r.metric("dse.front_floor_misses", f64::from(floor_misses), "count");
        span_median(&mut r, &on, "builder.build", "builder.build_us", "us");
        overhead(&mut r, front_s(0), front_s(1));
        write_trace(&mut r, ctx, "dse-search", &on);
    } else {
        // An operation is one search to its front: the latencies are
        // taken over the panel, each configuration at its mean search.
        match front_s(0) {
            Some(s) => {
                let per_config = means(&times[0]);
                let p50 = median(&per_config).unwrap_or(f64::NAN);
                r.metric("latency_p50_ms", p50, "ms");
                let p90 = quantile(&per_config, 0.9).unwrap_or(f64::NAN);
                r.metric("latency_p90_ms", p90, "ms");
                r.metric("throughput_per_s", 1.0 / s, "1/s");
            }
            None => r.fail("no search completed"),
        }
        match median(&secs(&setup)) {
            Some(s) => r.metric("setup_s", s, "s"),
            None => r.fail("no set-up build completed"),
        }
        r.metric("peak_rss_mb", own_peak_rss_mb(), "MB");
    }
    r
}
