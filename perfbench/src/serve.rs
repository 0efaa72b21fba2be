//! `serve-hot` and `serve-cold`: a real `simserved` child driven over TCP.
//!
//! `serve-hot` asks only for warm-cache hits on the FIG-4 cells at scale 1,
//! so platform build, restore, the protocol, transport and queueing are
//! about half of each request and warm-up never runs. `serve-cold` asks
//! for a fresh warm key with every pair of requests at scale 4, so each
//! pays a warm-up, cache fill and eviction, and a spill write; its restart
//! leg reads the spills back through the same disk layer.
//!
//! Only interfaces the server keeps are used: default flags plus
//! `--cache-dir` and `--port-file`, and requests that name topology,
//! scale, seed and wait states.

use crate::layers::{overhead, ratio, secs, span_median, write_trace, KernelLayer};
use crate::net::{closed_loop, pooled_open_loop, Conn, Exchange, ServerProc};
use crate::stats::{highest_supported, median, quantile, samples_beyond, window_quartile};
use crate::trace::Tracer;
use crate::{json, Ctx, Report};
use mpsoc_platform::service::{self, SweepRequest, WarmState, SERVICE_HORIZON};
use mpsoc_platform::{build_platform, Topology};
use mpsoc_server::protocol::{self as wire, CacheOutcome, Command, PointResult};
use mpsoc_server::{DiskCache, WarmCache};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const HOT_SCALE: u64 = 1;
const COLD_SCALE: u64 = 4;

/// The open-loop rate of `serve-hot`. Two connections reach about 800
/// req/s closed-loop on the recording host, and 300 to 400 req/s in its
/// slow spells; at 100 req/s the leg stays far below capacity in those
/// spells too, so its latency is the server's and not a backlog's.
const OPEN_RATE: f64 = 100.0;

/// `serve-cold` launches per run; set-up time is their median.
const SETUP_LAUNCHES: usize = 5;

/// How far the one-connection client p50 may sit above the in-process
/// `serve_point` p50 before the run counts as measuring the client.
const CLIENT_STALL_MS: f64 = 5.0;

/// The FIG-4 wait-state axis.
const WAIT_STATES: [u32; 6] = [1, 2, 4, 8, 16, 32];
const TOPOLOGIES: [(Topology, &str); 2] = [
    (Topology::Collapsed, "collapsed"),
    (Topology::Distributed, "distributed"),
];

/// One sweep point: a topology (index into [`TOPOLOGIES`]), a seed and a
/// wait-state value, at a fixed scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cell {
    topology: usize,
    seed: u64,
    wait_states: u32,
}

impl Cell {
    fn line(&self, id: u64, scale: u64) -> String {
        format!(
            "{{\"id\":{id},\"cmd\":\"simulate\",\"topology\":\"{}\",\"scale\":{scale},\"seed\":{},\"wait_states\":{}}}",
            TOPOLOGIES[self.topology].1, self.seed, self.wait_states
        )
    }

    fn request(&self, scale: u64) -> SweepRequest {
        SweepRequest {
            topology: TOPOLOGIES[self.topology].0,
            scale,
            seed: self.seed,
            wait_states: self.wait_states,
            ..SweepRequest::default()
        }
    }
}

/// xorshift64: request schedules are a pure function of the seed.
#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        let mixed =
            (seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        Rng(mixed | 1)
    }

    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x % n as u64) as usize
    }
}

/// The twelve FIG-4 cells of one seed.
fn fig4_cells(seed: u64) -> Vec<Cell> {
    (0..TOPOLOGIES.len())
        .flat_map(|topology| {
            WAIT_STATES.iter().map(move |&wait_states| Cell {
                topology,
                seed,
                wait_states,
            })
        })
        .collect()
}

/// The `serve-hot` request stream `stream` of workload seed `seed`:
/// duplicate-heavy, in blocks of twelve that each hold every FIG-4 cell
/// once in a drawn order. Cells differ severalfold in service time (0.7 to
/// 3.4 ms in-process on the recording host), so independent draws would
/// let the share of slow cells, and with it the latency percentiles, vary
/// from seed to seed.
fn hot_mix(seed: u64, stream: u64, len: usize) -> Vec<Cell> {
    let cells = fig4_cells(HOT_SIM_SEED);
    let mut rng = Rng::new(seed, stream);
    let mut mix = Vec::with_capacity(len + cells.len());
    while mix.len() < len {
        let mut block = cells.clone();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        mix.extend(block);
    }
    mix.truncate(len);
    mix
}

/// The distributed topology, the only one `serve-cold` asks for. The two
/// topologies differ in tail length (a 32-wait-state tail at scale 4 takes
/// 4.2 ms collapsed against 2.4 ms distributed on the recording host), and
/// a drawn topology would add that difference to the latency spread.
const COLD_TOPOLOGY: usize = 1;

/// The two cells of `serve-cold` key `i`: a fresh seed (`seed + i`) and
/// two distinct drawn wait-state values.
fn cold_pair(seed: u64, i: u64) -> [Cell; 2] {
    let mut rng = Rng::new(seed, 1 << 32 | i);
    let topology = COLD_TOPOLOGY;
    let a = rng.below(WAIT_STATES.len());
    let b = (a + 1 + rng.below(WAIT_STATES.len() - 1)) % WAIT_STATES.len();
    let key_seed = seed.wrapping_add(i);
    [a, b].map(|w| Cell {
        topology,
        seed: key_seed,
        wait_states: WAIT_STATES[w],
    })
}

/// Reads the served cycles of a one-point reply for `cell`.
fn served_cycles(reply: &str, cell: &Cell) -> Result<u64, String> {
    let v = json::parse(reply)?;
    if v.get("status").and_then(json::Json::as_str) != Some("ok") {
        return Err(format!("error reply: {reply}"));
    }
    let point = v
        .get("points")
        .and_then(json::Json::as_array)
        .and_then(|p| p.first())
        .ok_or("reply has no points")?;
    if point.get("wait_states").and_then(json::Json::as_u64) != Some(u64::from(cell.wait_states)) {
        return Err(format!("reply is for another cell: {reply}"));
    }
    point
        .get("exec_cycles")
        .and_then(json::Json::as_u64)
        .ok_or_else(|| format!("reply has no exec_cycles: {reply}"))
}

/// The counters of a `stats` reply.
fn server_stats(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    let reply = conn
        .roundtrip(r#"{"cmd":"stats"}"#)
        .map_err(|e| e.to_string())?;
    let v = json::parse(&reply)?;
    match v.get("stats") {
        Some(json::Json::Obj(members)) => Ok(members
            .iter()
            .filter_map(|(k, v)| match v {
                json::Json::Num(x) => Some((k.clone(), *x)),
                _ => None,
            })
            .collect()),
        _ => Err(format!("stats reply without stats: {reply}")),
    }
}

/// Server counters reported per leg, as `(stats field, metric)`. A field
/// the server no longer reports reads as zero.
const COUNTERS: [(&str, &str); 11] = [
    ("hits", "server.hits"),
    ("misses", "server.misses"),
    ("warm_ups", "server.warm_ups"),
    ("batches", "server.batches"),
    ("coalesced", "server.coalesced"),
    ("disk_hits", "server.disk_hits"),
    ("spill_stores", "server.spill_stores"),
    ("spill_loads", "server.spill_loads"),
    ("spill_rejected", "server.spill_rejected"),
    ("evictions", "server.evictions"),
    ("errors", "server.errors"),
];

/// Sums of `stats` deltas over the legs of a run.
#[derive(Default)]
struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    fn add(&mut self, before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) {
        for (field, _) in COUNTERS {
            let d = after.get(field).unwrap_or(&0.0) - before.get(field).unwrap_or(&0.0);
            *self.0.entry(field).or_default() += d;
        }
    }

    fn get(&self, field: &str) -> f64 {
        self.0.get(field).copied().unwrap_or(0.0)
    }

    fn report(&self, r: &mut Report, keys: usize) {
        for (field, metric) in COUNTERS {
            r.metric(metric, self.get(field), "count");
        }
        r.metric(
            "server.warm_ups_per_key",
            self.get("warm_ups") / keys.max(1) as f64,
            "ratio",
        );
    }
}

/// Checks one reply against the expected cycles of its cell, counting it
/// as an attempted operation and, if wrong, a failed one.
fn check_reply(
    r: &mut Report,
    leg: &str,
    cell: &Cell,
    reply: &Result<String, String>,
    expected: &dyn Fn(&Cell) -> Option<u64>,
) -> bool {
    r.attempted += 1;
    let got = reply
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|reply| served_cycles(reply, cell));
    match (got, expected(cell)) {
        (Err(e), _) => r.fail(format!("{leg}: {e}")),
        (Ok(got), Some(want)) if got != want => {
            r.fail(format!(
                "{leg}: {cell:?} served {got} cycles, reference {want}"
            ));
        }
        (Ok(_), None) => r.fail(format!("{leg}: no reference for {cell:?}")),
        (Ok(_), Some(_)) => return true,
    }
    false
}

/// Checks every exchange and returns the good ones.
fn good<'a>(
    r: &mut Report,
    leg: &str,
    exchanges: impl IntoIterator<Item = &'a (Cell, Exchange)>,
    expected: &dyn Fn(&Cell) -> Option<u64>,
) -> Vec<&'a Exchange> {
    exchanges
        .into_iter()
        .filter(|(cell, x)| check_reply(r, leg, cell, &x.reply, expected))
        .map(|(_, x)| x)
        .collect()
}

/// Checks every exchange and returns the latencies (in ms) of the good
/// ones.
fn tally<'a>(
    r: &mut Report,
    leg: &str,
    exchanges: impl IntoIterator<Item = &'a (Cell, Exchange)>,
    expected: &dyn Fn(&Cell) -> Option<u64>,
) -> Vec<f64> {
    good(r, leg, exchanges, expected)
        .into_iter()
        .map(latency_ms)
        .collect()
}

fn latency_ms(x: &Exchange) -> f64 {
    x.latency().as_secs_f64() * 1e3
}

/// Cuts `samples` (when, value) into consecutive windows of `width` from
/// `start` to `end`; the part after the last whole window is dropped.
fn windows(
    samples: impl IntoIterator<Item = (Instant, f64)>,
    start: Instant,
    end: Instant,
    width: Duration,
) -> Vec<Vec<f64>> {
    let whole = (end.saturating_duration_since(start).as_nanos() / width.as_nanos()) as usize;
    let mut out = vec![Vec::new(); whole];
    for (at, value) in samples {
        let k = (at.saturating_duration_since(start).as_nanos() / width.as_nanos()) as usize;
        if let Some(w) = out.get_mut(k) {
            w.push(value);
        }
    }
    out
}

/// The upper quartile over `windows` of completion instants of each
/// window's completions per second (see [`window_quartile`]).
fn rate(windows: &[Vec<f64>], width: Duration) -> Option<f64> {
    let per_window: Vec<f64> = windows
        .iter()
        .map(|w| w.len() as f64 / width.as_secs_f64())
        .collect();
    quantile(&per_window, 0.75)
}

/// Reports the `q` percentile of `samples` as `metric`, warning when
/// fewer than ten samples lie beyond it (a shorter `--seconds`).
fn percentile_metric(r: &mut Report, metric: &str, samples: &[f64], q: f64) {
    warn_if_thin(metric, samples.len(), q);
    match quantile(samples, q) {
        Some(v) => r.metric(metric, v, "ms"),
        None => r.fail(format!("{metric}: no samples")),
    }
}

/// Reports the lower quartile over the `windows` that hold at least
/// [`MIN_WINDOW`] samples of each one's `q` percentile (see
/// [`window_quartile`]) as `metric`.
fn window_metric(r: &mut Report, metric: &str, windows: &[Vec<f64>], q: f64) {
    let full: Vec<Vec<f64>> = windows
        .iter()
        .filter(|w| w.len() >= MIN_WINDOW)
        .cloned()
        .collect();
    if let Some(fewest) = full.iter().map(Vec::len).min() {
        warn_if_thin(metric, fewest, q);
    }
    eprintln!("{metric}: lower quartile of {} windows", full.len());
    match window_quartile(&full, q) {
        Some(v) => r.metric(metric, v, "ms"),
        None => r.fail(format!("{metric}: no window of {MIN_WINDOW} samples")),
    }
}

fn warn_if_thin(metric: &str, n: usize, q: f64) {
    if samples_beyond(n, q) < 10 {
        let highest = highest_supported(n).map_or("none".into(), |h| format!("p{}", h * 100.0));
        eprintln!("{metric}: {n} samples support {highest}");
    }
}

/// Samples a latency window needs to count.
const MIN_WINDOW: usize = 20;

fn launch(ctx: &Ctx, cache: &str, tag: &str) -> Result<ServerProc, String> {
    ServerProc::launch(
        &ctx.simserved,
        &ctx.scratch.join(cache),
        &ctx.scratch.join(format!("{tag}.addr")),
        &ctx.scratch.join(format!("{tag}.log")),
    )
    .map_err(|e| format!("launching simserved: {e}"))
}

/// Launches [`SETUP_LAUNCHES`] servers on the spill directory `cache` (one
/// in a traced run), each made ready by `ready`, keeps the last and
/// returns it with the median set-up time.
fn set_up(
    ctx: &Ctx,
    r: &mut Report,
    cache: &str,
    ready: impl Fn(&ServerProc) -> Result<(), String>,
) -> Option<(ServerProc, Duration)> {
    let launches = if ctx.traced { 1 } else { SETUP_LAUNCHES };
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..launches {
        let started = Instant::now();
        r.attempted += 1;
        let server = match launch(ctx, cache, &format!("setup{k}")) {
            Ok(server) => server,
            Err(e) => {
                r.fail(e);
                return None;
            }
        };
        if let Err(e) = ready(&server) {
            r.fail(e);
            return None;
        }
        times.push(started.elapsed());
        if k + 1 < launches {
            if let Err(e) = server.shutdown() {
                r.fail(format!("shutdown: {e}"));
            }
        } else {
            kept = Some(server);
        }
    }
    let setup = Duration::from_secs_f64(median(&secs(&times))?);
    kept.map(|server| (server, setup))
}

fn connect_pair(server: &ServerProc) -> Result<[Conn; 2], String> {
    let a = server.connect().map_err(|e| format!("connect: {e}"))?;
    let b = server.connect().map_err(|e| format!("connect: {e}"))?;
    Ok([a, b])
}

/// Runs `f(connection index, connection)` on both connections at once:
/// the calling thread drives the first, one spawned thread the second.
fn on_both<T: Send>(conns: &mut [Conn; 2], f: impl Fn(usize, &mut Conn) -> T + Sync) -> [T; 2] {
    let [a, b] = conns;
    std::thread::scope(|s| {
        let second = s.spawn(|| f(1, b));
        let first = f(0, a);
        [first, second.join().expect("connection thread panicked")]
    })
}

/// The cold-run result of every cell, computed in-process: one
/// `warm_state` per warm key and one `serve_point` per cell, which is what
/// `service::cold_point` runs for each cell. Two threads.
fn references(cells: &[Cell], scale: u64) -> BTreeMap<Cell, Result<u64, String>> {
    let mut by_key: BTreeMap<(usize, u64), Vec<Cell>> = BTreeMap::new();
    for cell in cells {
        let group = by_key.entry((cell.topology, cell.seed)).or_default();
        if !group.contains(cell) {
            group.push(*cell);
        }
    }
    let groups: Vec<Vec<Cell>> = by_key.into_values().collect();
    let results = mpsoc_platform::experiments::parallel_map(groups, crate::host_cores(), |group| {
        match service::warm_state(&group[0].request(scale)) {
            Ok(warm) => group
                .iter()
                .map(|c| {
                    (
                        *c,
                        service::serve_point(&c.request(scale), &warm).map_err(|e| e.to_string()),
                    )
                })
                .collect::<Vec<_>>(),
            Err(e) => group.iter().map(|c| (*c, Err(e.to_string()))).collect(),
        }
    });
    results.into_iter().flatten().collect()
}

fn expect_from(refs: &BTreeMap<Cell, Result<u64, String>>) -> impl Fn(&Cell) -> Option<u64> + '_ {
    |cell| refs.get(cell).and_then(|r| r.as_ref().ok()).copied()
}

fn shut(r: &mut Report, server: ServerProc) -> f64 {
    let rss = server.peak_rss_mb().unwrap_or(f64::NAN);
    if let Err(e) = server.shutdown() {
        r.fail(format!("shutdown: {e}"));
    }
    rss
}

// ---------------------------------------------------------------- serve-hot

/// Requests sent on the one-connection stall check.
const CHECK_REQUESTS: usize = 200;

/// Server processes per `serve-hot` run. Each round launches a fresh
/// server, primes it (one set-up sample), and runs a closed and an open
/// leg; the figures are read over the short windows of all rounds.
const HOT_ROUNDS: usize = 3;

/// Share of a round spent in the closed leg. Its rate holds still over a
/// dozen windows; the open leg's tail needs more of them.
const CLOSED_SHARE: f64 = 0.25;

/// The windows `throughput_per_s` counts in: about 400 replies each at
/// the closed loop's rate.
const CLOSED_WINDOW: Duration = Duration::from_millis(500);

/// The windows the latencies are read in (see [`window_quartile`]): 100
/// requests each at [`OPEN_RATE`], so the p90 has ten beyond it.
const OPEN_WINDOW: Duration = Duration::from_secs(1);

/// The simulation seed of every `serve-hot` request: the cells are the
/// paper's FIG-4 sweep. The workload seed draws the request order only; at
/// scale 1 the work per request differs between simulation seeds (closed-
/// loop throughput by about 40%), which would make a seed change look like
/// a speed change.
const HOT_SIM_SEED: u64 = crate::suite::DEFAULT_SEED;

/// What one `serve-hot` round measured.
struct HotRound {
    closed: Vec<(Cell, Exchange)>,
    closed_started: Instant,
    closed_wall: Duration,
    /// When the open leg's schedule starts.
    open_started: Instant,
    open: Vec<(Cell, Exchange)>,
    traced: bool,
}

pub fn hot(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let cells = fig4_cells(HOT_SIM_SEED);
    let traced = Tracer::new(ctx.traced);
    let off = Tracer::new(false);
    // A traced run alternates an untraced and a traced round.
    let tracers: Vec<&Tracer> = if ctx.traced {
        vec![&off, &traced]
    } else {
        vec![&off; HOT_ROUNDS]
    };
    let round_time = ctx.budget.div_f64(tracers.len() as f64);
    let (closed_leg, open_leg) = (
        round_time.mul_f64(CLOSED_SHARE),
        round_time.mul_f64(1.0 - CLOSED_SHARE),
    );
    let mut setups = Vec::new();
    let mut primes = Vec::new();
    let mut rounds = Vec::new();
    let mut check = Vec::new();
    let mut counters = Counters::default();
    let mut rss: f64 = 0.0;
    for (k, tracer) in tracers.iter().enumerate() {
        let started = Instant::now();
        r.attempted += 1;
        let server = match launch(ctx, &format!("hot-cache{k}"), &format!("hot{k}")) {
            Ok(server) => server,
            Err(e) => {
                r.fail(e);
                continue;
            }
        };
        let mut conns = match connect_pair(&server) {
            Ok(conns) => conns,
            Err(e) => {
                r.fail(e);
                continue;
            }
        };
        // Ready once every cell is warm: prime them on both connections.
        let primed = on_both(&mut conns, |c, conn| {
            let mine = cells.iter().skip(c).step_by(2);
            mine.map(|cell| {
                let reply = conn.roundtrip(&cell.line(0, HOT_SCALE));
                (*cell, reply.map_err(|e| e.to_string()))
            })
            .collect::<Vec<_>>()
        });
        setups.push(started.elapsed());
        primes.extend(primed.into_iter().flatten());
        if k == 0 {
            // One connection: the client p50 the stall check compares.
            let mix = hot_mix(ctx.seed, 0, CHECK_REQUESTS);
            let xs = closed_loop(&mut conns[0], Instant::now() + ctx.budget, |i| {
                mix.get(i as usize).map(|cell| cell.line(i, HOT_SCALE))
            });
            check = xs.into_iter().map(|x| (mix[x.seq as usize], x)).collect();
        }
        let before = server_stats(&mut conns[0]);

        let deadline = Instant::now() + closed_leg;
        let closed_started = Instant::now();
        let legs = on_both(&mut conns, |c, conn| {
            let mix = hot_mix(ctx.seed, 10 + 2 * k as u64 + c as u64, 1 << 16);
            let out = closed_loop(conn, deadline, |i| {
                Some(mix[i as usize % mix.len()].line(i, HOT_SCALE))
            });
            out.into_iter()
                .map(|x| {
                    tracer.record("server.request", Some(x.seq), x.due, x.latency());
                    (mix[x.seq as usize % mix.len()], x)
                })
                .collect::<Vec<_>>()
        });
        let closed_wall = closed_started.elapsed();
        let closed: Vec<(Cell, Exchange)> = legs.into_iter().flatten().collect();

        let n = (OPEN_RATE * open_leg.as_secs_f64()).ceil() as usize;
        let mix = hot_mix(ctx.seed, 100 + k as u64, n);
        let t0 = Instant::now() + Duration::from_millis(5);
        let schedule: Vec<(u64, Instant, String)> = (0..n)
            .map(|j| {
                let due = t0 + Duration::from_secs_f64(j as f64 / OPEN_RATE);
                (j as u64, due, mix[j].line(j as u64, HOT_SCALE))
            })
            .collect();
        let next = AtomicUsize::new(0);
        let legs = on_both(&mut conns, |_, conn| {
            let out = pooled_open_loop(conn, &schedule, &next);
            for x in &out {
                tracer.record("server.request", Some(x.seq), x.due, x.latency());
            }
            out
        });
        let open: Vec<(Cell, Exchange)> = legs
            .into_iter()
            .flatten()
            .map(|x| (mix[x.seq as usize], x))
            .collect();
        for _ in open.len()..n {
            r.attempted += 1;
            r.fail("open leg: request never sent");
        }
        match (before, server_stats(&mut conns[0])) {
            (Ok(before), Ok(after)) if tracer.enabled() => counters.add(&before, &after),
            (Ok(_), Ok(_)) => {}
            _ => r.fail("stats command failed"),
        }

        drop(conns);
        rss = rss.max(shut(&mut r, server));
        rounds.push(HotRound {
            closed,
            closed_started,
            closed_wall,
            open_started: t0,
            open,
            traced: tracer.enabled(),
        });
    }

    let refs = references(&cells, HOT_SCALE);
    for (cell, result) in &refs {
        if let Err(e) = result {
            r.fail(format!("reference {cell:?}: {e}"));
        }
    }
    let expected = expect_from(&refs);
    for (cell, reply) in &primes {
        check_reply(&mut r, "priming", cell, reply, &expected);
    }
    let check_lat = tally(&mut r, "one-connection leg", &check, &expected);
    // Untraced rounds cut into short windows: completions of the closed
    // windows, latencies of the open ones (see `window_quartile`).
    let (mut closed_windows, mut open_windows) = (Vec::new(), Vec::new());
    let mut open_lat = [Vec::new(), Vec::new()];
    let mut lateness = Vec::new();
    for round in &rounds {
        let closed = good(&mut r, "closed leg", &round.closed, &expected);
        let open = good(&mut r, "open leg", &round.open, &expected);
        if !round.traced {
            closed_windows.extend(windows(
                closed.iter().map(|x| (x.done, 1.0)),
                round.closed_started,
                round.closed_started + round.closed_wall,
                CLOSED_WINDOW,
            ));
            open_windows.extend(windows(
                open.iter().map(|x| (x.due, latency_ms(x))),
                round.open_started,
                round.open_started + open_leg,
                OPEN_WINDOW,
            ));
        }
        open_lat[usize::from(round.traced)].extend(open.into_iter().map(latency_ms));
        if round.traced == ctx.traced {
            lateness.extend(
                round
                    .open
                    .iter()
                    .map(|(_, x)| x.lateness().as_secs_f64() * 1e3),
            );
        }
    }

    // The stall check: in-process serve_point on the same cells.
    let warm = warm_states(&cells, HOT_SCALE, &mut r);
    let inproc: Vec<f64> = check
        .iter()
        .filter_map(|(cell, _)| {
            let warm = warm.get(&(cell.topology, cell.seed))?;
            let started = Instant::now();
            let _ = service::serve_point(&cell.request(HOT_SCALE), warm);
            Some(started.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    let client_p50 = median(&check_lat);
    let inproc_p50 = median(&inproc);
    eprintln!(
        "serve-hot: one-connection client p50 {:.3} ms, in-process serve_point p50 {:.3} ms",
        client_p50.unwrap_or(f64::NAN),
        inproc_p50.unwrap_or(f64::NAN)
    );
    match (client_p50, inproc_p50) {
        (Some(client), Some(inproc)) if client - inproc > CLIENT_STALL_MS => r.fail(format!(
            "one-connection client p50 {client:.2} ms is {:.2} ms above in-process serve_point \
             ({inproc:.2} ms): the client, not the server, is being measured",
            client - inproc
        )),
        (Some(_), Some(_)) => {}
        _ => r.fail("stall check has no samples"),
    }
    if let Some(late) = quantile(&lateness, 0.99) {
        eprintln!(
            "serve-hot: open loop sent {} requests, p99 lateness {late:.3} ms",
            lateness.len()
        );
    }

    if ctx.traced {
        if let Some(last) = rounds.iter().rev().find(|x| x.traced) {
            replay_hot(&mut r, &traced, &last.open, &warm);
        }
        counters.report(&mut r, 2);
        if let (Some(client), Some(inproc)) = (client_p50, inproc_p50) {
            r.metric("server.queue_ms", client - inproc, "ms");
        }
        if let Some(late) = quantile(&lateness, 0.99) {
            r.metric("loadgen.late_p99_ms", late, "ms");
        }
        percentile_metric(&mut r, "loadgen.hit_p99_ms", &open_lat.concat(), 0.99);
        overhead(&mut r, median(&open_lat[0]), median(&open_lat[1]));
        write_trace(&mut r, ctx, "serve-hot", &traced);
    } else {
        match rate(&closed_windows, CLOSED_WINDOW) {
            Some(rps) => r.metric("throughput_per_s", rps, "1/s"),
            None => r.fail("no closed window completed"),
        }
        window_metric(&mut r, "latency_p50_ms", &open_windows, 0.5);
        window_metric(&mut r, "latency_p90_ms", &open_windows, 0.9);
        match median(&secs(&setups)) {
            Some(setup) => r.metric("setup_s", setup, "s"),
            None => r.fail("no server became ready"),
        }
        r.metric("peak_rss_mb", rss, "MB");
    }
    r
}

/// Warm states of every warm key among `cells`.
fn warm_states(cells: &[Cell], scale: u64, r: &mut Report) -> BTreeMap<(usize, u64), WarmState> {
    let mut out = BTreeMap::new();
    for cell in cells {
        let key = (cell.topology, cell.seed);
        if out.contains_key(&key) {
            continue;
        }
        let req = cell.request(scale);
        match service::warm_state(&req) {
            Ok(warm) => {
                out.insert(key, warm);
            }
            Err(e) => r.fail(format!("warm_state {cell:?}: {e}")),
        }
    }
    out
}

/// The per-layer split of `serve-hot`: the open-leg mix replayed
/// in-process through the calls a hit makes, each inner call also timed
/// on its own.
fn replay_hot(
    r: &mut Report,
    tracer: &Tracer,
    mix: &[(Cell, Exchange)],
    warm: &BTreeMap<(usize, u64), WarmState>,
) {
    let cache: WarmCache<WarmState> = WarmCache::new(8);
    let mut kernel = KernelLayer::default();
    let mut tail_ticks = Vec::new();
    for (i, (cell, _)) in mix.iter().take(400).enumerate() {
        let req_id = Some(1_000_000 + i as u64);
        if let Some((_, ticks)) = replay_request(
            r,
            tracer,
            req_id,
            cell,
            HOT_SCALE,
            &cache,
            warm,
            &mut kernel,
        ) {
            tail_ticks.push(ticks as f64);
        }
    }
    kernel.report(r, tail_ticks.len());
    span_median(r, tracer, "builder.build", "builder.build_us", "us");
    span_median(r, tracer, "snapshot.restore", "snapshot.restore_us", "us");
    span_median(r, tracer, "service.tail", "service.tail_ms", "ms");
    r.metric(
        "service.tail_ticks",
        median(&tail_ticks).unwrap_or(0.0),
        "count",
    );
    span_median(r, tracer, "protocol.parse", "protocol.parse_us", "us");
    span_median(r, tracer, "protocol.encode", "protocol.encode_us", "us");
}

/// Replays one request in-process: parse, fingerprint build, cache lookup,
/// `serve_point`, and encode; then build, restore and tail again as
/// separate calls on the same input. Returns the served cycles and the
/// tail's kernel ticks.
#[allow(clippy::too_many_arguments)]
fn replay_request(
    r: &mut Report,
    tracer: &Tracer,
    req_id: Option<u64>,
    cell: &Cell,
    scale: u64,
    cache: &WarmCache<WarmState>,
    warm: &BTreeMap<(usize, u64), WarmState>,
    kernel: &mut KernelLayer,
) -> Option<(u64, u64)> {
    r.attempted += 1;
    let line = cell.line(req_id.unwrap_or(0), scale);
    let (parsed, _) = tracer.span_for("protocol.parse", req_id, || wire::parse_command(&line));
    let req = match parsed {
        Ok(Command::Simulate(sim)) => sim.req,
        Ok(other) => {
            r.fail(format!("parse_command read a simulate line as {other:?}"));
            return None;
        }
        Err(e) => {
            r.fail(format!("parse_command: {e}"));
            return None;
        }
    };
    let (built, _) = tracer.span_for("builder.build", req_id, || build_platform(&req.base_spec()));
    let fingerprint = match built {
        Ok(platform) => platform.structural_fingerprint(),
        Err(e) => {
            r.fail(format!("build_platform: {e}"));
            return None;
        }
    };
    let key = req.warm_key();
    let looked_up = cache.get_or_compute(&key, fingerprint, || -> Result<WarmState, String> {
        warm.get(&(cell.topology, cell.seed))
            .cloned()
            .ok_or_else(|| "no warm state".into())
    });
    let state = match looked_up {
        Ok((state, _)) => state,
        Err(e) => {
            r.fail(format!("warm cache: {e}"));
            return None;
        }
    };
    let (served, _) = kernel.measure(|| {
        tracer.span_for("service.serve_point", req_id, || {
            service::serve_point(&req, &state)
        })
    });
    let served = match served {
        Ok(cycles) => cycles,
        Err(e) => {
            r.fail(format!("serve_point: {e}"));
            return None;
        }
    };
    tracer.span_for("protocol.encode", req_id, || {
        wire::simulate_response(
            req_id.unwrap_or(0),
            CacheOutcome::Hit,
            state.profile.base_cycles,
            &[PointResult {
                wait_states: req.wait_states,
                exec_cycles: served,
            }],
            0,
        )
    });

    // The inner calls of serve_point, one by one.
    let mut platform = build_platform(&req.base_spec()).ok()?;
    let (restored, _) =
        tracer.span_for("snapshot.restore", req_id, || platform.restore(&state.blob));
    if let Err(e) = restored {
        r.fail(format!("restore: {e}"));
        return None;
    }
    if !platform.set_memory_wait_states(req.wait_states) {
        r.fail("set_memory_wait_states refused an on-chip platform");
        return None;
    }
    let before = mpsoc_kernel::activity::snapshot();
    let (tail, _) = tracer.span_for("service.tail", req_id, || {
        platform.sim_mut().run_to_quiescence_strict(SERVICE_HORIZON)
    });
    let ticks = mpsoc_kernel::activity::snapshot().since(before).ticks;
    match tail {
        Ok(exec) if platform.report_at(exec).exec_cycles == served => Some((served, ticks)),
        Ok(exec) => {
            r.fail(format!(
                "tail run by hand gives {} cycles, serve_point {served}",
                platform.report_at(exec).exec_cycles
            ));
            None
        }
        Err(e) => {
            r.fail(format!("tail: {e}"));
            None
        }
    }
}

// --------------------------------------------------------------- serve-cold

/// Share of the budget spent in the cold leg; the restart leg then asks
/// once for each key the cold leg spilled.
const COLD_SHARE: f64 = 0.8;

/// The windows the cold leg's figures are read in (see [`window_quartile`]):
/// 50 to 60 replies each.
const COLD_WINDOW: Duration = Duration::from_secs(2);

pub fn cold(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let cache = "cold-cache";
    let Some((server, setup)) = set_up(ctx, &mut r, cache, |server| {
        let mut conn = server.connect().map_err(|e| format!("connect: {e}"))?;
        let pong = conn
            .roundtrip(r#"{"cmd":"ping"}"#)
            .map_err(|e| format!("ping: {e}"))?;
        match json::parse(&pong)
            .ok()
            .and_then(|v| v.get("status").cloned())
        {
            Some(json::Json::Str(s)) if s == "ok" => Ok(()),
            _ => Err(format!("bad ping reply: {pong}")),
        }
    }) else {
        return r;
    };
    let traced = Tracer::new(ctx.traced);
    let off = Tracer::new(false);
    let mut conns = match connect_pair(&server) {
        Ok(conns) => conns,
        Err(e) => {
            r.fail(e);
            return r;
        }
    };

    // A traced run alternates untraced and traced legs: later legs find a
    // fuller cache and spill directory, and the overhead must not carry
    // that order effect.
    let tracers: &[&Tracer] = if ctx.traced {
        &[&off, &traced, &off, &traced]
    } else {
        &[&off]
    };
    let leg = ctx.budget.mul_f64(COLD_SHARE / tracers.len() as f64);
    let mut legs: Vec<ColdLeg> = Vec::new();
    let mut next_key = 0u64;
    let mut counters = Counters::default();
    for tracer in tracers {
        let before = server_stats(&mut conns[0]);
        let cold = cold_leg(ctx.seed, next_key, leg, &mut conns, tracer);
        next_key += cold.keys;
        legs.push(cold);
        match (before, server_stats(&mut conns[0])) {
            (Ok(before), Ok(after)) if tracer.enabled() => counters.add(&before, &after),
            (Ok(_), Ok(_)) => {}
            _ => r.fail("stats command failed"),
        }
    }
    drop(conns);
    let rss_cold = shut(&mut r, server);

    // Restart: a new server on the same spill directory answers one cell
    // of every spilled key.
    let restart_cells: Vec<Cell> = (0..next_key).map(|i| cold_pair(ctx.seed, i)[0]).collect();
    let mut restart: Vec<(Cell, Exchange)> = Vec::new();
    let mut rss_restart = 0.0;
    match launch(ctx, cache, "restart") {
        Err(e) => r.fail(e),
        Ok(server) => {
            match connect_pair(&server) {
                Err(e) => r.fail(e),
                Ok(mut conns) => {
                    let before = server_stats(&mut conns[0]);
                    let out = on_both(&mut conns, |c, conn| {
                        let mine: Vec<Cell> =
                            restart_cells.iter().skip(c).step_by(2).copied().collect();
                        let xs =
                            closed_loop(conn, Instant::now() + Duration::from_secs(120), |i| {
                                mine.get(i as usize).map(|cell| cell.line(i, COLD_SCALE))
                            });
                        xs.into_iter()
                            .filter_map(|x| {
                                let cell = *mine.get(x.seq as usize)?;
                                traced.record(
                                    "server.restart_request",
                                    Some(x.seq),
                                    x.due,
                                    x.latency(),
                                );
                                Some((cell, x))
                            })
                            .collect::<Vec<_>>()
                    });
                    restart = out.into_iter().flatten().collect();
                    if let (Ok(before), Ok(after)) = (before, server_stats(&mut conns[0])) {
                        counters.add(&before, &after);
                    }
                }
            }
            rss_restart = shut(&mut r, server);
        }
    }

    // Every served cell against its in-process cold result; restart
    // answers against the cold leg's.
    let all_cells: Vec<Cell> = legs
        .iter()
        .flat_map(|l| l.pairs.iter().map(|(c, _)| *c))
        .collect();
    let refs = references(&all_cells, COLD_SCALE);
    let expected = expect_from(&refs);
    // Per leg, its good replies.
    let miss: Vec<Vec<&Exchange>> = legs
        .iter()
        .map(|leg| good(&mut r, "cold leg", &leg.pairs, &expected))
        .collect();
    let cold_answer: BTreeMap<Cell, u64> = legs
        .iter()
        .flat_map(|l| &l.pairs)
        .filter_map(|(c, x)| Some((*c, served_cycles(x.reply.as_ref().ok()?, c).ok()?)))
        .collect();
    let restart_lat = tally(&mut r, "restart leg", &restart, &|c| {
        cold_answer.get(c).copied()
    });
    if restart.len() < restart_cells.len() {
        let missing = restart_cells.len() - restart.len();
        r.attempted += missing as u64;
        for _ in 0..missing {
            r.fail("restart leg: request not answered");
        }
    }

    if ctx.traced {
        let last = &legs[legs.len() - 1];
        replay_cold(&mut r, ctx, &traced, last.first, &refs);
        let traced_keys = legs.iter().skip(1).step_by(2).map(|l| l.keys).sum::<u64>();
        counters.report(&mut r, traced_keys as usize);
        // Latencies pooled over the untraced [0] and the traced [1] legs.
        let mut pooled = [Vec::new(), Vec::new()];
        for (k, leg) in miss.iter().enumerate() {
            pooled[k % 2].extend(leg.iter().map(|x| latency_ms(x)));
        }
        overhead(&mut r, median(&pooled[0]), median(&pooled[1]));
        if let (Some(client), Some(warm), Some(tail)) = (
            median(&pooled[1]),
            traced
                .durations()
                .get("service.warm")
                .and_then(|d| median(&secs(d))),
            traced
                .durations()
                .get("service.serve_point")
                .and_then(|d| median(&secs(d))),
        ) {
            r.metric("server.queue_ms", client - (warm + tail) * 1e3, "ms");
        }
        match median(&restart_lat) {
            Some(p50) => r.metric("persist.restart_p50_ms", p50, "ms"),
            None => r.fail("restart leg has no samples"),
        }
        write_trace(&mut r, ctx, "serve-cold", &traced);
    } else {
        let (start, end) = (legs[0].started, legs[0].started + legs[0].wall);
        let done = windows(
            miss[0].iter().map(|x| (x.done, 1.0)),
            start,
            end,
            COLD_WINDOW,
        );
        match rate(&done, COLD_WINDOW) {
            Some(rps) => r.metric("throughput_per_s", rps, "1/s"),
            None => r.fail("no cold window completed"),
        }
        let lat = windows(
            miss[0].iter().map(|x| (x.sent, latency_ms(x))),
            start,
            end,
            COLD_WINDOW,
        );
        window_metric(&mut r, "latency_p50_ms", &lat, 0.5);
        window_metric(&mut r, "latency_p90_ms", &lat, 0.9);
        r.metric("setup_s", setup.as_secs_f64(), "s");
        r.metric("peak_rss_mb", rss_cold.max(rss_restart), "MB");
    }
    r
}

/// What one `serve-cold` leg sent and got back.
struct ColdLeg {
    started: Instant,
    wall: Duration,
    /// The leg asked for keys `first..first + keys`.
    first: u64,
    keys: u64,
    pairs: Vec<(Cell, Exchange)>,
}

/// Sends the pairs of keys `first..` until `leg` has passed: both cells of
/// a key at once, one per connection.
fn cold_leg(
    seed: u64,
    first: u64,
    leg: Duration,
    conns: &mut [Conn; 2],
    tracer: &Tracer,
) -> ColdLeg {
    let deadline = Instant::now() + leg;
    let started = Instant::now();
    let barrier = Barrier::new(2);
    let go = AtomicBool::new(true);
    let stop = AtomicBool::new(false);
    let out = on_both(conns, |c, conn| {
        let mut xs = Vec::new();
        let mut i = first;
        loop {
            if c == 0 {
                go.store(
                    Instant::now() < deadline && !stop.load(Ordering::SeqCst),
                    Ordering::SeqCst,
                );
            }
            barrier.wait();
            if !go.load(Ordering::SeqCst) {
                break;
            }
            let cell = cold_pair(seed, i)[c];
            let sent = Instant::now();
            let reply = conn
                .roundtrip(&cell.line(i, COLD_SCALE))
                .map_err(|e| e.to_string());
            if reply.is_err() {
                stop.store(true, Ordering::SeqCst);
            }
            let x = Exchange {
                seq: i,
                due: sent,
                sent,
                done: Instant::now(),
                reply,
            };
            tracer.record("server.request", Some(i), x.due, x.latency());
            xs.push((cell, x));
            i += 1;
            barrier.wait();
        }
        xs
    });
    ColdLeg {
        started,
        wall: started.elapsed(),
        first,
        keys: out[0].len() as u64,
        pairs: out.into_iter().flatten().collect(),
    }
}

/// The per-layer split of `serve-cold`: the first keys of the traced leg
/// replayed in-process through warm-up, checkpoint, spill store and load,
/// serve and encode, each inner call also timed on its own.
fn replay_cold(
    r: &mut Report,
    ctx: &Ctx,
    tracer: &Tracer,
    first: u64,
    refs: &BTreeMap<Cell, Result<u64, String>>,
) {
    const KEYS: u64 = 6;
    let dir: PathBuf = ctx.scratch.join("replay-spill");
    let disk = match DiskCache::open(&dir) {
        Ok(disk) => disk,
        Err(e) => {
            r.fail(format!("DiskCache::open: {e}"));
            return;
        }
    };
    let cache: WarmCache<WarmState> = WarmCache::new(8);
    let mut kernel = KernelLayer::default();
    let (mut probe_edges, mut warm_edges) = (0u64, 0u64);
    let mut spill_bytes = Vec::new();
    let mut blob_bytes = Vec::new();
    let mut tail_ticks = Vec::new();
    for i in first..first + KEYS {
        let req_id = Some(2_000_000 + i);
        let pair = cold_pair(ctx.seed, i);
        let req = pair[0].request(COLD_SCALE);
        let spec = req.base_spec();
        r.attempted += 1;
        let before = mpsoc_kernel::activity::snapshot();
        let (probe, _) =
            tracer.span_for("service.probe", req_id, || service::probe_warm(&spec, None));
        probe_edges += mpsoc_kernel::activity::snapshot().since(before).edges;
        let before = mpsoc_kernel::activity::snapshot();
        let (warm, _) = tracer.span_for("service.warm", req_id, || service::warm_state(&req));
        warm_edges += mpsoc_kernel::activity::snapshot().since(before).edges;
        let (Ok(probe), Ok(warm)) = (probe, warm) else {
            r.fail(format!("warm-up of key {i} failed"));
            continue;
        };
        if probe != warm.profile {
            r.fail(format!(
                "key {i}: probe_warm disagrees with warm_state's profile"
            ));
        }
        // The checkpoint on its own: run a fresh platform to the boundary.
        if let Ok(mut platform) = build_platform(&spec) {
            platform.sim_mut().run_until(probe.warm_until);
            let (blob, _) =
                tracer.span_for("snapshot.checkpoint", req_id, || platform.checkpoint());
            if blob.as_bytes() != warm.blob.as_bytes() {
                r.fail(format!("key {i}: checkpoint differs from warm_state's"));
            }
            blob_bytes.push(blob.len() as f64);
        }
        let key = req.warm_key();
        tracer.span_for("persist.store", req_id, || disk.store(&key, &warm));
        if let Ok(meta) = std::fs::metadata(disk.path_for(&key)) {
            spill_bytes.push(meta.len() as f64);
        }
        let (loaded, _) =
            tracer.span_for("persist.load", req_id, || disk.load(&key, warm.fingerprint));
        match loaded {
            Some(loaded) if loaded.blob.as_bytes() == warm.blob.as_bytes() => {}
            _ => r.fail(format!("key {i}: spill did not load back the same state")),
        }
        let warm_map = BTreeMap::from([((pair[0].topology, pair[0].seed), warm)]);
        for cell in &pair {
            let replayed = replay_request(
                r,
                tracer,
                req_id,
                cell,
                COLD_SCALE,
                &cache,
                &warm_map,
                &mut kernel,
            );
            if let Some((_, ticks)) = replayed {
                tail_ticks.push(ticks as f64);
            }
            if let Some(Ok(want)) = refs.get(cell) {
                if replayed.map(|(served, _)| served) != Some(*want) {
                    r.fail(format!(
                        "key {i}: replayed {cell:?} disagrees with the reference"
                    ));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    kernel.report(r, tail_ticks.len());
    span_median(r, tracer, "builder.build", "builder.build_us", "us");
    span_median(
        r,
        tracer,
        "snapshot.checkpoint",
        "snapshot.checkpoint_us",
        "us",
    );
    span_median(r, tracer, "snapshot.restore", "snapshot.restore_us", "us");
    r.metric(
        "snapshot.bytes",
        median(&blob_bytes).unwrap_or(0.0),
        "bytes",
    );
    span_median(r, tracer, "service.probe", "service.probe_ms", "ms");
    span_median(r, tracer, "service.warm", "service.warm_ms", "ms");
    r.metric(
        "service.warm_useful_ratio",
        ratio(probe_edges, warm_edges),
        "ratio",
    );
    span_median(r, tracer, "service.tail", "service.tail_ms", "ms");
    r.metric(
        "service.tail_ticks",
        median(&tail_ticks).unwrap_or(0.0),
        "count",
    );
    span_median(r, tracer, "protocol.parse", "protocol.parse_us", "us");
    span_median(r, tracer, "protocol.encode", "protocol.encode_us", "us");
    span_median(r, tracer, "persist.store", "persist.store_ms", "ms");
    span_median(r, tracer, "persist.load", "persist.load_ms", "ms");
    r.metric(
        "persist.bytes",
        median(&spill_bytes).unwrap_or(0.0),
        "bytes",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_yields_the_same_schedule_every_time() {
        assert_eq!(hot_mix(7, 10, 500), hot_mix(7, 10, 500));
        assert_ne!(hot_mix(7, 10, 500), hot_mix(8, 10, 500));
        assert_ne!(hot_mix(7, 10, 500), hot_mix(7, 11, 500));
        for i in 0..200 {
            assert_eq!(cold_pair(7, i), cold_pair(7, i));
        }
    }

    #[test]
    fn hot_mix_covers_every_cell_and_repeats_them() {
        let mix = hot_mix(3, 0, 408);
        for block in mix.chunks(12) {
            let distinct: std::collections::BTreeSet<Cell> = block.iter().copied().collect();
            assert_eq!(distinct.len(), 12, "each block holds every cell once");
        }
        assert!(mix.iter().all(|c| c.seed == HOT_SIM_SEED));
    }

    #[test]
    fn cold_pairs_are_fresh_keys_with_distinct_cells() {
        let mut keys = std::collections::BTreeSet::new();
        for i in 0..100 {
            let [a, b] = cold_pair(11, i);
            assert_eq!((a.topology, a.seed), (b.topology, b.seed));
            assert_ne!(a.wait_states, b.wait_states);
            assert!(keys.insert((a.topology, a.seed)), "key {i} repeats");
        }
    }

    #[test]
    fn request_lines_parse_back_to_the_same_cell() {
        let cell = cold_pair(5, 3)[1];
        let Ok(Command::Simulate(sim)) = wire::parse_command(&cell.line(9, COLD_SCALE)) else {
            panic!("simulate line");
        };
        assert_eq!(sim.req, cell.request(COLD_SCALE));
        assert_eq!(sim.id, 9);
    }

    #[test]
    fn replies_are_checked_for_status_and_cell() {
        let cell = fig4_cells(1)[3];
        let ok = format!(
            r#"{{"id":1,"status":"ok","cache":"hit","base_cycles":5,"points":[{{"wait_states":{},"exec_cycles":77}}],"micros":3}}"#,
            cell.wait_states
        );
        assert_eq!(served_cycles(&ok, &cell), Ok(77));
        let other = ok.replace(
            &format!("\"wait_states\":{}", cell.wait_states),
            "\"wait_states\":999",
        );
        assert!(served_cycles(&other, &cell).is_err());
        assert!(served_cycles(r#"{"id":1,"status":"error","error":"x"}"#, &cell).is_err());
    }
}
