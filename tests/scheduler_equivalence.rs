//! Differential determinism harness for the kernel scheduler rework.
//!
//! The clock-domain bucketed executor ([`Simulation`]) must be
//! observationally identical to the pre-bucketing full-scan executor
//! ([`NaiveSimulation`]): same edge times, same `(time, component-index)`
//! tick sequence (i.e. same global registration-order interleaving at
//! every instant), and same quiescence behaviour. These tests drive both
//! executors over randomized clock/component sets and fixed regression
//! platforms and compare the full traces.

use mpsoc_kernel::reference::NaiveSimulation;
use mpsoc_kernel::{ClockDomain, Component, LinkId, RunOutcome, Simulation, TickContext, Time};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Shared tick log: `(time in ps, component registration index)`.
type TickLog = Arc<Mutex<Vec<(u64, u32)>>>;

/// Records every one of its ticks into a shared log.
struct Recorder {
    idx: u32,
    log: TickLog,
}

impl mpsoc_kernel::Snapshot for Recorder {}

impl Component<u64> for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        self.log.lock().unwrap().push((ctx.time.as_ps(), self.idx));
    }
}

/// The clock pool the random cases draw from: a mix of frequencies with
/// repeats (shared domains) and phase offsets (bucket merge paths).
fn clock_pool() -> Vec<ClockDomain> {
    let ns = Time::from_ns;
    vec![
        ClockDomain::from_period(ns(1)),
        ClockDomain::from_period(ns(2)),
        ClockDomain::from_period(ns(2)).with_phase(ns(1)),
        ClockDomain::from_period(ns(3)),
        ClockDomain::from_period(ns(5)).with_phase(ns(2)),
        ClockDomain::from_period(ns(7)),
        ClockDomain::from_period(ns(10)).with_phase(ns(3)),
        ClockDomain::from_period(ns(10)),
    ]
}

/// Builds the same recorder platform on one executor.
macro_rules! build_recorders {
    ($sim:expr, $clock_idxs:expr, $log:expr) => {{
        let pool = clock_pool();
        for (i, &c) in $clock_idxs.iter().enumerate() {
            $sim.add_component(
                Box::new(Recorder {
                    idx: i as u32,
                    log: Arc::clone(&$log),
                }),
                pool[c % pool.len()],
            );
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core differential property: for any random assignment of
    /// components to clock domains, both executors report the same edge
    /// times and produce bit-identical `(time, index)` tick sequences.
    #[test]
    fn bucketed_matches_naive_tick_sequence(
        clock_idxs in prop::collection::vec(0usize..8, 1..32),
        horizon_ns in 50u64..1500,
    ) {
        let horizon = Time::from_ns(horizon_ns);

        let naive_log: TickLog = Arc::new(Mutex::new(Vec::new()));
        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_recorders!(naive, clock_idxs, naive_log);

        let bucketed_log: TickLog = Arc::new(Mutex::new(Vec::new()));
        let mut bucketed: Simulation<u64> = Simulation::new();
        build_recorders!(bucketed, clock_idxs, bucketed_log);

        // Lock-step: the pending edge must agree before every step.
        loop {
            let n = naive.next_edge();
            let b = bucketed.next_edge();
            prop_assert_eq!(n, b);
            match n {
                Some(t) if t <= horizon => {
                    prop_assert_eq!(naive.step(), bucketed.step());
                }
                _ => break,
            }
        }
        prop_assert_eq!(naive.time(), bucketed.time());
        prop_assert_eq!(
            naive_log.lock().unwrap().clone(),
            bucketed_log.lock().unwrap().clone()
        );
    }

    /// `run_until` (the batched driver) agrees with the naive executor on
    /// final time and per-component tick counts.
    #[test]
    fn run_until_matches_naive(
        clock_idxs in prop::collection::vec(0usize..8, 1..24),
        horizon_ns in 50u64..1200,
    ) {
        let horizon = Time::from_ns(horizon_ns);

        let naive_log: TickLog = Arc::new(Mutex::new(Vec::new()));
        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_recorders!(naive, clock_idxs, naive_log);

        let bucketed_log: TickLog = Arc::new(Mutex::new(Vec::new()));
        let mut bucketed: Simulation<u64> = Simulation::new();
        build_recorders!(bucketed, clock_idxs, bucketed_log);

        naive.run_until(horizon);
        bucketed.run_until(horizon);

        prop_assert_eq!(naive.time(), bucketed.time());
        prop_assert_eq!(
            naive_log.lock().unwrap().clone(),
            bucketed_log.lock().unwrap().clone()
        );
    }
}

/// Emits `budget` numbered payloads, one per tick, respecting back-pressure.
struct Producer {
    out: LinkId,
    budget: u64,
    sent: u64,
}

impl mpsoc_kernel::Snapshot for Producer {}

impl Component<u64> for Producer {
    fn name(&self) -> &str {
        "producer"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if self.sent < self.budget && ctx.links.can_push(self.out) {
            ctx.links.push(self.out, ctx.time, self.sent).unwrap();
            self.sent += 1;
        }
    }
    fn is_idle(&self) -> bool {
        self.sent == self.budget
    }
}

/// Pops one payload per tick.
struct Consumer {
    input: LinkId,
    received: u64,
}

impl mpsoc_kernel::Snapshot for Consumer {}

impl Component<u64> for Consumer {
    fn name(&self) -> &str {
        "consumer"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if ctx.links.pop(self.input, ctx.time).is_some() {
            self.received += 1;
        }
    }
}

/// Quiescent time reported by one executor on the producer/consumer
/// platform with the given clocks.
fn quiescent_time_bucketed(prod_clk: ClockDomain, cons_clk: ClockDomain) -> Time {
    let mut sim: Simulation<u64> = Simulation::new();
    let link = sim.links_mut().add_link("pc", 2, prod_clk.period());
    sim.add_component(
        Box::new(Producer {
            out: link,
            budget: 25,
            sent: 0,
        }),
        prod_clk,
    );
    sim.add_component(
        Box::new(Consumer {
            input: link,
            received: 0,
        }),
        cons_clk,
    );
    match sim.run_to_quiescence(Time::from_us(100)) {
        RunOutcome::Quiescent { at } => at,
        RunOutcome::HorizonReached { at } => panic!("bucketed stalled at {at:?}"),
    }
}

/// Same platform on the naive executor.
fn quiescent_time_naive(prod_clk: ClockDomain, cons_clk: ClockDomain) -> Time {
    let mut sim: NaiveSimulation<u64> = NaiveSimulation::new();
    let link = sim.links_mut().add_link("pc", 2, prod_clk.period());
    sim.add_component(
        Box::new(Producer {
            out: link,
            budget: 25,
            sent: 0,
        }),
        prod_clk,
    );
    sim.add_component(
        Box::new(Consumer {
            input: link,
            received: 0,
        }),
        cons_clk,
    );
    match sim.run_to_quiescence(Time::from_us(100)) {
        RunOutcome::Quiescent { at } => at,
        RunOutcome::HorizonReached { at } => panic!("naive stalled at {at:?}"),
    }
}

/// Regression: the O(1) incremental quiescence check stops the bucketed
/// executor at exactly the instant the naive full-scan check stops, on the
/// canonical single-clock producer/consumer platform.
#[test]
fn quiescence_time_matches_on_producer_consumer() {
    let clk = ClockDomain::from_mhz(100);
    let naive = quiescent_time_naive(clk, clk);
    let bucketed = quiescent_time_bucketed(clk, clk);
    assert_eq!(naive, bucketed);
    assert!(bucketed > Time::ZERO);
}

/// Regression: same property across clock domains (fast producer, slow
/// phase-shifted consumer), where quiescence is reached on a consumer edge
/// that is not a producer edge.
#[test]
fn quiescence_time_matches_across_clock_domains() {
    let prod = ClockDomain::from_mhz(200);
    let cons = ClockDomain::from_mhz(66).with_phase(Time::from_ns(3));
    let naive = quiescent_time_naive(prod, cons);
    let bucketed = quiescent_time_bucketed(prod, cons);
    assert_eq!(naive, bucketed);
    assert!(bucketed > Time::ZERO);
}

/// Components registered while the simulation is mid-run join the timeline
/// identically on both executors.
#[test]
fn mid_run_registration_is_equivalent() {
    let pool = clock_pool();
    let naive_log: TickLog = Arc::new(Mutex::new(Vec::new()));
    let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
    let bucketed_log: TickLog = Arc::new(Mutex::new(Vec::new()));
    let mut bucketed: Simulation<u64> = Simulation::new();

    for (i, clk) in [pool[0], pool[3]].into_iter().enumerate() {
        naive.add_component(
            Box::new(Recorder {
                idx: i as u32,
                log: Arc::clone(&naive_log),
            }),
            clk,
        );
        bucketed.add_component(
            Box::new(Recorder {
                idx: i as u32,
                log: Arc::clone(&bucketed_log),
            }),
            clk,
        );
    }
    naive.run_until(Time::from_ns(10));
    bucketed.run_until(Time::from_ns(10));

    // A latecomer on an already-populated domain and one on a fresh domain.
    for (i, clk) in [pool[0], pool[6]].into_iter().enumerate() {
        let idx = (2 + i) as u32;
        naive.add_component(
            Box::new(Recorder {
                idx,
                log: Arc::clone(&naive_log),
            }),
            clk,
        );
        bucketed.add_component(
            Box::new(Recorder {
                idx,
                log: Arc::clone(&bucketed_log),
            }),
            clk,
        );
    }
    naive.run_until(Time::from_ns(40));
    bucketed.run_until(Time::from_ns(40));

    assert_eq!(naive.time(), bucketed.time());
    assert_eq!(*naive_log.lock().unwrap(), *bucketed_log.lock().unwrap());
}

/// Observation log for the sparse differential tests:
/// `(time in ps, consumer index, payload)`.
type ObsLog = Arc<Mutex<Vec<(u64, u32, u64)>>>;

/// A sparse-opted-in producer: pushes one payload then sleeps `gap` of its
/// own cycles, advertising the next issue instant through `next_activity`.
/// When the link is full at the deadline the deadline stays in the past, so
/// the producer retries every edge exactly like the dense schedule.
struct PacedProducer {
    out: LinkId,
    period: Time,
    gap: u64,
    budget: u64,
    sent: u64,
    next_at: Time,
}

impl mpsoc_kernel::Snapshot for PacedProducer {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        w.write_u64(self.sent);
        w.write_time(self.next_at);
    }
    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        self.sent = r.read_u64();
        self.next_at = r.read_time();
    }
}

impl Component<u64> for PacedProducer {
    fn name(&self) -> &str {
        "paced-producer"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if self.sent < self.budget && ctx.time >= self.next_at && ctx.links.can_push(self.out) {
            ctx.links.push(self.out, ctx.time, self.sent).unwrap();
            self.sent += 1;
            self.next_at = ctx.time + self.period * self.gap;
        }
    }
    fn is_idle(&self) -> bool {
        self.sent == self.budget
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(Vec::new()) // pops nothing; purely timer-driven
    }
    fn next_activity(&self) -> Option<Time> {
        (self.sent < self.budget).then_some(self.next_at)
    }
}

/// A sparse-opted-in consumer: wakes only when its watched link delivers,
/// logging every `(time, index, payload)` it pops.
struct WatchingConsumer {
    input: LinkId,
    idx: u32,
    received: u64,
    log: ObsLog,
}

impl mpsoc_kernel::Snapshot for WatchingConsumer {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        w.write_u64(self.received);
    }
    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        self.received = r.read_u64();
    }
}

impl Component<u64> for WatchingConsumer {
    fn name(&self) -> &str {
        "watching-consumer"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if let Some(v) = ctx.links.pop(self.input, ctx.time) {
            self.received += 1;
            self.log
                .lock()
                .unwrap()
                .push((ctx.time.as_ps(), self.idx, v));
        }
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.input])
    }
}

/// Builds the paced producer/consumer pairs on one executor (works for
/// both `Simulation` and `NaiveSimulation`, which share the API shape).
macro_rules! build_paced {
    ($sim:expr, $pairs:expr, $log:expr) => {{
        let pool = clock_pool();
        for (i, &(pc, cc, gap, budget, cap)) in $pairs.iter().enumerate() {
            let prod_clk = pool[pc % pool.len()];
            let cons_clk = pool[cc % pool.len()];
            let link = $sim
                .links_mut()
                .add_link(&format!("pair{i}"), cap, prod_clk.period());
            $sim.add_component(
                Box::new(PacedProducer {
                    out: link,
                    period: prod_clk.period(),
                    gap,
                    budget,
                    sent: 0,
                    next_at: Time::ZERO,
                }),
                prod_clk,
            );
            $sim.add_component(
                Box::new(WatchingConsumer {
                    input: link,
                    idx: i as u32,
                    received: 0,
                    log: Arc::clone(&$log),
                }),
                cons_clk,
            );
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse ticking differential: for random paced producer/consumer
    /// platforms with components opted into the active-set scheduler, the
    /// sparse executor produces the same observation log and final time as
    /// the always-tick naive oracle AND the dense bucketed executor, never
    /// executes more ticks than dense, and checkpoints to byte-identical
    /// blobs (the snapshot format excludes schedule-derived state).
    #[test]
    fn sparse_matches_naive_and_dense_on_paced_pairs(
        pairs in prop::collection::vec(
            (0usize..8, 0usize..8, 0u64..40, 1u64..25, 1usize..4),
            1..5,
        ),
        horizon_ns in 100u64..2000,
    ) {
        let horizon = Time::from_ns(horizon_ns);

        let naive_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_paced!(naive, pairs, naive_log);

        let sparse_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut sparse: Simulation<u64> = Simulation::new();
        sparse.set_dense(false);
        build_paced!(sparse, pairs, sparse_log);

        let dense_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut dense: Simulation<u64> = Simulation::new();
        dense.set_dense(true);
        build_paced!(dense, pairs, dense_log);

        naive.run_until(horizon);
        sparse.run_until(horizon);
        dense.run_until(horizon);

        prop_assert_eq!(naive.time(), sparse.time());
        prop_assert_eq!(dense.time(), sparse.time());
        prop_assert_eq!(naive_log.lock().unwrap().clone(), sparse_log.lock().unwrap().clone());
        prop_assert_eq!(dense_log.lock().unwrap().clone(), sparse_log.lock().unwrap().clone());
        prop_assert!(sparse.ticks_executed() <= dense.ticks_executed());
        let sparse_blob = sparse.checkpoint();
        let dense_blob = dense.checkpoint();
        prop_assert_eq!(sparse_blob.as_bytes(), dense_blob.as_bytes());
    }
}

/// Regression pinning the actual saving: with a long think gap the sparse
/// executor must do strictly less work than dense while producing the same
/// observations and an identical checkpoint.
#[test]
fn sparse_skips_most_ticks_on_long_gaps() {
    let pairs = [(0usize, 7usize, 50u64, 10u64, 2usize)];

    let sparse_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
    let mut sparse: Simulation<u64> = Simulation::new();
    sparse.set_dense(false);
    build_paced!(sparse, pairs, sparse_log);

    let dense_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
    let mut dense: Simulation<u64> = Simulation::new();
    dense.set_dense(true);
    build_paced!(dense, pairs, dense_log);

    let horizon = Time::from_us(2);
    sparse.run_until(horizon);
    dense.run_until(horizon);

    assert_eq!(*sparse_log.lock().unwrap(), *dense_log.lock().unwrap());
    assert_eq!(
        sparse_log.lock().unwrap().len(),
        10,
        "all payloads delivered"
    );
    let sparse_blob = sparse.checkpoint();
    let dense_blob = dense.checkpoint();
    assert_eq!(sparse_blob.as_bytes(), dense_blob.as_bytes());
    assert!(
        sparse.ticks_executed() * 4 < dense.ticks_executed(),
        "long gaps must be slept through: sparse {} vs dense {}",
        sparse.ticks_executed(),
        dense.ticks_executed()
    );
}

// ---------------------------------------------------------------------------
// Forwarding chains, armed faults and gear shifts
// ---------------------------------------------------------------------------
//
// Store-and-forward chains that register metrics, emit traces and probe the
// fault injector. The contract is *byte identity*: the bucketed executor
// agrees with the naive oracle, and the sparse schedule agrees with the
// dense one — same final time, same stats tables, same trace, same
// checkpoint bytes, same fault accounting.

use mpsoc_kernel::stats::CounterId;
use mpsoc_kernel::{FaultKind, FaultSchedule, Fidelity, StatsRegistry, TraceKind};

/// A forwarder: pops its input, pushes `payload + 1`, counts forwards and
/// emits a trace record.
struct Hop {
    name: String,
    rx: LinkId,
    tx: LinkId,
    forwarded: u64,
    counter: Option<CounterId>,
}

impl mpsoc_kernel::Snapshot for Hop {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        w.write_u64(self.forwarded);
    }
    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        self.forwarded = r.read_u64();
    }
}

impl Component<u64> for Hop {
    fn name(&self) -> &str {
        &self.name
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        let counter = match self.counter {
            Some(c) => c,
            None => {
                let c = ctx.stats.counter(&format!("{}.forwarded", self.name));
                self.counter = Some(c);
                c
            }
        };
        if ctx.links.can_push(self.tx) {
            if let Some(v) = ctx.links.pop(self.rx, ctx.time) {
                ctx.links.push(self.tx, ctx.time, v + 1).unwrap();
                ctx.stats.inc(counter, 1);
                let name = &self.name;
                ctx.stats
                    .emit_trace(ctx.time, name, TraceKind::Forward, || format!("fwd {v}"));
                self.forwarded += 1;
            }
        }
    }
    fn is_idle(&self) -> bool {
        true // drains on demand; quiescence comes from empty links
    }
}

/// A fault-probing hop: probes the injector for every popped payload,
/// dropping hits (recorded lost) and forwarding the rest. Its metrics are
/// pre-registered through [`Component::register_metrics`].
struct FaultyHop {
    name: String,
    rx: LinkId,
    tx: LinkId,
    forwarded: u64,
    dropped: u64,
}

impl mpsoc_kernel::Snapshot for FaultyHop {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        w.write_u64(self.forwarded);
        w.write_u64(self.dropped);
    }
    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        self.forwarded = r.read_u64();
        self.dropped = r.read_u64();
    }
}

impl Component<u64> for FaultyHop {
    fn name(&self) -> &str {
        &self.name
    }
    fn register_metrics(&self, stats: &mut StatsRegistry) {
        stats.counter(&format!("{}.forwarded", self.name));
        stats.counter(&format!("{}.dropped", self.name));
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if ctx.links.can_push(self.tx) {
            if let Some(v) = ctx.links.pop(self.rx, ctx.time) {
                if ctx.faults.probe(FaultKind::LinkDrop) {
                    ctx.faults.record_lost(1);
                    let c = ctx.stats.counter(&format!("{}.dropped", self.name));
                    ctx.stats.inc(c, 1);
                    self.dropped += 1;
                } else {
                    ctx.links.push(self.tx, ctx.time, v + 1).unwrap();
                    let c = ctx.stats.counter(&format!("{}.forwarded", self.name));
                    ctx.stats.inc(c, 1);
                    self.forwarded += 1;
                }
            }
        }
    }
    fn is_idle(&self) -> bool {
        true
    }
}

/// Builds producer → faulty-hop → faulty-hop → consumer chains on one
/// executor (works for both `Simulation` and `NaiveSimulation`).
macro_rules! build_faulty_chains {
    ($sim:expr, $chains:expr) => {{
        let pool = clock_pool();
        for (i, &(pc, hc, budget, cap)) in $chains.iter().enumerate() {
            let prod_clk = pool[pc % pool.len()];
            let hop_clk = pool[hc % pool.len()];
            let a = $sim
                .links_mut()
                .add_link(&format!("fch{i}.a"), cap, prod_clk.period());
            let b = $sim
                .links_mut()
                .add_link(&format!("fch{i}.b"), cap, hop_clk.period());
            let c = $sim
                .links_mut()
                .add_link(&format!("fch{i}.c"), cap, hop_clk.period());
            $sim.add_component(
                Box::new(Producer {
                    out: a,
                    budget,
                    sent: 0,
                }),
                prod_clk,
            );
            $sim.add_component(
                Box::new(FaultyHop {
                    name: format!("fch{i}.h0"),
                    rx: a,
                    tx: b,
                    forwarded: 0,
                    dropped: 0,
                }),
                hop_clk,
            );
            $sim.add_component(
                Box::new(FaultyHop {
                    name: format!("fch{i}.h1"),
                    rx: b,
                    tx: c,
                    forwarded: 0,
                    dropped: 0,
                }),
                hop_clk,
            );
            $sim.add_component(
                Box::new(Consumer {
                    input: c,
                    received: 0,
                }),
                hop_clk,
            );
        }
    }};
}

/// Builds producer → hop → hop → consumer chains on one executor (works for
/// both `Simulation` and `NaiveSimulation`).
macro_rules! build_hop_chains {
    ($sim:expr, $chains:expr) => {{
        let pool = clock_pool();
        for (i, &(pc, hc, budget, cap)) in $chains.iter().enumerate() {
            let prod_clk = pool[pc % pool.len()];
            let hop_clk = pool[hc % pool.len()];
            let a = $sim
                .links_mut()
                .add_link(&format!("ch{i}.a"), cap, prod_clk.period());
            let b = $sim
                .links_mut()
                .add_link(&format!("ch{i}.b"), cap, hop_clk.period());
            let c = $sim
                .links_mut()
                .add_link(&format!("ch{i}.c"), cap, hop_clk.period());
            $sim.add_component(
                Box::new(Producer {
                    out: a,
                    budget,
                    sent: 0,
                }),
                prod_clk,
            );
            $sim.add_component(
                Box::new(Hop {
                    name: format!("ch{i}.h0"),
                    rx: a,
                    tx: b,
                    forwarded: 0,
                    counter: None,
                }),
                hop_clk,
            );
            $sim.add_component(
                Box::new(Hop {
                    name: format!("ch{i}.h1"),
                    rx: b,
                    tx: c,
                    forwarded: 0,
                    counter: None,
                }),
                hop_clk,
            );
            $sim.add_component(
                Box::new(Consumer {
                    input: c,
                    received: 0,
                }),
                hop_clk,
            );
        }
    }};
}

/// Runs one bucketed executor to `horizon_ns` and fingerprints everything
/// the paper pipeline consumes: final time, checkpoint bytes, rendered stats
/// table and trace dump. With a `quantum`, the run shifts gear mid-way: the
/// first third cycle-accurate, the middle third fast-forwarded at that
/// quantum, the rest cycle-accurate again. All executors in one comparison
/// get the same gear schedule, so the fingerprint must match regardless of
/// sparse/dense scheduling.
fn fingerprint(
    sim: &mut Simulation<u64>,
    horizon_ns: u64,
    quantum: Option<u64>,
) -> (Time, Vec<u8>, String, String) {
    sim.stats_mut().trace_mut().enable(512);
    match quantum {
        None => {
            sim.run_until(Time::from_ns(horizon_ns));
        }
        Some(q) => {
            sim.run_until(Time::from_ns(horizon_ns / 3));
            sim.set_fidelity(Fidelity::Fast { quantum: q });
            sim.run_until(Time::from_ns(2 * horizon_ns / 3));
            sim.set_fidelity(Fidelity::Cycle);
            sim.run_until(Time::from_ns(horizon_ns));
        }
    }
    let at = sim.time();
    let report = sim.stats().report(at).to_string();
    let trace = sim.stats().trace().dump();
    (at, sim.checkpoint().as_bytes().to_vec(), report, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random forwarding-chain platforms, the bucketed executor agrees
    /// with the naive full-scan oracle.
    #[test]
    fn hop_chains_match_naive(
        chains in prop::collection::vec((0usize..8, 0usize..8, 1u64..25, 1usize..4), 1..5),
        horizon_ns in 100u64..1500,
    ) {
        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_hop_chains!(naive, chains);
        naive.run_until(Time::from_ns(horizon_ns));
        let naive_report = naive.stats().report(naive.time()).to_string();

        let mut sim: Simulation<u64> = Simulation::new();
        build_hop_chains!(sim, chains);
        let (at, _, report, _) = fingerprint(&mut sim, horizon_ns, None);

        prop_assert_eq!(naive.time(), at);
        prop_assert_eq!(&naive_report, &report);
    }

    /// Armed fault injection: per-origin probe streams make the bucketed
    /// executor agree with the naive oracle on tables and fault counts.
    #[test]
    fn armed_fault_runs_match_naive(
        chains in prop::collection::vec((0usize..8, 0usize..8, 1u64..20, 1usize..4), 1..4),
        seed in any::<u64>(),
        rate in 0u32..5000,
        horizon_ns in 100u64..1200,
    ) {
        let schedule = FaultSchedule::uniform(rate, seed);

        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_faulty_chains!(naive, chains);
        naive.faults_mut().arm(schedule);
        naive.run_until(Time::from_ns(horizon_ns));
        let naive_report = naive.stats().report(naive.time()).to_string();
        let naive_counts = naive.faults_mut().counts();

        let mut sim: Simulation<u64> = Simulation::new();
        build_faulty_chains!(sim, chains);
        sim.faults_mut().arm(schedule);
        let (at, _, report, _) = fingerprint(&mut sim, horizon_ns, None);

        prop_assert_eq!(naive.time(), at);
        prop_assert_eq!(&naive_report, &report);
        prop_assert_eq!(naive_counts, sim.faults().counts());
    }

    /// Compound differential: sparse scheduling, armed faults and an
    /// optional mid-run gear shift all composed at once must stay
    /// byte-identical to the dense run, and (when no gear shift is
    /// involved) agree with the naive oracle.
    #[test]
    fn sparse_fault_gear_composition_matches_dense(
        pairs in prop::collection::vec(
            (0usize..8, 0usize..8, 0u64..40, 1u64..25, 1usize..4),
            1..4,
        ),
        chains in prop::collection::vec((0usize..8, 0usize..8, 1u64..20, 1usize..4), 1..4),
        seed in any::<u64>(),
        rate in 0u32..5000,
        quantum in prop::option::of(2u64..6),
        horizon_ns in 300u64..1500,
    ) {
        let schedule = FaultSchedule::uniform(rate, seed);

        let dense_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut dense: Simulation<u64> = Simulation::new();
        dense.set_dense(true);
        build_paced!(dense, pairs, dense_log);
        build_faulty_chains!(dense, chains);
        dense.faults_mut().arm(schedule);
        let (dense_at, dense_blob, dense_report, dense_trace) =
            fingerprint(&mut dense, horizon_ns, quantum);

        if quantum.is_none() {
            // The naive oracle has no gear box, so it is compared only on
            // pure cycle-accurate runs.
            let naive_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
            let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
            build_paced!(naive, pairs, naive_log);
            build_faulty_chains!(naive, chains);
            naive.faults_mut().arm(schedule);
            naive.run_until(Time::from_ns(horizon_ns));
            prop_assert_eq!(naive.time(), dense_at);
            prop_assert_eq!(
                &naive.stats().report(naive.time()).to_string(),
                &dense_report
            );
            prop_assert_eq!(
                naive_log.lock().unwrap().clone(),
                dense_log.lock().unwrap().clone()
            );
        }

        let log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut sim: Simulation<u64> = Simulation::new();
        sim.set_dense(false);
        build_paced!(sim, pairs, log);
        build_faulty_chains!(sim, chains);
        sim.faults_mut().arm(schedule);
        let (at, blob, report, trace) = fingerprint(&mut sim, horizon_ns, quantum);
        prop_assert_eq!(dense_at, at);
        prop_assert_eq!(&dense_report, &report);
        prop_assert_eq!(&dense_trace, &trace);
        prop_assert_eq!(&dense_blob, &blob);
        prop_assert_eq!(
            dense_log.lock().unwrap().clone(),
            log.lock().unwrap().clone()
        );
        prop_assert_eq!(dense.faults().counts(), sim.faults().counts());
    }
}
