//! The component trait and per-tick context.

use crate::fault::FaultEngine;
use crate::link::{LinkId, LinkPool};
use crate::rng::SplitMix64;
use crate::stats::StatsRegistry;
use crate::time::{Cycles, Time};
use std::fmt;

/// Identifier of a component within a [`Simulation`](crate::Simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// Raw index (registration order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// Everything a component may touch during one clock tick.
///
/// The context borrows the shared [`LinkPool`] (for communication), the
/// [`StatsRegistry`] (for metrics), a deterministic per-simulation RNG and
/// the [`FaultEngine`]. Ticks run serially in registration order, so every
/// write lands directly in the shared state.
pub struct TickContext<'a, T> {
    /// Current simulation time (the instant of this rising edge).
    pub time: Time,
    /// Index of this edge in the component's own clock domain.
    pub cycle: Cycles,
    /// Shared communication links.
    pub links: &'a mut LinkPool<T>,
    /// Shared metric registry.
    pub stats: &'a mut StatsRegistry,
    /// Deterministic pseudo-random source (seeded once per simulation).
    pub rng: &'a mut SplitMix64,
    /// Fault-injection engine (disarmed — and free to probe — by default).
    pub faults: &'a mut FaultEngine,
}

impl<T> fmt::Debug for TickContext<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TickContext")
            .field("time", &self.time)
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

/// A synchronous hardware model ticked on every rising edge of its clock.
///
/// Implementations must be *deterministic*: all state lives in `self`, the
/// links and the registry, and any randomness must come from the context's
/// seeded RNG.
///
/// The payload type `T` is the kind of message carried on links — the
/// platform crates instantiate it with their bus packet type.
///
/// Every component also implements [`Snapshot`](crate::Snapshot) so the
/// kernel can checkpoint and restore complete simulations; stateless
/// components can rely on the trait's no-op defaults
/// (`impl Snapshot for MyComponent {}`).
pub trait Component<T>: crate::snapshot::Snapshot {
    /// Diagnostic name (unique within a simulation by convention).
    fn name(&self) -> &str;

    /// Advances the model by one clock cycle.
    fn tick(&mut self, ctx: &mut TickContext<'_, T>);

    /// Whether the component has no internal work pending.
    ///
    /// A simulation is *quiescent* when every component is idle and every
    /// link is empty; [`Simulation::run_to_quiescence`] uses this to detect
    /// workload completion. Components that are purely reactive can keep the
    /// default `true`.
    ///
    /// # Contract
    ///
    /// The answer may only change **during the component's own
    /// [`tick`](Component::tick)**: the executor caches it between ticks to
    /// keep quiescence checks O(1), so an `is_idle` that flips because of
    /// state mutated elsewhere (e.g. shared interior mutability written by
    /// another component) would be observed late. Deterministic components
    /// whose state lives in `self` satisfy this automatically.
    ///
    /// [`Simulation::run_to_quiescence`]: crate::Simulation::run_to_quiescence
    fn is_idle(&self) -> bool {
        true
    }

    /// Links whose deliveries should wake this component (sparse-ticking
    /// opt-in).
    ///
    /// Returning `Some(links)` enrols the component in the executor's
    /// *active-set* schedule: on edges where the component has no deliverable
    /// payload on any listed link and no due [`next_activity`] deadline, its
    /// [`tick`](Component::tick) is skipped entirely. Returning `None` (the
    /// default) keeps the classic dense behaviour — the component is ticked
    /// on every edge of its clock domain.
    ///
    /// # Contract
    ///
    /// The list must cover **every** link the component pops or peeks during
    /// `tick`. A payload arriving on an unlisted link would not wake the
    /// component, and a skipped tick must be unobservable (see the idle
    /// contract verified by `Simulation::enable_skip_audit`). The answer is
    /// read once at registration and must not change afterwards.
    ///
    /// [`next_activity`]: Component::next_activity
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        None
    }

    /// Earliest future instant at which the component may act *without* any
    /// new deliverable input on its [`watched_links`](Component::watched_links).
    ///
    /// Sparse-ticking components use this to declare internal timers: DRAM
    /// refresh deadlines, inter-arrival think timers, retry/backoff
    /// deadlines, pipeline completion times. `Some(Time::ZERO)` (or any
    /// past instant) means "tick me every edge"; `None` means "purely
    /// reactive — wake me only on link delivery".
    ///
    /// # Contract
    ///
    /// Deadlines may be **conservative-early but never late**: waking a
    /// component before it has anything to do costs a harmless no-op tick,
    /// while a late deadline would diverge from the dense schedule. Like
    /// [`is_idle`](Component::is_idle), the answer may only change during
    /// the component's own tick; the executor re-reads it after every
    /// executed tick (and once after a snapshot restore).
    fn next_activity(&self) -> Option<Time> {
        None
    }

    /// Whether the executor may hand this component whole fast-forward
    /// windows in `Fast { quantum }` gear (see
    /// [`Simulation::set_fidelity`](crate::Simulation::set_fidelity)).
    ///
    /// The default is `false`: non-opted components are advanced by a
    /// conservative kernel-side fallback that replays every edge of the
    /// window through [`tick`](Component::tick) with exact per-edge
    /// contexts (honouring the sparse wake conditions), so fast gear is
    /// always sound by construction — opting in only buys speed.
    ///
    /// # Contract
    ///
    /// An opted-in component's [`fast_forward`](Component::fast_forward)
    /// must advance the component through the window such that a one-edge
    /// window (quantum 1) is byte-identical to a single
    /// [`tick`](Component::tick) — the trait's default body and any
    /// implementation built from [`FastCtx::next_edge`] +
    /// [`FastCtx::sleep_until`] with contractual
    /// ([`next_activity`](Component::next_activity)-grade, never-late)
    /// deadlines satisfy this automatically. The answer is read once at
    /// registration and must not change afterwards.
    ///
    /// [`FastCtx::next_edge`]: crate::FastCtx::next_edge
    /// [`FastCtx::sleep_until`]: crate::FastCtx::sleep_until
    fn fast_forward_safe(&self) -> bool {
        false
    }

    /// Advances the component through one fast-forward window (loosely-timed
    /// gear). Called instead of per-edge [`tick`](Component::tick)s when the
    /// component opts in via
    /// [`fast_forward_safe`](Component::fast_forward_safe).
    ///
    /// The default body replays every edge of the window exactly; override
    /// it to skip certified no-op stretches with
    /// [`FastCtx::sleep_until`](crate::FastCtx::sleep_until) (busy-until
    /// instants, think timers, service completion times) — the source of the
    /// loosely-timed speedup.
    fn fast_forward(&mut self, ctx: &mut crate::FastCtx<'_, T>) {
        while let Some(mut tc) = ctx.next_edge() {
            self.tick(&mut tc);
        }
    }

    /// Pre-registers every metric name the component may create during
    /// ticking. Called once at registration, before the first edge.
    ///
    /// The default is a no-op: lazy registration on first use during a
    /// tick is equally correct. Pre-registering fixes the metric order
    /// up front, independent of which component happens to touch a metric
    /// first.
    ///
    /// # Contract
    ///
    /// Registration order is observable (metric ids index report rows and
    /// checkpoint bytes), so implementations must register names in a
    /// fixed deterministic order, and the executor calls this hook in
    /// component registration order. Pre-registered metrics appear in
    /// reports even when never incremented (as zero rows), so register
    /// exactly the names [`tick`](Component::tick) can create.
    fn register_metrics(&self, stats: &mut StatsRegistry) {
        let _ = stats;
    }

    /// Optional downcasting hook for post-build reconfiguration.
    ///
    /// Components that expose runtime-tunable knobs (e.g. memory wait
    /// states for warm-fork sweeps) override this to return `Some(self)`;
    /// [`Simulation::component_any_mut`](crate::Simulation::component_any_mut)
    /// then lets callers downcast to the concrete type by name.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl crate::snapshot::Snapshot for Nop {}
    impl Component<u8> for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn tick(&mut self, _ctx: &mut TickContext<'_, u8>) {}
    }

    #[test]
    fn default_idle_is_true() {
        assert!(Nop.is_idle());
    }

    #[test]
    fn default_sparse_hints_keep_dense_behaviour() {
        assert!(Nop.watched_links().is_none());
        assert!(Nop.next_activity().is_none());
    }

    #[test]
    fn ids_order_by_registration() {
        assert!(ComponentId(0) < ComponentId(1));
        assert_eq!(ComponentId(3).index(), 3);
        assert_eq!(ComponentId(3).to_string(), "component#3");
    }
}
