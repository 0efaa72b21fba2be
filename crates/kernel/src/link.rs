//! Timed, bounded, point-to-point FIFO links.
//!
//! Links are the only communication mechanism between components. They model
//! a registered hardware queue: a payload pushed at time *t* becomes visible
//! (peekable/poppable) at *t + latency*, and the slot it occupies is reserved
//! from the moment of the push, so producers observe cycle-accurate
//! back-pressure.

use crate::error::{SimError, SimResult};
use crate::time::Time;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a [`Link`] within a [`LinkPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// Raw index (for diagnostics and stable ordering).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

/// Aggregated activity statistics of one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Total payloads ever pushed.
    pub pushes: u64,
    /// Total payloads ever popped.
    pub pops: u64,
    /// Maximum instantaneous occupancy observed.
    pub max_occupancy: usize,
    /// Integral of occupancy over time (payload·ps); divide by elapsed time
    /// for the mean queue length.
    pub occupancy_integral: u128,
}

/// A single bounded, timed FIFO.
#[derive(Debug)]
pub struct Link<T> {
    name: String,
    capacity: usize,
    latency: Time,
    queue: VecDeque<(Time, T)>,
    stats: LinkStats,
    last_change: Time,
}

impl<T> Link<T> {
    fn new(name: String, capacity: usize, latency: Time) -> Self {
        Link {
            name,
            capacity,
            latency,
            queue: VecDeque::with_capacity(capacity.min(64)),
            stats: LinkStats::default(),
            last_change: Time::ZERO,
        }
    }

    /// The link's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Transport latency applied to each payload.
    pub fn latency(&self) -> Time {
        self.latency
    }

    /// Current number of occupied slots (including in-flight payloads).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the link holds no payloads at all.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether the link is full (no slot for a new push).
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    fn integrate(&mut self, now: Time) {
        let dt = now.saturating_sub(self.last_change).as_ps() as u128;
        self.stats.occupancy_integral += dt * self.queue.len() as u128;
        self.last_change = self.last_change.max(now);
    }

    fn head_ready(&self, now: Time) -> bool {
        self.queue.front().is_some_and(|(at, _)| *at <= now)
    }
}

/// Owner of every link in a simulation.
///
/// Components hold [`LinkId`]s and access payloads through the pool borrowed
/// from their [`TickContext`](crate::TickContext).
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{LinkPool, Time};
///
/// let mut pool: LinkPool<u32> = LinkPool::new();
/// let l = pool.add_link("req", 2, Time::from_ns(4));
/// assert!(pool.can_push(l));
/// pool.push(l, Time::ZERO, 7)?;
/// // Not deliverable before the latency elapses.
/// assert!(pool.peek(l, Time::from_ns(3)).is_none());
/// assert_eq!(pool.pop(l, Time::from_ns(4)), Some(7));
/// # Ok::<(), mpsoc_kernel::SimError>(())
/// ```
#[derive(Debug)]
pub struct LinkPool<T> {
    links: Vec<Link<T>>,
    /// Maintained count of payloads queued across all links, so quiescence
    /// checks are O(1) instead of a scan (updated on every push and pop).
    queued: usize,
    /// Extra admission slots granted on every link beyond its physical
    /// capacity — the loosely-timed gear's bandwidth-based contention
    /// approximation. Within a fast window only one component runs at a
    /// time, so a consumer that would have drained the wire concurrently
    /// cannot; the slack (quantum − 1, i.e. the payloads a one-per-cycle
    /// consumer could have accepted during the window) keeps producers from
    /// being throttled to `capacity` payloads per window. Zero in
    /// [`Fidelity::Cycle`](crate::Fidelity) gear and at `quantum = 1`, so
    /// the cycle-accurate contract is exact. Derived from the gear — never
    /// serialized, untouched by restore.
    slack: usize,
    /// `watchers[link] = slots to wake when a payload is pushed onto it`
    /// (sparse-ticking wake-on-delivery). Indexed lazily: links registered
    /// after the last `watch` call simply have no watchers yet.
    watchers: Vec<Vec<u32>>,
    /// `wakes[slot] = earliest pending delivery instant (ps) across the
    /// slot's watched links`, `u64::MAX` when nothing is pending. Never
    /// serialized — derived state, recomputed from the queues on restore.
    wakes: Vec<u64>,
}

impl<T> LinkPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        LinkPool {
            links: Vec::new(),
            queued: 0,
            watchers: Vec::new(),
            wakes: Vec::new(),
            slack: 0,
        }
    }

    /// Sets the admission slack applied on top of every link's capacity
    /// (the fast gear's occupancy-based contention approximation). The
    /// executor keeps this equal to `quantum − 1` while the fast gear is
    /// engaged and resets it to zero on a shift to cycle gear; queues left
    /// over-full by a downshift simply refuse further pushes until they
    /// drain below their physical capacity.
    pub(crate) fn set_slack(&mut self, slack: usize) {
        self.slack = slack;
    }

    /// Registers a new link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity queue can never carry a
    /// payload and always indicates a wiring bug).
    pub fn add_link(&mut self, name: impl Into<String>, capacity: usize, latency: Time) -> LinkId {
        assert!(capacity > 0, "link capacity must be at least 1");
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link::new(name.into(), capacity, latency));
        id
    }

    /// Number of registered links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no links are registered.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Immutable access to a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    pub fn link(&self, id: LinkId) -> &Link<T> {
        &self.links[id.index()]
    }

    /// Whether a push would currently succeed.
    pub fn can_push(&self, id: LinkId) -> bool {
        let link = &self.links[id.index()];
        link.queue.len() < link.capacity.saturating_add(self.slack)
    }

    /// Pushes a payload, to be delivered at `now + latency`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LinkFull`] if no slot is free. Callers that model
    /// back-pressure should check [`LinkPool::can_push`] first; an error here
    /// is normally a component bug.
    pub fn push(&mut self, id: LinkId, now: Time, payload: T) -> SimResult<()> {
        self.push_after(id, now, Time::ZERO, payload)
    }

    /// Pushes a payload with an additional transfer delay: delivery happens
    /// at `now + latency + extra`.
    ///
    /// Bus models use this for multi-cycle channel occupancies (e.g. a write
    /// burst whose data beats take several cycles to cross the channel). The
    /// slot is still reserved immediately.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LinkFull`] if no slot is free.
    pub fn push_after(&mut self, id: LinkId, now: Time, extra: Time, payload: T) -> SimResult<()> {
        let slack = self.slack;
        let link = &mut self.links[id.index()];
        if link.queue.len() >= link.capacity.saturating_add(slack) {
            return Err(SimError::LinkFull { link: id });
        }
        link.integrate(now);
        let deliver = now + link.latency + extra;
        // Insert in delivery-time order (stable for equal times). Producers
        // with multi-cycle transfer occupancies (e.g. the independent AXI
        // write-data and read-address channels feeding one target) may
        // legally complete a later push earlier; the wire presents payloads
        // in arrival order.
        let pos = link.queue.partition_point(|(t, _)| *t <= deliver);
        link.queue.insert(pos, (deliver, payload));
        link.stats.pushes += 1;
        link.stats.max_occupancy = link.stats.max_occupancy.max(link.queue.len());
        self.queued += 1;
        // Wake-on-delivery: lower every watcher's wake to this delivery
        // instant so a sleeping destination is ticked no later than the edge
        // on which the payload becomes deliverable.
        if let Some(watchers) = self.watchers.get(id.index()) {
            let at = deliver.as_ps();
            for &slot in watchers {
                let wake = &mut self.wakes[slot as usize];
                if at < *wake {
                    *wake = at;
                }
            }
        }
        Ok(())
    }

    /// Registers `slot` as a wake-on-delivery watcher of `id` (sparse
    /// ticking). Any payload already queued on the link lowers the slot's
    /// wake immediately.
    pub(crate) fn watch(&mut self, id: LinkId, slot: u32) {
        if self.watchers.len() < self.links.len() {
            self.watchers.resize(self.links.len(), Vec::new());
        }
        if self.wakes.len() <= slot as usize {
            self.wakes.resize(slot as usize + 1, u64::MAX);
        }
        let list = &mut self.watchers[id.index()];
        if !list.contains(&slot) {
            list.push(slot);
        }
        if let Some((at, _)) = self.links[id.index()].queue.front() {
            let wake = &mut self.wakes[slot as usize];
            *wake = (*wake).min(at.as_ps());
        }
    }

    /// Earliest pending delivery (ps) across the slot's watched links, or
    /// `u64::MAX` if nothing is pending. May be conservative-early (a stale
    /// low value only causes a harmless no-op tick); never late, because
    /// every push lowers it and only [`recompute_wake`](Self::recompute_wake)
    /// raises it.
    #[inline]
    pub(crate) fn wake_of(&self, slot: u32) -> u64 {
        self.wakes.get(slot as usize).copied().unwrap_or(u64::MAX)
    }

    /// Re-derives a slot's wake from the current queue heads of its watched
    /// links. Called after each executed tick of the slot's component (which
    /// may have popped payloads) and after a snapshot restore.
    pub(crate) fn recompute_wake(&mut self, slot: u32, watched: &[LinkId]) {
        let mut wake = u64::MAX;
        for id in watched {
            if let Some((at, _)) = self.links[id.index()].queue.front() {
                wake = wake.min(at.as_ps());
            }
        }
        if self.wakes.len() <= slot as usize {
            self.wakes.resize(slot as usize + 1, u64::MAX);
        }
        self.wakes[slot as usize] = wake;
    }

    /// Earliest queued delivery (ps) across `watched` links, or `u64::MAX`
    /// if all queues are empty. Same derivation as
    /// [`recompute_wake`](Self::recompute_wake), without storing it — used
    /// by the fast-forward window executor, whose in-window wake state is
    /// transient.
    #[inline]
    pub(crate) fn earliest_head(&self, watched: &[LinkId]) -> u64 {
        let mut wake = u64::MAX;
        for id in watched {
            if let Some((at, _)) = self.links[id.index()].queue.front() {
                wake = wake.min(at.as_ps());
            }
        }
        wake
    }

    /// Earliest queued delivery (ps) across `watched` links that lands
    /// *strictly after* `t_ps`, or `u64::MAX` if none. Queues are ordered by
    /// delivery time, so each link is a binary search. This is the
    /// "new-input" wake used by [`FastCtx::sleep_until`](crate::FastCtx):
    /// payloads already deliverable at `t_ps` were visible to the component
    /// when it chose to sleep and must not rouse it again.
    pub(crate) fn earliest_head_after(&self, watched: &[LinkId], t_ps: u64) -> u64 {
        let mut wake = u64::MAX;
        for id in watched {
            let queue = &self.links[id.index()].queue;
            let pos = queue.partition_point(|(at, _)| at.as_ps() <= t_ps);
            if let Some((at, _)) = queue.get(pos) {
                wake = wake.min(at.as_ps());
            }
        }
        wake
    }

    /// Peeks the head payload if it has been delivered by `now`.
    pub fn peek(&self, id: LinkId, now: Time) -> Option<&T> {
        let link = &self.links[id.index()];
        link.queue
            .front()
            .and_then(|(at, p)| (*at <= now).then_some(p))
    }

    /// Whether a deliverable payload is available at `now`.
    pub fn has_deliverable(&self, id: LinkId, now: Time) -> bool {
        self.links[id.index()].head_ready(now)
    }

    /// Pops the head payload if it has been delivered by `now`.
    pub fn pop(&mut self, id: LinkId, now: Time) -> Option<T> {
        let link = &mut self.links[id.index()];
        if !link.head_ready(now) {
            return None;
        }
        link.integrate(now);
        let (_, payload) = link.queue.pop_front().expect("head checked above");
        link.stats.pops += 1;
        self.queued -= 1;
        Some(payload)
    }

    /// Total payloads currently queued across all links (used for quiescence
    /// detection). O(1): the count is maintained on every push and pop.
    pub fn total_queued(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.scan_queued(),
            "maintained queued counter diverged from the per-link scan"
        );
        self.queued
    }

    /// Total queued payloads computed by scanning every link — the naive
    /// O(links) formulation, kept for the reference scheduler and for
    /// validating the maintained counter.
    pub fn scan_queued(&self) -> usize {
        self.links.iter().map(|l| l.queue.len()).sum()
    }

    /// Iterates over `(id, link)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, &Link<T>)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }
}

impl<T: crate::snapshot::SnapshotPayload> LinkPool<T> {
    /// Serializes every link's queue contents and statistics for a
    /// simulation checkpoint. Structural attributes (name, capacity,
    /// latency) are not written — the restore target is rebuilt with the
    /// same wiring and only validated against them.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::StateWriter) {
        w.write_usize(self.links.len());
        for link in &self.links {
            w.write_usize(link.queue.len());
            for (deliver, payload) in &link.queue {
                w.write_time(*deliver);
                payload.save_payload(w);
            }
            w.write_u64(link.stats.pushes);
            w.write_u64(link.stats.pops);
            w.write_usize(link.stats.max_occupancy);
            w.write_u128(link.stats.occupancy_integral);
            w.write_time(link.last_change);
        }
    }

    /// Restores link state saved by [`save_state`](Self::save_state) and
    /// recomputes the maintained `queued` counter.
    pub(crate) fn restore_state(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
        let n = r.read_usize();
        debug_assert_eq!(n, self.links.len(), "link count validated by fingerprint");
        for link in self.links.iter_mut().take(n) {
            link.queue.clear();
            let depth = r.read_usize();
            for _ in 0..depth {
                let deliver = r.read_time();
                let payload = T::restore_payload(r);
                link.queue.push_back((deliver, payload));
            }
            link.stats.pushes = r.read_u64();
            link.stats.pops = r.read_u64();
            link.stats.max_occupancy = r.read_usize();
            link.stats.occupancy_integral = r.read_u128();
            link.last_change = r.read_time();
        }
        self.queued = self.scan_queued();
    }
}

impl<T> Default for LinkPool<T> {
    fn default() -> Self {
        LinkPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> LinkPool<u32> {
        LinkPool::new()
    }

    #[test]
    fn delivery_respects_latency() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::from_ns(5));
        p.push(l, Time::from_ns(10), 42).unwrap();
        assert!(p.peek(l, Time::from_ns(14)).is_none());
        assert!(!p.has_deliverable(l, Time::from_ns(14)));
        assert_eq!(p.peek(l, Time::from_ns(15)), Some(&42));
        assert_eq!(p.pop(l, Time::from_ns(15)), Some(42));
        assert!(p.pop(l, Time::from_ns(20)).is_none());
    }

    #[test]
    fn capacity_reserved_at_push() {
        let mut p = pool();
        let l = p.add_link("l", 2, Time::from_ns(100));
        p.push(l, Time::ZERO, 1).unwrap();
        p.push(l, Time::ZERO, 2).unwrap();
        // Slots are taken even though nothing is deliverable yet.
        assert!(!p.can_push(l));
        assert_eq!(
            p.push(l, Time::ZERO, 3),
            Err(SimError::LinkFull { link: l })
        );
        // Popping frees a slot.
        assert_eq!(p.pop(l, Time::from_ns(100)), Some(1));
        assert!(p.can_push(l));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut p = pool();
        let l = p.add_link("l", 8, Time::from_ns(1));
        for i in 0..5 {
            p.push(l, Time::from_ns(i), i as u32).unwrap();
        }
        for i in 0..5 {
            assert_eq!(p.pop(l, Time::from_ns(100)), Some(i));
        }
    }

    #[test]
    fn stats_track_activity() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::ZERO);
        p.push(l, Time::ZERO, 1).unwrap();
        p.push(l, Time::ZERO, 2).unwrap();
        p.pop(l, Time::from_ns(10)).unwrap();
        let s = p.link(l).stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.pops, 1);
        assert_eq!(s.max_occupancy, 2);
        // 2 payloads for 10 ns = 20_000 payload·ps.
        assert_eq!(s.occupancy_integral, 20_000);
    }

    #[test]
    fn total_queued_counts_everything() {
        let mut p = pool();
        let a = p.add_link("a", 4, Time::ZERO);
        let b = p.add_link("b", 4, Time::from_ns(50));
        p.push(a, Time::ZERO, 1).unwrap();
        p.push(b, Time::ZERO, 2).unwrap();
        assert_eq!(p.total_queued(), 2);
        p.pop(a, Time::ZERO).unwrap();
        assert_eq!(p.total_queued(), 1);
    }

    #[test]
    fn earlier_delivery_overtakes_later_one() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::from_ns(1));
        // A slow transfer pushed first, a fast one pushed second.
        p.push_after(l, Time::ZERO, Time::from_ns(10), 1).unwrap();
        p.push_after(l, Time::from_ns(2), Time::ZERO, 2).unwrap();
        assert_eq!(p.pop(l, Time::from_ns(3)), Some(2));
        assert_eq!(p.pop(l, Time::from_ns(3)), None);
        assert_eq!(p.pop(l, Time::from_ns(11)), Some(1));
    }

    #[test]
    fn push_after_adds_transfer_delay() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::from_ns(2));
        p.push_after(l, Time::from_ns(10), Time::from_ns(6), 9)
            .unwrap();
        assert!(p.peek(l, Time::from_ns(17)).is_none());
        assert_eq!(p.pop(l, Time::from_ns(18)), Some(9));
    }

    #[test]
    fn watchers_track_earliest_pending_delivery() {
        let mut p = pool();
        let a = p.add_link("a", 4, Time::from_ns(5));
        let b = p.add_link("b", 4, Time::from_ns(1));
        p.watch(a, 0);
        p.watch(b, 0);
        assert_eq!(p.wake_of(0), u64::MAX);
        p.push(a, Time::ZERO, 1).unwrap(); // deliverable at 5 ns
        assert_eq!(p.wake_of(0), 5_000);
        p.push(b, Time::ZERO, 2).unwrap(); // deliverable at 1 ns
        assert_eq!(p.wake_of(0), 1_000);
        p.pop(b, Time::from_ns(1)).unwrap();
        p.recompute_wake(0, &[a, b]);
        assert_eq!(p.wake_of(0), 5_000);
        p.pop(a, Time::from_ns(5)).unwrap();
        p.recompute_wake(0, &[a, b]);
        assert_eq!(p.wake_of(0), u64::MAX);
    }

    #[test]
    fn watch_sees_payloads_already_queued() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::from_ns(3));
        p.push(l, Time::ZERO, 9).unwrap();
        p.watch(l, 2);
        assert_eq!(p.wake_of(2), 3_000);
        // Slots never registered have no pending wake.
        assert_eq!(p.wake_of(0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let mut p = pool();
        let _ = p.add_link("bad", 0, Time::ZERO);
    }
}
