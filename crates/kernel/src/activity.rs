//! Process-wide kernel activity counters.
//!
//! Every [`Simulation::step`](crate::Simulation::step) (and its
//! [`reference`](crate::reference) counterpart) records the edge, the number
//! of component ticks it executed and the number it skipped (sparse ticking)
//! into relaxed atomics. Harness code (the `repro` binary, microbenches)
//! snapshots them around a workload to report host-side throughput —
//! `edges/sec` and simulated ticks/sec — and the ticked/skipped split,
//! without threading handles through every experiment's plumbing.
//!
//! The counters are global and monotonically increasing; meaningful rates
//! come from **differences between snapshots**, which are valid even when
//! several simulations run concurrently on different threads (the deltas
//! then aggregate all of them).
//!
//! # Examples
//!
//! ```
//! use mpsoc_kernel::activity;
//!
//! let before = activity::snapshot();
//! // ... run simulations ...
//! let delta = activity::snapshot().since(before);
//! println!("{} edges, {} ticks, {} skipped", delta.edges, delta.ticks, delta.skipped);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

static EDGES: AtomicU64 = AtomicU64::new(0);
static TICKS: AtomicU64 = AtomicU64::new(0);
static SKIPPED: AtomicU64 = AtomicU64::new(0);
static FF_WINDOWS: AtomicU64 = AtomicU64::new(0);
static FF_ELIDED: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the global activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivitySnapshot {
    /// Total edges processed by all simulations in this process so far.
    pub edges: u64,
    /// Total component ticks executed by all simulations so far.
    pub ticks: u64,
    /// Total component ticks *skipped* by the sparse active-set schedule
    /// (components asleep on an edge their clock domain fired).
    pub skipped: u64,
    /// Fast-forward windows processed in the loosely-timed gear (one per
    /// component per scheduling batch that was not skipped whole).
    pub ff_windows: u64,
    /// Component cycles covered by fast-forward windows but *not* executed:
    /// elided by `FastCtx::sleep_until` or the fallback's runnability seeks.
    /// The loosely-timed gear's saving, in ticks.
    pub ff_elided: u64,
}

impl ActivitySnapshot {
    /// The activity that happened between `earlier` and `self`.
    pub fn since(self, earlier: ActivitySnapshot) -> ActivitySnapshot {
        ActivitySnapshot {
            edges: self.edges.wrapping_sub(earlier.edges),
            ticks: self.ticks.wrapping_sub(earlier.ticks),
            skipped: self.skipped.wrapping_sub(earlier.skipped),
            ff_windows: self.ff_windows.wrapping_sub(earlier.ff_windows),
            ff_elided: self.ff_elided.wrapping_sub(earlier.ff_elided),
        }
    }
}

/// Reads the current counter values.
pub fn snapshot() -> ActivitySnapshot {
    ActivitySnapshot {
        edges: EDGES.load(Ordering::Relaxed),
        ticks: TICKS.load(Ordering::Relaxed),
        skipped: SKIPPED.load(Ordering::Relaxed),
        ff_windows: FF_WINDOWS.load(Ordering::Relaxed),
        ff_elided: FF_ELIDED.load(Ordering::Relaxed),
    }
}

/// Records one processed edge that executed `ticks` component ticks and
/// skipped `skipped` sleeping ones.
#[inline]
pub(crate) fn record_edge(ticks: u64, skipped: u64) {
    EDGES.fetch_add(1, Ordering::Relaxed);
    TICKS.fetch_add(ticks, Ordering::Relaxed);
    if skipped != 0 {
        SKIPPED.fetch_add(skipped, Ordering::Relaxed);
    }
}

/// Records one fast-gear scheduling batch: `windows` component windows
/// processed, of which `elided` covered cycles were slept or seeked over
/// instead of executed.
#[inline]
pub(crate) fn record_fast(windows: u64, elided: u64) {
    if windows != 0 {
        FF_WINDOWS.fetch_add(windows, Ordering::Relaxed);
    }
    if elided != 0 {
        FF_ELIDED.fetch_add(elided, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate() {
        let before = snapshot();
        record_edge(3, 1);
        record_edge(2, 0);
        let delta = snapshot().since(before);
        // Other tests may run concurrently, so >=, not ==.
        assert!(delta.edges >= 2);
        assert!(delta.ticks >= 5);
        assert!(delta.skipped >= 1);
    }
}
