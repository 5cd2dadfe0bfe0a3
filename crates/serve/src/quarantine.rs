//! Quarantine circuit breaker over audit-blamed subtree regions.
//!
//! When the background auditor finds structural corruption it *opens* the
//! breaker with the set of blamed arena nodes. While open, queries whose
//! root-to-leaf path touches a blamed node are not trusted to the
//! certified descent: they are answered by the degraded per-node binary
//! search over the native catalogs (authoritative under the fault model),
//! or rejected if degraded reads are disabled. Queries that avoid the
//! blamed region keep using the fast path.
//!
//! After the auditor repairs and republishes, the breaker moves to
//! *half-open*: most quarantined-path queries stay degraded, but every
//! `probe_every`-th one is sent through the certified descent as a
//! probe. `close_after` consecutive probe successes close the breaker and
//! clear the node set; any probe failure re-opens it.
//!
//! State machine: `Closed → Open → HalfOpen → {Closed | Open}`.

use fc_catalog::NodeId;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::SeqCst};
use std::sync::RwLock;

/// Circuit-breaker state (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// No active quarantine; all queries take the cooperative path.
    Closed,
    /// Corruption blamed and not yet repaired: quarantined paths degrade.
    Open,
    /// Repair published; probes trickle through the cooperative path.
    HalfOpen,
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// The quarantine set plus breaker state. All methods are `&self` and
/// thread-safe; the hot-path check is one atomic load when closed.
pub struct Quarantine {
    state: AtomicU8,
    nodes: RwLock<BTreeSet<u32>>,
    probe_counter: AtomicU64,
    probe_successes: AtomicU64,
    probe_every: u64,
    close_after: u64,
    opens: AtomicU64,
}

impl Quarantine {
    /// A closed breaker. In half-open state every `probe_every`-th
    /// quarantined-path query probes the cooperative path, and
    /// `close_after` consecutive probe successes close the breaker.
    pub fn new(probe_every: u64, close_after: u64) -> Self {
        Quarantine {
            state: AtomicU8::new(CLOSED),
            nodes: RwLock::new(BTreeSet::new()),
            probe_counter: AtomicU64::new(0),
            probe_successes: AtomicU64::new(0),
            probe_every: probe_every.max(1),
            close_after: close_after.max(1),
            opens: AtomicU64::new(0),
        }
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        match self.state.load(SeqCst) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// The quarantined arena nodes (snapshot, sorted).
    pub fn nodes(&self) -> Vec<u32> {
        self.nodes
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .copied()
            .collect()
    }

    /// Times the breaker transitioned into `Open` (including re-opens).
    pub fn opens(&self) -> u64 {
        self.opens.load(SeqCst)
    }

    /// The first quarantined node on `path`, if the breaker is not closed
    /// and the path touches the quarantine set. One atomic load when
    /// closed; a shared-lock set lookup otherwise.
    pub fn quarantined_on_path(&self, path: &[NodeId]) -> Option<u32> {
        if self.state.load(SeqCst) == CLOSED {
            return None;
        }
        let nodes = self.nodes.read().unwrap_or_else(|p| p.into_inner());
        if nodes.is_empty() {
            return None;
        }
        path.iter().map(|id| id.0).find(|v| nodes.contains(v))
    }

    /// Open the breaker over `blamed` (adds to any existing set).
    pub fn open(&self, blamed: impl IntoIterator<Item = u32>) {
        {
            let mut nodes = self.nodes.write().unwrap_or_else(|p| p.into_inner());
            nodes.extend(blamed);
        }
        self.probe_successes.store(0, SeqCst);
        self.state.store(OPEN, SeqCst);
        self.opens.fetch_add(1, SeqCst);
    }

    /// Move `Open → HalfOpen` (called after a repair is published). No-op
    /// in other states.
    pub fn half_open(&self) {
        let _ = self.state.compare_exchange(OPEN, HALF_OPEN, SeqCst, SeqCst);
        self.probe_successes.store(0, SeqCst);
    }

    /// In half-open state, decide whether this quarantined-path query is a
    /// probe (true for every `probe_every`-th call). Always false
    /// otherwise.
    pub fn take_probe_ticket(&self) -> bool {
        if self.state.load(SeqCst) != HALF_OPEN {
            return false;
        }
        self.probe_counter
            .fetch_add(1, SeqCst)
            .is_multiple_of(self.probe_every)
    }

    /// Record a successful probe; returns `true` if this success closed
    /// the breaker (and cleared the quarantine set).
    pub fn record_probe_success(&self) -> bool {
        if self.state.load(SeqCst) != HALF_OPEN {
            return false;
        }
        let ok = self.probe_successes.fetch_add(1, SeqCst) + 1;
        if ok < self.close_after {
            return false;
        }
        let mut nodes = self.nodes.write().unwrap_or_else(|p| p.into_inner());
        nodes.clear();
        self.state.store(CLOSED, SeqCst);
        true
    }

    /// Record a failed probe: back to fully open.
    pub fn record_probe_failure(&self) {
        self.probe_successes.store(0, SeqCst);
        let was = self.state.swap(OPEN, SeqCst);
        if was != OPEN {
            self.opens.fetch_add(1, SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn closed_breaker_never_flags_paths() {
        let q = Quarantine::new(4, 2);
        assert_eq!(q.state(), BreakerState::Closed);
        assert_eq!(q.quarantined_on_path(&path(&[1, 2, 3])), None);
        assert!(!q.take_probe_ticket());
    }

    #[test]
    fn open_flags_only_touching_paths() {
        let q = Quarantine::new(4, 2);
        q.open([5, 9]);
        assert_eq!(q.state(), BreakerState::Open);
        assert_eq!(q.quarantined_on_path(&path(&[1, 5, 7])), Some(5));
        assert_eq!(q.quarantined_on_path(&path(&[1, 2, 3])), None);
        assert!(!q.take_probe_ticket(), "no probes while fully open");
    }

    #[test]
    fn probes_close_after_enough_successes() {
        let q = Quarantine::new(1, 3); // every call is a probe
        q.open([5]);
        q.half_open();
        assert_eq!(q.state(), BreakerState::HalfOpen);
        assert!(q.take_probe_ticket());
        assert!(!q.record_probe_success());
        assert!(!q.record_probe_success());
        assert!(q.record_probe_success(), "third success closes");
        assert_eq!(q.state(), BreakerState::Closed);
        assert!(q.nodes().is_empty());
        assert_eq!(q.quarantined_on_path(&path(&[5])), None);
    }

    #[test]
    fn probe_failure_reopens_and_resets_progress() {
        let q = Quarantine::new(1, 2);
        q.open([5]);
        q.half_open();
        assert!(!q.record_probe_success());
        q.record_probe_failure();
        assert_eq!(q.state(), BreakerState::Open);
        assert_eq!(q.opens(), 2);
        q.half_open();
        assert!(!q.record_probe_success(), "progress was reset");
        assert!(q.record_probe_success());
    }

    #[test]
    fn probe_ticket_cadence() {
        let q = Quarantine::new(4, 100);
        q.open([1]);
        q.half_open();
        let probes = (0..12).filter(|_| q.take_probe_ticket()).count();
        assert_eq!(probes, 3, "every 4th call probes");
    }
}
