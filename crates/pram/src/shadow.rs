//! Provenance-tracking shadow memory for replaying the *real* algorithms.
//!
//! The shadow memory records only the *provenance* of accesses: every
//! read/write is reported as `(pid, round, phase label, logical cell)`
//! while the values keep living in the ordinary data structures. The
//! production code paths stay untouched — they are made generic over a
//! [`Tracer`] and instantiated with the zero-sized [`NoTrace`] on the fast
//! path (monomorphized to nothing) or with [`ShadowMem`] when the
//! discipline analyzer replays them.
//!
//! A *logical cell* is `(region, index)`, where a [`Region`] names one
//! array-like piece of the structure, e.g. `("aug", node)` for node's
//! augmented catalog or `("query", 0)` for the shared query key. One
//! synchronous round runs from barrier to barrier; conflicts are only
//! checked within a round, which is what the EREW/CREW definitions demand.

use crate::conflict::{Access, Conflict, ConflictKind, RoundLog};
use crate::cost::Model;
use std::collections::{HashMap, HashSet};

/// A named logical address space: `(kind, instance)`, e.g. `("aug", node_id)`.
pub type Region = (&'static str, usize);

/// A logical cell: one slot of a region.
pub type Cell = (&'static str, usize, usize);

/// Access-tracing hook threaded through the real algorithms.
///
/// Every method has a no-op default so the fast path ([`NoTrace`]) costs
/// nothing; implementations override what they need. Call sites guard
/// per-element loops with [`Tracer::live`] so even the loop disappears
/// when tracing is off.
pub trait Tracer {
    /// Whether this tracer records anything. `false` lets call sites skip
    /// whole emission loops.
    #[inline]
    fn live(&self) -> bool {
        false
    }

    /// Label the current algorithm phase (e.g. `"build/merge"`). Stays in
    /// effect until the next call.
    #[inline]
    fn phase(&mut self, _label: &'static str) {}

    /// Record that `pid` read `region[index]` in the current round.
    #[inline]
    fn read(&mut self, _pid: usize, _region: Region, _index: usize) {}

    /// Record that `pid` wrote `region[index]` in the current round.
    #[inline]
    fn write(&mut self, _pid: usize, _region: Region, _index: usize) {}

    /// End the current synchronous round: check it against the model and
    /// start the next one.
    #[inline]
    fn barrier(&mut self) {}
}

/// The zero-overhead tracer: every hook is a no-op and `live()` is `false`,
/// so traced code paths monomorphize back to the plain algorithms.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {}

/// Accumulated statistics for one phase label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Rounds (barriers) that recorded at least one access under this label.
    pub rounds: u64,
    /// Total reads recorded under this label.
    pub reads: u64,
    /// Total writes recorded under this label.
    pub writes: u64,
    /// Max distinct processors reading one cell in one round.
    pub max_readers: usize,
    /// Max distinct processors writing one cell in one round.
    pub max_writers: usize,
}

/// One discipline violation with phase-level blame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowViolation {
    /// Round in which the conflict happened (0-based).
    pub round: u64,
    /// Phase label in effect when the round ended.
    pub phase: &'static str,
    /// The conflicting logical cell.
    pub cell: Cell,
    /// What rule was broken.
    pub kind: ConflictKind,
    /// Every conflicting pid pair (see [`Conflict::pairs`]).
    pub pairs: Vec<(usize, usize)>,
}

/// Deterministic minimal repro of the first violation: enough to replay
/// the offending round in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// Round of the first violation.
    pub round: u64,
    /// Phase label in effect.
    pub phase: &'static str,
    /// The conflicting cell.
    pub cell: Cell,
    /// Sorted distinct pids involved in the conflict.
    pub pids: Vec<usize>,
    /// The cell's ordered access trace in that round.
    pub trace: Vec<(usize, Access)>,
}

/// Provenance-tracking shadow memory implementing [`Tracer`].
#[derive(Debug)]
pub struct ShadowMem {
    model: Model,
    round: u64,
    phase: &'static str,
    log: RoundLog<Cell>,
    violations: Vec<ShadowViolation>,
    repro: Option<Repro>,
    stats: HashMap<&'static str, PhaseStats>,
    dead: HashSet<usize>,
    pending_kills: Vec<(u64, usize)>,
    dropped_dead_accesses: u64,
}

impl ShadowMem {
    /// New shadow memory checking against `model`.
    pub fn new(model: Model) -> Self {
        ShadowMem {
            model,
            round: 0,
            phase: "init",
            log: RoundLog::new(),
            violations: Vec::new(),
            repro: None,
            stats: HashMap::new(),
            dead: HashSet::new(),
            pending_kills: Vec::new(),
            dropped_dead_accesses: 0,
        }
    }

    /// The model this shadow memory checks against.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Current round index (number of barriers so far).
    pub fn round_index(&self) -> u64 {
        self.round
    }

    /// Kill `pid` immediately: its future accesses are dropped (a failed
    /// processor touches nothing).
    pub fn kill(&mut self, pid: usize) {
        self.dead.insert(pid);
    }

    /// Schedule `pid` to die at the start of round `at_round` (0-based),
    /// mirroring `Pram::schedule_failure`.
    pub fn schedule_kill(&mut self, at_round: u64, pid: usize) {
        if at_round <= self.round {
            self.dead.insert(pid);
        } else {
            self.pending_kills.push((at_round, pid));
        }
    }

    /// Pids currently dead.
    pub fn dead_pids(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.dead.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Accesses silently dropped because their pid was dead.
    pub fn dropped_dead_accesses(&self) -> u64 {
        self.dropped_dead_accesses
    }

    /// All violations so far, in detection order (round-major, then
    /// deterministic cell order within a round).
    pub fn violations(&self) -> &[ShadowViolation] {
        &self.violations
    }

    /// Minimal repro of the first violation, if any.
    pub fn repro(&self) -> Option<&Repro> {
        self.repro.as_ref()
    }

    /// Per-phase access statistics, sorted by phase label.
    pub fn phase_stats(&self) -> Vec<(&'static str, PhaseStats)> {
        let mut v: Vec<(&'static str, PhaseStats)> =
            self.stats.iter().map(|(&k, &s)| (k, s)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Finish: flush a trailing unbarriered round, then report whether the
    /// run was clean.
    pub fn finish(&mut self) -> bool {
        if !self.log.is_empty() {
            self.barrier();
        }
        self.violations.is_empty()
    }
}

impl Tracer for ShadowMem {
    #[inline]
    fn live(&self) -> bool {
        true
    }

    fn phase(&mut self, label: &'static str) {
        // A phase switch mid-round would blur blame; flush first.
        if !self.log.is_empty() {
            self.barrier();
        }
        self.phase = label;
        self.stats.entry(label).or_default();
    }

    fn read(&mut self, pid: usize, region: Region, index: usize) {
        if self.dead.contains(&pid) {
            self.dropped_dead_accesses += 1;
            return;
        }
        self.log.read(pid, (region.0, region.1, index));
    }

    fn write(&mut self, pid: usize, region: Region, index: usize) {
        if self.dead.contains(&pid) {
            self.dropped_dead_accesses += 1;
            return;
        }
        self.log.write(pid, (region.0, region.1, index));
    }

    fn barrier(&mut self) {
        if !self.log.is_empty() {
            let stats = self.stats.entry(self.phase).or_default();
            stats.rounds += 1;
            stats.reads += self.log.reads();
            stats.writes += self.log.writes();
            stats.max_readers = stats.max_readers.max(self.log.max_readers());
            stats.max_writers = stats.max_writers.max(self.log.max_writers());

            for Conflict { cell, kind, pairs } in self.log.check(self.model) {
                if self.repro.is_none() {
                    let mut pids: Vec<usize> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
                    pids.sort_unstable();
                    pids.dedup();
                    self.repro = Some(Repro {
                        round: self.round,
                        phase: self.phase,
                        cell,
                        pids,
                        trace: self.log.trace(cell),
                    });
                }
                self.violations.push(ShadowViolation {
                    round: self.round,
                    phase: self.phase,
                    cell,
                    kind,
                    pairs,
                });
            }
            self.log.clear();
        }
        self.round += 1;
        let now = self.round;
        let dead = &mut self.dead;
        self.pending_kills.retain(|&(at, pid)| {
            if at <= now {
                dead.insert(pid);
                false
            } else {
                true
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_erew_round() {
        let mut sh = ShadowMem::new(Model::Erew);
        sh.phase("scatter");
        for pid in 0..8 {
            sh.read(pid, ("in", 0), pid);
            sh.write(pid, ("out", 0), pid);
        }
        sh.barrier();
        assert!(sh.finish());
        let stats = sh.phase_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.rounds, 1);
        assert_eq!(stats[0].1.reads, 8);
        assert_eq!(stats[0].1.max_readers, 1);
    }

    #[test]
    fn violation_carries_phase_blame_and_repro() {
        let mut sh = ShadowMem::new(Model::Erew);
        sh.phase("hop");
        for pid in 0..3 {
            sh.read(pid, ("query", 0), 0);
        }
        sh.barrier();
        assert!(!sh.finish());
        let v = &sh.violations()[0];
        assert_eq!(v.phase, "hop");
        assert_eq!(v.round, 0);
        assert_eq!(v.kind, ConflictKind::ConcurrentRead);
        assert_eq!(v.pairs, vec![(0, 1), (0, 2), (1, 2)]);
        let r = sh.repro().expect("repro");
        assert_eq!(r.pids, vec![0, 1, 2]);
        assert_eq!(r.trace.len(), 3);
        assert_eq!(r.cell, ("query", 0, 0));
    }

    #[test]
    fn crew_allows_shared_reads_but_not_shared_writes() {
        let mut sh = ShadowMem::new(Model::Crew);
        sh.phase("windows");
        for pid in 0..4 {
            sh.read(pid, ("query", 0), 0);
            sh.write(pid, ("res", 0), 0);
        }
        sh.barrier();
        assert!(!sh.finish());
        assert!(sh
            .violations()
            .iter()
            .all(|v| v.kind != ConflictKind::ConcurrentRead));
        assert!(sh
            .violations()
            .iter()
            .any(|v| v.kind == ConflictKind::ConcurrentWrite));
    }

    #[test]
    fn scheduled_kill_drops_accesses() {
        let mut sh = ShadowMem::new(Model::Erew);
        sh.schedule_kill(1, 0);
        sh.phase("work");
        // Round 0: pid 0 still alive; both pids share a cell -> violation.
        sh.read(0, ("x", 0), 0);
        sh.read(1, ("x", 0), 0);
        sh.barrier();
        // Round 1: pid 0 dead; same accesses now clean.
        sh.read(0, ("x", 0), 0);
        sh.read(1, ("x", 0), 0);
        sh.barrier();
        assert_eq!(sh.violations().len(), 1);
        assert_eq!(sh.violations()[0].round, 0);
        assert_eq!(sh.dead_pids(), vec![0]);
        assert_eq!(sh.dropped_dead_accesses(), 1);
    }

    #[test]
    fn phase_switch_flushes_round() {
        let mut sh = ShadowMem::new(Model::Erew);
        sh.phase("a");
        sh.read(0, ("x", 0), 0);
        sh.phase("b"); // implicit barrier: the read belongs to "a"
        sh.read(1, ("x", 0), 0);
        sh.barrier();
        assert!(sh.finish(), "accesses in different rounds never conflict");
        let stats = sh.phase_stats();
        assert_eq!(stats.iter().map(|&(_, s)| s.rounds).sum::<u64>(), 2);
    }
}
