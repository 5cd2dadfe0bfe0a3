//! The violation engine behind [`crate::shadow`].
//!
//! One synchronous PRAM round is a bag of `(pid, access, cell)` records.
//! The engine keeps the full pid *set* per cell (not just one witness, which
//! would mask conflicts — see `tests/pram_discipline.rs`) and reports
//! **every** conflicting pair per cell per round, plus the deterministic
//! access trace of any cell, so a violation can be turned into a minimal
//! repro (round + pid set + ordered cell trace).

use crate::cost::Model;
use std::collections::HashMap;
use std::hash::Hash;

/// The kind of access conflict detected within a single round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConflictKind {
    /// Two or more processors read the same cell (illegal under EREW).
    ConcurrentRead,
    /// Two or more processors wrote the same cell (illegal under EREW/CREW).
    ConcurrentWrite,
    /// A cell was both read and written by *different* processors in the
    /// same round (illegal under EREW/CREW; a processor may read and write
    /// its own cell, because a synchronous step has a read phase and a
    /// write phase).
    ReadWrite,
}

impl ConflictKind {
    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ConflictKind::ConcurrentRead => "concurrent-read",
            ConflictKind::ConcurrentWrite => "concurrent-write",
            ConflictKind::ReadWrite => "read-write",
        }
    }
}

/// Read or write, for access traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The processor read the cell.
    Read,
    /// The processor wrote the cell.
    Write,
}

/// One detected conflict: every offending pid pair on one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict<C> {
    /// The conflicting cell.
    pub cell: C,
    /// What discipline rule the accesses break.
    pub kind: ConflictKind,
    /// Every conflicting pid pair, sorted. For `ReadWrite` the pair is
    /// `(reader, writer)`; for the others it is `(lower pid, higher pid)`.
    pub pairs: Vec<(usize, usize)>,
}

/// Accumulates the accesses of one synchronous round.
#[derive(Debug)]
pub struct RoundLog<C> {
    readers: HashMap<C, Vec<usize>>,
    writers: HashMap<C, Vec<usize>>,
    order: Vec<(usize, Access, C)>,
    reads: u64,
    writes: u64,
}

impl<C: Copy + Eq + Ord + Hash> RoundLog<C> {
    /// Empty log.
    pub fn new() -> Self {
        RoundLog {
            readers: HashMap::new(),
            writers: HashMap::new(),
            order: Vec::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Whether any access was recorded this round.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total reads recorded this round.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes recorded this round.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Record a read of `cell` by `pid`.
    pub fn read(&mut self, pid: usize, cell: C) {
        self.reads += 1;
        push_pid(self.readers.entry(cell).or_default(), pid);
        self.order.push((pid, Access::Read, cell));
    }

    /// Record a write of `cell` by `pid`.
    pub fn write(&mut self, pid: usize, cell: C) {
        self.writes += 1;
        push_pid(self.writers.entry(cell).or_default(), pid);
        self.order.push((pid, Access::Write, cell));
    }

    /// Largest number of distinct processors reading any one cell.
    pub fn max_readers(&self) -> usize {
        self.readers.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Largest number of distinct processors writing any one cell.
    pub fn max_writers(&self) -> usize {
        self.writers.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Check the round against `model`, reporting every conflicting pair of
    /// every conflicting cell in deterministic (cell-sorted) order.
    pub fn check(&self, model: Model) -> Vec<Conflict<C>> {
        let mut out = Vec::new();
        if model == Model::Erew {
            let mut cells: Vec<&C> = self.readers.keys().collect();
            cells.sort();
            for &cell in cells {
                let pids = &self.readers[&cell];
                if pids.len() > 1 {
                    out.push(Conflict {
                        cell,
                        kind: ConflictKind::ConcurrentRead,
                        pairs: all_pairs(pids),
                    });
                }
            }
        }
        if model != Model::Crcw {
            let mut cells: Vec<&C> = self.writers.keys().collect();
            cells.sort();
            for &cell in cells {
                let wpids = &self.writers[&cell];
                if wpids.len() > 1 {
                    out.push(Conflict {
                        cell,
                        kind: ConflictKind::ConcurrentWrite,
                        pairs: all_pairs(wpids),
                    });
                }
                if let Some(rpids) = self.readers.get(&cell) {
                    let mut pairs = Vec::new();
                    for &r in rpids {
                        for &w in wpids {
                            if r != w {
                                pairs.push((r, w));
                            }
                        }
                    }
                    if !pairs.is_empty() {
                        pairs.sort_unstable();
                        out.push(Conflict {
                            cell,
                            kind: ConflictKind::ReadWrite,
                            pairs,
                        });
                    }
                }
            }
        }
        out.sort_by_key(|a| (a.cell, a.kind));
        out
    }

    /// The ordered access trace of `cell` this round — the "cell trace" part
    /// of a minimal repro.
    pub fn trace(&self, cell: C) -> Vec<(usize, Access)> {
        self.order
            .iter()
            .filter(|&&(_, _, c)| c == cell)
            .map(|&(pid, a, _)| (pid, a))
            .collect()
    }

    /// Clear the log for the next round.
    pub fn clear(&mut self) {
        self.readers.clear();
        self.writers.clear();
        self.order.clear();
        self.reads = 0;
        self.writes = 0;
    }
}

impl<C: Copy + Eq + Ord + Hash> Default for RoundLog<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Insert `pid` into a small sorted distinct-pid vector (a processor
/// touching one cell several times in a round is one participant).
fn push_pid(pids: &mut Vec<usize>, pid: usize) {
    if let Err(pos) = pids.binary_search(&pid) {
        pids.insert(pos, pid);
    }
}

/// All unordered pairs of a sorted distinct pid set.
fn all_pairs(pids: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(pids.len() * (pids.len() - 1) / 2);
    for (i, &a) in pids.iter().enumerate() {
        for &b in &pids[i + 1..] {
            out.push((a, b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_every_pair_not_just_one() {
        let mut log = RoundLog::new();
        log.read(0, 7usize);
        log.read(1, 7);
        log.read(2, 7);
        let conflicts = log.check(Model::Erew);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].pairs, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn read_write_masking_is_gone() {
        // The historical bug: readers {1, 2}, writer {2}. A last-pid-wins
        // map records reader = 2 == writer and misses pid 1's conflict.
        let mut log = RoundLog::new();
        log.read(1, 3usize);
        log.read(2, 3);
        log.write(2, 3);
        let conflicts = log.check(Model::Crew);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].kind, ConflictKind::ReadWrite);
        assert_eq!(conflicts[0].pairs, vec![(1, 2)]);
    }

    #[test]
    fn same_pid_read_write_is_legal() {
        let mut log = RoundLog::new();
        log.read(4, 0usize);
        log.write(4, 0);
        assert!(log.check(Model::Erew).is_empty());
    }

    #[test]
    fn duplicate_accesses_by_one_pid_do_not_conflict() {
        let mut log = RoundLog::new();
        log.read(0, 5usize);
        log.read(0, 5);
        assert!(log.check(Model::Erew).is_empty());
        assert_eq!(log.trace(5).len(), 2);
    }

    #[test]
    fn crcw_allows_everything() {
        let mut log = RoundLog::new();
        log.write(0, 1usize);
        log.write(1, 1);
        log.read(2, 1);
        assert!(log.check(Model::Crcw).is_empty());
        assert_eq!(log.check(Model::Crew).len(), 2); // CW + RW
    }
}
