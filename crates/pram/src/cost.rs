//! Step-synchronous PRAM cost model.
//!
//! The paper's complexity claims are statements about the number of
//! synchronous parallel steps taken by `p` processors. This module provides
//! an accounting object, [`Pram`], that algorithms thread through their
//! execution. Each *round* of the algorithm — a phase in which some number
//! of unit operations could run concurrently — is charged with
//! [`Pram::round`]; the model converts it to steps by Brent's scheduling
//! principle: `ops` independent unit operations on `p` processors take
//! `ceil(ops / p)` steps. Strictly sequential phases are charged with
//! [`Pram::seq`].
//!
//! The model deliberately counts *unit operations*, not wall-clock time:
//! a comparison, a pointer dereference, and an index computation each cost
//! one op. Constant factors therefore differ from any concrete machine, but
//! asymptotic shapes — the subject of every theorem in the paper — are
//! measured exactly.

/// PRAM memory-access discipline.
///
/// The discipline does not change how costs are *counted* (steps are steps in
/// all three models); it is carried along so that reports and the
/// [`crate::shadow`] checker know which discipline an algorithm claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Exclusive read, exclusive write. The paper's preprocessing bound
    /// (`O(log n)` time, `n/log n` processors) is stated for EREW.
    Erew,
    /// Concurrent read, exclusive write. Cooperative search (Theorem 1) and
    /// point location (Theorem 4) are CREW algorithms.
    Crew,
    /// Concurrent read, concurrent write. Used only for indirect retrieval
    /// (Theorem 6, part 2).
    Crcw,
}

impl Model {
    /// Human-readable name, matching the paper's usage.
    pub fn name(self) -> &'static str {
        match self {
            Model::Erew => "EREW",
            Model::Crew => "CREW",
            Model::Crcw => "CRCW",
        }
    }
}

/// Cost accumulator for a PRAM computation with a fixed processor count.
///
/// # Example
///
/// ```
/// use fc_pram::{Model, Pram};
///
/// let mut pram = Pram::new(4, Model::Crew);
/// pram.round(16); // 16 independent ops on 4 processors: 4 steps
/// pram.seq(3);    // 3 sequential ops: 3 steps
/// assert_eq!(pram.steps(), 7);
/// assert_eq!(pram.work(), 19);
/// ```
#[derive(Debug, Clone)]
pub struct Pram {
    p: usize,
    alive: usize,
    pending: Vec<(u64, usize)>,
    model: Model,
    steps: u64,
    work: u64,
    rounds: u64,
    peak: usize,
}

impl Pram {
    /// Create a cost model for `p >= 1` processors under `model`.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize, model: Model) -> Self {
        assert!(p >= 1, "a PRAM needs at least one processor");
        Pram {
            p,
            alive: p,
            pending: Vec::new(),
            model,
            steps: 0,
            work: 0,
            rounds: 0,
            peak: 0,
        }
    }

    /// The number of processors currently alive. Equals the provisioned
    /// count until [`Pram::kill`] or a scheduled failure fires; degraded-mode
    /// algorithms re-read this between rounds and re-schedule (Brent) onto
    /// the survivors.
    #[inline]
    pub fn processors(&self) -> usize {
        self.alive
    }

    /// The processor count this model was created with, before any failures.
    #[inline]
    pub fn provisioned(&self) -> usize {
        self.p
    }

    /// Fail `n` processors immediately. The count may reach zero, in which
    /// case subsequent rounds are charged as if one (phantom) processor were
    /// left; algorithms that care must check [`Pram::processors`] and report
    /// `NoProcessors` themselves.
    pub fn kill(&mut self, n: usize) {
        self.alive = self.alive.saturating_sub(n);
    }

    /// Schedule `count` processors to fail just before round `at_round`
    /// (rounds are numbered from 0 in charge order). Used by fault plans to
    /// kill processors mid-search deterministically.
    pub fn schedule_failure(&mut self, at_round: u64, count: usize) {
        self.pending.push((at_round, count));
    }

    /// Fire every scheduled failure whose round has arrived.
    fn apply_pending_failures(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let now = self.rounds;
        let mut killed = 0usize;
        self.pending.retain(|&(at, n)| {
            if at <= now {
                killed += n;
                false
            } else {
                true
            }
        });
        self.alive = self.alive.saturating_sub(killed);
    }

    /// The access discipline this computation claims to obey.
    #[inline]
    pub fn model(&self) -> Model {
        self.model
    }

    /// Charge one synchronous round consisting of `ops` unit operations that
    /// could all execute concurrently. Costs `ceil(ops / p)` steps (Brent
    /// scheduling) and `ops` work. A round of zero ops is free.
    #[inline]
    pub fn round(&mut self, ops: usize) {
        self.apply_pending_failures();
        if ops == 0 {
            return;
        }
        let p = self.alive.max(1);
        self.steps += ops.div_ceil(p) as u64;
        self.work += ops as u64;
        self.rounds += 1;
        self.peak = self.peak.max(ops.min(p));
    }

    /// Charge `ops` strictly sequential unit operations (one processor).
    #[inline]
    pub fn seq(&mut self, ops: usize) {
        self.steps += ops as u64;
        self.work += ops as u64;
        if ops > 0 {
            self.peak = self.peak.max(1);
        }
    }

    /// Parallel steps accumulated so far. This is the quantity the paper's
    /// theorems bound, e.g. `O((log n)/log p)` for Theorem 1.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total unit operations (work) accumulated so far.
    #[inline]
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Number of charged rounds.
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Largest number of processors simultaneously busy in any single step.
    #[inline]
    pub fn peak_parallelism(&self) -> usize {
        self.peak
    }

    /// Fork a fresh counter with the same processor count and model, for a
    /// computation branch that runs *concurrently* with others. Combine the
    /// branches back with [`Pram::join_max`].
    pub fn fork(&self) -> Pram {
        Pram::new(self.p, self.model)
    }

    /// Join concurrently executed branches: elapsed steps are the maximum
    /// over branches (they ran at the same time), work is the sum.
    ///
    /// This models the common pattern "split the p processors into groups,
    /// each group handles one branch". The caller is responsible for the
    /// branches having used an appropriate share of processors (typically by
    /// forking counters with a smaller `p` via [`Pram::with_processors`]).
    pub fn join_max(&mut self, branches: impl IntoIterator<Item = Pram>) {
        let mut max_steps = 0u64;
        for b in branches {
            max_steps = max_steps.max(b.steps);
            self.work += b.work;
            self.peak = self.peak.max(b.peak);
            self.rounds += b.rounds;
        }
        self.steps += max_steps;
    }

    /// A fresh counter with a different processor count (used when dividing
    /// the machine into processor groups, as in Theorem 2's subpath groups).
    pub fn with_processors(&self, p: usize) -> Pram {
        Pram::new(p, self.model)
    }

    /// Snapshot the counters into a plain report value.
    pub fn report(&self) -> PramReport {
        PramReport {
            processors: self.p,
            model: self.model,
            steps: self.steps,
            work: self.work,
            rounds: self.rounds,
            peak_parallelism: self.peak,
        }
    }
}

/// Immutable snapshot of a [`Pram`]'s counters, convenient for tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PramReport {
    /// Processor count the computation was charged against.
    pub processors: usize,
    /// Claimed access discipline.
    pub model: Model,
    /// Parallel steps (the paper's "time").
    pub steps: u64,
    /// Total unit operations.
    pub work: u64,
    /// Number of synchronous rounds.
    pub rounds: u64,
    /// Peak per-step processor usage.
    pub peak_parallelism: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_uses_brent_scheduling() {
        let mut pram = Pram::new(4, Model::Crew);
        pram.round(4);
        assert_eq!(pram.steps(), 1);
        pram.round(5);
        assert_eq!(pram.steps(), 3); // ceil(5/4) = 2 more
        pram.round(1);
        assert_eq!(pram.steps(), 4);
        assert_eq!(pram.work(), 10);
        assert_eq!(pram.rounds(), 3);
    }

    #[test]
    fn zero_ops_round_is_free() {
        let mut pram = Pram::new(8, Model::Erew);
        pram.round(0);
        assert_eq!(pram.steps(), 0);
        assert_eq!(pram.rounds(), 0);
        assert_eq!(pram.peak_parallelism(), 0);
    }

    #[test]
    fn seq_charges_one_step_per_op() {
        let mut pram = Pram::new(64, Model::Crew);
        pram.seq(10);
        assert_eq!(pram.steps(), 10);
        assert_eq!(pram.work(), 10);
        assert_eq!(pram.peak_parallelism(), 1);
    }

    #[test]
    fn single_processor_round_equals_seq() {
        let mut a = Pram::new(1, Model::Crew);
        let mut b = Pram::new(1, Model::Crew);
        a.round(17);
        b.seq(17);
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.work(), b.work());
    }

    #[test]
    fn peak_parallelism_is_capped_by_p() {
        let mut pram = Pram::new(4, Model::Crew);
        pram.round(100);
        assert_eq!(pram.peak_parallelism(), 4);
    }

    #[test]
    fn join_max_takes_slowest_branch() {
        let mut main = Pram::new(8, Model::Crew);
        main.seq(1);
        let mut b1 = main.with_processors(4);
        let mut b2 = main.with_processors(4);
        b1.round(40); // 10 steps on 4 procs
        b2.round(8); // 2 steps
        main.join_max([b1, b2]);
        assert_eq!(main.steps(), 1 + 10);
        assert_eq!(main.work(), 1 + 40 + 8);
    }

    #[test]
    fn report_snapshots_counters() {
        let mut pram = Pram::new(2, Model::Crcw);
        pram.round(3);
        let r = pram.report();
        assert_eq!(r.processors, 2);
        assert_eq!(r.model, Model::Crcw);
        assert_eq!(r.steps, 2);
        assert_eq!(r.work, 3);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let _ = Pram::new(0, Model::Crew);
    }

    #[test]
    fn kill_degrades_round_charging() {
        let mut pram = Pram::new(8, Model::Crew);
        pram.round(16); // 2 steps on 8
        pram.kill(6);
        assert_eq!(pram.processors(), 2);
        assert_eq!(pram.provisioned(), 8);
        pram.round(16); // 8 steps on the 2 survivors
        assert_eq!(pram.steps(), 2 + 8);
    }

    #[test]
    fn kill_saturates_at_zero_and_rounds_still_charge() {
        let mut pram = Pram::new(4, Model::Crew);
        pram.kill(100);
        assert_eq!(pram.processors(), 0);
        pram.round(5); // charged as one phantom processor
        assert_eq!(pram.steps(), 5);
    }

    #[test]
    fn scheduled_failures_fire_at_round_boundaries() {
        let mut pram = Pram::new(8, Model::Crew);
        pram.schedule_failure(1, 4); // fire before the second charged round
        pram.round(8); // round 0: 8 procs -> 1 step
        assert_eq!(pram.processors(), 8);
        pram.round(8); // round 1: failure fires first -> 4 procs -> 2 steps
        assert_eq!(pram.processors(), 4);
        assert_eq!(pram.steps(), 1 + 2);
    }

    #[test]
    fn model_names_match_paper() {
        assert_eq!(Model::Erew.name(), "EREW");
        assert_eq!(Model::Crew.name(), "CREW");
        assert_eq!(Model::Crcw.name(), "CRCW");
    }
}
