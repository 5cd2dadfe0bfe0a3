//! Access-discipline checks: the paper claims specific PRAM models for its
//! algorithms (EREW preprocessing, CREW search, CRCW only for indirect
//! retrieval). These tests execute the *round structure* of representative
//! algorithm phases against the shadow memory and assert the claimed
//! discipline is respected. Values live in plain arrays; every round
//! reports its accesses through the [`Tracer`] hooks and ends at a
//! `barrier()`, where the round is checked against the model.

use fc_pram::conflict::ConflictKind;
use fc_pram::{Model, Region, ShadowMem, Tracer};

/// The flat shared memory the rounds below address.
const MEM: Region = ("mem", 0);

/// EREW parallel merge by rank computation: each of the n output slots is
/// written by exactly one processor, and each processor reads only its own
/// element plus disjoint probe cells when ranks are precomputed — modelled
/// here as the final scatter round of the level-synchronous cascade build.
#[test]
fn erew_merge_scatter_round_is_clean() {
    let a: Vec<i64> = (0..64).map(|i| 2 * i).collect();
    let b: Vec<i64> = (0..64).map(|i| 2 * i + 1).collect();
    // Memory layout: [a (64) | b (64) | out (128)].
    let mut cells = vec![0i64; 256];
    cells[..64].copy_from_slice(&a);
    cells[64..128].copy_from_slice(&b);
    let mut sh = ShadowMem::new(Model::Erew);

    // Round: processor i handles a[i] (i < 64) or b[i-64]; its output rank
    // is i's own value (a[i] = 2i goes to slot 2i; b[j] to 2j+1) — each
    // processor reads one private cell and writes one private cell.
    for pid in 0..128 {
        sh.read(pid, MEM, pid);
        let rank = if pid < 64 {
            2 * pid
        } else {
            2 * (pid - 64) + 1
        };
        sh.write(pid, MEM, 128 + rank);
        cells[128 + rank] = cells[pid];
    }
    sh.barrier();
    assert!(sh.violations().is_empty(), "{:?}", sh.violations());
    let out = &cells[128..];
    assert!(out.windows(2).all(|w| w[0] <= w[1]));
}

/// The skeleton-key fill is EREW because Lemma 1 makes the written cells
/// distinct: tree j's key for node z goes to a private matrix slot, and
/// the bridge cells read by different trees are distinct (disjoint keys).
#[test]
fn erew_skeleton_fill_round_is_clean() {
    // Simulate one level of the fill: m = 8 trees, each reading its own
    // parent key cell (distinct by Lemma 1) and writing its own child key
    // cell.
    let m = 8usize;
    let mut cells: Vec<i64> = (0..m as i64 * 2).collect();
    let mut sh = ShadowMem::new(Model::Erew);
    for pid in 0..m {
        sh.read(pid, MEM, pid); // tree j's parent key cell
        sh.write(pid, MEM, m + pid); // tree j's child key cell
        cells[m + pid] = cells[pid] + 1;
    }
    sh.barrier();
    assert!(sh.violations().is_empty());
}

/// The cooperative hop is CREW, not EREW: every processor of a window
/// reads the shared query key and the shared skeleton key, but each writes
/// only its own candidate-result cell.
#[test]
fn crew_hop_round_has_concurrent_reads_but_exclusive_writes() {
    let window = 32usize;
    // Memory: [query key | skeleton key | catalog (window) | results (window)]
    let mut cells = vec![0i64; 2 + 2 * window];
    cells[0] = 17; // y
    for (i, c) in cells[2..2 + window].iter_mut().enumerate() {
        *c = i as i64; // catalog values 0..window
    }
    let mut sh = ShadowMem::new(Model::Crew);
    for pid in 0..window {
        sh.read(pid, MEM, 0); // concurrent read: fine under CREW
        let y = cells[0];
        sh.read(pid, MEM, 2 + pid); // private candidate
        let cand = cells[2 + pid];
        let prev = if pid == 0 {
            i64::MIN
        } else {
            sh.read(pid, MEM, 2 + pid - 1);
            cells[2 + pid - 1]
        };
        sh.write(pid, MEM, 2 + window + pid);
        cells[2 + window + pid] = (prev < y && y <= cand) as i64;
    }
    sh.barrier();
    assert!(sh.violations().is_empty(), "{:?}", sh.violations());
    // Exactly one processor's test succeeded.
    let hits: i64 = cells[2 + window..].iter().sum();
    assert_eq!(hits, 1);

    // The same round under EREW must be flagged (cell 0 read by all).
    let mut erew = ShadowMem::new(Model::Erew);
    for pid in 0..window {
        erew.read(pid, MEM, 0);
        erew.write(pid, MEM, 2 + window + pid);
    }
    erew.barrier();
    assert!(
        !erew.violations().is_empty(),
        "EREW must flag the shared read"
    );
}

/// Indirect retrieval's empty-range link-out uses concurrent writes: legal
/// under CRCW (arbitrary winner), flagged under CREW.
#[test]
fn crcw_linkout_round() {
    let ranges = 16usize;
    // Every non-empty range writes itself as "first non-empty" into cell 0;
    // the arbitrary-CRCW winner is enough for building the linked list.
    let run = |model: Model| {
        let mut cells = vec![-1i64; 1 + ranges];
        let mut sh = ShadowMem::new(model);
        for pid in 0..ranges {
            let nonempty = pid % 3 != 0;
            if nonempty {
                sh.write(pid, MEM, 0);
                cells[0] = pid as i64;
            }
            sh.write(pid, MEM, 1 + pid);
            cells[1 + pid] = nonempty as i64;
        }
        sh.barrier();
        (sh.violations().len(), cells[0])
    };
    let (crcw_violations, winner) = run(Model::Crcw);
    assert_eq!(crcw_violations, 0);
    assert!(winner >= 0, "some non-empty range won the write");
    let (crew_violations, _) = run(Model::Crew);
    assert!(crew_violations > 0, "CREW must flag the concurrent write");
}

/// Regression for the last-pid-wins masking bug: a cell read by pids
/// {0, 1} and then written by pid 1 is a read/write conflict against the
/// *other* reader — bookkeeping that kept only the most recent pid per
/// cell let pid 1's own read overwrite pid 0's, and the conflict vanished.
#[test]
fn read_write_conflict_is_not_masked_by_a_later_same_pid_read() {
    let mut cells = [0i64; 4];
    let mut sh = ShadowMem::new(Model::Crew);
    for pid in 0..2 {
        sh.read(pid, MEM, 0); // pid 0 reads, then pid 1 reads (masking setup)
        let v = cells[0];
        if pid == 1 {
            sh.write(pid, MEM, 0); // pid 1 also writes the cell
            cells[0] = v + 1;
        }
    }
    sh.barrier();
    let v = sh.violations();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].kind, ConflictKind::ReadWrite);
    assert!(
        v[0].pairs.contains(&(0, 1)),
        "the foreign reader/writer pair must be reported: {:?}",
        v[0].pairs
    );
}

/// All conflicting pairs on a cell are reported, not just one: four EREW
/// readers of one cell yield all C(4,2) = 6 pairs.
#[test]
fn every_conflicting_pair_is_reported() {
    let mut sh = ShadowMem::new(Model::Erew);
    for pid in 0..4 {
        sh.read(pid, MEM, 0);
    }
    sh.barrier();
    let v = sh.violations();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].kind, ConflictKind::ConcurrentRead);
    assert_eq!(
        v[0].pairs,
        vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    );
}

/// Scheduled kills fire at the start of the named round: the dead pid's
/// body never runs, so a conflict it would have caused cannot appear, and
/// surviving pids keep the discipline clean.
#[test]
fn scheduled_kill_prevents_the_dead_pid_conflict() {
    let run = |kill: bool| {
        let mut cells = [0i64; 4];
        let mut sh = ShadowMem::new(Model::Erew);
        if kill {
            sh.schedule_kill(1, 1);
        }
        for _ in 0..2 {
            // Round body: pids 0 and 1 both read cell 0 — an EREW conflict
            // unless one of them is dead.
            let dead = sh.dead_pids();
            for pid in (0..2).filter(|pid| !dead.contains(pid)) {
                sh.read(pid, MEM, 0);
                sh.write(pid, MEM, 2 + pid);
                cells[2 + pid] = cells[0];
            }
            sh.barrier();
        }
        sh.violations().len()
    };
    assert_eq!(run(false), 2, "both rounds conflict while pid 1 lives");
    assert_eq!(
        run(true),
        1,
        "after the round-1 kill only round 0 conflicts"
    );
}
