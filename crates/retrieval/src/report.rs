//! Direct and indirect retrieval (the two reporting models of Theorem 6).
//!
//! After the cooperative searches have identified, at each node of the
//! search path, a contiguous catalog range of items to report, the two
//! models differ in how the output is materialised:
//!
//! * **direct** — every reported item is marked/collected by its own
//!   processor. Allocating processors to ranges of unequal sizes needs an
//!   exclusive prefix sum over the per-node counts — `O(log log n)` time
//!   with enough CREW processors — after which the `k` items cost
//!   `ceil(k/p)` steps.
//! * **indirect** — the answer is a linked list of the non-empty ranges.
//!   With `p = Ω(log² n)` processors a CRCW PRAM links out the empty
//!   ranges in `O(1)`; otherwise a prefix computation in
//!   `O((log n)/log p)` does it.

use fc_pram::cost::{Model, Pram};

/// A reported catalog range: `count` items starting at `start` in the
/// catalog of search-path node `node_idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportRange {
    /// Arena index of the tree node owning the catalog.
    pub node_idx: u32,
    /// First reported catalog position.
    pub start: u32,
    /// Number of reported items.
    pub count: u32,
}

/// The indirect-retrieval answer: the linked list of non-empty ranges
/// (materialised as a vector; the PRAM cost of the linking is charged
/// separately by [`charge_indirect`]).
#[derive(Debug, Clone, Default)]
pub struct RangeList {
    /// Non-empty ranges in path order.
    pub ranges: Vec<ReportRange>,
    /// Total number of items (`k`).
    pub total: u64,
}

impl RangeList {
    /// Build the list from per-node ranges, dropping empties.
    pub fn from_ranges(iter: impl IntoIterator<Item = ReportRange>) -> Self {
        let mut ranges = Vec::new();
        let mut total = 0u64;
        for r in iter {
            if r.count > 0 {
                total += r.count as u64;
                ranges.push(r);
            }
        }
        RangeList { ranges, total }
    }
}

/// Charge the direct-retrieval cost for reporting `k` items spread over
/// `path_len` ranges: the prefix sum over the counts plus `ceil(k/p)`
/// marking steps. Matches Theorem 6 part 1:
/// `O((log n)/log p + log log n + k/p)`.
pub fn charge_direct(pram: &mut Pram, path_len: usize, k: u64) {
    // Prefix sum over path_len counts: doubly-logarithmic with enough
    // processors (accelerated valiant-style prefix); log-depth otherwise.
    let p = pram.processors();
    let lg = (usize::BITS - path_len.max(1).leading_zeros()) as usize;
    let lglg = (usize::BITS - lg.max(1).leading_zeros()) as usize;
    if p >= path_len {
        for _ in 0..lglg.max(1) {
            pram.round(path_len);
        }
    } else {
        let (_, _) = fc_pram::primitives::prefix_sum_cost(&vec![1u64; path_len], pram);
    }
    // One processor per reported item.
    let mut remaining = k;
    while remaining > 0 {
        let batch = remaining.min(p as u64);
        pram.round(batch as usize);
        remaining -= batch;
    }
}

/// Charge the indirect-retrieval cost for linking `path_len` ranges:
/// `O(1)` with a CRCW PRAM and `p = Ω(log² n)` processors, a prefix
/// computation otherwise. Matches Theorem 6 part 2: `O((log n)/log p)`.
pub fn charge_indirect(pram: &mut Pram, path_len: usize) {
    let p = pram.processors();
    if pram.model() == Model::Crcw && p >= path_len * path_len {
        // Every range writes its successor candidates concurrently.
        pram.round(path_len * path_len);
    } else {
        let (_, _) = fc_pram::primitives::prefix_sum_cost(&vec![1u64; path_len], pram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_list_drops_empties_and_totals() {
        let list = RangeList::from_ranges([
            ReportRange {
                node_idx: 0,
                start: 2,
                count: 3,
            },
            ReportRange {
                node_idx: 1,
                start: 0,
                count: 0,
            },
            ReportRange {
                node_idx: 2,
                start: 5,
                count: 7,
            },
        ]);
        assert_eq!(list.ranges.len(), 2);
        assert_eq!(list.total, 10);
    }

    #[test]
    fn direct_cost_has_k_over_p_term() {
        let mut small_p = Pram::new(4, Model::Crew);
        charge_direct(&mut small_p, 16, 1000);
        let mut big_p = Pram::new(1024, Model::Crew);
        charge_direct(&mut big_p, 16, 1000);
        assert!(big_p.steps() * 8 < small_p.steps());
    }

    #[test]
    fn direct_cost_zero_items_is_cheap() {
        let mut pram = Pram::new(64, Model::Crew);
        charge_direct(&mut pram, 16, 0);
        assert!(pram.steps() <= 8);
    }

    #[test]
    fn indirect_is_constant_on_big_crcw() {
        let mut crcw = Pram::new(1 << 16, Model::Crcw);
        charge_indirect(&mut crcw, 20);
        assert_eq!(crcw.steps(), 1);
        let mut crew = Pram::new(1 << 16, Model::Crew);
        charge_indirect(&mut crew, 20);
        assert!(crew.steps() >= 1);
    }
}
