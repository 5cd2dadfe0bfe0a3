//! Textbook PRAM building blocks used throughout the reproduction.
//!
//! The paper leans on three classical results without restating them:
//!
//! * **Cooperative (p-ary) binary search** — Snir's optimal
//!   `O((log n)/log p)` CREW search in a sorted array (reference [16] of the
//!   paper). Used in Step 1 of the explicit search (Section 2.2).
//! * **Prefix sums** — `O(n/p + log p)` on EREW, used by Theorem 6's direct
//!   retrieval to allocate processors to reported items.
//! * **Parallel merge** — the building block of the level-synchronous
//!   fractional-cascading construction in `fc-catalog`.
//!
//! Each primitive comes in up to three flavours: a plain sequential
//! implementation, a *cost-charging* implementation that threads a
//! [`Pram`] counter and performs the PRAM round structure faithfully, and a
//! rayon implementation for wall-clock benchmarks.

use crate::cost::Pram;
use crate::shadow::{NoTrace, Region, Tracer};
use rayon::prelude::*;

/// Cooperative p-ary search: smallest index `i` with `slice[i] >= y`.
///
/// Implements Snir's scheme: each round, the `p` processors probe `p`
/// evenly spaced pivots of the remaining range, shrinking it by a factor of
/// `p + 1`; a CREW PRAM combines the probe results in `O(1)` time. The
/// number of rounds is `ceil(log(n+1) / log(p+1))`, i.e. the optimal
/// `O((log n)/log p)`.
///
/// The returned index is `slice.partition_point(|k| k < y)`; `pram` is
/// charged one `p`-op round per iteration.
pub fn coop_lower_bound<K: Ord>(slice: &[K], y: &K, pram: &mut Pram) -> usize {
    coop_lower_bound_traced(slice, y, pram, &mut NoTrace, ("arr", 0), ("query", 0))
}

/// [`coop_lower_bound`] with every logical access reported to a [`Tracer`].
///
/// `arr` names the sorted array's region (cell `i` = `slice[i]`) and
/// `query` the shared query-key cell (`query[0]`). The replay uses the CREW
/// round structure of Snir's scheme:
///
/// * **probe round** — all `k` processors read the shared query key and
///   range cursor (concurrent reads: legal under CREW, the canary under
///   EREW) plus one distinct pivot each, then write a private verdict cell;
/// * **combine round** — each processor reads its own and its right
///   neighbour's verdict (≤ 2 readers per cell), and the unique boundary
///   processor publishes the narrowed range to the cursor cell
///   (`("clb-cursor", arr_instance)`) — an exclusive write.
///
/// Monomorphizes to exactly the untraced search with [`NoTrace`]; `pram`
/// charges are identical either way.
pub fn coop_lower_bound_traced<K: Ord, Tr: Tracer>(
    slice: &[K],
    y: &K,
    pram: &mut Pram,
    tr: &mut Tr,
    arr: Region,
    query: Region,
) -> usize {
    let p = pram.processors();
    let scratch = ("clb-scratch", arr.1);
    let cursor = ("clb-cursor", arr.1);
    let mut first = true;
    let mut lo = 0usize; // invariant: all indices < lo have slice[i] < y
    let mut hi = slice.len(); // invariant: all indices >= hi have slice[i] >= y
    while lo < hi {
        let len = hi - lo;
        if p == 1 {
            // Degenerates to ordinary binary search, one probe per round —
            // a single processor is trivially exclusive.
            let mid = lo + len / 2;
            if tr.live() {
                if !first {
                    tr.read(0, cursor, 0);
                }
                tr.read(0, query, 0);
                tr.read(0, arr, mid);
                tr.write(0, cursor, 0);
                tr.barrier();
            }
            pram.round(1);
            if slice[mid] < *y {
                lo = mid + 1;
            } else {
                hi = mid;
            }
            first = false;
            continue;
        }
        // k = min(p, len) processors probe the first element of each of k
        // equal segments of the range (the probe at `lo` guarantees strict
        // progress). Each processor learns whether its pivot is < y; a CREW
        // PRAM locates the boundary between "< y" and ">= y" pivots in O(1),
        // narrowing the range to one segment of length <= ceil(len / k).
        let k = p.min(len);
        if tr.live() {
            for j in 0..k {
                if !first {
                    tr.read(j, cursor, 0);
                }
                tr.read(j, query, 0);
                tr.read(j, arr, lo + (len * j) / k);
                tr.write(j, scratch, j);
            }
            tr.barrier();
            // Combine: neighbour reads plus the boundary processor's
            // exclusive cursor write. O(1) CREW time, already covered by
            // the single round charged below.
            let mut boundary = 0usize;
            for j in 0..k {
                tr.read(j, scratch, j);
                if j + 1 < k {
                    tr.read(j, scratch, j + 1);
                }
                if slice[lo + (len * j) / k] < *y {
                    boundary = j;
                }
            }
            tr.write(boundary, cursor, 0);
            tr.barrier();
        }
        pram.round(k);
        let mut new_lo = lo;
        let mut new_hi = hi;
        for j in 0..k {
            let pos = lo + (len * j) / k;
            debug_assert!(pos < hi);
            if slice[pos] < *y {
                new_lo = new_lo.max(pos + 1);
            } else {
                new_hi = new_hi.min(pos);
            }
        }
        // The probes are consistent (the array is sorted), so the surviving
        // range is exactly one inter-pivot segment.
        debug_assert!(new_lo <= new_hi);
        debug_assert!(new_hi - new_lo < hi - lo, "range must shrink");
        lo = new_lo;
        hi = new_hi;
        first = false;
    }
    lo
}

/// Exclusive prefix sums of `values`, sequentially. Returns a vector `out`
/// with `out[i] = sum(values[..i])` and additionally the total sum.
pub fn prefix_sum_seq(values: &[u64]) -> (Vec<u64>, u64) {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0u64;
    for &v in values {
        out.push(acc);
        acc += v;
    }
    (out, acc)
}

/// Exclusive prefix sums with PRAM cost accounting: `O(n/p + log p)` steps
/// (blocked two-pass scheme: per-block sequential sums, a log-depth scan of
/// the `p` block totals, then per-block fix-up).
pub fn prefix_sum_cost(values: &[u64], pram: &mut Pram) -> (Vec<u64>, u64) {
    let n = values.len();
    let p = pram.processors().min(n.max(1));
    if n == 0 {
        return (Vec::new(), 0);
    }
    let block = n.div_ceil(p);
    // Pass 1: each processor sums its block (n/p rounds of p ops).
    pram.round(n);
    // Scan of block totals: log p rounds of <= p ops.
    let mut d = 1;
    while d < p {
        pram.round(p - d);
        d *= 2;
    }
    // Pass 2: each processor writes its block's prefixes.
    pram.round(n);
    let _ = block;
    prefix_sum_seq(values)
}

/// Exclusive prefix sums using rayon (two-pass blocked scan) for wall-clock
/// benchmarks. Produces the same output as [`prefix_sum_seq`].
pub fn prefix_sum_par(values: &[u64]) -> (Vec<u64>, u64) {
    let n = values.len();
    if n < 4096 {
        return prefix_sum_seq(values);
    }
    let threads = rayon::current_num_threads().max(1);
    let block = n.div_ceil(threads);
    let totals: Vec<u64> = values
        .par_chunks(block)
        .map(|c| c.iter().sum::<u64>())
        .collect();
    let (offsets, total) = prefix_sum_seq(&totals);
    let mut out = vec![0u64; n];
    out.par_chunks_mut(block)
        .zip(values.par_chunks(block))
        .zip(offsets.par_iter())
        .for_each(|((out_chunk, in_chunk), &off)| {
            let mut acc = off;
            for (o, &v) in out_chunk.iter_mut().zip(in_chunk) {
                *o = acc;
                acc += v;
            }
        });
    (out, total)
}

/// Merge two sorted slices into a new sorted vector, sequentially.
pub fn merge_seq<K: Ord + Clone>(a: &[K], b: &[K]) -> Vec<K> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i].clone());
            i += 1;
        } else {
            out.push(b[j].clone());
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merge two sorted slices, charging PRAM cost for the classic CREW
/// parallel merge: each element binary-searches its rank in the other slice
/// (`O(log n)` depth, `O(n)` ops per round → `ceil(n/p) * 1` rounds of
/// rank-finding charged as `n log n / p`... more precisely we charge the
/// standard `O((n/p) log n)` EREW bound used by the level-synchronous
/// cascade build, or `O(n/p + log n)` if `optimal` is set (Hagerup–Rüb
/// style merging).
pub fn merge_cost<K: Ord + Clone>(a: &[K], b: &[K], pram: &mut Pram, optimal: bool) -> Vec<K> {
    let n = a.len() + b.len();
    if n > 0 {
        if optimal {
            // O(n/p + log n) optimal merge.
            pram.round(n);
            let depth = (usize::BITS - n.leading_zeros()) as usize;
            pram.seq(depth);
        } else {
            // Rank-by-binary-search merge: n ops each costing log n depth.
            let depth = (usize::BITS - n.leading_zeros()) as usize;
            for _ in 0..depth {
                pram.round(n);
            }
        }
    }
    merge_seq(a, b)
}

/// Merge two sorted slices with rayon: divide-and-conquer on the larger
/// slice's median. Falls back to sequential below a grain size.
pub fn merge_par<K: Ord + Clone + Send + Sync>(a: &[K], b: &[K]) -> Vec<K> {
    let mut out = vec![None; a.len() + b.len()];
    merge_par_into(a, b, &mut out);
    out.into_iter().map(|o| o.expect("filled")).collect()
}

fn merge_par_into<K: Ord + Clone + Send + Sync>(a: &[K], b: &[K], out: &mut [Option<K>]) {
    const GRAIN: usize = 8192;
    debug_assert_eq!(out.len(), a.len() + b.len());
    if a.len() + b.len() <= GRAIN {
        for (slot, k) in out.iter_mut().zip(merge_seq(a, b)) {
            *slot = Some(k);
        }
        return;
    }
    let (big, small, big_first) = if a.len() >= b.len() {
        (a, b, true)
    } else {
        (b, a, false)
    };
    let mid = big.len() / 2;
    let pivot = &big[mid];
    let split = small.partition_point(|k| k < pivot);
    let (big_lo, big_hi) = big.split_at(mid);
    let (small_lo, small_hi) = small.split_at(split);
    let cut = big_lo.len() + small_lo.len();
    let (out_lo, out_hi) = out.split_at_mut(cut);
    let (a_lo, b_lo, a_hi, b_hi) = if big_first {
        (big_lo, small_lo, big_hi, small_hi)
    } else {
        (small_lo, big_lo, small_hi, big_hi)
    };
    rayon::join(
        || merge_par_into(a_lo, b_lo, out_lo),
        || merge_par_into(a_hi, b_hi, out_hi),
    );
}

/// Take every `stride`-th element of `slice` starting at index `stride - 1`
/// (the sampling operation of fractional cascading).
pub fn sample_every<K: Clone>(slice: &[K], stride: usize) -> Vec<K> {
    assert!(stride >= 1);
    slice
        .iter()
        .skip(stride - 1)
        .step_by(stride)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Model;

    fn check_clb(slice: &[i64], y: i64, p: usize) {
        let mut pram = Pram::new(p, Model::Crew);
        let got = coop_lower_bound(slice, &y, &mut pram);
        assert_eq!(
            got,
            slice.partition_point(|k| *k < y),
            "slice len {} y {y} p {p}",
            slice.len()
        );
    }

    #[test]
    fn coop_lower_bound_matches_sequential() {
        let slice: Vec<i64> = (0..1000).map(|i| i * 3).collect();
        for p in [1, 2, 3, 4, 7, 16, 100, 1000, 5000] {
            for y in [-5, 0, 1, 2, 3, 1497, 1498, 1499, 2997, 2998, 10000] {
                check_clb(&slice, y, p);
            }
        }
    }

    #[test]
    fn coop_lower_bound_empty_and_singleton() {
        check_clb(&[], 5, 4);
        check_clb(&[7], 5, 4);
        check_clb(&[7], 7, 4);
        check_clb(&[7], 9, 4);
    }

    #[test]
    fn coop_lower_bound_duplicates() {
        let slice = vec![1i64, 5, 5, 5, 5, 9];
        for p in [1, 2, 4, 8] {
            check_clb(&slice, 5, p);
            check_clb(&slice, 4, p);
            check_clb(&slice, 6, p);
        }
    }

    #[test]
    fn coop_lower_bound_step_count_is_logarithmic_base_p() {
        let slice: Vec<i64> = (0..(1 << 16)).collect();
        let mut p1 = Pram::new(1, Model::Crew);
        coop_lower_bound(&slice, &12345, &mut p1);
        let mut p256 = Pram::new(256, Model::Crew);
        coop_lower_bound(&slice, &12345, &mut p256);
        // log_2(65536) = 16 rounds vs log_257(65536) = 2 rounds.
        assert!(p1.rounds() >= 16);
        assert!(p256.rounds() <= 3, "rounds = {}", p256.rounds());
    }

    #[test]
    fn traced_search_is_crew_clean_and_matches() {
        use crate::shadow::ShadowMem;
        let slice: Vec<i64> = (0..500).map(|i| i * 3).collect();
        for p in [1, 4, 23, 512] {
            for y in [-5, 0, 1, 750, 1497, 5000] {
                let mut pram = Pram::new(p, Model::Crew);
                let mut sh = ShadowMem::new(Model::Crew);
                let got =
                    coop_lower_bound_traced(&slice, &y, &mut pram, &mut sh, ("arr", 0), ("q", 0));
                assert_eq!(got, slice.partition_point(|k| *k < y), "p {p} y {y}");
                assert!(sh.finish(), "p {p} y {y}: {:?}", sh.violations());
            }
        }
    }

    #[test]
    fn traced_search_violates_erew_when_cooperative() {
        use crate::shadow::ShadowMem;
        let slice: Vec<i64> = (0..500).collect();
        // p > 1: the shared query-key read breaks EREW.
        let mut pram = Pram::new(8, Model::Crew);
        let mut sh = ShadowMem::new(Model::Erew);
        coop_lower_bound_traced(&slice, &250, &mut pram, &mut sh, ("arr", 0), ("q", 0));
        assert!(!sh.finish(), "shared query read must be flagged");
        assert!(sh.violations().iter().any(|v| v.cell == ("q", 0, 0)));
        // p == 1 is trivially exclusive.
        let mut pram = Pram::new(1, Model::Crew);
        let mut sh = ShadowMem::new(Model::Erew);
        coop_lower_bound_traced(&slice, &250, &mut pram, &mut sh, ("arr", 0), ("q", 0));
        assert!(sh.finish(), "{:?}", sh.violations());
    }

    #[test]
    fn traced_search_charges_same_pram_cost() {
        let slice: Vec<i64> = (0..(1 << 12)).collect();
        for p in [1, 16, 256] {
            let mut a = Pram::new(p, Model::Crew);
            coop_lower_bound(&slice, &1234, &mut a);
            let mut b = Pram::new(p, Model::Crew);
            let mut sh = crate::shadow::ShadowMem::new(Model::Crew);
            coop_lower_bound_traced(&slice, &1234, &mut b, &mut sh, ("arr", 0), ("q", 0));
            assert_eq!(a.rounds(), b.rounds());
            assert_eq!(a.steps(), b.steps());
        }
    }

    #[test]
    fn prefix_sum_variants_agree() {
        let values: Vec<u64> = (0..10_000).map(|i| (i * 7 + 3) % 101).collect();
        let (s, ts) = prefix_sum_seq(&values);
        let (p, tp) = prefix_sum_par(&values);
        let mut pram = Pram::new(16, Model::Erew);
        let (c, tc) = prefix_sum_cost(&values, &mut pram);
        assert_eq!(s, p);
        assert_eq!(s, c);
        assert_eq!(ts, tp);
        assert_eq!(ts, tc);
        assert!(pram.steps() > 0);
    }

    #[test]
    fn prefix_sum_empty() {
        let (v, t) = prefix_sum_seq(&[]);
        assert!(v.is_empty());
        assert_eq!(t, 0);
        let (v, t) = prefix_sum_par(&[]);
        assert!(v.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn prefix_sum_cost_scales_with_processors() {
        let values: Vec<u64> = vec![1; 1 << 14];
        let mut p1 = Pram::new(1, Model::Erew);
        prefix_sum_cost(&values, &mut p1);
        let mut p64 = Pram::new(64, Model::Erew);
        prefix_sum_cost(&values, &mut p64);
        assert!(p64.steps() * 8 < p1.steps());
    }

    #[test]
    fn merges_agree() {
        let a: Vec<i64> = (0..5000).map(|i| i * 2).collect();
        let b: Vec<i64> = (0..5000).map(|i| i * 2 + 1).collect();
        let expect: Vec<i64> = (0..10_000).collect();
        assert_eq!(merge_seq(&a, &b), expect);
        assert_eq!(merge_par(&a, &b), expect);
        let mut pram = Pram::new(8, Model::Erew);
        assert_eq!(merge_cost(&a, &b, &mut pram, false), expect);
        assert_eq!(merge_cost(&a, &b, &mut pram, true), expect);
    }

    #[test]
    fn merge_handles_empty_and_skew() {
        assert_eq!(merge_seq::<i64>(&[], &[]), Vec::<i64>::new());
        assert_eq!(merge_seq(&[1, 2], &[]), vec![1, 2]);
        assert_eq!(merge_par(&[], &[3, 4]), vec![3, 4]);
        let a: Vec<i64> = (0..20_000).collect();
        let b = vec![-1i64, 100_000];
        let m = merge_par(&a, &b);
        assert_eq!(m.len(), a.len() + 2);
        assert_eq!(m[0], -1);
        assert_eq!(*m.last().unwrap(), 100_000);
        assert!(m.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merge_preserves_duplicates() {
        let a = vec![1i64, 1, 2, 2];
        let b = vec![1i64, 2, 3];
        let m = merge_seq(&a, &b);
        assert_eq!(m, vec![1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn sample_every_strides() {
        let v: Vec<i64> = (1..=10).collect();
        assert_eq!(sample_every(&v, 1), v);
        assert_eq!(sample_every(&v, 2), vec![2, 4, 6, 8, 10]);
        assert_eq!(sample_every(&v, 4), vec![4, 8]);
        assert_eq!(sample_every(&v, 11), Vec::<i64>::new());
    }
}
