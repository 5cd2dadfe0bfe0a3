//! Contiguous key-range partitioning with a versioned routing table.
//!
//! The cluster splits the key universe into `S` contiguous half-open
//! ranges; shard `i` owns `[cuts[i-1], cuts[i])` (with `-∞` / `+∞` at the
//! ends). The table is an immutable value: rebalancing produces a *new*
//! table with `version + 1` and the router hot-swaps it through the same
//! epoch machinery that publishes generations, so an in-flight query keeps
//! routing against the exact table it pinned.
//!
//! ## Why contiguous ranges (and not hashing)
//!
//! Every query the cluster serves is an order query — it answers
//! *successors* along a root-to-leaf path. Contiguous partitioning
//! preserves the order semantics across the cluster: the shards, read in
//! ascending index order, cover the key axis in ascending order, so a
//! successor query for `y` is answered by the **owner shard**
//! `shard_of(y)` unless that shard's catalogs hold no key `≥ y` at some
//! path node, in which case the true successor is the first answer found
//! by *escalating* through shards `owner+1, owner+2, …` in order — an
//! earlier shard can never hold it (every key it stores lies below a cut
//! that is `≤ y`, by ownership).
//!
//! The routing invariant, stated once and tested below: **for every key
//! `y` and every table version, `shard_of(y)` is the unique shard whose
//! range contains `y`, and ranges of one version tile the key axis with no
//! gap and no overlap.** Version `v+1` differs from `v` by exactly one
//! range split (or is identical), so any key routable under `v` is
//! routable under `v+1`.

use fc_catalog::CatalogKey;

/// An immutable, versioned map from keys to shard indices (see module
/// docs). Cheap to clone; the router hot-swaps `Arc`s of the containing
/// cluster state rather than mutating a table in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable<K: CatalogKey> {
    version: u64,
    /// Ascending interior cut keys; shard `i` owns `[cuts[i-1], cuts[i])`.
    cuts: Vec<K>,
}

impl<K: CatalogKey> RoutingTable<K> {
    /// A version-1 table from ascending interior cuts (`cuts.len() + 1`
    /// shards). Returns `None` if the cuts are not strictly ascending.
    pub fn from_cuts(cuts: Vec<K>) -> Option<Self> {
        let ascending = cuts.windows(2).all(|w| match w {
            [a, b] => a < b,
            _ => true,
        });
        if !ascending {
            return None;
        }
        Some(RoutingTable { version: 1, cuts })
    }

    /// The degenerate single-shard table (no cuts), version 1.
    pub fn single() -> Self {
        RoutingTable {
            version: 1,
            cuts: Vec::new(),
        }
    }

    /// Reconstruct a table at a specific `version` from persisted cuts —
    /// the cold-start path: a restarted cluster must resume at the version
    /// it crashed with, not at 1, so staleness detection keeps working
    /// across restarts. Returns `None` if the cuts are not strictly
    /// ascending or the version is 0 (versions start at 1).
    pub fn restore(cuts: Vec<K>, version: u64) -> Option<Self> {
        if version == 0 {
            return None;
        }
        let ascending = cuts.windows(2).all(|w| match w {
            [a, b] => a < b,
            _ => true,
        });
        if !ascending {
            return None;
        }
        Some(RoutingTable { version, cuts })
    }

    /// The interior cut keys (what a cold-start manifest persists).
    pub fn cuts(&self) -> &[K] {
        &self.cuts
    }

    /// The table's version; bumped by exactly one per published rebalance.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of shards (`cuts.len() + 1`).
    pub fn shards(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The unique shard owning `y`: the count of cuts `≤ y`.
    pub fn shard_of(&self, y: &K) -> usize {
        self.cuts.partition_point(|c| c <= y)
    }

    /// Shard `shard`'s half-open range as `(lo, hi)`; `None` means `-∞` /
    /// `+∞`. Out-of-range shard indices return `(None, None)`-safe bounds
    /// clamped to the last shard.
    pub fn range_of(&self, shard: usize) -> (Option<&K>, Option<&K>) {
        let lo = shard.checked_sub(1).and_then(|i| self.cuts.get(i));
        let hi = self.cuts.get(shard);
        (lo, hi)
    }

    /// A new table in which `shard` is split at `at`: the shard's range
    /// becomes `[shard.lo, at)` and `[at, shard.hi)`. Returns `None` when
    /// `at` is not strictly inside the shard's range (a degenerate split
    /// would create an empty shard and break the tiling invariant).
    pub fn split(&self, shard: usize, at: K) -> Option<Self> {
        if shard >= self.shards() {
            return None;
        }
        let (lo, hi) = self.range_of(shard);
        let above_lo = lo.is_none_or(|l| *l < at);
        let below_hi = hi.is_none_or(|h| at < *h);
        if !above_lo || !below_hi {
            return None;
        }
        let mut cuts = self.cuts.clone();
        cuts.insert(shard, at);
        Some(RoutingTable {
            version: self.version + 1,
            cuts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RoutingTable<i64> {
        RoutingTable::from_cuts(vec![100, 200, 300]).unwrap()
    }

    #[test]
    fn rejects_non_ascending_cuts() {
        assert!(RoutingTable::from_cuts(vec![5i64, 5]).is_none());
        assert!(RoutingTable::from_cuts(vec![9i64, 3]).is_none());
        assert!(RoutingTable::<i64>::from_cuts(vec![]).is_some());
    }

    #[test]
    fn ranges_tile_the_axis_without_gap_or_overlap() {
        let t = table();
        assert_eq!(t.shards(), 4);
        // Every key lands in exactly one shard, and that shard's range
        // contains it.
        for y in -50i64..=400 {
            let s = t.shard_of(&y);
            assert!(s < t.shards());
            let (lo, hi) = t.range_of(s);
            assert!(lo.is_none_or(|l| *l <= y), "y={y} below shard {s}");
            assert!(hi.is_none_or(|h| y < *h), "y={y} above shard {s}");
            // No other shard's range contains it.
            for other in 0..t.shards() {
                if other == s {
                    continue;
                }
                let (lo, hi) = t.range_of(other);
                let inside = lo.is_none_or(|l| *l <= y) && hi.is_none_or(|h| y < *h);
                assert!(!inside, "y={y} also inside shard {other}");
            }
        }
    }

    #[test]
    fn cut_keys_route_right() {
        let t = table();
        assert_eq!(t.shard_of(&99), 0);
        assert_eq!(t.shard_of(&100), 1);
        assert_eq!(t.shard_of(&299), 2);
        assert_eq!(t.shard_of(&300), 3);
    }

    #[test]
    fn split_bumps_version_and_preserves_tiling() {
        let t = table();
        let t2 = t.split(1, 150).expect("valid split");
        assert_eq!(t2.version(), t.version() + 1);
        assert_eq!(t2.shards(), 5);
        // Keys outside the split shard route to a range with identical
        // bounds; keys inside route to one of the two halves.
        for y in -50i64..=400 {
            let (lo2, hi2) = {
                let s = t2.shard_of(&y);
                let (l, h) = t2.range_of(s);
                (l.copied(), h.copied())
            };
            assert!(lo2.is_none_or(|l| l <= y) && hi2.is_none_or(|h| y < h));
        }
        assert_eq!(t2.shard_of(&149), 1);
        assert_eq!(t2.shard_of(&150), 2);
        assert_eq!(t2.shard_of(&250), 3, "later shards shift right");
    }

    #[test]
    fn degenerate_splits_are_refused() {
        let t = table();
        assert!(t.split(1, 100).is_none(), "at == lo");
        assert!(t.split(1, 99).is_none(), "at < lo");
        assert!(t.split(1, 200).is_none(), "at == hi");
        assert!(t.split(9, 150).is_none(), "no such shard");
        // Unbounded end shards split anywhere past their lo.
        assert!(t.split(0, -1000).is_some());
        assert!(t.split(3, 1_000_000).is_some());
    }
}
