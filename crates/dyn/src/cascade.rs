//! The incremental cascade: per-node slot arenas with stable indices,
//! tombstone-aware ordered walks, child samples bridged by slot index,
//! and hysteresis-driven split/merge propagation along the node-to-root
//! path.
//!
//! Hot-path discipline: the query-side functions ([`DynCascade::
//! search_path_into`] and its helpers) and the apply-side entry points
//! are panic-free, direct-index-free (typed [`DynError`] on any
//! out-of-range access) and allocation-free apart from pushes into
//! caller-provided or pre-existing vectors. Every linked-list walk
//! carries a cycle guard — a corrupted `next`/`prev` chain produces
//! [`DynError::CorruptLink`], never a hang.

use crate::patch::{
    DynConfig, DynCounters, PatchLog, PatchReport, QueryReport, BLOCK_HI, BLOCK_LO, FINGER_GAP,
    LOG_CAP, SAMPLE, WALK_BUDGET,
};
use crate::DynError;
use fc_catalog::{CatalogKey, CatalogTree, NodeId};

/// Null slot/node index.
pub const NIL: u32 = u32::MAX;

/// Slot kind: a native catalog entry.
const NATIVE: u16 = 0;
/// Slot kind: the terminal `+∞` sentinel.
const SENTINEL: u16 = u16::MAX;
// Kinds `1 + c` are samples mirrored from child number `c`.

/// One arena slot. Slots are never moved or freed outside a full
/// rebuild; deletion tombstones them (`live = false`) and their key
/// stays behind as an order marker, so `down`/`up` bridges and finger
/// entries remain valid indices forever.
#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    key: K,
    prev: u32,
    next: u32,
    /// `NATIVE`, `SENTINEL`, or `1 + child_index` for samples.
    kind: u16,
    live: bool,
    /// Sample slots: the child slot this mirrors. Else `NIL`.
    down: u32,
    /// The parent slot sampling this one, `NIL` when unsampled.
    up: u32,
}

/// One node's augmented list: arena + entry points + local counters.
#[derive(Debug, Clone)]
struct NodeList<K> {
    slots: Vec<Slot<K>>,
    head: u32,
    sentinel: u32,
    /// Live slots excluding the sentinel.
    live: u32,
    /// Live native (catalog) entries.
    live_native: u32,
    /// Tombstoned slots.
    dead: u32,
    /// Sparse sorted `(key, slot)` index; keys never go stale because
    /// slot keys never change.
    fingers: Vec<(K, u32)>,
    /// Already queued in `density_dirty`.
    dirty: bool,
}

// Hand-written so `K` needs no `Default` of its own.
impl<K> Default for NodeList<K> {
    fn default() -> Self {
        NodeList {
            slots: Vec::new(),
            head: 0,
            sentinel: 0,
            live: 0,
            live_native: 0,
            dead: 0,
            fingers: Vec::new(),
            dirty: false,
        }
    }
}

/// The incremental dynamic cascade over a catalog tree.
///
/// Built once from a [`CatalogTree`]; thereafter
/// [`apply_insert`](DynCascade::apply_insert) /
/// [`apply_remove`](DynCascade::apply_remove) patch it in place and
/// [`search_path_into`](DynCascade::search_path_into) answers path
/// queries that reflect every applied update immediately.
pub struct DynCascade<K: CatalogKey> {
    /// Parent arena index per node (`NIL` at the root).
    parent: Vec<u32>,
    /// Children (arena indices) per node, in tree order.
    children: Vec<Vec<u32>>,
    nodes: Vec<NodeList<K>>,
    cfg: DynConfig,
    counters: DynCounters,
    log: PatchLog,
    /// Reused propagation worklist for the delete path.
    scratch: Vec<(u32, u32)>,
    /// Nodes whose tombstone density crossed the bound.
    density_dirty: Vec<u32>,
}

impl<K: CatalogKey> DynCascade<K> {
    /// Build the cascade bottom-up from `tree` (children sampled into
    /// parents every `SAMPLE`-th augmented entry), with sentinels,
    /// bridges, back-references and finger indexes in place.
    pub fn build(tree: &CatalogTree<K>, cfg: DynConfig) -> Self {
        let n = tree.len();
        let parent: Vec<u32> = tree
            .ids()
            .map(|id| tree.parent(id).map_or(NIL, |p| p.0))
            .collect();
        let children: Vec<Vec<u32>> = tree
            .ids()
            .map(|id| tree.children(id).iter().map(|c| c.0).collect())
            .collect();
        let mut dc = DynCascade {
            parent,
            children,
            nodes: vec![NodeList::default(); n],
            cfg,
            counters: DynCounters::default(),
            log: PatchLog::new(LOG_CAP),
            scratch: Vec::new(),
            density_dirty: Vec::new(),
        };
        // Children before parents: sampling reads the child's finished
        // list.
        let mut order: Vec<NodeId> = tree.ids().collect();
        order.sort_by_key(|&id| std::cmp::Reverse(tree.depth(id)));
        for id in order {
            dc.build_node(tree, id);
        }
        dc
    }

    fn build_node(&mut self, tree: &CatalogTree<K>, id: NodeId) {
        let v = id.idx();
        // Gather (key, kind, down-bridge) entries: native keys plus every
        // s-th live augmented entry of each child.
        let mut entries: Vec<(K, u16, u32)> =
            tree.catalog(id).iter().map(|&k| (k, NATIVE, NIL)).collect();
        for (ci, &c) in self.children[v].iter().enumerate() {
            let child = &self.nodes[c as usize];
            let mut cur = child.head;
            let mut rank = 0usize;
            while cur != NIL {
                let slot = &child.slots[cur as usize];
                if slot.kind == SENTINEL {
                    break;
                }
                rank += 1;
                if rank.is_multiple_of(SAMPLE) {
                    entries.push((slot.key, 1 + ci as u16, cur));
                }
                cur = slot.next;
            }
        }
        entries.sort_by_key(|e| e.0);
        let mut slots: Vec<Slot<K>> = Vec::with_capacity(entries.len() + 1);
        for (i, &(key, kind, down)) in entries.iter().enumerate() {
            slots.push(Slot {
                key,
                prev: if i == 0 { NIL } else { (i - 1) as u32 },
                next: (i + 1) as u32,
                kind,
                live: true,
                down,
                up: NIL,
            });
        }
        // Terminal sentinel: always live, always last.
        let sent = slots.len() as u32;
        slots.push(Slot {
            key: K::SUPREMUM,
            prev: if sent == 0 { NIL } else { sent - 1 },
            next: NIL,
            kind: SENTINEL,
            live: true,
            down: NIL,
            up: NIL,
        });
        let fingers: Vec<(K, u32)> = slots
            .iter()
            .enumerate()
            .filter(|(i, _)| i % FINGER_GAP as usize == 0)
            .map(|(i, s)| (s.key, i as u32))
            .collect();
        let live = entries.len() as u32;
        let live_native = tree.catalog(id).len() as u32;
        self.counters.live_native += live_native as u64;
        // Wire the `up` back-references on the sampled child slots.
        for (i, &(_, kind, down)) in entries.iter().enumerate() {
            if kind != NATIVE {
                let c = self.children[v][(kind - 1) as usize] as usize;
                self.nodes[c].slots[down as usize].up = i as u32;
            }
        }
        self.nodes[v] = NodeList {
            slots,
            head: 0,
            sentinel: sent,
            live,
            live_native,
            dead: 0,
            fingers,
            dirty: false,
        };
    }

    /// Compaction thresholds in force.
    pub fn config(&self) -> DynConfig {
        self.cfg
    }

    /// Cascade-wide write-path counters.
    pub fn counters(&self) -> DynCounters {
        self.counters
    }

    /// The bounded per-patch cost log.
    pub fn patch_log(&self) -> &PatchLog {
        &self.log
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// First node whose tombstone density crossed the configured bound,
    /// if any — the owner should fall back to a full rebuild.
    pub fn needs_compaction(&self) -> Option<u32> {
        self.density_dirty.first().copied()
    }

    /// The node's live native catalog, reconstructed by **flat arena
    /// scan** (deliberately not a link walk, so it stays correct even
    /// when `next`/`prev` chains are corrupted) — the authoritative key
    /// set a fallback rebuild starts from.
    pub fn live_native_catalog(&self, node: NodeId) -> Vec<K> {
        let mut out: Vec<K> = self
            .nodes
            .get(node.idx())
            .map(|l| {
                l.slots
                    .iter()
                    .filter(|s| s.live && s.kind == NATIVE)
                    .map(|s| s.key)
                    .collect()
            })
            .unwrap_or_default();
        out.sort_unstable();
        out.dedup();
        out
    }

    // ------------------------------------------------------------------
    // Typed accessors (the hot paths never index directly).
    // ------------------------------------------------------------------

    fn list(&self, v: u32) -> Result<&NodeList<K>, DynError> {
        self.nodes
            .get(v as usize)
            .ok_or(DynError::NodeOutOfRange { node: v })
    }

    fn list_mut(&mut self, v: u32) -> Result<&mut NodeList<K>, DynError> {
        self.nodes
            .get_mut(v as usize)
            .ok_or(DynError::NodeOutOfRange { node: v })
    }

    fn slot_in(list: &NodeList<K>, v: u32, s: u32) -> Result<&Slot<K>, DynError> {
        list.slots
            .get(s as usize)
            .ok_or(DynError::SlotOutOfRange { node: v, slot: s })
    }

    fn slot_ref(&self, v: u32, s: u32) -> Result<&Slot<K>, DynError> {
        Self::slot_in(self.list(v)?, v, s)
    }

    fn slot_mut(&mut self, v: u32, s: u32) -> Result<&mut Slot<K>, DynError> {
        self.nodes
            .get_mut(v as usize)
            .ok_or(DynError::NodeOutOfRange { node: v })?
            .slots
            .get_mut(s as usize)
            .ok_or(DynError::SlotOutOfRange { node: v, slot: s })
    }

    fn parent_of(&self, v: u32) -> Result<u32, DynError> {
        self.parent
            .get(v as usize)
            .copied()
            .ok_or(DynError::NodeOutOfRange { node: v })
    }

    /// The sample kind (`1 + child index`) of edge `p -> c`.
    fn child_kind(&self, p: u32, c: u32) -> Result<u16, DynError> {
        let kids = self
            .children
            .get(p as usize)
            .ok_or(DynError::NodeOutOfRange { node: p })?;
        match kids.iter().position(|&x| x == c) {
            Some(i) if i < (SENTINEL - 1) as usize => Ok(1 + i as u16),
            _ => Err(DynError::PathMismatch {
                parent: p,
                child: c,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Query side.
    // ------------------------------------------------------------------

    /// First slot (live or dead, any kind) with `key >= y`; the sentinel
    /// if every real key is smaller. Finger entry + bounded forward walk.
    fn locate_ge(&self, v: u32, y: K, walked: &mut u32) -> Result<u32, DynError> {
        let list = self.list(v)?;
        let fi = list.fingers.partition_point(|&(k, _)| k < y);
        let mut cur = match fi.checked_sub(1).and_then(|i| list.fingers.get(i)) {
            Some(&(_, s)) => s,
            None => list.head,
        };
        let cap = list.slots.len() as u32 + 2;
        let mut steps = 0u32;
        loop {
            if steps > cap {
                return Err(DynError::CorruptLink { node: v });
            }
            let s = Self::slot_in(list, v, cur)?;
            if s.key >= y {
                return Ok(cur);
            }
            if s.next == NIL {
                // The sentinel's SUPREMUM key satisfies any `y`, so the
                // chain ended before the sentinel: torn links.
                return Err(DynError::CorruptLink { node: v });
            }
            cur = s.next;
            steps += 1;
            *walked += 1;
        }
    }

    /// The node's answer from an augmented position: the first live
    /// native slot at or after `start` (`None` once the sentinel is
    /// reached — the logical catalog has no entry `>= y`).
    fn native_successor_from(
        &self,
        v: u32,
        start: u32,
        walked: &mut u32,
    ) -> Result<Option<K>, DynError> {
        let list = self.list(v)?;
        let cap = list.slots.len() as u32 + 2;
        let mut cur = start;
        let mut steps = 0u32;
        loop {
            if steps > cap {
                return Err(DynError::CorruptLink { node: v });
            }
            let s = Self::slot_in(list, v, cur)?;
            if s.kind == SENTINEL {
                return Ok(None);
            }
            if s.live && s.kind == NATIVE {
                return Ok(Some(s.key));
            }
            if s.next == NIL {
                return Err(DynError::CorruptLink { node: v });
            }
            cur = s.next;
            steps += 1;
            *walked += 1;
        }
    }

    /// Descend from augmented position `start` in `v` to the augmented
    /// successor position of `y` in child `c`: forward to the nearest
    /// live sample of `c` (or the sentinel), across its bridge (validated
    /// — key mismatch is a typed [`DynError::CorruptBridge`]), then back
    /// up the child's list to the first slot `>= y`. Exhausting the walk
    /// budget falls back to the child's finger index, counted in `rep`.
    fn descend_from(
        &self,
        v: u32,
        start: u32,
        c: u32,
        kind: u16,
        y: K,
        rep: &mut QueryReport,
    ) -> Result<u32, DynError> {
        let list = self.list(v)?;
        let clist = self.list(c)?;
        let cap_v = list.slots.len() as u32 + 2;
        let mut cur = start;
        let mut steps = 0u32;
        let via: u32;
        loop {
            if steps > cap_v {
                return Err(DynError::CorruptLink { node: v });
            }
            if steps > WALK_BUDGET {
                rep.finger_fallbacks += 1;
                return self.locate_ge(c, y, &mut rep.slots_walked);
            }
            let s = Self::slot_in(list, v, cur)?;
            if s.kind == SENTINEL {
                via = clist.sentinel;
                break;
            }
            if s.live && s.kind == kind {
                let cs = Self::slot_in(clist, c, s.down)?;
                if cs.key != s.key {
                    return Err(DynError::CorruptBridge { node: v, slot: cur });
                }
                via = s.down;
                break;
            }
            if s.next == NIL {
                return Err(DynError::CorruptLink { node: v });
            }
            cur = s.next;
            steps += 1;
            rep.slots_walked += 1;
        }
        rep.bridge_hops += 1;
        // Back up to the first child slot with key >= y.
        let cap_c = clist.slots.len() as u32 + 2;
        let mut cur2 = via;
        let mut steps2 = 0u32;
        loop {
            if steps2 > cap_c {
                return Err(DynError::CorruptLink { node: c });
            }
            let s = Self::slot_in(clist, c, cur2)?;
            if s.prev == NIL {
                return Ok(cur2);
            }
            let ps = Self::slot_in(clist, c, s.prev)?;
            if ps.key >= y {
                cur2 = s.prev;
                steps2 += 1;
                rep.slots_walked += 1;
            } else {
                return Ok(cur2);
            }
        }
    }

    /// Path query: for every node on the root-to-leaf `path` (consecutive
    /// entries must be parent → child), the smallest live native entry
    /// `>= y` (`None` = `+∞`), written into `out`. Reflects every applied
    /// update immediately. Any structural suspicion aborts with a typed
    /// error; `out` is then incomplete but nothing wrong was reported.
    pub fn search_path_into(
        &self,
        path: &[NodeId],
        y: K,
        out: &mut Vec<Option<K>>,
        rep: &mut QueryReport,
    ) -> Result<(), DynError> {
        out.clear();
        let mut it = path.iter();
        let mut v = match it.next() {
            Some(n) => n.0,
            None => return Ok(()),
        };
        let mut s = self.locate_ge(v, y, &mut rep.slots_walked)?;
        for n in it {
            out.push(self.native_successor_from(v, s, &mut rep.slots_walked)?);
            let c = n.0;
            let kind = self.child_kind(v, c)?;
            s = self.descend_from(v, s, c, kind, y, rep)?;
            v = c;
        }
        out.push(self.native_successor_from(v, s, &mut rep.slots_walked)?);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Update side.
    // ------------------------------------------------------------------

    /// Insert `key` into `node`'s catalog (idempotent): revive a
    /// tombstone or link a fresh native slot, then run hysteresis split
    /// propagation up the node-to-root path. Returns the per-key cost.
    pub fn apply_insert(&mut self, node: NodeId, key: K) -> Result<PatchReport, DynError> {
        let v = node.0;
        let mut rep = PatchReport::default();
        if key >= K::SUPREMUM {
            return Err(DynError::SupremumKey { node: v });
        }
        let walked_before = rep.slots_walked;
        let e = self.locate_ge(v, key, &mut rep.slots_walked)?;
        let found = self.find_native_in_tie_run(v, e, key, &mut rep.slots_walked)?;
        let target: u32;
        if found != NIL {
            let slot = self.slot_mut(v, found)?;
            if slot.live {
                rep.noop = true;
                self.counters.noops += 1;
                self.log.push(rep);
                return Ok(rep);
            }
            slot.live = true;
            let list = self.list_mut(v)?;
            list.live += 1;
            list.live_native += 1;
            list.dead = list.dead.saturating_sub(1);
            self.counters.tombstones = self.counters.tombstones.saturating_sub(1);
            target = found;
        } else {
            target = self.link_new_slot(v, e, key, NATIVE, NIL)?;
            // Densify the finger gap the locate found too long.
            if rep.slots_walked - walked_before > 2 * FINGER_GAP {
                let list = self.list_mut(v)?;
                let pos = list.fingers.partition_point(|&(k, _)| k < key);
                list.fingers.insert(pos, (key, target));
                rep.fingers_added += 1;
            }
            let list = self.list_mut(v)?;
            list.live_native += 1;
        }
        self.counters.live_native += 1;
        rep.nodes_touched += 1;
        self.propagate_split(v, target, &mut rep)?;
        self.counters.applies += 1;
        self.counters.cost_total += rep.cost() as u64;
        self.log.push(rep);
        Ok(rep)
    }

    /// Delete `key` from `node`'s catalog (idempotent): tombstone the
    /// native slot, tombstone any parent samples mirroring now-dead
    /// slots (the delete chain), and run hysteresis merge propagation.
    pub fn apply_remove(&mut self, node: NodeId, key: K) -> Result<PatchReport, DynError> {
        let v = node.0;
        let mut rep = PatchReport::default();
        let e = self.locate_ge(v, key, &mut rep.slots_walked)?;
        let found = self.find_native_in_tie_run(v, e, key, &mut rep.slots_walked)?;
        let live = found != NIL && self.slot_ref(v, found)?.live;
        if !live {
            rep.noop = true;
            self.counters.noops += 1;
            self.log.push(rep);
            return Ok(rep);
        }
        self.tombstone(v, found, true)?;
        self.counters.live_native = self.counters.live_native.saturating_sub(1);
        // Propagate: dead-mirror sample chains plus block merges, both
        // strictly upward, via the reused worklist.
        let mut work = std::mem::take(&mut self.scratch);
        work.clear();
        work.push((v, found));
        let mut guard = 0u32;
        let limit = 4 * self.nodes.len() as u32 + 16;
        while let Some((nv, ns)) = work.pop() {
            guard += 1;
            if guard > limit {
                self.scratch = work;
                return Err(DynError::CorruptLink { node: nv });
            }
            rep.nodes_touched += 1;
            // A sample mirroring a dead slot is dropped from its parent.
            let up = self.slot_ref(nv, ns)?.up;
            if up != NIL {
                self.slot_mut(nv, ns)?.up = NIL;
                let p = self.parent_of(nv)?;
                if p == NIL {
                    self.scratch = work;
                    return Err(DynError::CorruptBridge { node: nv, slot: ns });
                }
                if self.slot_ref(p, up)?.live {
                    self.tombstone(p, up, false)?;
                    rep.samples_dropped += 1;
                    self.counters.samples_dropped += 1;
                    work.push((p, up));
                }
            }
            // Block merge: a live run shrunk below the hysteresis floor
            // gives one bounding sample back to the parent.
            let count = self.block_live_count(nv, ns, &mut rep.slots_walked)?;
            if count < BLOCK_LO {
                let rb = self.right_sampled_boundary(nv, ns, &mut rep.slots_walked)?;
                if rb != NIL {
                    let up2 = self.slot_ref(nv, rb)?.up;
                    if up2 != NIL {
                        self.slot_mut(nv, rb)?.up = NIL;
                        let p = self.parent_of(nv)?;
                        if p != NIL && self.slot_ref(p, up2)?.live {
                            self.tombstone(p, up2, false)?;
                            rep.samples_dropped += 1;
                            self.counters.samples_dropped += 1;
                            work.push((p, up2));
                        }
                    }
                }
            }
        }
        self.scratch = work;
        self.counters.applies += 1;
        self.counters.cost_total += rep.cost() as u64;
        self.log.push(rep);
        Ok(rep)
    }

    /// Scan the tie run starting at `e` for a native slot whose key is
    /// exactly `key`; `NIL` if the run holds none.
    fn find_native_in_tie_run(
        &self,
        v: u32,
        e: u32,
        key: K,
        walked: &mut u32,
    ) -> Result<u32, DynError> {
        let list = self.list(v)?;
        let cap = list.slots.len() as u32 + 2;
        let mut cur = e;
        let mut steps = 0u32;
        loop {
            if steps > cap {
                return Err(DynError::CorruptLink { node: v });
            }
            let s = Self::slot_in(list, v, cur)?;
            if s.kind == SENTINEL || s.key != key {
                return Ok(NIL);
            }
            if s.kind == NATIVE {
                return Ok(cur);
            }
            if s.next == NIL {
                return Err(DynError::CorruptLink { node: v });
            }
            cur = s.next;
            steps += 1;
            *walked += 1;
        }
    }

    /// Link a fresh live slot with `key` immediately before `before`.
    fn link_new_slot(
        &mut self,
        v: u32,
        before: u32,
        key: K,
        kind: u16,
        down: u32,
    ) -> Result<u32, DynError> {
        let list = self.list_mut(v)?;
        let prev = list
            .slots
            .get(before as usize)
            .ok_or(DynError::SlotOutOfRange {
                node: v,
                slot: before,
            })?
            .prev;
        let new_ix = list.slots.len() as u32;
        list.slots.push(Slot {
            key,
            prev,
            next: before,
            kind,
            live: true,
            down,
            up: NIL,
        });
        list.slots
            .get_mut(before as usize)
            .ok_or(DynError::SlotOutOfRange {
                node: v,
                slot: before,
            })?
            .prev = new_ix;
        if prev == NIL {
            list.head = new_ix;
        } else {
            list.slots
                .get_mut(prev as usize)
                .ok_or(DynError::SlotOutOfRange {
                    node: v,
                    slot: prev,
                })?
                .next = new_ix;
        }
        list.live += 1;
        Ok(new_ix)
    }

    /// Tombstone a live slot, maintaining gauges and density dirt.
    fn tombstone(&mut self, v: u32, s: u32, native: bool) -> Result<(), DynError> {
        let min_dead = self.cfg.min_dead;
        let dead_frac = self.cfg.dead_frac;
        let list = self.list_mut(v)?;
        let slot = list
            .slots
            .get_mut(s as usize)
            .ok_or(DynError::SlotOutOfRange { node: v, slot: s })?;
        if !slot.live {
            return Ok(());
        }
        slot.live = false;
        list.live = list.live.saturating_sub(1);
        if native {
            list.live_native = list.live_native.saturating_sub(1);
        }
        list.dead += 1;
        let total = list.live + list.dead;
        let over = list.dead as f64 > (min_dead as f64).max(dead_frac * total as f64);
        let newly_dirty = over && !list.dirty;
        if newly_dirty {
            list.dirty = true;
        }
        self.counters.tombstones += 1;
        if newly_dirty {
            self.density_dirty.push(v);
        }
        Ok(())
    }

    /// Count live slots in the block containing `s` (the run between the
    /// nearest live sampled slots on either side, exclusive), capped at
    /// `BLOCK_HI + 1` — enough to decide both hysteresis thresholds.
    fn block_live_count(&self, v: u32, s: u32, walked: &mut u32) -> Result<u32, DynError> {
        let list = self.list(v)?;
        let cap = list.slots.len() as u32 + 2;
        let mut count = 0u32;
        // Left: walk to the nearest live sampled boundary or the head.
        let mut cur = s;
        let mut steps = 0u32;
        loop {
            if steps > cap {
                return Err(DynError::CorruptLink { node: v });
            }
            let slot = Self::slot_in(list, v, cur)?;
            if slot.live && slot.up != NIL && cur != s {
                break; // boundary, exclusive
            }
            if slot.live && slot.kind != SENTINEL && cur != s {
                count += 1;
                if count > BLOCK_HI {
                    return Ok(count);
                }
            }
            if slot.prev == NIL {
                break;
            }
            cur = slot.prev;
            steps += 1;
            *walked += 1;
        }
        // The slot itself, when live and unsampled, is part of the run.
        let own = Self::slot_in(list, v, s)?;
        if own.live && own.up == NIL && own.kind != SENTINEL {
            count += 1;
        }
        // Right: same walk forward.
        let mut cur = s;
        let mut steps = 0u32;
        loop {
            if steps > cap {
                return Err(DynError::CorruptLink { node: v });
            }
            let slot = Self::slot_in(list, v, cur)?;
            if cur != s {
                if slot.kind == SENTINEL || (slot.live && slot.up != NIL) {
                    break;
                }
                if slot.live {
                    count += 1;
                    if count > BLOCK_HI {
                        return Ok(count);
                    }
                }
            }
            if slot.next == NIL {
                break;
            }
            cur = slot.next;
            steps += 1;
            *walked += 1;
        }
        Ok(count)
    }

    /// The nearest live sampled slot at or after `s` (`NIL` when the
    /// sentinel arrives first).
    fn right_sampled_boundary(&self, v: u32, s: u32, walked: &mut u32) -> Result<u32, DynError> {
        let list = self.list(v)?;
        let cap = list.slots.len() as u32 + 2;
        let mut cur = s;
        let mut steps = 0u32;
        loop {
            if steps > cap {
                return Err(DynError::CorruptLink { node: v });
            }
            let slot = Self::slot_in(list, v, cur)?;
            if slot.kind == SENTINEL {
                return Ok(NIL);
            }
            if slot.live && slot.up != NIL {
                return Ok(cur);
            }
            if slot.next == NIL {
                return Err(DynError::CorruptLink { node: v });
            }
            cur = slot.next;
            steps += 1;
            *walked += 1;
        }
    }

    /// Hysteresis split propagation: while the block containing the
    /// touched slot overflows `BLOCK_HI`, promote a middle element into
    /// the parent and continue one level up with the fresh sample slot.
    fn propagate_split(
        &mut self,
        v_in: u32,
        s_in: u32,
        rep: &mut PatchReport,
    ) -> Result<(), DynError> {
        let mut v = v_in;
        let mut s = s_in;
        let mut guard = 0u32;
        let limit = self.nodes.len() as u32 + 4;
        loop {
            guard += 1;
            if guard > limit {
                return Err(DynError::CorruptLink { node: v });
            }
            let p = self.parent_of(v)?;
            if p == NIL {
                return Ok(());
            }
            let count = self.block_live_count(v, s, &mut rep.slots_walked)?;
            if count <= BLOCK_HI {
                return Ok(());
            }
            let m = self.block_middle(v, s, count / 2, &mut rep.slots_walked)?;
            if m == NIL {
                return Ok(()); // no promotable slot (all sampled): stop
            }
            let mk = self.slot_ref(v, m)?.key;
            let kind = self.child_kind(p, v)?;
            let e = self.locate_ge(p, mk, &mut rep.slots_walked)?;
            let new_ix = self.link_new_slot(p, e, mk, kind, m)?;
            self.slot_mut(v, m)?.up = new_ix;
            rep.samples_added += 1;
            rep.nodes_touched += 1;
            self.counters.samples_added += 1;
            v = p;
            s = new_ix;
        }
    }

    /// Walk left to the block's start, then forward `k` live slots to a
    /// live *unsampled* non-sentinel slot to promote (`NIL` if none).
    fn block_middle(&self, v: u32, s: u32, k: u32, walked: &mut u32) -> Result<u32, DynError> {
        let list = self.list(v)?;
        let cap = list.slots.len() as u32 + 2;
        // Left edge of the block (first slot after the left boundary).
        let mut cur = s;
        let mut steps = 0u32;
        loop {
            if steps > cap {
                return Err(DynError::CorruptLink { node: v });
            }
            let slot = Self::slot_in(list, v, cur)?;
            if slot.prev == NIL {
                break;
            }
            let prev = Self::slot_in(list, v, slot.prev)?;
            if prev.live && prev.up != NIL {
                break;
            }
            cur = slot.prev;
            steps += 1;
            *walked += 1;
        }
        // Forward: the k-th live slot (1-based), then first promotable.
        let mut seen = 0u32;
        let mut steps = 0u32;
        loop {
            if steps > cap {
                return Err(DynError::CorruptLink { node: v });
            }
            let slot = Self::slot_in(list, v, cur)?;
            if slot.kind == SENTINEL {
                return Ok(NIL);
            }
            if slot.live {
                seen += 1;
                if seen >= k.max(1) && slot.up == NIL {
                    return Ok(cur);
                }
            }
            if slot.next == NIL {
                return Err(DynError::CorruptLink { node: v });
            }
            cur = slot.next;
            steps += 1;
            *walked += 1;
        }
    }

    // ------------------------------------------------------------------
    // Audit.
    // ------------------------------------------------------------------

    /// Full structural audit: link integrity (every slot reachable
    /// exactly once, sentinel last), non-decreasing keys, live/dead
    /// tallies, bridge/back-reference consistency for live samples,
    /// finger validity, and the tombstone density bound. First violation
    /// wins, as a typed error.
    pub fn audit(&self) -> Result<(), DynError> {
        for (vi, list) in self.nodes.iter().enumerate() {
            let v = vi as u32;
            let mut cur = list.head;
            let mut visited = 0usize;
            let mut live = 0u32;
            let mut live_native = 0u32;
            let mut dead = 0u32;
            let mut prev_ix = NIL;
            let mut prev_key: Option<K> = None;
            let mut saw_sentinel = false;
            while cur != NIL {
                if visited > list.slots.len() {
                    return Err(DynError::CorruptLink { node: v });
                }
                let slot = Self::slot_in(list, v, cur)?;
                if slot.prev != prev_ix {
                    return Err(DynError::CorruptLink { node: v });
                }
                if let Some(pk) = prev_key {
                    if slot.key < pk {
                        return Err(DynError::CorruptOrder { node: v, slot: cur });
                    }
                }
                if saw_sentinel {
                    return Err(DynError::CorruptLink { node: v });
                }
                match slot.kind {
                    SENTINEL => {
                        if !slot.live || slot.key != K::SUPREMUM || cur != list.sentinel {
                            return Err(DynError::CorruptLink { node: v });
                        }
                        saw_sentinel = true;
                    }
                    NATIVE => {
                        if slot.live {
                            live += 1;
                            live_native += 1;
                        } else {
                            dead += 1;
                        }
                    }
                    kind => {
                        if slot.live {
                            live += 1;
                            // Live sample: bridge must mirror a live child
                            // slot with the same key pointing back here.
                            let c = self
                                .children
                                .get(vi)
                                .and_then(|k| k.get((kind - 1) as usize))
                                .copied()
                                .ok_or(DynError::CorruptBridge { node: v, slot: cur })?;
                            let mirror = self.slot_ref(c, slot.down)?;
                            if mirror.key != slot.key || mirror.up != cur {
                                return Err(DynError::CorruptBridge { node: v, slot: cur });
                            }
                        } else {
                            dead += 1;
                        }
                    }
                }
                prev_key = Some(slot.key);
                prev_ix = cur;
                cur = slot.next;
                visited += 1;
            }
            if !saw_sentinel || visited != list.slots.len() {
                return Err(DynError::CorruptLink { node: v });
            }
            if live != list.live || dead != list.dead || live_native != list.live_native {
                return Err(DynError::CorruptCounts { node: v });
            }
            for (fi, &(k, s)) in list.fingers.iter().enumerate() {
                let slot = Self::slot_in(list, v, s)?;
                if slot.key != k {
                    return Err(DynError::CorruptFinger {
                        node: v,
                        finger: fi as u32,
                    });
                }
            }
            let total = list.live + list.dead;
            if list.dead as f64 > (self.cfg.min_dead as f64).max(self.cfg.dead_frac * total as f64)
            {
                return Err(DynError::DensityViolation {
                    node: v,
                    dead: list.dead,
                    total,
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault-injection hooks (tests only; not part of the stable API).
    // ------------------------------------------------------------------

    /// Corrupt the first live sample slot's `down` bridge at `node` so a
    /// descent through it must produce a typed error. Returns whether a
    /// sample was found to corrupt.
    #[doc(hidden)]
    pub fn corrupt_bridge_for_fault_injection(&mut self, node: u32) -> bool {
        if let Some(list) = self.nodes.get_mut(node as usize) {
            for slot in list.slots.iter_mut() {
                if slot.live && slot.kind != NATIVE && slot.kind != SENTINEL {
                    slot.down = u32::MAX - 1;
                    return true;
                }
            }
        }
        false
    }

    /// Cycle the list at `node` (a slot's `next` pointing back at the
    /// head) so walks must hit the cycle guard. Returns whether applied.
    #[doc(hidden)]
    pub fn corrupt_link_for_fault_injection(&mut self, node: u32) -> bool {
        if let Some(list) = self.nodes.get_mut(node as usize) {
            let head = list.head;
            let sent = list.sentinel as usize;
            if let Some(slot) = list.slots.get_mut(sent.saturating_sub(1)) {
                if slot.kind != SENTINEL {
                    slot.next = head;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn brute(dc: &DynCascade<i64>, path: &[NodeId], y: i64) -> Vec<Option<i64>> {
        path.iter()
            .map(|&n| dc.live_native_catalog(n).into_iter().find(|&k| k >= y))
            .collect()
    }

    fn check_paths(dc: &DynCascade<i64>, tree: &CatalogTree<i64>, rng: &mut SmallRng, tag: &str) {
        let mut out = Vec::new();
        let mut rep = QueryReport::default();
        for _ in 0..6 {
            let leaf = gen::random_leaf(tree, rng);
            let path = tree.path_from_root(leaf);
            let y = rng.gen_range(-10..70_010i64);
            dc.search_path_into(&path, y, &mut out, &mut rep)
                .unwrap_or_else(|e| panic!("{tag}: typed error on clean structure: {e}"));
            assert_eq!(out, brute(dc, &path, y), "{tag} y={y}");
        }
    }

    #[test]
    fn build_then_search_matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(901);
        for depth in [2u32, 4, 6] {
            let tree = gen::balanced_binary(depth, 1500, SizeDist::Uniform, &mut rng);
            let dc = DynCascade::build(&tree, DynConfig::default());
            dc.audit().expect("fresh build audits clean");
            check_paths(&dc, &tree, &mut rng, "fresh");
        }
    }

    #[test]
    fn incremental_updates_stay_oracle_equal_and_audit_clean() {
        let mut rng = SmallRng::seed_from_u64(903);
        let tree = gen::balanced_binary(5, 2000, SizeDist::Uniform, &mut rng);
        let mut dc = DynCascade::build(&tree, DynConfig::default());
        let nodes = tree.len() as u32;
        for step in 0..4000 {
            let node = NodeId(rng.gen_range(0..nodes));
            let key = rng.gen_range(0..70_000i64);
            if rng.gen_bool(0.6) {
                dc.apply_insert(node, key).expect("insert");
            } else {
                dc.apply_remove(node, key).expect("remove");
            }
            if step % 200 == 0 {
                dc.audit().unwrap_or_else(|e| panic!("step {step}: {e}"));
                check_paths(&dc, &tree, &mut rng, "churn");
            }
        }
        let c = dc.counters();
        assert!(c.applies > 0 && c.samples_added > 0, "hysteresis must fire");
        assert!(dc.patch_log().total() > 0);
    }

    #[test]
    fn patch_cost_is_per_key_not_per_structure() {
        let mut rng = SmallRng::seed_from_u64(905);
        let tree = gen::balanced_binary(6, 6000, SizeDist::Uniform, &mut rng);
        let mut dc = DynCascade::build(&tree, DynConfig::default());
        let nodes = tree.len() as u32;
        let mut worst = 0u32;
        let mut total = 0u64;
        let updates = 3000u32;
        for _ in 0..updates {
            let node = NodeId(rng.gen_range(0..nodes));
            let key = rng.gen_range(0..1_000_000i64);
            let rep = if rng.gen_bool(0.55) {
                dc.apply_insert(node, key).expect("insert")
            } else {
                dc.apply_remove(node, key).expect("remove")
            };
            worst = worst.max(rep.cost());
            total += rep.cost() as u64;
        }
        let mean = total as f64 / updates as f64;
        // 6000 keys in the structure; per-update touched slots must stay
        // orders of magnitude below that (path length × hysteresis band).
        assert!(mean < 300.0, "mean per-update cost too high: {mean}");
        assert!(worst < 6000, "a single update touched the whole structure");
    }

    #[test]
    fn tombstones_accumulate_into_density_violation() {
        let mut rng = SmallRng::seed_from_u64(907);
        let tree = gen::balanced_binary(3, 600, SizeDist::Uniform, &mut rng);
        let cfg = DynConfig {
            min_dead: 8,
            dead_frac: 0.05,
        };
        let mut dc = DynCascade::build(&tree, cfg);
        assert!(dc.needs_compaction().is_none());
        let root = tree.root();
        let keys = dc.live_native_catalog(root);
        for &k in keys.iter().take(keys.len() / 2) {
            dc.apply_remove(root, k).expect("remove");
        }
        assert!(dc.needs_compaction().is_some(), "density dirt must surface");
        assert!(matches!(dc.audit(), Err(DynError::DensityViolation { .. })));
    }

    #[test]
    fn corrupted_bridge_is_a_typed_error_never_wrong() {
        let mut rng = SmallRng::seed_from_u64(909);
        let tree = gen::balanced_binary(4, 1200, SizeDist::Uniform, &mut rng);
        let mut dc = DynCascade::build(&tree, DynConfig::default());
        let root = tree.root();
        assert!(dc.corrupt_bridge_for_fault_injection(root.0));
        assert!(dc.audit().is_err(), "audit must see the bad bridge");
        // Sweep queries: every result is either correct or a typed error.
        let mut out = Vec::new();
        let mut rep = QueryReport::default();
        let mut typed = 0u32;
        for _ in 0..200 {
            let leaf = gen::random_leaf(&tree, &mut rng);
            let path = tree.path_from_root(leaf);
            let y = rng.gen_range(0..70_000i64);
            match dc.search_path_into(&path, y, &mut out, &mut rep) {
                Ok(()) => assert_eq!(out, brute(&dc, &path, y), "silently wrong answer"),
                Err(_) => typed += 1,
            }
        }
        assert!(typed > 0, "the corruption must be hit and typed");
    }

    #[test]
    fn cycled_links_hit_the_guard_not_a_hang() {
        let mut rng = SmallRng::seed_from_u64(911);
        let tree = gen::balanced_binary(3, 400, SizeDist::Uniform, &mut rng);
        let mut dc = DynCascade::build(&tree, DynConfig::default());
        let root = tree.root();
        assert!(dc.corrupt_link_for_fault_injection(root.0));
        let path = vec![root];
        let mut out = Vec::new();
        let mut rep = QueryReport::default();
        // High key forces a long walk into the cycle.
        let r = dc.search_path_into(&path, i64::MAX - 1, &mut out, &mut rep);
        assert!(
            matches!(r, Err(DynError::CorruptLink { .. })) || r.is_ok(),
            "must be typed or correct, got {r:?}"
        );
        assert!(dc.audit().is_err());
    }

    #[test]
    fn supremum_insert_rejected_typed() {
        let mut rng = SmallRng::seed_from_u64(913);
        let tree = gen::balanced_binary(2, 50, SizeDist::Uniform, &mut rng);
        let mut dc = DynCascade::build(&tree, DynConfig::default());
        assert!(matches!(
            dc.apply_insert(tree.root(), i64::MAX),
            Err(DynError::SupremumKey { .. })
        ));
        // MAX - 1 is a fine key.
        dc.apply_insert(tree.root(), i64::MAX - 1).expect("ok");
        let mut out = Vec::new();
        let mut rep = QueryReport::default();
        dc.search_path_into(&[tree.root()], i64::MAX - 1, &mut out, &mut rep)
            .expect("search");
        assert_eq!(out, vec![Some(i64::MAX - 1)]);
    }

    #[test]
    fn revive_after_tombstone_roundtrips() {
        let mut rng = SmallRng::seed_from_u64(915);
        let tree = gen::balanced_binary(3, 300, SizeDist::Uniform, &mut rng);
        let mut dc = DynCascade::build(&tree, DynConfig::default());
        let root = tree.root();
        let k = dc.live_native_catalog(root)[0];
        let r1 = dc.apply_remove(root, k).expect("remove");
        assert!(!r1.noop);
        let r2 = dc.apply_remove(root, k).expect("remove again");
        assert!(r2.noop, "double delete is a noop");
        let r3 = dc.apply_insert(root, k).expect("revive");
        assert!(!r3.noop);
        let r4 = dc.apply_insert(root, k).expect("dup insert");
        assert!(r4.noop);
        assert!(dc.live_native_catalog(root).contains(&k));
        dc.audit().expect("clean after roundtrip");
    }
}
