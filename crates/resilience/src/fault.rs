//! Deterministic, seedable fault injection.
//!
//! A [`FaultPlan`] is a concrete list of [`Fault`]s — every coordinate and
//! replacement value fixed at generation time — so a plan can be printed,
//! replayed, and shrunk. Generation ([`FaultPlan::generate`]) picks sites
//! with a seeded `SmallRng` and is **detectable by construction**: each
//! fault kind is built so that it provably violates an invariant the
//! [`crate::audit`] checks:
//!
//! * [`Fault::KeySwap`] transposes two adjacent (hence distinct) augmented
//!   keys — breaks strict order.
//! * [`Fault::KeyClobber`] overwrites a native-valued entry with a copy of
//!   its successor — breaks completeness (the native key vanishes) and
//!   strictness (a duplicate appears).
//! * [`Fault::SupremumClobber`] replaces the terminal `+∞` — breaks the
//!   terminal check.
//! * [`Fault::BridgePerturb`] / [`Fault::NativeSuccPerturb`] move a pointer
//!   to a *different* in-range value — breaks row exactness (the builder's
//!   value is the unique exact partition point, so any change is visible).
//!   Undershooting perturbations are the ones a plain search silently
//!   mis-answers on; the audit and the checked search both catch them.
//! * [`Fault::SkeletonPerturb`] moves one skeleton key — breaks the
//!   root-key formula or the bridge induction of its unit.
//! * [`Fault::KillProcessors`] schedules processor deaths on the [`Pram`]
//!   at a chosen round ([`FaultPlan::arm`]); it corrupts no memory and is
//!   exercised by the degraded-mode search instead of the audit.
//! * [`Fault::InsBufferCorrupt`] / [`Fault::DelBufferCorrupt`] /
//!   [`Fault::CounterBump`] corrupt the *dynamic* path — `DynamicCoop`'s
//!   insert/delete buffers and rebuild-threshold counter — and each
//!   provably violates a buffer invariant that
//!   `DynamicCoop::audit_buffers` checks ([`FaultPlan::generate_dynamic`] /
//!   [`FaultPlan::apply_dynamic`]).

use fc_catalog::{CatalogKey, NodeId};
use fc_coop::dynamic::DynamicCoop;
use fc_coop::CoopStructure;
use fc_pram::cost::Pram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One concrete injected fault (all coordinates and values resolved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Swap augmented keys `entry` and `entry + 1` of `node`.
    KeySwap {
        /// Arena index of the node.
        node: u32,
        /// Left index of the swapped pair.
        entry: usize,
    },
    /// Overwrite the native-valued augmented entry `entry` of `node` with a
    /// copy of its successor entry.
    KeyClobber {
        /// Arena index of the node.
        node: u32,
        /// Entry holding a native key.
        entry: usize,
    },
    /// Overwrite the terminal `+∞` of `node` with its predecessor's value.
    SupremumClobber {
        /// Arena index of the node.
        node: u32,
    },
    /// Set `bridges[slot][entry] = new` at `node` (in-range, `!=` old).
    BridgePerturb {
        /// Arena index of the parent node.
        node: u32,
        /// Child slot.
        slot: usize,
        /// Bridge entry.
        entry: usize,
        /// Replacement target index.
        new: u32,
    },
    /// Set `native_succ[entry] = new` at `node` (in-range, `!=` old).
    NativeSuccPerturb {
        /// Arena index of the node.
        node: u32,
        /// Entry.
        entry: usize,
        /// Replacement rank.
        new: u32,
    },
    /// Set skeleton key `(j, z)` of unit `unit` in substructure `sub` to
    /// `new` (in-range for node `z`'s catalog, `!=` old) — the
    /// "skeleton-sample deletion" of the fault model: the sampled pointer
    /// is lost and replaced by garbage.
    SkeletonPerturb {
        /// Substructure index.
        sub: usize,
        /// Unit index.
        unit: usize,
        /// Skeleton tree index.
        j: usize,
        /// Unit-local node index.
        z: usize,
        /// Replacement key (augmented-catalog index).
        new: u32,
    },
    /// Kill `count` virtual processors just before PRAM round `at_round`.
    KillProcessors {
        /// Round number (0-based, in charge order).
        at_round: u64,
        /// Processors to kill.
        count: usize,
    },
    /// Dynamic path: smuggle the static catalog key of rank `rank` at
    /// `node` into the insert buffer — violates the buffer invariant that
    /// `ins` never duplicates static content, so
    /// `DynamicCoop::audit_buffers` blames `InsDuplicatesStatic`.
    InsBufferCorrupt {
        /// Arena index of the node.
        node: u32,
        /// Rank of the duplicated key in the node's static catalog.
        rank: u32,
    },
    /// Dynamic path: copy the `ins_rank`-th buffered insert of `node` into
    /// the delete buffer — the key is not statically present, violating
    /// both the `DelPhantom` and `InsDelOverlap` buffer invariants.
    DelBufferCorrupt {
        /// Arena index of the node.
        node: u32,
        /// Rank of the copied key in the node's insert buffer.
        ins_rank: u32,
    },
    /// Dynamic path: bump the buffered-change counter by 1 — the counter's
    /// parity no longer matches the buffer sizes (`CounterMismatch`), and
    /// the rebuild threshold fires early or late.
    CounterBump,
}

/// How many faults of each kind [`FaultPlan::generate`] should place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Adjacent-key transpositions.
    pub key_swaps: usize,
    /// Native-key clobbers.
    pub key_clobbers: usize,
    /// Terminal-supremum clobbers.
    pub supremum_clobbers: usize,
    /// Bridge pointer perturbations.
    pub bridge_perturbs: usize,
    /// `native_succ` perturbations.
    pub native_succ_perturbs: usize,
    /// Skeleton key perturbations.
    pub skeleton_perturbs: usize,
    /// Insert-buffer corruptions (dynamic path;
    /// [`FaultPlan::generate_dynamic`] only).
    pub ins_buffer_corrupts: usize,
    /// Delete-buffer corruptions (dynamic path;
    /// [`FaultPlan::generate_dynamic`] only).
    pub del_buffer_corrupts: usize,
    /// Change-counter bumps (dynamic path;
    /// [`FaultPlan::generate_dynamic`] only).
    pub counter_bumps: usize,
    /// Processor-kill schedule: `(at_round, count)` pairs.
    pub kills: Vec<(u64, usize)>,
}

impl FaultSpec {
    /// A spec with one fault of every structural kind (no kills, no
    /// dynamic-path faults).
    pub fn one_of_each() -> Self {
        FaultSpec {
            key_swaps: 1,
            key_clobbers: 1,
            supremum_clobbers: 1,
            bridge_perturbs: 1,
            native_succ_perturbs: 1,
            skeleton_perturbs: 1,
            ..FaultSpec::default()
        }
    }

    /// A spec with one fault of every dynamic-path kind (buffer and
    /// counter corruption; no static-structure faults).
    pub fn one_of_each_dynamic() -> Self {
        FaultSpec {
            ins_buffer_corrupts: 1,
            del_buffer_corrupts: 1,
            counter_bumps: 1,
            ..FaultSpec::default()
        }
    }

    /// Total number of memory-corrupting faults requested (static
    /// structure only; dynamic-path faults are counted separately by
    /// [`FaultSpec::dynamic_total`]).
    pub fn structural_total(&self) -> usize {
        self.key_swaps
            + self.key_clobbers
            + self.supremum_clobbers
            + self.bridge_perturbs
            + self.native_succ_perturbs
            + self.skeleton_perturbs
    }

    /// Total number of dynamic-path (buffer/counter) faults requested.
    pub fn dynamic_total(&self) -> usize {
        self.ins_buffer_corrupts + self.del_buffer_corrupts + self.counter_bumps
    }
}

/// A deterministic, replayable list of faults for one structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the sites were drawn with.
    pub seed: u64,
    /// The resolved faults, in injection order.
    pub faults: Vec<Fault>,
}

/// Bounded site-search attempts per requested fault (sites can be
/// infeasible on degenerate structures, e.g. single-entry catalogs).
const SITE_ATTEMPTS: usize = 256;

impl FaultPlan {
    /// Resolve `spec` against `st` into concrete faults, drawing sites with
    /// a `SmallRng` seeded by `seed`. Infeasible requests (no valid site
    /// found after a bounded search) are silently dropped, so the returned
    /// plan may hold fewer faults than requested; every returned structural
    /// fault is guaranteed detectable by [`crate::audit`].
    pub fn generate<K: CatalogKey>(st: &CoopStructure<K>, spec: &FaultSpec, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let fc = st.cascade();
        let tree = st.tree();
        let ids: Vec<NodeId> = tree.ids().collect();
        let mut faults = Vec::new();

        let pick_node = |rng: &mut SmallRng| ids[rng.gen_range(0..ids.len())];

        for _ in 0..spec.key_swaps {
            for _ in 0..SITE_ATTEMPTS {
                let v = pick_node(&mut rng);
                let n = fc.keys(v).len();
                if n < 3 {
                    continue; // need two non-terminal entries
                }
                let entry = rng.gen_range(0..n - 2);
                faults.push(Fault::KeySwap { node: v.0, entry });
                break;
            }
        }

        for _ in 0..spec.key_clobbers {
            for _ in 0..SITE_ATTEMPTS {
                let v = pick_node(&mut rng);
                let native = tree.catalog(v);
                if native.is_empty() {
                    continue;
                }
                let nv = native[rng.gen_range(0..native.len())];
                if nv == K::SUPREMUM {
                    continue;
                }
                let keys = fc.keys(v);
                let entry = keys.partition_point(|k| *k < nv);
                // Completeness of a clean structure guarantees a hit; the
                // guards below keep generation safe on an already-dirty one.
                if entry + 1 >= keys.len() || keys[entry] != nv {
                    continue;
                }
                faults.push(Fault::KeyClobber { node: v.0, entry });
                break;
            }
        }

        for _ in 0..spec.supremum_clobbers {
            for _ in 0..SITE_ATTEMPTS {
                let v = pick_node(&mut rng);
                let keys = fc.keys(v);
                let n = keys.len();
                if n < 2 || keys[n - 2] == K::SUPREMUM {
                    continue;
                }
                faults.push(Fault::SupremumClobber { node: v.0 });
                break;
            }
        }

        for _ in 0..spec.bridge_perturbs {
            for _ in 0..SITE_ATTEMPTS {
                let v = pick_node(&mut rng);
                let children = tree.children(v);
                if children.is_empty() {
                    continue;
                }
                let slot = rng.gen_range(0..children.len());
                let child_len = fc.keys(children[slot]).len();
                if child_len < 2 {
                    continue; // no second value to move to
                }
                let row = &fc.aug(v).bridges[slot];
                let entry = rng.gen_range(0..row.len());
                let old = row[entry];
                let new = (old as usize + 1 + rng.gen_range(0..child_len - 1)) % child_len;
                faults.push(Fault::BridgePerturb {
                    node: v.0,
                    slot,
                    entry,
                    new: new as u32,
                });
                break;
            }
        }

        for _ in 0..spec.native_succ_perturbs {
            for _ in 0..SITE_ATTEMPTS {
                let v = pick_node(&mut rng);
                let nl = tree.catalog(v).len();
                if nl == 0 {
                    continue; // only rank 0 exists: no different value
                }
                let succ = &fc.aug(v).native_succ;
                let entry = rng.gen_range(0..succ.len());
                let old = succ[entry];
                let new = (old as usize + 1 + rng.gen_range(0..nl)) % (nl + 1);
                faults.push(Fault::NativeSuccPerturb {
                    node: v.0,
                    entry,
                    new: new as u32,
                });
                break;
            }
        }

        for _ in 0..spec.skeleton_perturbs {
            let subs = st.substructures();
            for _ in 0..SITE_ATTEMPTS {
                if subs.is_empty() {
                    break;
                }
                let si = rng.gen_range(0..subs.len());
                if subs[si].units.is_empty() {
                    continue;
                }
                let ui = rng.gen_range(0..subs[si].units.len());
                let unit = &subs[si].units[ui];
                let zn = unit.nodes.len();
                let j = rng.gen_range(0..unit.m as usize);
                let z = rng.gen_range(0..zn);
                let t_z = fc.keys(unit.nodes[z]).len();
                if t_z < 2 {
                    continue;
                }
                let old = unit.key(j, z);
                let new = (old as usize + 1 + rng.gen_range(0..t_z - 1)) % t_z;
                faults.push(Fault::SkeletonPerturb {
                    sub: si,
                    unit: ui,
                    j,
                    z,
                    new: new as u32,
                });
                break;
            }
        }

        for &(at_round, count) in &spec.kills {
            faults.push(Fault::KillProcessors { at_round, count });
        }

        FaultPlan { seed, faults }
    }

    /// Resolve `spec` against a *dynamic* structure: the static fault kinds
    /// are drawn against the wrapped [`CoopStructure`] exactly as
    /// [`FaultPlan::generate`] does, and the dynamic-path kinds
    /// (`ins_buffer_corrupts` / `del_buffer_corrupts` / `counter_bumps`)
    /// are drawn against the current insert/delete buffers. As with the
    /// static generator, infeasible sites (e.g. a delete-buffer corruption
    /// when no inserts are buffered anywhere) are dropped, and every
    /// returned dynamic fault is guaranteed detectable by
    /// [`DynamicCoop::audit_buffers`].
    pub fn generate_dynamic<K: CatalogKey>(
        dy: &DynamicCoop<K>,
        spec: &FaultSpec,
        seed: u64,
    ) -> Self {
        let mut plan = Self::generate(dy.structure(), spec, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1AA_0001);
        let tree = dy.structure().tree();
        let ids: Vec<NodeId> = tree.ids().collect();

        for _ in 0..spec.ins_buffer_corrupts {
            for _ in 0..SITE_ATTEMPTS {
                let v = ids[rng.gen_range(0..ids.len())];
                let native = tree.catalog(v);
                if native.is_empty() {
                    continue;
                }
                let rank = rng.gen_range(0..native.len());
                plan.faults.push(Fault::InsBufferCorrupt {
                    node: v.0,
                    rank: rank as u32,
                });
                break;
            }
        }

        for _ in 0..spec.del_buffer_corrupts {
            // Needs a node with at least one buffered insert.
            let candidates: Vec<NodeId> = ids
                .iter()
                .copied()
                .filter(|&v| !dy.buffered_inserts(v).is_empty())
                .collect();
            if candidates.is_empty() {
                break;
            }
            let v = candidates[rng.gen_range(0..candidates.len())];
            let n = dy.buffered_inserts(v).len();
            plan.faults.push(Fault::DelBufferCorrupt {
                node: v.0,
                ins_rank: rng.gen_range(0..n) as u32,
            });
        }

        for _ in 0..spec.counter_bumps {
            plan.faults.push(Fault::CounterBump);
        }

        plan
    }

    /// Apply the plan to a dynamic structure: static faults go to the
    /// wrapped [`CoopStructure`], dynamic faults to the buffers and change
    /// counter. Out-of-date coordinates are skipped, as in
    /// [`FaultPlan::apply`].
    pub fn apply_dynamic<K: CatalogKey>(&self, dy: &mut DynamicCoop<K>) {
        // Stale-coordinate lookups need the tree before the buffers are
        // mutably borrowed.
        let ids: Vec<NodeId> = dy.structure().tree().ids().collect();
        let static_keys: Vec<Vec<K>> = ids
            .iter()
            .map(|&id| dy.structure().tree().catalog(id).to_vec())
            .collect();
        self.apply(dy.structure_mut_for_repair());
        let (ins, del, changes) = dy.buffers_mut_for_fault_injection();
        for &fault in &self.faults {
            match fault {
                Fault::InsBufferCorrupt { node, rank } => {
                    let (Some(&id), Some(cat)) =
                        (ids.get(node as usize), static_keys.get(node as usize))
                    else {
                        continue;
                    };
                    if let Some(&k) = cat.get(rank as usize) {
                        ins[id.idx()].insert(k);
                    }
                }
                Fault::DelBufferCorrupt { node, ins_rank } => {
                    let Some(&id) = ids.get(node as usize) else {
                        continue;
                    };
                    let key = ins[id.idx()].iter().nth(ins_rank as usize).copied();
                    if let Some(k) = key {
                        del[id.idx()].insert(k);
                    }
                }
                Fault::CounterBump => {
                    *changes += 1;
                }
                _ => {}
            }
        }
    }

    /// Apply every structural fault to `st` (processor kills are armed with
    /// [`FaultPlan::arm`] instead). Out-of-date coordinates (e.g. a plan
    /// replayed against a different structure) are skipped rather than
    /// panicking.
    pub fn apply<K: CatalogKey>(&self, st: &mut CoopStructure<K>) {
        let ids: Vec<NodeId> = st.tree().ids().collect();
        for &fault in &self.faults {
            match fault {
                Fault::KeySwap { node, entry } => {
                    let Some(&id) = ids.get(node as usize) else {
                        continue;
                    };
                    let keys = &mut st
                        .cascade_mut_for_fault_injection()
                        .aug_mut_for_fault_injection(id)
                        .keys;
                    if entry + 1 < keys.len() {
                        keys.swap(entry, entry + 1);
                    }
                }
                Fault::KeyClobber { node, entry } => {
                    let Some(&id) = ids.get(node as usize) else {
                        continue;
                    };
                    let keys = &mut st
                        .cascade_mut_for_fault_injection()
                        .aug_mut_for_fault_injection(id)
                        .keys;
                    if entry + 1 < keys.len() {
                        keys[entry] = keys[entry + 1];
                    }
                }
                Fault::SupremumClobber { node } => {
                    let Some(&id) = ids.get(node as usize) else {
                        continue;
                    };
                    let keys = &mut st
                        .cascade_mut_for_fault_injection()
                        .aug_mut_for_fault_injection(id)
                        .keys;
                    let n = keys.len();
                    if n >= 2 {
                        keys[n - 1] = keys[n - 2];
                    }
                }
                Fault::BridgePerturb {
                    node,
                    slot,
                    entry,
                    new,
                } => {
                    let Some(&id) = ids.get(node as usize) else {
                        continue;
                    };
                    let mut aug = st
                        .cascade_mut_for_fault_injection()
                        .aug_mut_for_fault_injection(id);
                    if let Some(cell) = aug.bridges.get_mut(slot).and_then(|r| r.get_mut(entry)) {
                        *cell = new;
                    }
                }
                Fault::NativeSuccPerturb { node, entry, new } => {
                    let Some(&id) = ids.get(node as usize) else {
                        continue;
                    };
                    let aug = st
                        .cascade_mut_for_fault_injection()
                        .aug_mut_for_fault_injection(id);
                    if let Some(cell) = aug.native_succ.get_mut(entry) {
                        *cell = new;
                    }
                }
                Fault::SkeletonPerturb {
                    sub,
                    unit,
                    j,
                    z,
                    new,
                } => {
                    let subs = st.substructures_mut_for_fault_injection();
                    let Some(u) = subs.get_mut(sub).and_then(|s| s.units.get_mut(unit)) else {
                        continue;
                    };
                    let zn = u.nodes.len();
                    if let Some(cell) = u.keys.get_mut(j * zn + z) {
                        *cell = new;
                    }
                }
                Fault::KillProcessors { .. }
                | Fault::InsBufferCorrupt { .. }
                | Fault::DelBufferCorrupt { .. }
                | Fault::CounterBump => {}
            }
        }
    }

    /// Arm every [`Fault::KillProcessors`] on `pram` (structural faults are
    /// applied with [`FaultPlan::apply`] instead).
    pub fn arm(&self, pram: &mut Pram) {
        for &fault in &self.faults {
            if let Fault::KillProcessors { at_round, count } = fault {
                pram.schedule_failure(at_round, count);
            }
        }
    }

    /// Number of static-structure memory-corrupting faults in the plan.
    pub fn structural_len(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| {
                !matches!(
                    f,
                    Fault::KillProcessors { .. }
                        | Fault::InsBufferCorrupt { .. }
                        | Fault::DelBufferCorrupt { .. }
                        | Fault::CounterBump
                )
            })
            .count()
    }

    /// Number of dynamic-path (buffer/counter) faults in the plan.
    pub fn dynamic_len(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| {
                matches!(
                    f,
                    Fault::InsBufferCorrupt { .. }
                        | Fault::DelBufferCorrupt { .. }
                        | Fault::CounterBump
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit;
    use fc_catalog::gen::{self, SizeDist};
    use fc_coop::ParamMode;

    fn build(seed: u64) -> CoopStructure<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = gen::balanced_binary(7, 4000, SizeDist::Uniform, &mut rng);
        CoopStructure::preprocess(tree, ParamMode::Auto)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let st = build(41);
        let spec = FaultSpec::one_of_each();
        let a = FaultPlan::generate(&st, &spec, 7);
        let b = FaultPlan::generate(&st, &spec, 7);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&st, &spec, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn every_structural_fault_is_detected() {
        let st = build(43);
        let spec = FaultSpec::one_of_each();
        for seed in 0..20 {
            let plan = FaultPlan::generate(&st, &spec, seed);
            assert_eq!(plan.structural_len(), spec.structural_total());
            let mut tampered = st.clone();
            plan.apply(&mut tampered);
            let report = audit(&tampered);
            assert!(
                !report.is_clean(),
                "seed {seed}: plan {plan:?} escaped the audit"
            );
        }
    }

    #[test]
    fn every_dynamic_fault_is_detected_by_the_buffer_audit() {
        use fc_coop::ParamMode;
        use fc_pram::{Model, Pram};
        let mut rng = SmallRng::seed_from_u64(47);
        let tree = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 100.0); // no auto-rebuild
        let mut pram = Pram::new(64, Model::Crew);
        // Buffer some real churn so delete-buffer corruption has sites.
        let node_count = dy.structure().tree().len() as u32;
        for _ in 0..200 {
            let node = fc_catalog::NodeId(rng.gen_range(0..node_count));
            dy.insert(node, rng.gen_range(2_000_000..3_000_000i64), &mut pram);
        }
        assert!(dy.audit_buffers().is_ok());
        for seed in 0..10u64 {
            let spec = FaultSpec::one_of_each_dynamic();
            let plan = FaultPlan::generate_dynamic(&dy, &spec, seed);
            assert_eq!(plan.dynamic_len(), spec.dynamic_total(), "seed {seed}");
            assert_eq!(plan.structural_len(), 0);
            // Apply to a fresh copy of the buffers by replaying churn.
            let mut rng2 = SmallRng::seed_from_u64(47);
            let tree2 = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng2);
            let mut dy2 = DynamicCoop::new(tree2, ParamMode::Auto, 100.0);
            for _ in 0..200 {
                let node = fc_catalog::NodeId(rng2.gen_range(0..node_count));
                dy2.insert(node, rng2.gen_range(2_000_000..3_000_000i64), &mut pram);
            }
            plan.apply_dynamic(&mut dy2);
            assert!(
                dy2.audit_buffers().is_err(),
                "seed {seed}: dynamic plan {plan:?} escaped the buffer audit"
            );
        }
    }

    #[test]
    fn dynamic_generation_also_places_static_faults() {
        use fc_coop::ParamMode;
        let mut rng = SmallRng::seed_from_u64(53);
        let tree = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 100.0);
        let spec = FaultSpec {
            bridge_perturbs: 1,
            counter_bumps: 1,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate_dynamic(&dy, &spec, 9);
        assert_eq!(plan.structural_len(), 1);
        assert_eq!(plan.dynamic_len(), 1);
        plan.apply_dynamic(&mut dy);
        assert!(!audit(dy.structure()).is_clean());
        assert!(dy.audit_buffers().is_err());
    }

    #[test]
    fn kills_arm_the_pram() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![Fault::KillProcessors {
                at_round: 0,
                count: 3,
            }],
        };
        let mut pram = Pram::new(8, fc_pram::Model::Crew);
        plan.arm(&mut pram);
        pram.round(8);
        assert_eq!(pram.processors(), 5);
    }
}
