//! Preprocessing constants (Section 2.1).
//!
//! The paper fixes, for the substructure `T_i` serving processor counts
//! `2^(2^i) < p <= 2^(2^(i+1))`:
//!
//! * hop height `h_i = floor(alpha * 2^i)` with `alpha` solving
//!   `(2(2b+1)^2)^alpha = 2` (so `0 < alpha < 0.25`),
//! * sampling factor `s_i = (2b+2)(2b+1)^(h_i)`,
//! * truncation: only levels `0 .. ceil((1 - 2^-i) log n)` of `S` are
//!   covered; the tail is searched sequentially.
//!
//! With these choices the processors used per hop are `O(p)` and the hop
//! count is `O((log n)/log p)` (proof of Theorem 1).
//!
//! Because the paper's constants are asymptotic (with `b = 3`, `alpha ~
//! 0.15`, hop heights stay tiny for any practical `p`), the crate also
//! offers an **auto-tuned** mode: it enumerates hop heights `h = 1, 2, ...`
//! and assigns to each the processor band in which that `h` minimises the
//! modelled step count, using the *same* formulas for `s_i`, windows, and
//! truncation. The Theory/Auto comparison is one of the workspace's
//! ablation experiments (see DESIGN.md).

/// Which rule derives hop heights from processor counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamMode {
    /// The paper's exact constants: `alpha` from `(2(2b+1)^2)^alpha = 2`,
    /// `h_i = max(1, floor(alpha * 2^i))`.
    Theory,
    /// Hop heights `h = 1, 2, ...` each serving the band of `p` where the
    /// per-hop work `2(2b+2)(2b+1)^(2h)` fits (the same balance `alpha`
    /// strikes asymptotically, solved numerically per instance).
    Auto,
}

/// Parameters of one substructure `T_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubParams {
    /// Substructure index `i` (Theory) or `h`-rank (Auto).
    pub i: u32,
    /// Hop height `h_i` (levels traversed per constant-time hop).
    pub h: u32,
    /// Sampling factor `s_i = (2b+2)(2b+1)^h`.
    pub s: usize,
    /// Smallest processor count served (exclusive in Theory mode).
    pub p_min: u64,
    /// Largest processor count served (inclusive).
    pub p_max: u64,
    /// Deepest tree level covered; levels below are searched sequentially
    /// (the truncation of "Our Final Approach").
    pub trunc: u32,
}

/// Full parameter set for a cooperative structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CoopParams {
    /// Fan-out constant `b` used in all window formulas. Defaults to the
    /// cascade's guaranteed bound `s_cascade - 1`; may be set to the
    /// instance's observed bound as an ablation (searches then validate
    /// coverage at runtime and fall back on violation).
    pub b: usize,
    /// The paper's `alpha` for this `b` (meaningful in Theory mode).
    pub alpha: f64,
    /// Tree height the parameters were derived for.
    pub height: u32,
    /// Mode that generated [`CoopParams::subs`].
    pub mode: ParamMode,
    /// Per-substructure parameters, in increasing `h`.
    pub subs: Vec<SubParams>,
}

impl CoopParams {
    /// Derive the parameter set for a tree of height `height` (levels
    /// `0..=height`) with fan-out constant `b`.
    pub fn derive(b: usize, height: u32, mode: ParamMode) -> Self {
        assert!(b >= 1, "fan-out constant must be positive");
        let base = 2.0 * ((2 * b + 1) as f64).powi(2);
        let alpha = 1.0 / base.log2();
        debug_assert!(alpha < 0.25 + 1e-9);

        let mut subs = Vec::new();
        match mode {
            ParamMode::Theory => {
                // i ranges over 0 .. ceil(log log n) - 1; height stands in
                // for log n (balanced trees). Stop once h would exceed the
                // covered levels or the processor band passes n-scale.
                let max_i = 32u32;
                for i in 0..max_i {
                    let h = ((alpha * (1u64 << i) as f64).floor() as u32).max(1);
                    let p_min = saturating_pow2(1u64 << i);
                    let p_max = saturating_pow2(1u64 << (i + 1));
                    let tail = (height as f64 / (1u64 << i) as f64).ceil() as u32;
                    let trunc = height.saturating_sub(tail.min(height));
                    let s = sampling_factor(b, h);
                    subs.push(SubParams {
                        i,
                        h,
                        s,
                        p_min,
                        p_max,
                        trunc,
                    });
                    if h >= height.max(1) || p_max == u64::MAX {
                        break;
                    }
                }
            }
            ParamMode::Auto => {
                // One substructure per hop height h; band boundaries where
                // the per-hop processor requirement of h fits.
                let mut h = 1u32;
                loop {
                    let s = sampling_factor(b, h);
                    let work_h = 2u64
                        .saturating_mul(s as u64)
                        .saturating_mul(pow_u64((2 * b + 1) as u64, h));
                    let s_next = sampling_factor(b, h + 1);
                    let work_next = 2u64
                        .saturating_mul(s_next as u64)
                        .saturating_mul(pow_u64((2 * b + 1) as u64, h + 1));
                    let p_min = work_h;
                    let p_max = work_next.saturating_sub(1);
                    let lg_p = 64 - p_min.leading_zeros();
                    let tail = (2 * height).div_ceil(lg_p.max(2));
                    let trunc = height.saturating_sub(tail.min(height));
                    subs.push(SubParams {
                        i: h - 1,
                        h,
                        s,
                        p_min,
                        p_max,
                        trunc,
                    });
                    if h >= height.max(1) || p_max == u64::MAX || subs.len() >= 24 {
                        break;
                    }
                    h += 1;
                }
            }
        }
        CoopParams {
            b,
            alpha,
            height,
            mode,
            subs,
        }
    }

    /// Pick the substructure index serving processor count `p`, or `None`
    /// when no hop height beats the sequential fractional cascading search
    /// (which is what `T_0`'s lower end degenerates to).
    ///
    /// Theory mode uses the paper's band rule verbatim. Auto mode is
    /// cost-aware: it estimates each hop height's step count under Brent
    /// scheduling — `ceil(trunc/h)` hops, each costing `2` rounds plus
    /// `ceil(hop_work / p)` serialisation (the per-hop work equals the
    /// band's `p_min` by construction), plus the sequential tail — and
    /// picks the cheapest, falling back to sequential when nothing wins.
    pub fn select(&self, p: usize) -> Option<usize> {
        let p = p as u64;
        match self.mode {
            ParamMode::Theory => {
                // Largest band whose lower edge fits under p.
                let mut best = None;
                for (idx, sp) in self.subs.iter().enumerate() {
                    if sp.p_min <= p {
                        best = Some(idx);
                    }
                }
                best
            }
            ParamMode::Auto => {
                let seq_est = 2 * (self.height as u64 + 1);
                let mut best: Option<(usize, u64)> = None;
                for (idx, sp) in self.subs.iter().enumerate() {
                    if sp.trunc == 0 {
                        continue;
                    }
                    let hops = (sp.trunc as u64).div_ceil(sp.h as u64);
                    let tail = (self.height - sp.trunc) as u64;
                    let per_hop = 2u64.saturating_add(sp.p_min.div_ceil(p.max(1)));
                    let est = hops.saturating_mul(per_hop).saturating_add(2 * tail);
                    if best.is_none_or(|(_, b)| est < b) {
                        best = Some((idx, est));
                    }
                }
                match best {
                    Some((idx, est)) if est < seq_est => Some(idx),
                    _ => None,
                }
            }
        }
    }

    /// The window half-widths of Step 3 (Section 2.2) for a node `l` levels
    /// below its unit root in substructure `sub`: returns `(q, r)` with the
    /// window `[k - q - r, k + q]` around skeleton key position `k`, where
    /// `q = ((2b+1)^l - 1)/2` and `r = (s_i - 1)(2b+1)^l`.
    pub fn window(&self, sub: &SubParams, l: u32) -> (usize, usize) {
        let f = pow_u64((2 * self.b + 1) as u64, l).min(usize::MAX as u64) as usize;
        let q = (f - 1) / 2;
        let r = (sub.s - 1).saturating_mul(f);
        (q, r)
    }
}

/// `s = (2b+2)(2b+1)^h`, saturating.
pub fn sampling_factor(b: usize, h: u32) -> usize {
    let base = (2 * b + 1) as u64;
    let p = pow_u64(base, h);
    ((2 * b + 2) as u64)
        .saturating_mul(p)
        .min(usize::MAX as u64) as usize
}

fn pow_u64(base: u64, exp: u32) -> u64 {
    let mut acc = 1u64;
    for _ in 0..exp {
        acc = acc.saturating_mul(base);
    }
    acc
}

/// `2^e`, saturating at `u64::MAX` (`e` may be huge: `2^(2^i)`).
fn saturating_pow2(e: u64) -> u64 {
    if e >= 64 {
        u64::MAX
    } else {
        1u64 << e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_solves_the_paper_equation() {
        let p = CoopParams::derive(3, 20, ParamMode::Theory);
        let base: f64 = 2.0 * 49.0; // 2(2b+1)^2 with b = 3
        assert!((base.powf(p.alpha) - 2.0).abs() < 1e-9);
        assert!(p.alpha > 0.0 && p.alpha < 0.25);
    }

    #[test]
    fn theory_bands_are_the_paper_ranges() {
        let p = CoopParams::derive(3, 20, ParamMode::Theory);
        assert_eq!(p.subs[0].p_min, 2); // 2^(2^0)
        assert_eq!(p.subs[0].p_max, 4); // 2^(2^1)
        assert_eq!(p.subs[1].p_min, 4);
        assert_eq!(p.subs[1].p_max, 16);
        assert_eq!(p.subs[2].p_max, 256);
    }

    #[test]
    fn sampling_factor_formula() {
        // b = 3: s = 8 * 7^h
        assert_eq!(sampling_factor(3, 0), 8);
        assert_eq!(sampling_factor(3, 1), 56);
        assert_eq!(sampling_factor(3, 2), 392);
        // b = 1: s = 4 * 3^h
        assert_eq!(sampling_factor(1, 3), 108);
    }

    #[test]
    fn hop_heights_grow_with_band() {
        for mode in [ParamMode::Theory, ParamMode::Auto] {
            let p = CoopParams::derive(3, 30, mode);
            let hs: Vec<u32> = p.subs.iter().map(|s| s.h).collect();
            assert!(hs.windows(2).all(|w| w[0] <= w[1]), "{mode:?}: {hs:?}");
            assert!(hs[0] >= 1);
        }
    }

    #[test]
    fn select_is_monotone_in_p() {
        // More processors never select a smaller hop height.
        let p = CoopParams::derive(3, 30, ParamMode::Auto);
        let mut prev_h = 0u32;
        for procs in [1usize, 2, 64, 1024, 1 << 14, 1 << 20, 1 << 30, 1 << 40] {
            let h = p.select(procs).map_or(0, |idx| p.subs[idx].h);
            assert!(h >= prev_h, "p = {procs}: h {h} < previous {prev_h}");
            prev_h = h;
        }
        // Large p definitely selects something.
        assert!(p.select(1 << 40).is_some());
    }

    #[test]
    fn select_never_loses_to_sequential_estimate() {
        // Cost-aware Auto selection only picks a substructure when the
        // modelled cost beats the sequential estimate.
        let params = CoopParams::derive(3, 20, ParamMode::Auto);
        let seq_est = 2 * (params.height as u64 + 1);
        for procs in [1usize, 8, 1 << 10, 1 << 16, 1 << 24] {
            if let Some(idx) = params.select(procs) {
                let sp = params.subs[idx];
                let hops = (sp.trunc as u64).div_ceil(sp.h as u64);
                let tail = (params.height - sp.trunc) as u64;
                let est = hops * (2 + sp.p_min.div_ceil(procs as u64)) + 2 * tail;
                assert!(est < seq_est, "p = {procs}: est {est} >= seq {seq_est}");
            }
        }
    }

    #[test]
    fn tiny_p_selects_nothing_in_auto_mode() {
        let p = CoopParams::derive(3, 30, ParamMode::Auto);
        // Auto's first band starts at the work of an h = 1 hop, which
        // exceeds any single-digit p for b = 3.
        assert_eq!(p.select(1), None);
        assert_eq!(p.select(2), None);
    }

    #[test]
    fn truncation_leaves_a_tail() {
        let p = CoopParams::derive(3, 32, ParamMode::Theory);
        // i = 0 truncates at level 0 (tail = whole height); larger i covers
        // more levels.
        let truncs: Vec<u32> = p.subs.iter().map(|s| s.trunc).collect();
        assert!(truncs.windows(2).all(|w| w[0] <= w[1]), "{truncs:?}");
        assert_eq!(p.subs[0].trunc, 0);
        assert!(truncs.last().copied().unwrap() <= 32);
    }

    #[test]
    fn window_formulas_match_paper() {
        let p = CoopParams::derive(3, 20, ParamMode::Theory);
        let sub = p.subs[2];
        // l = 1: q = (7-1)/2 = 3, r = (s-1)*7.
        let (q, r) = p.window(&sub, 1);
        assert_eq!(q, 3);
        assert_eq!(r, (sub.s - 1) * 7);
        // l = 0: q = 0, r = s-1 (the Step-2 sampling shift alone).
        let (q0, r0) = p.window(&sub, 0);
        assert_eq!(q0, 0);
        assert_eq!(r0, sub.s - 1);
    }

    #[test]
    fn bands_tile_the_processor_axis() {
        for mode in [ParamMode::Theory, ParamMode::Auto] {
            let p = CoopParams::derive(3, 24, mode);
            for w in p.subs.windows(2) {
                assert!(
                    w[1].p_min <= w[0].p_max.saturating_add(1),
                    "{mode:?}: gap between bands {:?} and {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}
