//! Two-Phase Joint Optimization (paper §III-D, Fig 3, Fig 6, Fig 7).
//!
//! TPJO is the construction-time optimizer of HABF. Starting from a Bloom
//! filter where every positive key uses the initial functions `H0`, it
//! walks the *collision queue* — the negative keys currently misidentified
//! as positive, in descending cost order — and for each collision key
//! `e_ck` tries to *adjust* one positive key `e_s` away from a bit that
//! only `e_s` maps (found through [`VIndex`]), so that the bit can be
//! cleared and `e_ck` turns into a true negative.
//!
//! **Phase-I** picks the replacement hash function `h_c ∈ H − φ(e_s)`:
//!
//! * class (a): `σ(h_c(e_s)) = 1` — the replacement lands on an
//!   already-set bit; no side effects at all;
//! * class (b): the target bit is 0 but its [`Gamma`] bucket has no
//!   conflicts — setting it creates no new collision keys;
//! * class (c): every candidate bucket conflicts — take the bucket `ν'`
//!   maximizing the non-negative `Θ(e_ck) − Θ(ν')` and requeue the newly
//!   conflicted keys (tail of the queue). If every bucket costs more than
//!   `e_ck`, the adjustment is not worth it and the key is skipped.
//!
//! **Phase-II** tests whether the adjusted `φ'(e_s)` actually fits into the
//! HashExpressor; among the insertable candidates the one sharing the most
//! cells with already-stored chains is committed (the paper's "maximized
//! overlap" rule). If nothing fits, the next unit of `ξ_ck` is tried; if
//! all fail, `e_ck` stays a false positive.
//!
//! f-HABF runs the same loop with `use_gamma = false`, which restricts
//! phase-I to class (a) — adjustments that set no new bit and therefore
//! need no conflict detection (paper §III-G).
//!
//! **Scratch memory follows the inputs, not `m`.** TPJO reads `V` and `Γ`
//! only at bits some negative key maps to under `H0`, so both cover just
//! those bits ([`Units`]). Algorithm 1's `σ` test reads the Bloom array.
//! A positive is adjusted at most once, so every candidate `e_s` still has
//! `φ(e_s) = H0`, and its positions are re-hashed when it is picked
//! instead of being stored for every member. A build therefore needs
//! `O(m/8 + |S| + k·|O|)` bytes beside its output, and a build over no
//! negatives (an empty growth tier) builds no index at all. The output is
//! the same as with the paper's indexes, which span the whole Bloom array.

use crate::gamma::{ConflictSet, Gamma};
use crate::hash_expressor::HashExpressor;
use crate::vindex::{Units, VIndex};
use crate::MAX_K;
use habf_hashing::{HashId, HashProvider};
use habf_util::{BitVec, Xoshiro256};
use std::collections::VecDeque;

/// Configuration of one TPJO run.
#[derive(Clone, Debug)]
pub struct TpjoConfig {
    /// Hash functions per key (paper default 3).
    pub k: usize,
    /// Bloom bits `m` (the `∆2` share of the budget).
    pub m: usize,
    /// HashExpressor cells `ω` (the `∆1` share divided by `cell_bits`).
    pub omega: usize,
    /// HashExpressor cell width `α` (paper default 4).
    pub cell_bits: u32,
    /// `false` reproduces f-HABF's Γ-disabled fast construction.
    pub use_gamma: bool,
    /// How many times a key bumped back into the collision queue is
    /// retried before it is abandoned (termination guard; the paper's
    /// queue-tail re-insertions have no explicit bound).
    pub requeue_cap: u8,
    /// Seed for `H0` selection and the Case-1 random choice.
    pub seed: u64,
    /// Ablation: allow class-(c) adjustments (sacrifice cheaper optimized
    /// keys for a costlier collision key). Default `true`.
    pub enable_class_c: bool,
    /// Ablation: among insertable candidates, prefer the plan sharing the
    /// most HashExpressor cells (the paper's "maximized overlap" rule);
    /// with `false` the first insertable candidate wins. Default `true`.
    pub overlap_tiebreak: bool,
}

/// Counters describing what the optimizer did (drives Figs 8/9 and the
/// `F_habf ≤ (ω+t)/ω · F*_bf` bound).
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// `|S|`.
    pub positives: usize,
    /// `|O|`.
    pub negatives: usize,
    /// Initial collision-queue size `T`.
    pub initial_collision_keys: usize,
    /// Collision keys optimized (`t`).
    pub optimized: usize,
    /// Collision keys that could not be optimized.
    pub failed: usize,
    /// Keys that re-entered the queue after a class-(c) adjustment.
    pub requeued: usize,
    /// Positive keys whose chains were stored in the HashExpressor.
    pub adjusted_positives: usize,
    /// Collision keys resolved as a side effect of earlier adjustments
    /// (tested negative when popped).
    pub resolved_lazily: usize,
}

/// Everything the query structure needs, as produced by TPJO.
pub struct TpjoOutput {
    /// The optimized Bloom bit array.
    pub bloom: BitVec,
    /// The populated HashExpressor.
    pub he: HashExpressor,
    /// The initial hash functions `H0` (ids into the provider).
    pub h0: Vec<HashId>,
    /// Optimizer counters.
    pub stats: BuildStats,
}

/// Per-negative-key runtime state.
#[derive(Clone, Copy, Debug)]
struct NegState {
    is_collision: bool,
    requeues: u8,
}

/// Runs TPJO over `positives` and cost-annotated `negatives`.
///
/// The provider's id space must cover at least `config.k` functions and at
/// most the HashExpressor's addressable range
/// (`2^(cell_bits−1) − 1`).
///
/// An empty positive set is allowed and degenerates to an all-zeros
/// filter that answers every query negatively (zero FNR vacuously) — the
/// case a sharded build hits when the splitter assigns a shard no keys.
///
/// # Panics
/// Panics on an infeasible configuration (`k` larger than the provider,
/// ids not addressable, `m == 0`).
pub fn run<P: HashProvider>(
    positives: &[impl AsRef<[u8]> + Sync],
    negatives: &[(impl AsRef<[u8]>, f64)],
    provider: &P,
    config: &TpjoConfig,
) -> TpjoOutput {
    let k = config.k;
    let m = config.m;
    let n_hash = provider.len();
    assert!(m > 0, "Bloom array needs at least one bit");
    assert!((1..=MAX_K).contains(&k), "k {k} not in 1..={MAX_K}");
    assert!(k <= n_hash, "k {k} exceeds provider size {n_hash}");
    let max_id = (1usize << (config.cell_bits - 1)) - 1;
    assert!(
        n_hash <= max_id,
        "provider size {n_hash} exceeds the {}-bit cell id space {max_id}",
        config.cell_bits
    );

    let mut rng = Xoshiro256::new(config.seed);
    let h0: Vec<HashId> = rng
        .distinct_indices(k, n_hash)
        .into_iter()
        .map(|i| (i + 1) as HashId)
        .collect();

    let mut stats = BuildStats {
        positives: positives.len(),
        negatives: negatives.len(),
        ..BuildStats::default()
    };

    // ---- Hash O first: its distinct H0 positions are the units, the only
    // bits V and Γ are ever read at.
    assert!(
        positives.len() < u32::MAX as usize && negatives.len() * k < u32::MAX as usize,
        "key indices and negative positions must fit in u32"
    );
    let mut scratch: Vec<u32> = Vec::with_capacity(k);
    let mut neg_positions: Vec<u32> = Vec::with_capacity(negatives.len() * k);
    for (key, _cost) in negatives {
        positions_batch(provider, key.as_ref(), &h0, m, &mut scratch);
        neg_positions.extend_from_slice(&scratch);
    }
    let units = Units::new(m, &neg_positions);
    // Every negative position is a unit by construction.
    let unit_of = |p: u32| units.unit(p as usize).expect("negative position is a unit");

    // ---- Initialization: insert S with H0, build the Bloom array and V.
    let (words, hits) = member_pass(
        positives,
        provider,
        &h0,
        m,
        &units,
        member_threads(positives.len()),
    );
    let mut bloom = BitVec::from_words(words, m);
    let mut v = VIndex::new(units.len());
    for (unit, idx) in hits {
        v.insert(unit as usize, idx);
    }

    // ---- Classify O into collision keys and optimized keys.
    let neg_positions_of = |idx: u32| &neg_positions[idx as usize * k..idx as usize * k + k];
    let mut neg_state: Vec<NegState> = Vec::with_capacity(negatives.len());
    let mut gamma = config
        .use_gamma
        .then(|| Gamma::new(units.len(), neg_positions.iter().map(|&p| unit_of(p))));
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut initial_ck: Vec<u32> = Vec::new();
    for idx in 0..negatives.len() as u32 {
        let positions = neg_positions_of(idx);
        let is_collision = positions.iter().all(|&p| bloom.get(p as usize));
        neg_state.push(NegState {
            is_collision,
            requeues: 0,
        });
        if is_collision {
            initial_ck.push(idx);
        } else if let Some(g) = gamma.as_mut() {
            g.insert(idx, positions.iter().map(|&p| unit_of(p)));
        }
    }
    // Collision queue in descending cost order (paper Fig 6).
    initial_ck.sort_by(|&a, &b| {
        negatives[b as usize]
            .1
            .partial_cmp(&negatives[a as usize].1)
            .expect("NaN cost")
    });
    stats.initial_collision_keys = initial_ck.len();
    queue.extend(initial_ck);

    let mut he = HashExpressor::new(config.omega, config.cell_bits, k);
    // A positive is adjusted at most once, so every candidate e_s still
    // uses H0: φ(e_s) = H0 and its positions are re-hashed when needed.
    let mut in_he = vec![false; positives.len()];
    let mut es_positions: Vec<u32> = Vec::with_capacity(k);

    // ---- Main loop over the collision queue.
    while let Some(eck) = queue.pop_front() {
        let eck_us = eck as usize;
        let positions = neg_positions_of(eck);
        // Lazy re-test: earlier bit clears may have resolved this key.
        if positions.iter().any(|&p| !bloom.get(p as usize)) {
            if neg_state[eck_us].is_collision {
                neg_state[eck_us].is_collision = false;
                stats.resolved_lazily += 1;
                if let Some(g) = gamma.as_mut() {
                    g.insert(eck, positions.iter().map(|&p| unit_of(p)));
                }
            }
            continue;
        }
        neg_state[eck_us].is_collision = true;
        let eck_cost = negatives[eck_us].1;

        // ξ_ck: adjustable units among e_ck's positions.
        let mut xi: Vec<(u32, usize, u32)> = Vec::with_capacity(k); // (bit, unit, e_s)
        for (i, &u) in positions.iter().enumerate() {
            if positions[..i].contains(&u) {
                continue; // duplicate position
            }
            let unit = unit_of(u);
            if let Some(es) = v.single_key(unit) {
                if !in_he[es as usize] {
                    xi.push((u, unit, es));
                }
            }
        }

        let mut committed = false;
        'units: for &(u, u_unit, es) in &xi {
            let es_us = es as usize;
            let es_key = positives[es_us].as_ref();
            positions_batch(provider, es_key, &h0, m, &mut es_positions);
            // Which slot of φ(e_s) maps to u? (unique: u is single-mapped)
            let Some(slot) = es_positions.iter().position(|&p| p == u) else {
                continue; // stale V entry (defensive; should not happen)
            };

            // Candidate replacements from H_c = H − φ(e_s).
            let mut direct: Vec<(HashId, u32)> = Vec::new(); // classes (a)+(b)

            // Γ disabled (f-HABF): adjustments onto a zero bit are made
            // *blindly* — no conflict detection runs, so new collision keys
            // may appear unnoticed. This is the paper's "sacrificing
            // partial hash function selections by disabling Γ which
            // contains complex operations for accuracy" (§III-G): the same
            // candidate space, minus the accuracy of conflict checking.
            let mut blind: Vec<(HashId, u32)> = Vec::new();
            let mut costly: Option<(HashId, u32, ConflictSet, f64)> = None;
            for id in 1..=n_hash as u8 {
                if h0.contains(&id) {
                    continue;
                }
                let p = provider.position(id, es_key, m) as u32;
                if p == u {
                    // Replacement still maps e_s to u: clearing u would be
                    // impossible, skip.
                    continue;
                }
                if bloom.get(p as usize) {
                    direct.push((id, p)); // class (a)
                } else if let Some(g) = gamma.as_ref() {
                    // A bit no negative maps to has no Γ bucket: setting it
                    // conflicts with nothing.
                    let cs = match units.unit(p as usize) {
                        Some(unit) => g.detect_conflicts(
                            unit,
                            p as usize,
                            &bloom,
                            neg_positions_of,
                            |i| !neg_state[i as usize].is_collision,
                            |i| negatives[i as usize].1,
                        ),
                        None => ConflictSet::default(),
                    };
                    if cs.is_clear() {
                        direct.push((id, p)); // class (b)
                    } else if config.enable_class_c {
                        let gain = eck_cost - cs.total_cost;
                        if gain >= 0.0 && costly.as_ref().is_none_or(|&(_, _, _, g0)| gain > g0) {
                            costly = Some((id, p, cs, gain)); // class (c) best
                        }
                    }
                } else {
                    blind.push((id, p)); // Γ off: unchecked adjustment
                }
            }

            // Phase-II: keep the insertable plan with maximal cell overlap.
            // Side-effect-free candidates (class a / checked class b) are
            // preferred over blind ones.
            let pick_best = |pool: &[(HashId, u32)],
                             he: &HashExpressor,
                             rng: &mut Xoshiro256|
             -> Option<(crate::hash_expressor::InsertPlan, u32)> {
                let mut best: Option<(crate::hash_expressor::InsertPlan, u32)> = None;
                for &(id, p) in pool {
                    let mut phi2: Vec<HashId> = h0.clone();
                    phi2[slot] = id;
                    if let Some(plan) = he.plan(es_key, &phi2, provider, rng) {
                        if best
                            .as_ref()
                            .is_none_or(|(b, _)| plan.shared_cells() > b.shared_cells())
                        {
                            best = Some((plan, p));
                        }
                        if !config.overlap_tiebreak {
                            break; // ablation: first insertable candidate wins
                        }
                    }
                }
                best
            };
            let mut best = pick_best(&direct, &he, &mut rng);
            if best.is_none() {
                best = pick_best(&blind, &he, &mut rng);
            }
            let mut new_conflicts: Vec<u32> = Vec::new();
            if best.is_none() {
                // Class (c) fallback.
                if let Some((id, p, cs, _)) = costly {
                    let mut phi2: Vec<HashId> = h0.clone();
                    phi2[slot] = id;
                    if let Some(plan) = he.plan(es_key, &phi2, provider, &mut rng) {
                        new_conflicts = cs.keys;
                        best = Some((plan, p));
                    }
                }
            }

            let Some((plan, p_new)) = best else {
                continue 'units;
            };

            // ---- Commit: HashExpressor, Bloom bits, V, Γ.
            he.commit(&plan);
            in_he[es_us] = true;
            stats.adjusted_positives += 1;

            bloom.clear(u as usize);
            v.reset_single(u_unit);
            if !bloom.get(p_new as usize) {
                bloom.set(p_new as usize);
            }
            if let Some(unit) = units.unit(p_new as usize) {
                v.insert(unit, es);
            }

            neg_state[eck_us].is_collision = false;
            stats.optimized += 1;
            if let Some(g) = gamma.as_mut() {
                g.insert(eck, positions.iter().map(|&p| unit_of(p)));
            }
            for nk in new_conflicts {
                let nk_us = nk as usize;
                neg_state[nk_us].is_collision = true;
                if neg_state[nk_us].requeues < config.requeue_cap {
                    neg_state[nk_us].requeues += 1;
                    stats.requeued += 1;
                    queue.push_back(nk);
                } else {
                    stats.failed += 1;
                }
            }
            committed = true;
            break 'units;
        }

        if !committed {
            stats.failed += 1;
        }
    }

    TpjoOutput {
        bloom,
        he,
        h0,
        stats,
    }
}

/// Fewest members one thread of the member pass hashes. Below this a
/// thread costs more to start than the hashing it takes over.
const MIN_MEMBERS_PER_THREAD: usize = 1 << 16;

/// Most threads the member pass runs on. Each thread past the first
/// fills a private `m/8`-byte Bloom array, so this caps the pass's
/// scratch at three Bloom arrays however wide the machine is.
const MAX_MEMBER_THREADS: usize = 4;

/// Threads for a member pass over `members` keys: one per
/// [`MIN_MEMBERS_PER_THREAD`] members, at most one per core and at most
/// [`MAX_MEMBER_THREADS`].
fn member_threads(members: usize) -> usize {
    let wanted = (members / MIN_MEMBERS_PER_THREAD).min(MAX_MEMBER_THREADS);
    if wanted <= 1 {
        return 1; // skips the core count, which reads cgroup files
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    wanted.min(cores).max(1)
}

/// Members hashed per [`HashProvider::positions_block`] call in the
/// member pass.
const MEMBER_BLOCK: usize = 256;

/// TPJO's member pass: hashes every positive under `H0` into the Bloom
/// words it returns, with each `(unit, member index)` hit on a unit in
/// member order — the order a sequential pass would insert them into `V`.
///
/// Each range is hashed [`MEMBER_BLOCK`] members at a time: one
/// [`HashProvider::positions_block`] call yields the whole block's
/// positions, and only then are its bits set and its hits recorded, in
/// member order. Hashing a block before touching memory lets a core
/// overlap independent keys, where a per-key loop made every bit set and
/// unit lookup wait on that key's own hash chain.
///
/// `threads` contiguous member ranges are hashed at once. The caller's
/// thread takes the first range into the returned words, each other range
/// fills a private word array on a scoped thread, and the arrays are
/// OR-ed in. The hits are concatenated in range order, so `V` and the
/// Bloom words come out exactly as one thread makes them. A range whose
/// thread cannot be started runs on the caller's thread.
fn member_pass<P: HashProvider>(
    positives: &[impl AsRef<[u8]> + Sync],
    provider: &P,
    h0: &[HashId],
    m: usize,
    units: &Units,
    threads: usize,
) -> (Vec<u64>, Vec<(u32, u32)>) {
    let hasher = MemberHasher {
        provider,
        h0,
        m,
        units,
    };
    let mut words = vec![0u64; m.div_ceil(64)];
    let mut hits = Vec::new();
    let chunk = positives.len().div_ceil(threads.max(1)).max(1);
    let mut ranges = positives.chunks(chunk).enumerate();
    let Some((_, mine)) = ranges.next() else {
        return (words, hits);
    };
    std::thread::scope(|s| {
        let hasher = &hasher;
        let spawned: Vec<_> = ranges
            .map(|(i, range)| {
                let first = i * chunk;
                let mut private = vec![0u64; words.len()];
                let handle = std::thread::Builder::new()
                    .name("habf-members".into())
                    .spawn_scoped(s, move || {
                        let mut hits = Vec::new();
                        hasher.hash(first, range, &mut private, &mut hits);
                        (private, hits)
                    })
                    .ok();
                (first, range, handle)
            })
            .collect();
        hasher.hash(0, mine, &mut words, &mut hits);
        for (first, range, handle) in spawned {
            match handle {
                Some(handle) => {
                    let (private, mut part) = handle.join().expect("member pass worker panicked");
                    for (w, p) in words.iter_mut().zip(&private) {
                        *w |= p;
                    }
                    hits.append(&mut part);
                }
                None => hasher.hash(first, range, &mut words, &mut hits),
            }
        }
    });
    (words, hits)
}

/// What one member-pass range needs besides its keys.
struct MemberHasher<'a, P> {
    provider: &'a P,
    h0: &'a [HashId],
    m: usize,
    units: &'a Units,
}

impl<P: HashProvider> MemberHasher<'_, P> {
    /// Sets the `H0` bits of `members` (member indices from `first`) in
    /// `words`, and appends their unit hits to `hits`.
    fn hash(
        &self,
        first: usize,
        members: &[impl AsRef<[u8]>],
        words: &mut [u64],
        hits: &mut Vec<(u32, u32)>,
    ) {
        let k = self.h0.len();
        let mut keys: Vec<&[u8]> = Vec::with_capacity(MEMBER_BLOCK);
        let mut positions: Vec<u32> = Vec::with_capacity(MEMBER_BLOCK * k);
        for (block, start) in members
            .chunks(MEMBER_BLOCK)
            .zip((first..).step_by(MEMBER_BLOCK))
        {
            keys.clear();
            keys.extend(block.iter().map(AsRef::as_ref));
            self.provider
                .positions_block(&keys, self.h0, self.m, &mut positions);
            for (idx, key_positions) in (start..).zip(positions.chunks_exact(k)) {
                for &p in key_positions {
                    words[p as usize / 64] |= 1 << (p % 64);
                    if let Some(u) = self.units.unit(p as usize) {
                        hits.push((u as u32, idx as u32));
                    }
                }
            }
        }
    }
}

/// Computes the Bloom positions of `key` under `ids`, using the provider's
/// batch path (a single base-hash evaluation for simulated families).
#[inline]
pub fn positions_batch<P: HashProvider>(
    provider: &P,
    key: &[u8],
    ids: &[HashId],
    m: usize,
    out: &mut Vec<u32>,
) {
    provider.positions_batch(key, ids, m, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use habf_hashing::HashFamily;

    fn config(m: usize, omega: usize, use_gamma: bool) -> TpjoConfig {
        TpjoConfig {
            k: 3,
            m,
            omega,
            cell_bits: 4,
            use_gamma,
            requeue_cap: 3,
            seed: 7,
            enable_class_c: true,
            overlap_tiebreak: true,
        }
    }

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
    }

    fn query(out: &TpjoOutput, provider: &HashFamily, key: &[u8], k: usize) -> bool {
        let m = out.bloom.len();
        let round1 = out
            .h0
            .iter()
            .all(|&id| out.bloom.get(provider.position(id, key, m)));
        if round1 {
            return true;
        }
        match out.he.query(key, provider) {
            Some(phi) => {
                debug_assert_eq!(phi.len(), k);
                phi.iter()
                    .all(|&id| out.bloom.get(provider.position(id, key, m)))
            }
            None => false,
        }
    }

    #[test]
    fn zero_fnr_after_optimization() {
        let provider = HashFamily::with_size(7);
        let pos = keys(2_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(2_000, "neg")
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, 1.0 + i as f64 % 10.0))
            .collect();
        let cfg = config(2_000 * 8, 2_000, true);
        let out = run(&pos, &neg, &provider, &cfg);
        for k in &pos {
            assert!(query(&out, &provider, k, 3), "member dropped");
        }
    }

    #[test]
    fn optimization_reduces_false_positives() {
        let provider = HashFamily::with_size(7);
        let pos = keys(3_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(3_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        // b = 6 bits/key: plenty of collisions to fix.
        let cfg = config(3_000 * 6, 3_000 * 2 / 4, true);
        let out = run(&pos, &neg, &provider, &cfg);
        assert!(
            out.stats.initial_collision_keys > 0,
            "no collisions to optimize"
        );
        assert!(
            out.stats.optimized + out.stats.resolved_lazily > 0,
            "optimizer did nothing: {:?}",
            out.stats
        );
        let fp_after = neg
            .iter()
            .filter(|(k, _)| query(&out, &provider, k, 3))
            .count();
        assert!(
            fp_after < out.stats.initial_collision_keys,
            "FPs not reduced: {} -> {fp_after}",
            out.stats.initial_collision_keys
        );
    }

    #[test]
    fn gamma_disabled_still_sound_and_blind() {
        let provider = HashFamily::with_size(7);
        let pos = keys(3_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(3_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let m = 3_000 * 6;
        let omega = 3_000 * 2 / 4;
        let with = run(&pos, &neg, &provider, &config(m, omega, true));
        let without = run(&pos, &neg, &provider, &config(m, omega, false));
        // Blind mode keeps zero FNR...
        for k in &pos {
            assert!(query(&without, &provider, k, 3));
        }
        // ...and still reduces false positives versus no optimization at
        // all, but pays an accuracy cost relative to conflict-checked
        // adjustments (it sets bits without knowing what they break).
        let fp = |out: &TpjoOutput| {
            neg.iter()
                .filter(|(k, _)| query(out, &provider, k, 3))
                .count()
        };
        let fp_with = fp(&with);
        let fp_without = fp(&without);
        assert!(without.stats.optimized > 0, "blind mode never optimized");
        assert!(
            fp_without < without.stats.initial_collision_keys,
            "blind mode did not reduce FPs: {fp_without} vs initial {}",
            without.stats.initial_collision_keys
        );
        assert!(
            fp_with <= fp_without + with.stats.initial_collision_keys / 10,
            "Γ-checked mode ({fp_with} FPs) should not be materially worse \
             than blind mode ({fp_without} FPs)"
        );
    }

    #[test]
    fn high_cost_keys_are_prioritized() {
        let provider = HashFamily::with_size(7);
        let pos = keys(4_000, "pos");
        // One extremely costly negative among uniform ones.
        let mut neg: Vec<(Vec<u8>, f64)> =
            keys(4_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        neg[1234].1 = 1e6;
        // Tight space: not everything can be optimized.
        let cfg = config(4_000 * 5, 4_000 / 4, true);
        let out = run(&pos, &neg, &provider, &cfg);
        // If the costly key was a collision key, it must have been among
        // the optimized ones (it sits at the head of the queue).
        let costly_fp = query(&out, &provider, &neg[1234].0, 3);
        let h0_hit = out.h0.iter().all(|&id| {
            out.bloom
                .get(provider.position(id, &neg[1234].0, out.bloom.len()))
        });
        // Either it was never a collision key, or it is now negative
        // through round 1 (unless it was simply unfixable — accept a
        // round-2 accidental hit as the only excuse).
        assert!(
            !costly_fp || h0_hit,
            "costliest key left as an avoidable false positive"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let provider = HashFamily::with_size(7);
        let pos = keys(1_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(1_000, "neg").into_iter().map(|k| (k, 2.0)).collect();
        let cfg = config(1_000 * 8, 500, true);
        let out = run(&pos, &neg, &provider, &cfg);
        assert_eq!(out.stats.positives, 1_000);
        assert_eq!(out.stats.negatives, 1_000);
        assert_eq!(out.stats.optimized, out.stats.adjusted_positives);
        assert_eq!(out.he.inserted(), out.stats.adjusted_positives);
        assert!(out.stats.optimized <= out.stats.initial_collision_keys + out.stats.requeued);
    }

    #[test]
    fn bloom_and_v_stay_synchronized() {
        // After a full optimization run, rebuild the expected bit array
        // from the final φ assignments and compare.
        let provider = HashFamily::with_size(7);
        let pos = keys(800, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(800, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let cfg = config(800 * 7, 400, true);
        let out = run(&pos, &neg, &provider, &cfg);
        // Every positive key queries positive — in particular every bit of
        // every final φ chain is set, so no committed clear was wrong.
        for k in &pos {
            assert!(query(&out, &provider, k, 3));
        }
        // And the filter is not degenerate (some bits are 0).
        assert!(out.bloom.count_ones() < out.bloom.len());
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn provider_too_large_for_cells_panics() {
        let provider = HashFamily::with_size(9); // > 7 addressable with α=4
        let pos = keys(10, "p");
        let neg: Vec<(Vec<u8>, f64)> = vec![];
        let _ = run(&pos, &neg, &provider, &config(100, 10, true));
    }

    #[test]
    fn degenerate_k_equals_family_size_is_sound() {
        // k = |H|: H_c is empty, so no adjustment is ever possible — the
        // filter degrades to a plain Bloom array but must stay correct.
        let provider = HashFamily::with_size(3);
        let pos = keys(500, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(500, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let out = run(&pos, &neg, &provider, &config(500 * 8, 100, true));
        assert_eq!(out.stats.optimized, 0, "optimized without candidates");
        for k in &pos {
            assert!(query(&out, &provider, k, 3));
        }
    }

    #[test]
    fn k_one_minimal_configuration() {
        let provider = HashFamily::with_size(3);
        let pos = keys(300, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(300, "neg").into_iter().map(|k| (k, 2.0)).collect();
        let cfg = TpjoConfig {
            k: 1,
            m: 300 * 8,
            omega: 200,
            cell_bits: 4,
            use_gamma: true,
            requeue_cap: 3,
            seed: 7,
            enable_class_c: true,
            overlap_tiebreak: true,
        };
        let out = run(&pos, &neg, &provider, &cfg);
        for k in &pos {
            assert!(query(&out, &provider, k, 1));
        }
        // With k = 1 a collision key shares its only bit with a positive
        // key, so successful adjustments are possible and meaningful.
        let fp = neg
            .iter()
            .filter(|(k, _)| query(&out, &provider, k, 1))
            .count();
        assert!(fp <= out.stats.initial_collision_keys);
    }

    #[test]
    fn requeue_cap_zero_terminates() {
        let provider = HashFamily::with_size(7);
        let pos = keys(2_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(2_000, "neg")
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, 1.0 + (i % 50) as f64))
            .collect();
        let mut cfg = config(2_000 * 6, 600, true);
        cfg.requeue_cap = 0;
        let out = run(&pos, &neg, &provider, &cfg);
        assert_eq!(out.stats.requeued, 0);
        for k in &pos {
            assert!(query(&out, &provider, k, 3));
        }
    }

    /// The member pass as one thread makes it key by key: each member's
    /// positions from `positions_batch`, its bits and hits in order.
    fn per_key_member_pass(
        positives: &[Vec<u8>],
        provider: &impl HashProvider,
        h0: &[HashId],
        m: usize,
        units: &Units,
    ) -> (Vec<u64>, Vec<(u32, u32)>) {
        let mut words = vec![0u64; m.div_ceil(64)];
        let mut hits = Vec::new();
        let mut positions = Vec::new();
        for (idx, key) in positives.iter().enumerate() {
            positions_batch(provider, key, h0, m, &mut positions);
            for &p in &positions {
                words[p as usize / 64] |= 1 << (p % 64);
                if let Some(u) = units.unit(p as usize) {
                    hits.push((u as u32, idx as u32));
                }
            }
        }
        (words, hits)
    }

    #[test]
    fn threaded_member_pass_equals_the_sequential_pass() {
        let provider = HashFamily::with_size(7);
        let h0: Vec<HashId> = vec![2, 5, 7];
        // Duplicates, and a small array, so units are hit by many keys.
        let mut pos = keys(3_000, "pos");
        pos.extend(keys(1_000, "pos"));
        let m = 4_000 * 2;
        let negatives = keys(1_000, "neg");
        let mut neg_positions = Vec::new();
        let mut scratch = Vec::new();
        for key in &negatives {
            positions_batch(&provider, key, &h0, m, &mut scratch);
            neg_positions.extend_from_slice(&scratch);
        }
        let units = Units::new(m, &neg_positions);
        let (words, hits) = member_pass(&pos, &provider, &h0, m, &units, 1);
        assert!(
            (words.clone(), hits.clone()) == per_key_member_pass(&pos, &provider, &h0, m, &units),
            "the block pass differs from the per-key pass"
        );
        let mut per_unit = vec![0usize; units.len()];
        for &(u, _) in &hits {
            per_unit[u as usize] += 1;
        }
        assert!(
            per_unit.iter().any(|&n| n > 2),
            "no unit hit by several keys"
        );
        for threads in [2, 3, 8] {
            let (w, h) = member_pass(&pos, &provider, &h0, m, &units, threads);
            assert!(w == words, "{threads} threads changed the Bloom words");
            assert!(h == hits, "{threads} threads changed the hit sequence");
        }

        // Block edges, with mixed key lengths (so some runs of four take
        // the lock-step kernels and some do not), on 1 to 3 threads.
        let mixed: Vec<Vec<u8>> = (0..1_000)
            .map(|i| format!("k{}:{}", "x".repeat(i % 7), i).into_bytes())
            .collect();
        for n in [0, 1, 255, 256, 257, 1_000] {
            let want = per_key_member_pass(&mixed[..n], &provider, &h0, m, &units);
            for threads in 1..=3 {
                let got = member_pass(&mixed[..n], &provider, &h0, m, &units, threads);
                assert!(got == want, "{n} members on {threads} threads");
            }
        }
    }

    #[test]
    fn duplicate_positive_keys_are_tolerated() {
        // Duplicates inflate V counts (conservative) but must not break
        // correctness.
        let mut pos = keys(500, "pos");
        pos.extend(keys(500, "pos")); // every key twice
        let provider = HashFamily::with_size(7);
        let neg: Vec<(Vec<u8>, f64)> = keys(500, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let out = run(&pos, &neg, &provider, &config(500 * 10, 300, true));
        for k in &pos {
            assert!(query(&out, &provider, k, 3));
        }
    }
}
