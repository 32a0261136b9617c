//! The runtime index `Γ` (paper §III-D, Fig 5) and conflict detection
//! (Algorithm 1).
//!
//! `Γ` has one bucket per unit (see [`crate::vindex::Units`]: a Bloom bit
//! some negative key maps to under `H0`). Bucket `u` lists the *optimized
//! keys* (negative keys currently rejected by the filter) that map to
//! unit `u`'s bit under `H0`. When TPJO considers setting a currently-zero
//! bit `ν` (the side effect of giving a positive key a replacement hash
//! function), conflict detection walks bucket `ν` and collects the
//! optimized keys whose *other* `k−1` bits are all already set — exactly
//! those keys would flip back into collision keys if `ν` turned 1 (paper
//! Algorithm 1). A bit that is no unit has no negative key on it, so
//! setting it can conflict with nothing.
//!
//! All buckets share one flat array. Bucket `u` is sized up front to the
//! number of negative positions on unit `u`: a bucket lists a key at most
//! once, so it can never outgrow that. Unused slots hold a sentinel. There
//! is no per-bucket allocation and no sort.
//!
//! Membership of a bucket is never eagerly revoked: keys that turn into
//! collision keys are *flagged* and skipped during detection (and
//! re-inserted when re-optimized). f-HABF disables `Γ` entirely
//! (paper §III-G), losing candidate classes (b)/(c) but skipping this
//! module's work.

use habf_util::BitVec;

/// Sentinel for an unused bucket slot.
const EMPTY: u32 = u32::MAX;

/// Per-unit buckets of optimized-key indices, in one flat array.
#[derive(Clone, Debug)]
pub struct Gamma {
    /// Bucket `u` is `slots[starts[u]..starts[u + 1]]`, filled from the
    /// front; the first [`EMPTY`] slot ends its occupants.
    starts: Vec<u32>,
    slots: Vec<u32>,
}

/// Outcome of conflict detection on one bucket.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    /// Indices of the optimized keys that would become collision keys.
    pub keys: Vec<u32>,
    /// Their summed cost, `Θ(ν)` (paper §III-D).
    pub total_cost: f64,
}

impl ConflictSet {
    /// `true` when the bucket is *not* "conflict after adjustment".
    #[must_use]
    pub fn is_clear(&self) -> bool {
        self.keys.is_empty()
    }
}

impl Gamma {
    /// Creates `units` empty buckets, each with one slot per entry of
    /// `occupancy` (the unit of every negative position, duplicates
    /// included) that names it.
    ///
    /// # Panics
    /// Panics if an entry of `occupancy` is `≥ units`, or if there are
    /// more than `u32::MAX` entries.
    #[must_use]
    pub fn new(units: usize, occupancy: impl IntoIterator<Item = usize>) -> Self {
        let mut starts = vec![0u32; units + 1];
        for u in occupancy {
            starts[u] += 1;
        }
        // Exclusive prefix sum: each count becomes its bucket's first slot.
        let mut total = 0u32;
        for start in &mut starts {
            let count = *start;
            *start = total;
            total = total.checked_add(count).expect("Γ slot offsets fit in u32");
        }
        Self {
            starts,
            slots: vec![EMPTY; total as usize],
        }
    }

    /// Number of buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` when there are no buckets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers optimized key `key_idx` into the bucket of every unit it
    /// maps to (call with the units of the key's `k` `H0` positions).
    ///
    /// # Panics
    /// Panics if a bucket is full — more distinct keys than the negative
    /// positions it was sized for.
    pub fn insert(&mut self, key_idx: u32, units: impl IntoIterator<Item = usize>) {
        debug_assert_ne!(key_idx, EMPTY, "key index collides with the sentinel");
        for u in units {
            let range = self.starts[u] as usize..self.starts[u + 1] as usize;
            // A key whose hashes collide maps twice to one bucket, and a
            // re-optimized key is inserted again; store it once to keep
            // detection counts per-key.
            let slot = self.slots[range]
                .iter_mut()
                .find(|s| **s == key_idx || **s == EMPTY)
                .expect("Γ bucket sized below its distinct keys");
            *slot = key_idx;
        }
    }

    /// Occupants of the bucket behind `unit`, in insertion order.
    #[must_use]
    pub fn bucket(&self, unit: usize) -> &[u32] {
        let slots = &self.slots[self.starts[unit] as usize..self.starts[unit + 1] as usize];
        let used = slots
            .iter()
            .position(|&s| s == EMPTY)
            .unwrap_or(slots.len());
        &slots[..used]
    }

    /// Algorithm 1: collects the optimized keys of bucket `unit` — the
    /// unit of bit `nu` — that become collision keys if bit `nu` flips
    /// to 1.
    ///
    /// * `nu` — the bit under consideration (currently 0).
    /// * `bloom` — the Bloom array, the `σ(i) = 1` test.
    /// * `neg_positions(key_idx)` — the key's `k` `H0` positions.
    /// * `is_optimized(key_idx)` — `false` for entries lazily invalidated
    ///   (keys that became collision keys again).
    /// * `cost(key_idx)` — `Θ(e)`.
    #[must_use]
    pub fn detect_conflicts<'a>(
        &self,
        unit: usize,
        nu: usize,
        bloom: &BitVec,
        neg_positions: impl Fn(u32) -> &'a [u32],
        is_optimized: impl Fn(u32) -> bool,
        cost: impl Fn(u32) -> f64,
    ) -> ConflictSet {
        let mut out = ConflictSet::default();
        for &key_idx in self.bucket(unit) {
            if !is_optimized(key_idx) {
                continue;
            }
            let positions = neg_positions(key_idx);
            // Paper line 4: Γ[h(e)] ≠ ν excludes the candidate bit itself.
            // Positions are reduced modulo `m`, so the masked probe is
            // exact.
            let set = positions
                .iter()
                .filter(|&&p| p as usize != nu && bloom.get_probe(p as usize))
                .count();
            if set + 1 == positions.len() {
                out.keys.push(key_idx);
                out.total_cost += cost(key_idx);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bloom(m: usize, set: &[usize]) -> BitVec {
        let mut b = BitVec::new(m);
        for &p in set {
            b.set(p);
        }
        b
    }

    /// Γ over the units of `mapping`'s positions, with every key inserted
    /// in order. Units are the positions themselves here (`units = m`).
    fn gamma_over(m: usize, mapping: &[[u32; 3]]) -> Gamma {
        let mut gamma = Gamma::new(m, mapping.iter().flatten().map(|&p| p as usize));
        for (key, positions) in mapping.iter().enumerate() {
            gamma.insert(key as u32, positions.iter().map(|&p| p as usize));
        }
        gamma
    }

    #[test]
    fn detects_exactly_the_at_risk_keys() {
        // Bits: 5 and 9 set; 2, 7 clear. Keys map as:
        //   key 0: {2, 5, 9} -> other bits (5,9) all set  => conflicts on ν=2
        //   key 1: {2, 7, 9} -> other bit 7 clear          => safe on ν=2
        let mapping = [[2u32, 5, 9], [2, 7, 9]];
        let gamma = gamma_over(16, &mapping);
        let set = gamma.detect_conflicts(
            2,
            2,
            &bloom(16, &[5, 9]),
            |k| &mapping[k as usize][..],
            |_| true,
            |k| (k + 1) as f64,
        );
        assert_eq!(set.keys, vec![0]);
        assert!((set.total_cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flagged_keys_are_skipped() {
        let mapping = [[0u32, 1, 3]];
        let gamma = gamma_over(8, &mapping);
        let set = gamma.detect_conflicts(
            0,
            0,
            &bloom(8, &[1, 3]),
            |k| &mapping[k as usize][..],
            |_| false, // lazily invalidated
            |_| 1.0,
        );
        assert!(set.is_clear());
    }

    #[test]
    fn duplicate_positions_and_reinserts_are_stored_once() {
        let mut gamma = Gamma::new(8, [4, 4, 6]);
        gamma.insert(3, [4, 4, 6]);
        gamma.insert(3, [4, 4, 6]);
        assert_eq!(gamma.bucket(4), &[3]);
        assert_eq!(gamma.bucket(6), &[3]);
        assert_eq!(gamma.bucket(5), &[] as &[u32]);
    }

    #[test]
    fn buckets_keep_insertion_order_in_one_flat_array() {
        let mapping = [[1u32, 2, 3], [3, 2, 0], [2, 0, 1]];
        let gamma = gamma_over(4, &mapping);
        assert_eq!(gamma.len(), 4);
        assert_eq!(gamma.bucket(0), &[1, 2]);
        assert_eq!(gamma.bucket(1), &[0, 2]);
        assert_eq!(gamma.bucket(2), &[0, 1, 2]);
        assert_eq!(gamma.bucket(3), &[0, 1]);
        assert_eq!(gamma.slots.len(), 9, "one slot per negative position");
    }

    #[test]
    #[should_panic(expected = "sized below")]
    fn overfilling_a_bucket_panics() {
        let mut gamma = Gamma::new(2, [1]);
        gamma.insert(0, [1]);
        gamma.insert(1, [1]);
    }

    #[test]
    fn empty_bucket_is_clear() {
        let gamma = Gamma::new(4, []);
        assert!(!gamma.is_empty());
        let set = gamma.detect_conflicts(1, 1, &bloom(4, &[]), |_| &[], |_| true, |_| 1.0);
        assert!(set.is_clear());
        assert_eq!(set.total_cost, 0.0);
    }

    #[test]
    fn cost_sums_over_all_conflicting() {
        let mapping = [[5u32, 1, 2], [5, 1, 2]];
        let gamma = gamma_over(8, &mapping);
        let set = gamma.detect_conflicts(
            5,
            5,
            &bloom(8, &[1, 2]),
            |k| &mapping[k as usize][..],
            |_| true,
            |k| 10.0 + k as f64,
        );
        assert_eq!(set.keys.len(), 2);
        assert!((set.total_cost - 21.0).abs() < 1e-12);
    }
}
