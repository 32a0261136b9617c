//! The runtime index `V` (paper §III-D, Fig 4) and the units it covers.
//!
//! `V` tracks for each *unit* — a Bloom bit — **whether it is mapped by
//! positive keys at most once** and, if so, by *which* key. TPJO only ever
//! adjusts a positive key away from a bit that key maps *alone* — that is
//! exactly the situation where the Bloom bit can be reset to 0, which is
//! what turns a collision key back into a true negative.
//!
//! Case rules on insertion of key `e` into unit `u` (paper Fig 4):
//! 1. `⟨1, NULL⟩ → ⟨1, e⟩` — first mapping.
//! 2. `⟨1, e'⟩ → ⟨0, e'⟩` — second mapping degrades the single flag.
//! 3. `⟨0, e'⟩` — unchanged.
//!
//! ## Which bits get a unit
//!
//! The paper sizes `V` to the whole Bloom array, but TPJO reads `V` only
//! at bits a collision key maps to under `H0`: it looks up `ξ_ck`
//! there, and resets the unit it adjusts a key away from. So only bits
//! some *negative* key maps to under `H0` get a unit. [`Units`] numbers
//! them densely (a rank over a bitmap of those positions), and `V` is two
//! arrays over those numbers. An insertion at any other bit has no unit
//! and is dropped: nothing would ever read it. A build over no negatives
//! therefore has no units at all.
//!
//! The paper also reads `V` for Algorithm 1's `σ(i) = 1` test
//! (`V.keyid ≠ NULL`). That test always equals the Bloom bit — a unit is
//! reset exactly when its bit is cleared and inserted exactly when its
//! bit is set — so conflict detection reads the Bloom array instead
//! (see [`crate::gamma`]).

use habf_util::BitVec;

/// Sentinel for "no key".
const NONE: u32 = u32::MAX;

/// The units of TPJO's runtime indexes: the distinct Bloom positions some
/// negative key maps to, numbered `0..len()` in position order.
///
/// A bitmap marks the positions and a per-word prefix count turns a
/// marked position into its unit number with one word load and one
/// popcount. It costs `m/8 + m/16` bytes for an `m`-bit Bloom array, and
/// nothing at all when there are no positions.
#[derive(Clone, Debug, Default)]
pub struct Units {
    /// Bit `p` set iff position `p` is a unit.
    words: Vec<u64>,
    /// `ranks[w]` = units in `words[..w]`.
    ranks: Vec<u32>,
    /// Total unit count.
    len: usize,
}

impl Units {
    /// Marks `positions` (each `< m`, duplicates allowed) as units.
    ///
    /// # Panics
    /// Panics if a position is `≥ m`.
    #[must_use]
    pub fn new(m: usize, positions: &[u32]) -> Self {
        if positions.is_empty() {
            return Self::default();
        }
        let mut words = vec![0u64; m.div_ceil(64)];
        for &p in positions {
            let p = p as usize;
            assert!(p < m, "position {p} out of range {m}");
            words[p / 64] |= 1 << (p % 64);
        }
        let mut ranks = Vec::with_capacity(words.len());
        let mut len = 0usize;
        for w in &words {
            // At most one unit per position, and positions are `u32`.
            ranks.push(len as u32);
            len += w.count_ones() as usize;
        }
        Self { words, ranks, len }
    }

    /// Number of units.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no position is a unit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The unit number of Bloom position `position`, or `None` when no
    /// negative key maps there.
    #[must_use]
    #[inline]
    pub fn unit(&self, position: usize) -> Option<usize> {
        let word = *self.words.get(position / 64)?;
        let bit = 1u64 << (position % 64);
        if word & bit == 0 {
            return None;
        }
        let below = self.ranks.get(position / 64)?;
        Some(*below as usize + (word & (bit - 1)).count_ones() as usize)
    }
}

/// The `V` index: one ⟨singleflag, keyid⟩ per unit.
#[derive(Clone, Debug)]
pub struct VIndex {
    singleflag: BitVec,
    keyid: Vec<u32>,
}

impl VIndex {
    /// Creates `units` units, all `⟨1, NULL⟩`.
    #[must_use]
    pub fn new(units: usize) -> Self {
        let mut flags = vec![u64::MAX; units.div_ceil(64)];
        if let Some(last) = flags.last_mut() {
            if units % 64 != 0 {
                *last = (1 << (units % 64)) - 1;
            }
        }
        Self {
            singleflag: BitVec::from_words(flags, units),
            keyid: vec![NONE; units],
        }
    }

    /// Number of units.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keyid.len()
    }

    /// `true` when there are no units.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keyid.is_empty()
    }

    /// Inserts positive key `key_idx` into unit `unit` (one per hash
    /// function application that lands on a unit).
    #[inline]
    pub fn insert(&mut self, unit: usize, key_idx: u32) {
        debug_assert_ne!(key_idx, NONE, "key index collides with the sentinel");
        if self.singleflag.get(unit) {
            if self.keyid[unit] == NONE {
                // Case 1: first mapping.
                self.keyid[unit] = key_idx;
            } else {
                // Case 2: mapped twice now.
                self.singleflag.clear(unit);
            }
        }
        // Case 3: nothing to do.
    }

    /// `true` iff the unit is mapped exactly once (adjustable).
    ///
    /// Unit numbers come from [`Units::unit`], so they are in range and
    /// the bounds-masked probe is exact.
    #[must_use]
    #[inline]
    pub fn is_single(&self, unit: usize) -> bool {
        self.singleflag.get_probe(unit) && self.keyid[unit] != NONE
    }

    /// The single occupant of `unit`, if [`Self::is_single`].
    #[must_use]
    #[inline]
    pub fn single_key(&self, unit: usize) -> Option<u32> {
        if self.is_single(unit) {
            Some(self.keyid[unit])
        } else {
            None
        }
    }

    /// Resets `unit` to `⟨1, NULL⟩` after its single occupant was adjusted
    /// away (paper §III-D: "for updating V, we reset unit u").
    ///
    /// # Panics
    /// Panics (debug) if the unit is not single — resetting a multi-mapped
    /// unit would desynchronize `V` from the Bloom array.
    #[inline]
    pub fn reset_single(&mut self, unit: usize) {
        debug_assert!(self.is_single(unit), "resetting a non-single unit");
        self.singleflag.set(unit);
        self.keyid[unit] = NONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_number_distinct_positions_in_order() {
        let units = Units::new(200, &[130, 5, 64, 5, 199, 63]);
        assert_eq!(units.len(), 5);
        let numbered: Vec<Option<usize>> = [5, 63, 64, 130, 199]
            .iter()
            .map(|&p| units.unit(p))
            .collect();
        assert_eq!(numbered, [Some(0), Some(1), Some(2), Some(3), Some(4)]);
        for p in [0, 4, 6, 62, 65, 129, 131, 198, 200, 10_000] {
            assert_eq!(units.unit(p), None, "position {p}");
        }
    }

    #[test]
    fn no_positions_allocate_nothing() {
        let units = Units::new(1 << 24, &[]);
        assert!(units.is_empty());
        assert!(units.words.capacity() == 0 && units.ranks.capacity() == 0);
        assert_eq!(units.unit(0), None);
        assert_eq!(units.unit((1 << 24) - 1), None);
    }

    #[test]
    fn unit_rank_matches_a_brute_force_count() {
        let m = 1_000;
        let positions: Vec<u32> = (0..300u32).map(|i| (i * 37 + i * i) % m).collect();
        let units = Units::new(m as usize, &positions);
        let mut marked = vec![false; m as usize];
        for &p in &positions {
            marked[p as usize] = true;
        }
        let mut next = 0;
        for (p, &is_unit) in marked.iter().enumerate() {
            if is_unit {
                assert_eq!(units.unit(p), Some(next), "position {p}");
                next += 1;
            } else {
                assert_eq!(units.unit(p), None, "position {p}");
            }
        }
        assert_eq!(units.len(), next);
    }

    #[test]
    fn fresh_units_are_empty() {
        for n in [0, 1, 63, 64, 65, 130] {
            let v = VIndex::new(n);
            assert_eq!(v.len(), n);
            for u in 0..n {
                assert!(!v.is_single(u));
                assert_eq!(v.single_key(u), None);
            }
        }
    }

    #[test]
    fn case_transitions() {
        let mut v = VIndex::new(8);
        // Case 1.
        v.insert(3, 7);
        assert!(v.is_single(3));
        assert_eq!(v.single_key(3), Some(7));
        // Case 2: second mapping degrades, keeps keyid.
        v.insert(3, 9);
        assert!(!v.is_single(3));
        assert_eq!(v.single_key(3), None);
        // Case 3: further mappings change nothing.
        v.insert(3, 11);
        assert!(!v.is_single(3));
    }

    #[test]
    fn same_key_twice_still_degrades() {
        // A key whose two hash functions collide on one unit counts as two
        // mappings (conservative: the bit cannot be cleared by moving one
        // of them).
        let mut v = VIndex::new(4);
        v.insert(1, 5);
        v.insert(1, 5);
        assert!(!v.is_single(1));
    }

    #[test]
    fn reset_single_restores_empty() {
        let mut v = VIndex::new(4);
        v.insert(2, 1);
        v.reset_single(2);
        assert!(!v.is_single(2));
        // The unit is reusable.
        v.insert(2, 8);
        assert!(v.is_single(2));
        assert_eq!(v.single_key(2), Some(8));
    }

    #[test]
    fn single_flags_match_a_count_model() {
        let mut v = VIndex::new(100);
        // Brute-force model of per-unit insertion counts.
        let mut counts = vec![0usize; 100];
        let inserts = [
            (4usize, 1u32),
            (4, 2),
            (9, 3),
            (17, 3),
            (17, 4),
            (17, 5),
            (63, 9),
        ];
        for &(u, k) in &inserts {
            v.insert(u, k);
            counts[u] += 1;
        }
        for (u, &c) in counts.iter().enumerate() {
            assert_eq!(v.is_single(u), c == 1, "unit {u}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-single")]
    fn reset_non_single_panics_in_debug() {
        let mut v = VIndex::new(4);
        v.insert(0, 1);
        v.insert(0, 2);
        v.reset_single(0);
    }
}
