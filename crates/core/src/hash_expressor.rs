//! HashExpressor — the compact hash-function-subset table (paper §III-C).
//!
//! HashExpressor stores, for the *adjusted* positive keys only, the ordered
//! chain of their customized hash functions. It is an array of `ω` cells of
//! `α` bits; each cell is the 2-tuple ⟨endbit, hashindex⟩ with `hashindex`
//! in the low `α−1` bits, so a cell addresses at most `2^(α−1)−1` family
//! members and the all-zero pattern means *empty* (the paper's Fig 9(b)
//! studies α ∈ {3,4,5}).
//!
//! **Insertion** walks a chain: key `e` maps to cell `C[f(e)]` with the
//! predefined function `f`, then repeatedly to `C[h(e)]` with each hash `h`
//! freshly *marked valid*, marking one so-far-invalid member of `φ(e)` per
//! visited cell — Case 1 claims an empty cell with a random invalid member,
//! Case 2 piggybacks on a cell already holding an invalid member, Case 3
//! fails the insertion (paper Fig 2(b)). The `endbit` of the last visited
//! cell is set.
//!
//! **Query** follows the same chain and succeeds only if it collects `k`
//! functions ending at a cell with `endbit = 1`; otherwise the key keeps
//! the initial functions `H0` (paper Fig 2(c)). Inserted keys are always
//! recovered (zero FNR); never-inserted keys occasionally complete a chain
//! by accident, which is HashExpressor's own small FPR `F_h ≤ t/ω`
//! (paper §III-F).
//!
//! Insertion is split into [`HashExpressor::plan`] (pure simulation) and
//! [`HashExpressor::commit`], because TPJO's phase-II must *test* whether a
//! candidate `φ'(e_s)` fits before deciding anything (paper Fig 3), and
//! because the "maximized overlap" tie-break among candidate selections
//! needs each plan's shared-cell count (paper §III-D, example).

use crate::MAX_K;
use habf_hashing::{xxhash, HashId, HashProvider, EMPTY_HASH_ID};
use habf_util::{PackedCells, Xoshiro256};

/// Seed of the predefined cell-addressing function `f`.
const F_SEED: u64 = 0x4841_4246_5F66; // "HABF_f"

/// A planned (not yet applied) HashExpressor insertion.
#[derive(Clone, Debug)]
pub struct InsertPlan {
    /// `(cell index, new raw cell value)` writes to apply.
    writes: Vec<(usize, u32)>,
    /// Number of Case-2 cells shared with previously inserted chains —
    /// higher is better under the paper's maximum-overlap rule.
    shared: usize,
    /// The hash ids in the order they were marked valid (= chain order).
    order: Vec<HashId>,
}

impl InsertPlan {
    /// Cells this plan shares with already-stored chains.
    #[must_use]
    pub fn shared_cells(&self) -> usize {
        self.shared
    }

    /// Chain order of the hash ids (for diagnostics/tests).
    #[must_use]
    pub fn chain(&self) -> &[HashId] {
        &self.order
    }
}

/// A retrieved subset, held inline so round 2 of a query allocates
/// nothing. Derefs to the ids in chain order.
#[derive(Clone, Copy, Debug)]
pub struct Chain {
    ids: [HashId; MAX_K],
    len: usize,
}

impl core::ops::Deref for Chain {
    type Target = [HashId];

    fn deref(&self) -> &[HashId] {
        &self.ids[..self.len]
    }
}

/// The packed cell table.
#[derive(Clone, Debug)]
pub struct HashExpressor {
    cells: PackedCells,
    cell_bits: u32,
    k: usize,
    inserted: usize,
}

impl HashExpressor {
    /// Creates a table of `omega` cells of `cell_bits` bits for chains of
    /// length `k`.
    ///
    /// # Panics
    /// Panics if `omega == 0`, `cell_bits` is not in `2..=16`, or `k` is
    /// not in `1..=MAX_K`.
    #[must_use]
    pub fn new(omega: usize, cell_bits: u32, k: usize) -> Self {
        assert!(omega > 0, "HashExpressor needs at least one cell");
        assert!(
            (2..=16).contains(&cell_bits),
            "cell size {cell_bits} not in 2..=16"
        );
        assert!(
            (1..=MAX_K).contains(&k),
            "chain length {k} not in 1..={MAX_K}"
        );
        Self {
            cells: PackedCells::new(omega, cell_bits),
            cell_bits,
            k,
            inserted: 0,
        }
    }

    /// Number of cells `ω`.
    #[must_use]
    pub fn omega(&self) -> usize {
        self.cells.len()
    }

    /// Cell width `α` in bits.
    #[must_use]
    pub fn cell_bits(&self) -> u32 {
        self.cell_bits
    }

    /// Largest addressable hash id, `2^(α−1) − 1`.
    #[must_use]
    pub fn max_hash_id(&self) -> usize {
        (1usize << (self.cell_bits - 1)) - 1
    }

    /// Number of committed chains `t`.
    #[must_use]
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Table size in bits (`ω · α`) — the `∆1` of the space split.
    #[must_use]
    pub fn space_bits(&self) -> usize {
        self.cells.len() * self.cell_bits as usize
    }

    #[inline]
    fn endbit_mask(&self) -> u32 {
        1u32 << (self.cell_bits - 1)
    }

    #[inline]
    fn index_mask(&self) -> u32 {
        self.endbit_mask() - 1
    }

    /// Cell addressed by the predefined function `f`.
    #[inline]
    fn f_cell(&self, key: &[u8]) -> usize {
        (xxhash::xxh64(key, F_SEED) % self.cells.len() as u64) as usize
    }

    /// Simulates inserting the subset `phi` for `key`; returns the plan or
    /// `None` when the chain hits Case 3 (paper's "failed to be inserted").
    ///
    /// `rng` drives the Case-1 "randomly choose an invalid hash function"
    /// step.
    ///
    /// # Panics
    /// Panics if `phi.len() != k` or any id exceeds [`Self::max_hash_id`].
    #[must_use]
    pub fn plan<P: HashProvider>(
        &self,
        key: &[u8],
        phi: &[HashId],
        provider: &P,
        rng: &mut Xoshiro256,
    ) -> Option<InsertPlan> {
        assert_eq!(phi.len(), self.k, "subset size must equal k");
        for &id in phi {
            assert!(
                id != EMPTY_HASH_ID && usize::from(id) <= self.max_hash_id(),
                "hash id {id} not addressable with {}-bit cells",
                self.cell_bits
            );
        }
        let omega = self.cells.len();
        let mut invalid: Vec<HashId> = phi.to_vec();
        let mut writes: Vec<(usize, u32)> = Vec::with_capacity(self.k);
        let mut order: Vec<HashId> = Vec::with_capacity(self.k);
        let mut shared = 0usize;
        let mut pos = self.f_cell(key);

        loop {
            // Read through the staged overlay first: the chain may revisit
            // a cell it claimed earlier in this same plan.
            let staged = writes
                .iter()
                .rev()
                .find(|(p, _)| *p == pos)
                .map(|&(_, v)| v);
            let value = staged.unwrap_or_else(|| self.cells.get(pos));
            if value == 0 {
                // Case 1: claim the empty cell with a random invalid member.
                let pick = rng.next_index(invalid.len());
                let h = invalid.swap_remove(pick);
                writes.push((pos, u32::from(h)));
                order.push(h);
            } else {
                let hidx = (value & self.index_mask()) as HashId;
                if let Some(i) = invalid.iter().position(|&x| x == hidx) {
                    // Case 2: share the cell; its stored index becomes valid.
                    invalid.swap_remove(i);
                    order.push(hidx);
                    if staged.is_none() {
                        shared += 1;
                    }
                } else {
                    // Case 3: occupied by a function not in φ(e) (or one
                    // already marked valid) — insertion fails.
                    return None;
                }
            }
            if invalid.is_empty() {
                // All k marked valid: set the endbit of the last cell.
                let val = writes
                    .iter()
                    .rev()
                    .find(|(p, _)| *p == pos)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| self.cells.get(pos));
                writes.push((pos, val | self.endbit_mask()));
                return Some(InsertPlan {
                    writes,
                    shared,
                    order,
                });
            }
            let h = *order.last().expect("order non-empty");
            pos = (provider.hash_id(h, key) % omega as u64) as usize;
        }
    }

    /// Applies a plan produced by [`Self::plan`] against this same state.
    pub fn commit(&mut self, plan: &InsertPlan) {
        for &(pos, value) in &plan.writes {
            self.cells.set(pos, value);
        }
        self.inserted += 1;
    }

    /// Retrieves the stored subset for `key`, or `None` when the key keeps
    /// `H0` (empty cell on the chain, or the final cell's endbit unset).
    /// The subset comes back inline, so a query's round 2 allocates
    /// nothing. Every returned id names a member of `provider`: a cell
    /// naming any other id, which only a corrupt image can hold, ends the
    /// walk with `None`.
    #[must_use]
    pub fn query<P: HashProvider>(&self, key: &[u8], provider: &P) -> Option<Chain> {
        let omega = self.cells.len();
        let mut pos = self.f_cell(key);
        let mut phi = Chain {
            ids: [EMPTY_HASH_ID; MAX_K],
            len: 0,
        };
        for step in 0..self.k {
            // `pos` is reduced modulo `omega`, so the bounds-masked probe
            // is exact and keeps the panic branch out of the query loop.
            let value = self.cells.get_probe(pos);
            if value == 0 {
                return None;
            }
            let h = (value & self.index_mask()) as HashId;
            if h == EMPTY_HASH_ID || usize::from(h) > provider.len() {
                return None;
            }
            phi.ids[step] = h;
            phi.len = step + 1;
            if step + 1 == self.k {
                if value & self.endbit_mask() != 0 {
                    return Some(phi);
                }
                return None;
            }
            pos = (provider.hash_id(h, key) % omega as u64) as usize;
        }
        unreachable!("loop returns within k steps");
    }

    /// Fraction of non-empty cells (diagnostics for the ∆ sweep of Fig 9a).
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.cells.count_nonzero() as f64 / self.cells.len() as f64
    }

    /// The backing cell array — used by persistence.
    #[must_use]
    pub fn cells(&self) -> &PackedCells {
        &self.cells
    }

    /// Rebuilds a table from its parts — used by persistence.
    ///
    /// # Panics
    /// Panics if the parts are inconsistent (see [`Self::new`]).
    #[must_use]
    pub fn from_parts(cells: PackedCells, k: usize, inserted: usize) -> Self {
        assert!(
            (1..=MAX_K).contains(&k),
            "chain length {k} not in 1..={MAX_K}"
        );
        let cell_bits = cells.width();
        assert!((2..=16).contains(&cell_bits), "cell size out of range");
        Self {
            cells,
            cell_bits,
            k,
            inserted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use habf_hashing::HashFamily;

    fn setup(omega: usize) -> (HashExpressor, HashFamily, Xoshiro256) {
        (
            HashExpressor::new(omega, 4, 3),
            HashFamily::with_size(7),
            Xoshiro256::new(42),
        )
    }

    #[test]
    fn inserted_chain_is_recovered_exactly() {
        let (mut he, family, mut rng) = setup(1024);
        let key = b"adjusted positive key";
        let phi: Vec<HashId> = vec![2, 5, 7];
        let plan = he.plan(key, &phi, &family, &mut rng).expect("fits");
        he.commit(&plan);
        let got = he.query(key, &family).expect("stored");
        let mut want = phi.clone();
        let mut got_sorted = got.to_vec();
        want.sort_unstable();
        got_sorted.sort_unstable();
        assert_eq!(got_sorted, want, "recovered set differs");
        assert_eq!(he.inserted(), 1);
    }

    #[test]
    fn absent_key_usually_returns_none() {
        let (mut he, family, mut rng) = setup(4096);
        for i in 0..50u32 {
            let key = format!("stored-{i}").into_bytes();
            let phi: Vec<HashId> = vec![1, 4, 6];
            if let Some(plan) = he.plan(&key, &phi, &family, &mut rng) {
                he.commit(&plan);
            }
        }
        let misses = (0..1000u32)
            .filter(|i| {
                he.query(format!("absent-{i}").as_bytes(), &family)
                    .is_none()
            })
            .count();
        // F_h <= t/ω = 50/4096 ≈ 1.2%; allow generous slack.
        assert!(misses > 950, "only {misses}/1000 absent keys rejected");
    }

    #[test]
    fn plan_does_not_mutate_state() {
        let (he, family, mut rng) = setup(256);
        let before = he.clone();
        let _ = he.plan(b"somekey", &[1, 2, 3], &family, &mut rng);
        assert_eq!(he.cells, before.cells);
        assert_eq!(he.inserted(), 0);
    }

    #[test]
    fn case2_sharing_is_detected() {
        let (mut he, family, mut rng) = setup(64);
        // Insert many chains into a small table; later chains should share
        // cells (Case 2) with earlier ones at this density.
        let mut any_shared = false;
        for i in 0..40u32 {
            let key = format!("key-{i}").into_bytes();
            if let Some(plan) = he.plan(&key, &[1, 2, 3], &family, &mut rng) {
                any_shared |= plan.shared_cells() > 0;
                he.commit(&plan);
            }
        }
        assert!(any_shared, "no chain ever shared a cell at high density");
    }

    #[test]
    fn full_table_rejects_new_chains() {
        let (mut he, family, mut rng) = setup(8);
        let mut failures = 0;
        for i in 0..100u32 {
            let key = format!("k{i}").into_bytes();
            match he.plan(&key, &[1, 2, 3], &family, &mut rng) {
                Some(plan) => he.commit(&plan),
                None => failures += 1,
            }
        }
        assert!(failures > 50, "tiny table accepted nearly everything");
    }

    #[test]
    fn zero_fnr_over_many_insertions() {
        let (mut he, family, mut rng) = setup(8192);
        let mut stored: Vec<(Vec<u8>, Vec<HashId>)> = Vec::new();
        for i in 0..400u32 {
            let key = format!("member-{i}").into_bytes();
            let phi: Vec<HashId> = {
                // Rotate through different subsets.
                let base = (i % 5) as u8;
                vec![1 + base % 7, 1 + (base + 2) % 7, 1 + (base + 4) % 7]
            };
            if let Some(plan) = he.plan(&key, &phi, &family, &mut rng) {
                he.commit(&plan);
                stored.push((key, phi));
            }
        }
        assert!(stored.len() > 300, "too few fits: {}", stored.len());
        for (key, phi) in &stored {
            let got = he.query(key, &family).expect("zero FNR violated");
            let mut a = got.to_vec();
            let mut b = phi.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn endbit_is_required() {
        // A chain that ends on a cell whose endbit is 0 must return None.
        // Construct the situation directly: store a 1-chain prefix by hand.
        let (mut he, family, _) = setup(128);
        let key = b"prefix-only";
        // Write the f-cell with a valid index but no endbit.
        let pos = he.f_cell(key);
        he.cells.set(pos, 3); // hashindex 3, endbit 0

        // The query follows to the next cells which are empty -> None,
        // or finishes without endbit -> None. Either way: None.
        assert!(he.query(key, &family).is_none());
    }

    #[test]
    fn max_hash_id_respects_cell_width() {
        assert_eq!(HashExpressor::new(10, 3, 2).max_hash_id(), 3);
        assert_eq!(HashExpressor::new(10, 4, 2).max_hash_id(), 7);
        assert_eq!(HashExpressor::new(10, 5, 2).max_hash_id(), 15);
    }

    #[test]
    #[should_panic(expected = "not addressable")]
    fn oversized_id_panics() {
        let (he, family, mut rng) = setup(10);
        let _ = he.plan(b"x", &[1, 2, 9], &family, &mut rng); // 9 > 7
    }

    #[test]
    fn space_bits_is_omega_alpha() {
        let he = HashExpressor::new(1000, 4, 3);
        assert_eq!(he.space_bits(), 4000);
    }
}
