//! Property test for the batch probe pipeline: on arbitrary workloads,
//! every batchable filter id must answer a large mixed probe set
//! identically through the scalar loop, the batch pipeline with
//! software prefetch disabled, the pipeline with prefetch on, and the
//! parallel fan-out. Prefetch is a cache hint and the pipeline is a
//! reordering of the same probes, so any divergence is a bug in the
//! plan/test split — exactly the class of bug this test exists to catch.

use habf::prelude::{BatchQuery, BuildInput, FilterSpec};
use proptest::prelude::*;

/// Probes per filter id: half members (cycled), half fresh keys, interleaved
/// so positive and negative probes alternate through the pipeline chunks.
fn mixed_probes(members: &[Vec<u8>], total: usize) -> Vec<Vec<u8>> {
    (0..total)
        .map(|i| {
            if i % 2 == 0 {
                members[(i / 2) % members.len()].clone()
            } else {
                // ':' is outside the member alphabet, so fresh keys are
                // guaranteed non-members.
                format!("fresh:{i}").into_bytes()
            }
        })
        .collect()
}

proptest! {
    // Each case probes ~10k keys through four paths on every batchable
    // id and on two grown stacks; a few cases over arbitrary key sets and
    // seeds is plenty.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn batch_prefetch_on_off_and_scalar_agree_for_every_batchable_id(
        pos in prop::collection::hash_set("[a-z0-9]{1,20}", 8..200),
        seed in any::<u64>(),
    ) {
        let members: Vec<Vec<u8>> = pos.into_iter().map(String::into_bytes).collect();
        // Costed negatives ('!' is outside the member alphabet) so the
        // cost-aware filters exercise their full build path.
        let negatives: Vec<(Vec<u8>, f64)> = members
            .iter()
            .take(32)
            .enumerate()
            .map(|(i, k)| {
                let mut v = k.clone();
                v.push(b'!');
                (v, 1.0 + (i % 5) as f64)
            })
            .collect();
        let input = BuildInput::from_members(&members).with_costed_negatives(&negatives);

        let probes = mixed_probes(&members, 10_000);
        let slices: Vec<&[u8]> = probes.iter().map(Vec::as_slice).collect();

        let mut filters = Vec::new();
        for id in habf::core::registry::ids() {
            let spec = FilterSpec::by_id(id)
                .expect("listed id resolves")
                .bits_per_key(12.0)
                .seed(seed)
                .shards(if id.starts_with("sharded") { 3 } else { 1 });
            let filter = spec
                .build(&input)
                .unwrap_or_else(|e| panic!("{id} build failed: {e}"));
            filters.push((id, filter, &slices));
        }

        // Every id above is freshly built, so `scalable-habf` is one tier.
        // Grown: inserts past the design capacity stack 3 or more tiers.
        let late: Vec<Vec<u8>> = (0..members.len() * 8)
            .map(|i| format!("late{i}").into_bytes())
            .collect();
        let mut grown = FilterSpec::scalable_habf()
            .bits_per_key(12.0)
            .seed(seed)
            .build(&input)
            .expect("scalable-habf build");
        for key in &late {
            grown.as_growable().expect("growable").insert(key);
        }
        prop_assert!(grown.generations() >= 3, "{} tiers", grown.generations());
        // Folded plus one: a fold-back leaves one big tier, and one more
        // insert opens a nearly empty tier above it.
        let live: Vec<&[u8]> = members.iter().chain(&late).map(Vec::as_slice).collect();
        let mut folded = grown.clone_filter();
        folded
            .as_rebuildable()
            .expect("rebuildable")
            .rebuild(&BuildInput { members: live.clone(), ..BuildInput::default() }, seed)
            .expect("fold-back");
        folded.as_growable().expect("growable").insert(b"after-fold");
        prop_assert_eq!(folded.generations(), 2);
        // Members of every tier, interleaved with fresh keys.
        let stack_probes: Vec<Vec<u8>> = mixed_probes(&late, 5_000)
            .into_iter()
            .chain(mixed_probes(&members, 5_000))
            .chain([b"after-fold".to_vec()])
            .collect();
        let stack_slices: Vec<&[u8]> = stack_probes.iter().map(Vec::as_slice).collect();
        for stack in [&grown, &folded] {
            prop_assert!(stack.as_batch().is_some(), "a grown stack must batch");
            prop_assert!(live.iter().all(|k| stack.contains(k)), "a member answered false");
        }
        filters.push(("scalable-habf grown", grown, &stack_slices));
        filters.push(("scalable-habf folded+1", folded, &stack_slices));

        for (id, filter, slices) in filters {
            let Some(batch): Option<&dyn BatchQuery> = filter.as_batch() else {
                continue; // id has no batch pipeline (e.g. xor)
            };

            let scalar: Vec<bool> = slices.iter().map(|k| filter.contains(k)).collect();
            // The prefetch switch is process-global; `scoped` serializes
            // this toggle against any other test toggling it in parallel
            // and restores the prior state when the guard drops.
            let off = {
                let _prefetch_off = habf::util::prefetch::scoped(false);
                batch.contains_batch(slices)
            };
            let on = {
                let _prefetch_on = habf::util::prefetch::scoped(true);
                batch.contains_batch(slices)
            };
            let par = batch.contains_batch_par(slices, 3);

            prop_assert_eq!(&scalar, &off, "{}: batch(-prefetch) diverged from scalar", id);
            prop_assert_eq!(&scalar, &on, "{}: batch(+prefetch) diverged from scalar", id);
            prop_assert_eq!(&scalar, &par, "{}: parallel batch diverged from scalar", id);
        }
    }
}
