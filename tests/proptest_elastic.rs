//! Property-based invariants for the elastic (growable) filter layer.
//!
//! Two contracts are pinned here. First: growth is a *capability*, not
//! a best-effort — every fixed-capacity filter refuses inserts with a
//! typed error at the tenant boundary instead of silently degrading
//! its zero-FN promise or panicking. Second: the scalable stack keeps
//! zero false negatives across arbitrary insert bursts spanning many
//! generations, all the way past 8× its design capacity.

use habf::core::tenant::{InsertError, TenantStore};
use habf::core::{registry, AdaptPolicy, BuildInput, FilterSpec, ScalableHabf};
use habf::filters::Filter;
use habf::prelude::HabfConfig;
use proptest::prelude::*;

fn keys(prefix: &str, range: std::ops::Range<usize>) -> Vec<Vec<u8>> {
    range
        .map(|i| format!("{prefix}:{i}").into_bytes())
        .collect()
}

/// The non-growable refusal is not probabilistic, so pin it for every
/// registered id outside the proptest harness: `as_growable` is `None`
/// everywhere but the scalable stack, and the tenant surface turns
/// that into a typed `InsertError::NotGrowable` carrying the id.
#[test]
fn insert_past_capacity_on_fixed_filters_is_a_typed_error() {
    let members = keys("m", 0..64);
    let input = BuildInput::from_members(&members);
    for id in registry::ids() {
        if id == "scalable-habf" {
            continue;
        }
        let filter = FilterSpec::by_id(id)
            .expect("registered")
            .bits_per_key(10.0)
            .shards(2)
            .build(&input)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let store = TenantStore::new("t", filter, AdaptPolicy::cost_threshold(10.0))
            .with_members(members.clone());
        // Far past design capacity: the refusal must be typed, not a
        // panic, and must leave the tenant serving its original set.
        let burst = keys("late", 0..640);
        match store.insert_keys(&burst) {
            Err(InsertError::NotGrowable { id: got }) => assert_eq!(got, id),
            Ok(_) => panic!("{id}: accepted inserts without the grow capability"),
        }
        let snap = store.snapshot();
        for k in &members {
            assert!(snap.contains(k), "{id}: refusal broke zero FN");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Zero FN across generations: random insert bursts push the stack
    /// through 1..6 tiers, and every member ever added — built or
    /// inserted, in any tier — still answers `contains`.
    #[test]
    fn scalable_zero_fn_across_generations(
        built in 8usize..80,
        bursts in prop::collection::vec(1usize..200, 0..6),
        seed in any::<u64>(),
    ) {
        let members = keys("m", 0..built);
        let mut cfg = HabfConfig::with_total_bits((built * 10).max(256));
        cfg.seed = seed;
        let negatives: [(&[u8], f64); 0] = [];
        let refs: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let mut filter = ScalableHabf::build(&refs, &negatives, &cfg);

        let mut inserted: Vec<Vec<u8>> = Vec::new();
        for (b, burst) in bursts.iter().enumerate() {
            for i in 0..*burst {
                let key = format!("burst{b}:{i}").into_bytes();
                filter.insert(&key);
                inserted.push(key);
            }
        }
        prop_assert!(filter.generations() >= 1);
        prop_assert!(filter.generations() <= filter.max_tiers());
        for k in members.iter().chain(&inserted) {
            prop_assert!(filter.contains(k), "dropped {:?}", k);
        }
        // The stack round-trips through the registry with the exact
        // same membership answer for every key it holds.
        let image = habf::core::DynFilter::to_container_bytes(&filter);
        let loaded = registry::load(&image).expect("round trip");
        for k in members.iter().chain(&inserted) {
            prop_assert!(loaded.filter.contains(k), "round trip dropped {:?}", k);
        }
    }

    /// The acceptance pin: the stack absorbs at least 8× its design
    /// capacity with zero FN, whatever the seed and base size.
    #[test]
    fn scalable_sustains_8x_design_capacity(
        built in 16usize..64,
        seed in any::<u64>(),
    ) {
        let members = keys("m", 0..built);
        let mut cfg = HabfConfig::with_total_bits((built * 10).max(256));
        cfg.seed = seed;
        let negatives: [(&[u8], f64); 0] = [];
        let refs: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let mut filter = ScalableHabf::build(&refs, &negatives, &cfg);

        let late = keys("late", 0..8 * built);
        for k in &late {
            filter.insert(k);
        }
        prop_assert!(
            filter.total_inserted() >= 8 * built,
            "absorbed only {} of {}",
            filter.total_inserted(),
            8 * built
        );
        for k in members.iter().chain(&late) {
            prop_assert!(filter.contains(k), "dropped {:?}", k);
        }
    }
}
