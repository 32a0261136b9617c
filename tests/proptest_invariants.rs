//! Property-based invariants across the whole stack.
//!
//! These drive the core guarantees with arbitrary inputs: zero false
//! negatives for every filter, HashExpressor chain recovery, and the
//! equivalence of weighted and plain FPR under uniform costs.

use habf::core::{FHabf, Habf, HabfConfig, HashExpressor};
use habf::filters::{BloomFilter, Filter, XorFilter};
use habf::hashing::{HashFamily, HashId};
use habf::util::Xoshiro256;
use habf::workloads::metrics;
use proptest::prelude::*;

/// Arbitrary disjoint positive/negative key sets.
fn key_sets() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<Vec<u8>>)> {
    (
        prop::collection::hash_set("[a-z0-9]{1,20}", 1..120),
        prop::collection::hash_set("[A-Z0-9]{1,20}", 0..120),
    )
        .prop_map(|(pos, neg)| {
            // Lowercase vs uppercase alphabets keep the sets disjoint.
            (
                pos.into_iter().map(String::into_bytes).collect(),
                neg.into_iter().map(String::into_bytes).collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// HABF never drops a member, whatever the sets and costs look like.
    #[test]
    fn habf_zero_fnr((pos, neg) in key_sets(), skew in 0u8..4, seed in any::<u64>()) {
        let negatives: Vec<(Vec<u8>, f64)> = neg
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), 1.0 + (i as f64) * f64::from(skew)))
            .collect();
        let mut cfg = HabfConfig::with_total_bits((pos.len() * 12).max(64));
        cfg.seed = seed;
        let filter = Habf::build(&pos, &negatives, &cfg);
        for k in &pos {
            prop_assert!(filter.contains(k), "dropped {:?}", k);
        }
    }

    /// Same for the fast variant.
    #[test]
    fn fhabf_zero_fnr((pos, neg) in key_sets(), seed in any::<u64>()) {
        let negatives: Vec<(Vec<u8>, f64)> = neg
            .iter()
            .map(|k| (k.clone(), 1.0))
            .collect();
        let mut cfg = HabfConfig::with_total_bits((pos.len() * 12).max(64));
        cfg.seed = seed;
        let filter = FHabf::build(&pos, &negatives, &cfg);
        for k in &pos {
            prop_assert!(filter.contains(k), "dropped {:?}", k);
        }
    }

    /// BF and Xor uphold the same contract on arbitrary keys.
    #[test]
    fn baselines_zero_fnr((pos, _neg) in key_sets()) {
        let m = (pos.len() * 10).max(64);
        let bloom = BloomFilter::build(&pos, m);
        let xor = XorFilter::build_with_fp_bits(&pos, 8);
        for k in &pos {
            prop_assert!(bloom.contains(k));
            prop_assert!(xor.contains(k));
        }
    }

    /// Any chain the HashExpressor accepts is recovered as the same set.
    #[test]
    fn hash_expressor_roundtrip(
        keys in prop::collection::hash_set("[a-z]{1,16}", 1..60),
        seed in any::<u64>(),
    ) {
        let family = HashFamily::with_size(7);
        let mut he = HashExpressor::new(4096, 4, 3);
        let mut rng = Xoshiro256::new(seed);
        let mut stored: Vec<(Vec<u8>, Vec<HashId>)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let phi: Vec<HashId> = {
                let base = (i % 5) as u8;
                vec![1 + base % 7, 1 + (base + 2) % 7, 1 + (base + 4) % 7]
            };
            if let Some(plan) = he.plan(key.as_bytes(), &phi, &family, &mut rng) {
                he.commit(&plan);
                stored.push((key.clone().into_bytes(), phi));
            }
        }
        for (key, phi) in &stored {
            let got = he.query(key, &family);
            prop_assert!(got.is_some(), "stored chain lost for {:?}", key);
            let mut got = got.unwrap().to_vec();
            let mut want = phi.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// Uniform costs collapse the weighted FPR to the plain FPR for any
    /// membership predicate.
    #[test]
    fn uniform_weighted_fpr_equals_plain((_, neg) in key_sets(), mask in any::<u64>()) {
        prop_assume!(!neg.is_empty());
        let costs = vec![1.0; neg.len()];
        let pred = |k: &[u8]| (k.len() as u64) & (mask % 3) == 0;
        let w = metrics::weighted_fpr(pred, &neg, &costs);
        let p = metrics::fpr(pred, &neg);
        prop_assert!((w - p).abs() < 1e-12);
    }

    /// HABF's false positives on the *training* negatives never exceed the
    /// collision keys TPJO reports as failed plus the HashExpressor's
    /// accidental-chain allowance.
    #[test]
    fn habf_fp_bounded_by_stats((pos, neg) in key_sets(), seed in any::<u64>()) {
        prop_assume!(pos.len() >= 8 && neg.len() >= 8);
        let negatives: Vec<(Vec<u8>, f64)> = neg.iter().map(|k| (k.clone(), 1.0)).collect();
        let mut cfg = HabfConfig::with_total_bits(pos.len() * 12);
        cfg.seed = seed;
        let filter = Habf::build(&pos, &negatives, &cfg);
        let fp = neg.iter().filter(|k| filter.contains(k)).count();
        let stats = filter.stats();
        // Every false positive is either an unoptimized collision key or an
        // accidental HashExpressor chain; failures track the former.
        let allowance = stats.failed + stats.requeued + neg.len() / 4 + 2;
        prop_assert!(
            fp <= allowance,
            "fp {} exceeds failures {} + slack",
            fp,
            stats.failed
        );
    }
}
