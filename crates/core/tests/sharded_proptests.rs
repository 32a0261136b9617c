//! Property-based tests of the sharded serving layer: for random key
//! sets, seeds, and shard counts, `ShardedHabf` must uphold zero false
//! negatives, agree key-for-key with unsharded `Habf`s built over the
//! same per-shard partitions, and — at shard count 1 — produce a shard
//! byte-identical to the plain unsharded build.

use habf_core::{registry, DynFilter, Habf, HabfConfig, ShardedConfig, ShardedHabf};
use habf_filters::Filter;
use proptest::prelude::*;

fn keys_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::hash_set("[a-z0-9./:-]{1,24}", 1..200)
        .prop_map(|set| set.into_iter().map(String::into_bytes).collect())
}

/// Cost-annotated negatives disjoint from any generated positive (the
/// upper-case prefix can never collide with the `[a-z0-9./:-]` class).
fn negatives_for(n: usize, seed: u32) -> Vec<(Vec<u8>, f64)> {
    (0..n)
        .map(|i| {
            let cost = 1.0 + f64::from(seed.wrapping_mul(i as u32 + 1) % 100);
            (format!("NEG:{seed}:{i}").into_bytes(), cost)
        })
        .collect()
}

fn sharded_config(shards: usize, total_bits: usize, seed: u64) -> ShardedConfig {
    let mut base = HabfConfig::with_total_bits(total_bits);
    base.seed = seed;
    ShardedConfig::new(shards, base)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero false negatives for every shard count in {1, 2, 4, 8},
    /// arbitrary key sets and build seeds.
    #[test]
    fn zero_false_negatives_all_shard_counts(
        keys in keys_strategy(),
        seed in any::<u32>(),
    ) {
        let negatives = negatives_for(keys.len(), seed);
        let total_bits = (keys.len() * 10).max(256);
        for shards in [1usize, 2, 4, 8] {
            let cfg = sharded_config(shards, total_bits, u64::from(seed));
            let f = ShardedHabf::<Habf>::build_par(&keys, &negatives, &cfg);
            for key in &keys {
                prop_assert!(
                    f.contains(key),
                    "{shards}-shard filter dropped {:?}",
                    key
                );
            }
            let batch = f.contains_batch(&keys);
            prop_assert!(batch.iter().all(|&b| b), "batch path dropped a member");
        }
    }

    /// A sharded filter answers every key — member or not — exactly like
    /// the unsharded `Habf`s built over the same partitions with the same
    /// per-shard configurations.
    #[test]
    fn agrees_with_unsharded_filters_built_per_partition(
        keys in keys_strategy(),
        seed in any::<u32>(),
        shards_pow in 0u32..=3,
    ) {
        let shards = 1usize << shards_pow;
        let negatives = negatives_for(keys.len(), seed);
        let total_bits = (keys.len() * 10).max(256);
        let cfg = sharded_config(shards, total_bits, u64::from(seed));
        let sharded = ShardedHabf::<Habf>::build_par(&keys, &negatives, &cfg);

        // Rebuild each shard by hand from its partition.
        let mut pos_parts: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards];
        for key in &keys {
            pos_parts[sharded.shard_of(key)].push(key.clone());
        }
        let mut neg_parts: Vec<Vec<(Vec<u8>, f64)>> = vec![Vec::new(); shards];
        for (key, cost) in &negatives {
            neg_parts[sharded.shard_of(key)].push((key.clone(), *cost));
        }
        let manual: Vec<Habf> = (0..shards)
            .map(|i| {
                let shard_cfg = cfg.shard_config(i, pos_parts[i].len(), keys.len());
                Habf::build(&pos_parts[i], &neg_parts[i], &shard_cfg)
            })
            .collect();
        for (i, rebuilt) in manual.iter().enumerate() {
            prop_assert_eq!(
                sharded.shard(i).to_container_bytes(),
                rebuilt.to_container_bytes(),
                "shard {} bytes differ from its per-partition rebuild",
                i
            );
        }
        let mut probe: Vec<Vec<u8>> = keys.clone();
        probe.extend(negatives.iter().map(|(k, _)| k.clone()));
        probe.push(b"never-seen-key".to_vec());
        for key in &probe {
            let i = sharded.shard_of(key);
            prop_assert_eq!(
                sharded.contains(key),
                manual[i].contains(key),
                "shard {} disagrees on {:?}",
                i,
                key
            );
        }
    }

    /// With one shard, the single shard is byte-identical to the plain
    /// unsharded build with the same configuration.
    #[test]
    fn single_shard_bytes_match_unsharded(
        keys in keys_strategy(),
        seed in any::<u32>(),
    ) {
        let negatives = negatives_for(keys.len(), seed);
        let total_bits = (keys.len() * 10).max(256);
        let cfg = sharded_config(1, total_bits, u64::from(seed));
        let sharded = ShardedHabf::<Habf>::build_par(&keys, &negatives, &cfg);
        let plain = Habf::build(&keys, &negatives, &cfg.base);
        prop_assert_eq!(
            sharded.shard(0).to_container_bytes(),
            plain.to_container_bytes()
        );
    }

    /// Persistence round-trips: bytes → filter → bytes is the identity,
    /// and answers are preserved, for every shard count.
    #[test]
    fn roundtrip_is_identity(
        keys in keys_strategy(),
        seed in any::<u32>(),
        shards_pow in 0u32..=3,
    ) {
        let shards = 1usize << shards_pow;
        let negatives = negatives_for(keys.len(), seed);
        let cfg = sharded_config(shards, (keys.len() * 10).max(256), u64::from(seed));
        let f = ShardedHabf::<Habf>::build_par(&keys, &negatives, &cfg);
        let bytes = f.to_container_bytes();
        let restored = registry::load(&bytes).expect("roundtrip").filter;
        prop_assert_eq!(restored.to_container_bytes(), bytes);
        for key in &keys {
            prop_assert!(restored.contains(key));
        }
    }

    /// `contains_batch_par` agrees with the scalar loop for any batch
    /// size × thread count — in particular tiny batches probed with far
    /// more threads than keys, where the `div_ceil` chunking must
    /// neither compute a zero chunk (`chunks(0)` panics) nor spawn an
    /// empty-range worker nor drop the tail.
    #[test]
    fn par_batch_agrees_on_tiny_batches_with_huge_thread_counts(
        keys in keys_strategy(),
        seed in any::<u32>(),
        take in 0usize..24,
        threads in 0usize..=256,
    ) {
        let negatives = negatives_for(keys.len(), seed);
        let cfg = sharded_config(4, (keys.len() * 10).max(256), u64::from(seed));
        let f = ShardedHabf::<Habf>::build_par(&keys, &negatives, &cfg);

        // Members interleaved with guaranteed misses, cut to a tiny
        // batch so every requested thread count dwarfs the key count.
        let mut probe: Vec<Vec<u8>> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            probe.push(key.clone());
            probe.push(format!("MISS:{seed}:{i}").into_bytes());
        }
        probe.truncate(take);

        let serial: Vec<bool> = probe.iter().map(|k| f.contains(k)).collect();
        for t in [threads, probe.len() + 1, probe.len().saturating_mul(8)] {
            let par = f.contains_batch_par(&probe, t);
            prop_assert_eq!(&par, &serial, "threads={}", t);
        }
    }
}

/// The genuinely parallel path with an uneven tail chunk: 1501 probes
/// split across 2..=5 effective workers leaves a shorter final chunk
/// that must still be probed and written back.
#[test]
fn par_batch_covers_the_uneven_tail_chunk() {
    let keys: Vec<Vec<u8>> = (0..900).map(|i| format!("k:{i}").into_bytes()).collect();
    let negatives = negatives_for(300, 9);
    let cfg = sharded_config(4, keys.len() * 10, 9);
    let f = ShardedHabf::<Habf>::build_par(&keys, &negatives, &cfg);

    let probe: Vec<Vec<u8>> = (0..1501)
        .map(|i| {
            if i % 2 == 0 {
                keys[i % keys.len()].clone()
            } else {
                format!("MISS:{i}").into_bytes()
            }
        })
        .collect();
    let serial: Vec<bool> = probe.iter().map(|k| f.contains(k)).collect();
    for threads in [2, 3, 4, 5, 64, 1502] {
        let par = f.contains_batch_par(&probe, threads);
        assert_eq!(par.len(), probe.len(), "threads={threads}: length");
        assert_eq!(par, serial, "threads={threads}: answers diverged");
    }
}
