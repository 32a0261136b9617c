//! Differential storage-engine proptests: for **every** `habf filters`
//! id, a filter built once and written as an aligned v2 container must be
//! indistinguishable whether it is decoded the copying way
//! (`registry::load`) or served as a zero-copy mmap view
//! (`registry::load_mmap`) — byte-identical re-encoding, identical
//! answers on 10k mixed probes per case.

use habf::core::registry;
use habf::core::{BuildInput, DynFilter, FilterSpec, LoadedFilter};
use habf::util::Backing;
use proptest::prelude::*;

/// One filter per registered id, built once and persisted once (builds
/// are full TPJO runs; the proptests below run dozens of cases).
struct CorpusEntry {
    id: String,
    built: Box<dyn DynFilter>,
    owned: LoadedFilter,
    viewed: LoadedFilter,
}

fn corpus() -> &'static [CorpusEntry] {
    static CORPUS: std::sync::OnceLock<Vec<CorpusEntry>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let members: Vec<Vec<u8>> = (0..4_000)
            .map(|i| format!("member:{i:07}").into_bytes())
            .collect();
        let negatives: Vec<(Vec<u8>, f64)> = (0..4_000)
            .map(|i| (format!("absent:{i:07}").into_bytes(), 1.0 + (i % 7) as f64))
            .collect();
        let input = BuildInput::from_members(&members).with_costed_negatives(&negatives);
        let dir =
            std::env::temp_dir().join(format!("habf-proptest-storage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        registry::ids()
            .into_iter()
            .map(|id| {
                let built = FilterSpec::by_id(id)
                    .expect("registered")
                    .bits_per_key(12.0)
                    .shards(3)
                    .build(&input)
                    .unwrap_or_else(|e| panic!("{id}: {e}"));
                let image = built.to_container_bytes();
                let path = dir.join(format!("{id}.habc"));
                std::fs::write(&path, &image).expect("write image");
                let owned = registry::load(&image).unwrap_or_else(|e| panic!("{id}: {e}"));
                let viewed = registry::load_mmap(&path).unwrap_or_else(|e| panic!("{id}: {e}"));
                assert_eq!(owned.filter.backing(), Backing::Owned, "{id}");
                assert_ne!(viewed.filter.backing(), Backing::Owned, "{id}");
                CorpusEntry {
                    id: id.to_string(),
                    built,
                    owned,
                    viewed,
                }
            })
            .collect()
    })
}

/// Deterministic mixed probe stream: members (in and out of range),
/// near-miss keys sharing the member prefix, and arbitrary byte keys.
fn probe_key(seed: u64, i: u64) -> Vec<u8> {
    let x = habf::hashing::xxhash::xxh64(&i.to_le_bytes(), seed);
    match x % 4 {
        0 => format!("member:{:07}", x % 5_000).into_bytes(),
        1 => format!("absent:{:07}", x % 5_000).into_bytes(),
        2 => format!("member:{x}").into_bytes(),
        _ => x.to_le_bytes().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 10k mixed probes per case: the mmap view and the owned decode of
    /// the same image answer identically for every registered id.
    #[test]
    fn view_and_owned_answer_identically_on_mixed_probes(seed in any::<u64>()) {
        for entry in corpus() {
            for i in 0..10_000u64 {
                let key = probe_key(seed, i);
                let owned = entry.owned.filter.contains(&key);
                let viewed = entry.viewed.filter.contains(&key);
                prop_assert_eq!(owned, viewed, "{}: probe {} diverged", &entry.id, i);
                prop_assert_eq!(
                    entry.built.contains(&key), owned,
                    "{}: decode changed an answer", &entry.id
                );
            }
        }
    }
}

/// The view loses nothing in re-serialization: both loads re-encode
/// byte-identically to the built filter's image.
#[test]
fn view_and_owned_reencode_byte_identically() {
    for entry in corpus() {
        for (label, loaded) in [("owned", &entry.owned), ("view", &entry.viewed)] {
            assert_eq!(
                loaded.filter.to_container_bytes(),
                entry.built.to_container_bytes(),
                "{}: {label} v2 re-encode drifted",
                entry.id
            );
        }
    }
}
