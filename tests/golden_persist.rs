//! Golden serialization tests. The one format the workspace writes — the
//! `HABC` v2 container, for every registered filter id — is pinned by
//! checked-in fixture blobs under `tests/golden/`, so any byte-level drift
//! (field order, a header change, hash-function renumbering) fails loudly
//! instead of silently orphaning every shipped filter image.
//!
//! The retired formats are pinned the other way round. Their fixtures —
//! one `HABC` v1 container per id that existed when v1 was retired, the
//! legacy `HABF` / `HABS` images, and one grown multi-tier stack — are
//! frozen: nothing writes them any more, and each must load and re-encode
//! to exactly the v2 bytes of the same filter.
//!
//! To regenerate the v2 fixtures after a *deliberate, versioned* format
//! change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_persist
//! ```

use habf::core::registry::{self, LoadedFilter};
use habf::core::PersistError;
use habf::prelude::{
    BuildInput, DynFilter, FHabf, Filter, FilterSpec, Habf, HabfConfig, ImageFormat, ShardedConfig,
    ShardedHabf,
};
use std::path::PathBuf;

type Workload = (Vec<Vec<u8>>, Vec<(Vec<u8>, f64)>);

/// The ids registered when the v1 container was retired: each has a
/// frozen `container_<id>_v1.bin` fixture. Ids registered later have
/// none, so this list never grows.
const FROZEN_V1_IDS: [&str; 11] = [
    "habf",
    "fhabf",
    "sharded-habf",
    "sharded-fhabf",
    "bloom",
    "weighted-bloom",
    "xor",
    "blocked-bloom",
    "blocked-habf",
    "binary-fuse",
    "scalable-habf",
];

/// The canonical fixture workload: small enough to keep blobs a few KB,
/// rich enough to exercise the HashExpressor (costed collisions exist).
fn workload() -> Workload {
    let positives: Vec<Vec<u8>> = (0..64)
        .map(|i| format!("golden:pos:{i}").into_bytes())
        .collect();
    let negatives: Vec<(Vec<u8>, f64)> = (0..64)
        .map(|i| (format!("golden:neg:{i}").into_bytes(), 1.0 + (i % 5) as f64))
        .collect();
    (positives, negatives)
}

fn fixture_config() -> HabfConfig {
    // The paper's defaults at 12 bits/key; the seed is the library default
    // so fixtures also pin default-seed stability.
    HabfConfig::with_total_bits(64 * 12)
}

/// The fixture spec for a registered id over the golden workload.
fn build_fixture_filter(id: &str) -> Box<dyn DynFilter> {
    let (pos, neg) = workload();
    let input = BuildInput::from_members(&pos).with_costed_negatives(&neg);
    FilterSpec::by_id(id)
        .expect("registered")
        .total_bits(64 * 12)
        .shards(2)
        .build(&input)
        .unwrap_or_else(|e| panic!("{id}: {e}"))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(golden_path(name)).unwrap_or_else(|e| panic!("missing fixture {name}: {e}"))
}

fn regenerating() -> bool {
    std::env::var_os("GOLDEN_REGEN").is_some()
}

/// Compares `image` against the named v2 fixture — or rewrites the
/// fixture when `GOLDEN_REGEN=1`.
fn assert_matches_fixture(name: &str, image: &[u8]) {
    let path = golden_path(name);
    if regenerating() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, image).expect("write fixture");
        return;
    }
    assert_eq!(
        read_fixture(name),
        image,
        "{name}: serialized bytes drifted from the checked-in fixture; if the \
         format change is deliberate, bump the container version and \
         regenerate with GOLDEN_REGEN=1"
    );
}

/// Loads a frozen old-format fixture, checks the envelope facts it
/// declares, and checks that it re-encodes to exactly the v2 fixture of
/// the same filter.
fn load_frozen(name: &str, id: &str, format: ImageFormat) -> LoadedFilter {
    let loaded = registry::load(&read_fixture(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(loaded.format, format, "{name}");
    assert_eq!(loaded.version, 1, "{name}");
    assert_eq!(loaded.filter.filter_id(), id, "{name}");
    assert_eq!(
        loaded.filter.to_container_bytes(),
        read_fixture(&format!("container_{id}_v2.bin")),
        "{name}: does not re-encode to the v2 fixture of {id}"
    );
    loaded
}

/// The loaded filter answers exactly like the freshly built one.
fn assert_same_answers(loaded: &dyn DynFilter, built: &dyn Filter, name: &str) {
    let (pos, neg) = workload();
    for k in &pos {
        assert!(loaded.contains(k), "{name}: member dropped");
    }
    for (k, _) in &neg {
        assert_eq!(loaded.contains(k), built.contains(k), "{name}");
    }
}

/// Wraps `payload` in a v1 container envelope naming `id` (no writer for
/// this envelope exists outside tests).
fn v1_container(id: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = b"HABC\x01".to_vec();
    out.push(u8::try_from(id.len()).expect("short id"));
    out.extend_from_slice(id.as_bytes());
    out.extend_from_slice(&u64::try_from(payload.len()).expect("len").to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The frozen legacy `HABF` image decodes to exactly the filter a fresh
/// build produces today.
#[test]
fn habf_image_is_byte_stable() {
    if regenerating() {
        return; // the v2 fixtures may be mid-rewrite
    }
    let (pos, neg) = workload();
    let built = Habf::build(&pos, &neg, &fixture_config());
    let loaded = load_frozen("habf_v1.bin", "habf", ImageFormat::LegacySingle);
    assert_eq!(
        loaded.filter.to_container_bytes(),
        built.to_container_bytes()
    );
    assert_same_answers(loaded.filter.as_ref(), &built, "habf_v1.bin");
}

#[test]
fn fhabf_image_is_byte_stable() {
    if regenerating() {
        return;
    }
    let (pos, neg) = workload();
    let built = FHabf::build(&pos, &neg, &fixture_config());
    let loaded = load_frozen("fhabf_v1.bin", "fhabf", ImageFormat::LegacySingle);
    assert_eq!(
        loaded.filter.to_container_bytes(),
        built.to_container_bytes()
    );
    assert_same_answers(loaded.filter.as_ref(), &built, "fhabf_v1.bin");
}

#[test]
fn sharded_container_is_byte_stable() {
    if regenerating() {
        return;
    }
    let (pos, neg) = workload();
    let cfg = ShardedConfig::new(2, fixture_config());
    let built = ShardedHabf::<Habf>::build_par(&pos, &neg, &cfg);
    let loaded = load_frozen(
        "sharded_habf_v1.bin",
        "sharded-habf",
        ImageFormat::LegacySharded,
    );
    assert_eq!(
        loaded.filter.to_container_bytes(),
        built.to_container_bytes()
    );
    assert_same_answers(loaded.filter.as_ref(), &built, "sharded_habf_v1.bin");
}

/// Every registered id's v2 image is byte-pinned, and every id that had
/// a v1 container when v1 was retired still reads its frozen v1 fixture
/// into the same filter.
#[test]
fn container_images_are_byte_stable_for_every_registered_id() {
    for id in FROZEN_V1_IDS {
        assert!(
            registry::entry(id).is_some(),
            "{id} lost its registry entry"
        );
    }
    for id in registry::ids() {
        let filter = build_fixture_filter(id);
        let image = filter.to_container_bytes();
        assert_matches_fixture(&format!("container_{id}_v2.bin"), &image);

        let mut images = vec![(2u8, image.clone())];
        if FROZEN_V1_IDS.contains(&id) {
            images.push((1, read_fixture(&format!("container_{id}_v1.bin"))));
        }
        for (version, bytes) in &images {
            let loaded = registry::load(bytes).unwrap_or_else(|e| panic!("{id} v{version}: {e}"));
            assert_eq!(loaded.format, ImageFormat::Container, "{id} v{version}");
            assert_eq!(loaded.version, *version, "{id}");
            assert_eq!(loaded.filter.filter_id(), id);
            // Re-encoding through the one writer is stable and lands on
            // the v2 bytes regardless of which version was loaded.
            assert_eq!(
                loaded.filter.to_container_bytes(),
                image,
                "{id} v{version}: re-encode"
            );
            assert_same_answers(loaded.filter.as_ref(), filter.as_ref(), id);
        }

        // The v2 image loads zero-copy through the shared-image path with
        // identical answers.
        let shared = registry::load_bytes(image.clone())
            .unwrap_or_else(|e| panic!("{id}: shared load: {e}"));
        assert_ne!(
            shared.filter.backing(),
            habf::util::Backing::Owned,
            "{id}: v2 shared load must be view-backed"
        );
        assert_same_answers(shared.filter.as_ref(), filter.as_ref(), id);
    }
}

/// The pre-container fixtures keep loading through the registry — from
/// bytes and memory-mapped — and report the right id and format.
#[test]
fn legacy_fixtures_load_through_the_registry_adapters() {
    if regenerating() {
        return;
    }
    for (fixture, id, format) in [
        ("habf_v1.bin", "habf", ImageFormat::LegacySingle),
        ("fhabf_v1.bin", "fhabf", ImageFormat::LegacySingle),
        (
            "sharded_habf_v1.bin",
            "sharded-habf",
            ImageFormat::LegacySharded,
        ),
    ] {
        let loaded = load_frozen(fixture, id, format);
        let mapped = registry::load_mmap(golden_path(fixture))
            .unwrap_or_else(|e| panic!("{fixture}: mmap: {e}"));
        assert_eq!(mapped.format, format, "{fixture}");
        // Legacy images have no aligned frames: the copying reader serves
        // them from owned words.
        assert_eq!(mapped.filter.backing(), habf::util::Backing::Owned);
        assert_eq!(
            mapped.filter.to_container_bytes(),
            loaded.filter.to_container_bytes(),
            "{fixture}"
        );
        // The v1 container of the same id carries the legacy image as
        // its payload, byte for byte.
        assert_eq!(
            v1_container(id, &read_fixture(fixture)),
            read_fixture(&format!("container_{id}_v1.bin")),
            "{fixture}"
        );
    }
}

/// Kind bytes and magics keep the old formats mutually exclusive: a
/// legacy image wrapped under the wrong id is a typed error, never a
/// misparse.
#[test]
fn fixtures_load_across_filter_kinds_only_where_legal() {
    let habf = read_fixture("habf_v1.bin");
    let fhabf = read_fixture("fhabf_v1.bin");
    let sharded = read_fixture("sharded_habf_v1.bin");
    for (id, payload, want) in [
        ("fhabf", &habf, PersistError::WrongKind),
        ("habf", &fhabf, PersistError::WrongKind),
        ("blocked-habf", &habf, PersistError::WrongKind),
        ("habf", &sharded, PersistError::BadMagic),
        ("sharded-habf", &habf, PersistError::BadMagic),
        ("sharded-fhabf", &sharded, PersistError::WrongKind),
        ("scalable-habf", &habf, PersistError::BadVersion(b'H')),
    ] {
        assert_eq!(
            registry::load(&v1_container(id, payload)).err(),
            Some(want),
            "{id}"
        );
    }
    // A legacy image whose kind byte names no filter.
    let mut bad = habf.clone();
    bad[5] = 9;
    assert_eq!(
        registry::load(&bad).err(),
        Some(PersistError::Corrupt("unknown legacy kind byte"))
    );
}

/// The frozen multi-tier `scalable-habf` v1 fixture: every tier loads,
/// and the stack is exactly the one the same build and inserts produce
/// today.
#[test]
fn grown_scalable_v1_fixture_loads_every_tier() {
    let name = "container_scalable-habf-grown_v1.bin";
    let loaded = registry::load(&read_fixture(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(loaded.format, ImageFormat::Container);
    assert_eq!(loaded.version, 1);
    assert_eq!(loaded.filter.filter_id(), "scalable-habf");
    assert_eq!(loaded.filter.generations(), 3, "{name}: tiers");

    let late: Vec<Vec<u8>> = (0..256)
        .map(|i| format!("golden:late:{i}").into_bytes())
        .collect();
    let mut built = build_fixture_filter("scalable-habf");
    let growable = built.as_growable().expect("scalable grows");
    for k in &late {
        growable.insert(k);
    }
    assert_eq!(
        loaded.filter.to_container_bytes(),
        built.to_container_bytes(),
        "{name}: re-encode"
    );
    let (pos, _) = workload();
    for k in pos.iter().chain(&late) {
        assert!(loaded.filter.contains(k), "{name}: member dropped");
    }
}
