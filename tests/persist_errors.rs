//! Persistence error paths: untrusted bytes must produce *typed* errors,
//! never panics — truncation, bad magic, wrong container version,
//! unknown filter ids, frame misalignment, and arbitrary byte mutations,
//! across every registered filter id in the aligned v2 container, and
//! across every frozen old-format fixture (the opaque v1 containers and
//! both legacy formats), through the copying loader *and* the zero-copy
//! shared-image loader.

use habf::core::registry;
use habf::core::{BuildInput, FilterSpec, PersistError};
use proptest::prelude::*;

/// One small v2 container per registered id plus every frozen v1 and
/// legacy fixture, used as the mutation corpus. Built once — the
/// proptests below run hundreds of cases, and every filter construction
/// is a full build.
fn corpus() -> &'static [(String, Vec<u8>)] {
    static CORPUS: std::sync::OnceLock<Vec<(String, Vec<u8>)>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Vec<(String, Vec<u8>)> {
    let members: Vec<Vec<u8>> = (0..64).map(|i| format!("m:{i}").into_bytes()).collect();
    let negatives: Vec<(Vec<u8>, f64)> = (0..64)
        .map(|i| (format!("n:{i}").into_bytes(), 1.0 + (i % 5) as f64))
        .collect();
    let input = BuildInput::from_members(&members).with_costed_negatives(&negatives);
    let mut images: Vec<(String, Vec<u8>)> = registry::ids()
        .into_iter()
        .map(|id| {
            let filter = FilterSpec::by_id(id)
                .expect("registered")
                .bits_per_key(12.0)
                .shards(2)
                .build(&input)
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            (format!("container-v2:{id}"), filter.to_container_bytes())
        })
        .collect();
    // A grown multi-tier stack: one container holding a frame set per
    // tier. Inside the corpus it rides every generic test — truncation
    // at every prefix lands *between* tier frame sets too, and random
    // mutations hit the per-tier counters.
    let mut scalable = FilterSpec::scalable_habf()
        .bits_per_key(12.0)
        .build(&input)
        .expect("scalable builds");
    {
        let growable = scalable.as_growable().expect("scalable grows");
        for i in 0..256 {
            growable.insert(format!("late:{i}").as_bytes());
        }
    }
    assert!(scalable.generations() > 1, "corpus stack must be grown");
    images.push((
        "container-v2:scalable-habf-grown".into(),
        scalable.to_container_bytes(),
    ));
    // The retired formats go through the same loader and must be as
    // hardened: every frozen v1 container (the grown multi-tier stack
    // included) and legacy image under tests/golden/.
    images.extend(frozen_fixtures());
    images
}

/// Every frozen old-format fixture: the files named `*_v1.bin`.
fn frozen_fixtures() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with("_v1.bin"))
        .collect();
    names.sort();
    // 11 v1 containers, 3 legacy images, 1 grown stack.
    assert_eq!(names.len(), 15, "frozen fixtures: {names:?}");
    names
        .into_iter()
        .map(|n| {
            let bytes = std::fs::read(dir.join(&n)).expect("read fixture");
            (n, bytes)
        })
        .collect()
}

#[test]
fn truncations_at_every_prefix_error_not_panic() {
    for (name, image) in corpus() {
        for cut in 0..image.len() {
            let result = registry::load(&image[..cut]);
            assert!(result.is_err(), "{name}: cut at {cut} loaded");
            // The zero-copy shared-image loader must be exactly as
            // hardened: truncated frames are typed errors, never a
            // mis-sliced view.
            let result = registry::load_bytes(image[..cut].to_vec());
            assert!(result.is_err(), "{name}: cut at {cut} loaded shared");
        }
        assert!(registry::load(image).is_ok(), "{name}: pristine image");
        assert!(
            registry::load_bytes(image.clone()).is_ok(),
            "{name}: pristine shared image"
        );
    }
}

/// Zero-length and sub-header (1..8-byte) filter files are the on-disk
/// face of truncation: a crashed writer or an empty `touch`ed path. The
/// mmap loader must hand back `PersistError::Truncated` for every such
/// image of every registered id — never a panic, never a mis-sliced
/// view over a too-short mapping.
#[test]
fn sub_header_files_are_typed_truncations_through_mmap() {
    use habf::core::registry::OpenError;

    let dir = std::env::temp_dir().join(format!("habf-persist-tiny-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, image) in corpus() {
        let path = dir.join(name.replace(':', "_"));
        for cut in 0..=8.min(image.len() - 1) {
            std::fs::write(&path, &image[..cut]).expect("write prefix");
            let err = registry::load_mmap(&path)
                .err()
                .unwrap_or_else(|| panic!("{name}: {cut}-byte file loaded"));
            assert!(
                matches!(err, OpenError::Persist(PersistError::Truncated)),
                "{name}: {cut}-byte file gave {err:?}, want Truncated"
            );
            // The in-memory loaders agree byte for byte with the file path.
            assert_eq!(
                registry::load(&image[..cut]).err(),
                Some(PersistError::Truncated),
                "{name}: cut {cut}"
            );
            assert_eq!(
                registry::load_bytes(image[..cut].to_vec()).err(),
                Some(PersistError::Truncated),
                "{name}: cut {cut} shared"
            );
        }
        // The same path with the full image mmaps clean — the errors
        // above were about the bytes, not the file plumbing.
        std::fs::write(&path, image).expect("write image");
        assert!(registry::load_mmap(&path).is_ok(), "{name}: pristine mmap");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_wrong_version_and_unknown_id_are_typed() {
    for (name, image) in corpus() {
        // Magic damage.
        let mut bad = image.clone();
        bad[0] = b'Z';
        assert_eq!(
            registry::load(&bad).err(),
            Some(PersistError::BadMagic),
            "{name}"
        );
        // Version damage (byte 4 in every format).
        let mut bad = image.clone();
        bad[4] = 250;
        assert_eq!(
            registry::load(&bad).err(),
            Some(PersistError::BadVersion(250)),
            "{name}"
        );
        // Trailing garbage.
        let mut bad = image.clone();
        bad.push(0);
        assert!(registry::load(&bad).is_err(), "{name}: trailing byte");
    }

    // A well-formed container, in either envelope version, naming an id
    // the registry does not serve: the 3-byte id `xor` becomes `zzz`.
    let mut renamed = 0;
    for (name, image) in corpus().iter().filter(|(n, _)| n.contains("xor")) {
        let mut unknown = image.clone();
        unknown[6..9].copy_from_slice(b"zzz");
        assert_eq!(
            registry::load(&unknown).err(),
            Some(PersistError::UnknownFilterId("zzz".into())),
            "{name}"
        );
        renamed += 1;
    }
    assert_eq!(renamed, 2, "both envelope versions must be exercised");
}

/// Tier-count corruption in a grown multi-tier image: the count is
/// validated against the tier cap before any tier decodes, so a lying
/// count is a typed error through both loaders — never a panic, and
/// never a count-sized allocation.
#[test]
fn corrupt_tier_counts_in_grown_images_are_typed() {
    let mut checked = 0;
    for (name, image) in corpus() {
        if !name.contains("scalable-habf-grown") {
            continue;
        }
        let tiers = registry::load(image)
            .expect("pristine image")
            .filter
            .generations() as u32;
        assert!(tiers > 1, "{name}: corpus stack must be grown");
        // The growth-parameter block ends with `max_tiers u32 ||
        // tier_count u32`; find that pair near the head of the image
        // and lie about the count.
        let needle: Vec<u8> = 16u32
            .to_le_bytes()
            .iter()
            .chain(tiers.to_le_bytes().iter())
            .copied()
            .collect();
        let at = image
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap_or_else(|| panic!("{name}: growth params not found"));
        for lie in [0u32, u32::MAX, 65u32] {
            let mut bad = image.clone();
            bad[at + 4..at + 8].copy_from_slice(&lie.to_le_bytes());
            assert!(
                matches!(registry::load(&bad).err(), Some(PersistError::Corrupt(_))),
                "{name}: tier count {lie} loaded"
            );
            assert!(
                registry::load_bytes(bad).is_err(),
                "{name}: tier count {lie} loaded shared"
            );
        }
        // Claiming one tier fewer than the frames hold is trailing
        // garbage, not a shorter filter.
        let mut bad = image.clone();
        bad[at + 4..at + 8].copy_from_slice(&(tiers - 1).to_le_bytes());
        assert!(
            registry::load(&bad).is_err(),
            "{name}: undercounted tiers loaded"
        );
        checked += 1;
    }
    assert_eq!(checked, 2, "both container versions must be exercised");
}

/// Lying counts in the old formats — a shard count, a per-shard blob
/// length, a Bloom length, a cost-cache length — are typed errors before
/// any count-sized allocation.
#[test]
fn oversized_counts_in_old_formats_are_typed() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let fixture = |name: &str| std::fs::read(dir.join(name)).expect("fixture");
    let patch = |mut image: Vec<u8>, at: usize, bytes: &[u8]| {
        image[at..at + bytes.len()].copy_from_slice(bytes);
        image
    };
    // Legacy HABS: magic(4) version(1) kind(1) | shards u32 | splitter
    // seed, built keys, inserted (3 × u64) | first blob_len u64. The v1
    // container of the same id frames that image after its 14 + id-length
    // header bytes.
    let habs = fixture("sharded_habf_v1.bin");
    let v1 = fixture("container_sharded-habf_v1.bin");
    for (image, base) in [(habs, 0), (v1, 14 + "sharded-habf".len())] {
        for lie in [0u32, u32::MAX] {
            assert_eq!(
                registry::load(&patch(image.clone(), base + 6, &lie.to_le_bytes())).err(),
                Some(PersistError::Corrupt("shard count out of range")),
                "shard count {lie} at {base}"
            );
        }
        assert_eq!(
            registry::load(&patch(image, base + 34, &u64::MAX.to_le_bytes())).err(),
            Some(PersistError::Truncated),
            "blob length at {base}"
        );
    }
    // Legacy HABF: magic(4) version(1) kind(1) k(1) cell_bits(1)
    // h0_len(1) | h0 (k bytes) | family u64 | sim_seed u64 | m u64.
    let habf = fixture("habf_v1.bin");
    let k = usize::from(habf[6]);
    assert_eq!(
        registry::load(&patch(habf, 9 + k + 16, &u64::MAX.to_le_bytes())).err(),
        Some(PersistError::Truncated)
    );
    // v1 weighted-bloom payload: version(1) k_default(2) items(8) |
    // cache_len u64.
    let wbf = fixture("container_weighted-bloom_v1.bin");
    let at = 14 + "weighted-bloom".len() + 11;
    assert_eq!(
        registry::load(&patch(wbf, at, &u64::MAX.to_le_bytes())).err(),
        Some(PersistError::Truncated)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary single-byte mutations: load must return `Ok` or a typed
    /// error, and anything that loads must answer queries without
    /// panicking (a flipped payload byte may legally produce a different
    /// but well-formed filter).
    #[test]
    fn single_byte_mutations_never_panic(
        // Wide index range + modulo: a corpus that grows with future
        // registry entries stays fully covered without edits here.
        image_idx in 0usize..4096,
        offset_frac in 0.0f64..1.0,
        xor_with in 1u8..=255,
    ) {
        let corpus = corpus();
        let (name, image) = &corpus[image_idx % corpus.len()];
        let mut mutated = image.clone();
        let offset = ((mutated.len() - 1) as f64 * offset_frac) as usize;
        mutated[offset] ^= xor_with;
        if let Ok(loaded) = registry::load(&mutated) {
            // Loadable mutants must still be servable and re-encodable.
            let _ = loaded.filter.contains(b"probe:key");
            let _ = loaded.filter.space_bits();
            let _ = loaded.filter.to_container_bytes();
            let _ = name;
        }
        // The zero-copy loader sees the same mutant: a corrupt frame
        // table must come back as a typed error (e.g. Misaligned), and a
        // loadable mutant must serve through its views without panicking.
        if let Ok(loaded) = registry::load_bytes(mutated) {
            let _ = loaded.filter.contains(b"probe:key");
            let _ = loaded.filter.to_container_bytes();
        }
    }

    /// Arbitrary byte soup — including inputs forced to start with each
    /// valid magic — errors, never panics.
    #[test]
    fn random_bytes_error_not_panic(mut bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = registry::load(&bytes);
        // Force each known magic over the same soup so the per-format
        // decoders see adversarial headers, not just BadMagic exits.
        for magic in [b"HABF", b"HABS", b"HABC"] {
            if bytes.len() >= 4 {
                bytes[..4].copy_from_slice(magic);
            }
            let _ = registry::load(&bytes);
        }
    }
}
