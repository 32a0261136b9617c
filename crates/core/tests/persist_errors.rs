//! Adversarial persistence inputs: every malformed image — truncated,
//! bit-flipped, or carrying hostile length fields — must come back as a
//! typed [`PersistError`], never a panic and never an unbounded
//! allocation. These pin the panic-free decode paths that the
//! `decode-no-panic` / `alloc-cap-before-len` analysis rules guard.

use habf_core::registry;
use habf_core::{BuildInput, FilterSpec, FrameWriter};

fn valid_image() -> Vec<u8> {
    let keys: Vec<Vec<u8>> = (0..256).map(|i| format!("user:{i}").into_bytes()).collect();
    let input = BuildInput::from_members(&keys);
    let filter = FilterSpec::habf()
        .bits_per_key(10.0)
        .build(&input)
        .expect("build");
    filter.to_container_bytes()
}

/// `HABC` v2 header naming `id`, declaring `payload_len`, followed by
/// `payload` verbatim (which may disagree with the declared length —
/// that is the point).
fn container_with(id: &str, payload_len: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"HABC");
    out.push(2); // container version
    out.push(u8::try_from(id.len()).expect("short id"));
    out.extend_from_slice(id.as_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
    let header_len = 14 + id.len();
    out.resize(header_len.next_multiple_of(8), 0);
    out.extend_from_slice(payload);
    out
}

#[test]
fn every_truncation_of_a_valid_image_errors_cleanly() {
    let image = valid_image();
    for cut in 0..image.len() {
        assert!(
            registry::load(&image[..cut]).is_err(),
            "truncation at {cut} must be a typed error"
        );
    }
    registry::load(&image).expect("the untruncated image still loads");
}

#[test]
fn every_single_byte_corruption_errors_or_loads_but_never_panics() {
    let image = valid_image();
    for offset in 0..image.len() {
        let mut corrupt = image.clone();
        corrupt[offset] ^= 0xFF;
        // A flipped payload bit can still decode (filters tolerate any
        // bit pattern in their arrays); flipped structure must be a
        // typed error. Either way: no panic, which is what this sweep
        // proves by finishing.
        let _ = registry::load(&corrupt);
    }
}

#[test]
fn huge_declared_payload_length_is_truncated_not_allocated() {
    let image = container_with("habf", u64::MAX, b"short");
    assert!(registry::load(&image).is_err());
    // Also at the container layer directly.
    assert!(habf_core::persist::decode_container(&image).is_err());
}

#[test]
fn huge_meta_and_frame_counts_error_before_any_allocation() {
    // meta_len = u64::MAX inside an otherwise well-framed v2 payload.
    let mut payload = u64::MAX.to_le_bytes().to_vec();
    payload.extend_from_slice(&[0u8; 16]);
    let image = container_with("habf", payload.len() as u64, &payload);
    assert!(registry::load(&image).is_err());

    // nframes = u64::MAX after an empty, well-padded meta block.
    let mut payload = 0u64.to_le_bytes().to_vec(); // meta_len = 0
    payload.extend_from_slice(&u64::MAX.to_le_bytes()); // nframes
    let image = container_with("habf", payload.len() as u64, &payload);
    assert!(registry::load(&image).is_err());
}

#[test]
fn overflowing_frame_table_entries_error_instead_of_wrapping() {
    // One frame whose offset/words multiply-add past usize::MAX. The
    // checked frame arithmetic must reject it; pre-fix code wrapped.
    let mut payload = 0u64.to_le_bytes().to_vec(); // meta_len = 0
    payload.extend_from_slice(&1u64.to_le_bytes()); // nframes = 1
    let offset = (u64::MAX / 8) * 8; // 8-aligned, astronomically large
    payload.extend_from_slice(&offset.to_le_bytes());
    payload.extend_from_slice(&u64::MAX.to_le_bytes()); // words
    let image = container_with("habf", payload.len() as u64, &payload);
    assert!(registry::load(&image).is_err());
}

#[test]
fn unknown_container_id_is_a_typed_error() {
    let image = container_with("no-such-filter", 0, &[]);
    match registry::load(&image) {
        Err(habf_core::PersistError::UnknownFilterId(id)) => {
            assert_eq!(id, "no-such-filter");
        }
        Err(other) => panic!("want UnknownFilterId, got {other:?}"),
        Ok(_) => panic!("unknown id must not load"),
    }
}

#[test]
fn hostile_legacy_sharded_header_errors_on_shard_count() {
    // `HABS` header declaring u32::MAX shards with no shard data.
    let mut image = Vec::new();
    image.extend_from_slice(b"HABS");
    image.push(1); // version
    image.push(0); // kind = sharded-habf
    image.extend_from_slice(&u32::MAX.to_le_bytes());
    image.extend_from_slice(&[0u8; 24]); // seed + built + inserted
    assert!(registry::load(&image).is_err());
}

#[test]
fn undersized_buffers_are_truncated_not_indexed() {
    for len in 0..8 {
        let buf = vec![b'H'; len];
        assert!(registry::load(&buf).is_err(), "len {len}");
    }
    // A bare legacy magic with no version/kind bytes used to be an
    // index out of bounds; now it is PersistError::Truncated.
    match registry::load(b"HABF") {
        Err(e) => assert_eq!(e, habf_core::PersistError::Truncated),
        Ok(_) => panic!("4-byte magic must not load"),
    }
}

// ---------------------------------------------------------------------
// A family size the cell width can address but the hashing cannot hold
// (Table II has 22 functions, double hashing 255 ids) is a typed
// `Corrupt`, never a panic in the family constructor. Each image below
// is hand-written, so it does not depend on what a build can produce.
// ---------------------------------------------------------------------

const BAD_FAMILY: Option<habf_core::PersistError> =
    Some(habf_core::PersistError::Corrupt("family size out of range"));

/// All-zero words backing the crafted frames.
static ZEROS: [u64; 8] = [0; 8];

/// Appends one HABF meta block — `k = 3`, `H0 = {1, 2, 3}`, `m` Bloom
/// bits, 4 cells packed in the one word `cells` — naming `family`
/// functions, and its two frames.
fn habf_block(
    fw: &mut FrameWriter<'_>,
    kind: u8,
    cell_bits: u8,
    family: u64,
    m: u64,
    cells: &'static [u64; 1],
) {
    let meta = fw.meta();
    meta.extend_from_slice(&[kind, 3, cell_bits, 3, 1, 2, 3]);
    meta.extend_from_slice(&family.to_le_bytes());
    meta.extend_from_slice(&0u64.to_le_bytes()); // sim_seed (selector index 0)
    meta.extend_from_slice(&m.to_le_bytes());
    meta.extend_from_slice(&4u64.to_le_bytes()); // omega
    meta.extend_from_slice(&0u64.to_le_bytes()); // inserted
    fw.frame(&ZEROS[..m.div_ceil(64) as usize]);
    fw.frame(cells);
}

fn container(id: &str, fw: &FrameWriter<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    habf_core::persist::encode_container_v2(id, fw, &mut out);
    out
}

/// The crafted image fails with the typed error on the copying and the
/// zero-copy loaders alike.
fn assert_bad_family(image: Vec<u8>) {
    assert_eq!(registry::load(&image).err(), BAD_FAMILY);
    assert_eq!(registry::load_bytes(image).err(), BAD_FAMILY);
}

#[test]
fn habf_family_past_table_ii_is_corrupt() {
    let mut fw = FrameWriter::new();
    habf_block(&mut fw, 0, 6, 23, 64, &[0]);
    assert_bad_family(container("habf", &fw));
}

#[test]
fn fhabf_family_past_u8_ids_is_corrupt() {
    let mut fw = FrameWriter::new();
    habf_block(&mut fw, 1, 10, 256, 64, &[0]);
    assert_bad_family(container("fhabf", &fw));
}

#[test]
fn blocked_habf_family_past_table_ii_is_corrupt() {
    let mut fw = FrameWriter::new();
    habf_block(&mut fw, 2, 6, 23, 512, &[0]);
    assert_bad_family(container("blocked-habf", &fw));
}

#[test]
fn sharded_shard_family_past_table_ii_is_corrupt() {
    let mut fw = FrameWriter::new();
    let meta = fw.meta();
    meta.push(0); // kind
    meta.extend_from_slice(&1u32.to_le_bytes()); // shards
    meta.extend_from_slice(&[0u8; 24]); // splitter seed, built, inserted
    habf_block(&mut fw, 0, 6, 23, 64, &[0]);
    assert_bad_family(container("sharded-habf", &fw));
}

#[test]
fn scalable_tier_family_past_table_ii_is_corrupt() {
    let mut fw = FrameWriter::new();
    let meta = fw.meta();
    meta.extend_from_slice(&[3, 6]); // k, cell_bits
    meta.extend_from_slice(&0.25f64.to_bits().to_le_bytes()); // delta
    meta.extend_from_slice(&0u64.to_le_bytes()); // seed
    meta.extend_from_slice(&16u64.to_le_bytes()); // base capacity
    meta.extend_from_slice(&256u64.to_le_bytes()); // base budget
    meta.extend_from_slice(&16u32.to_le_bytes()); // tier cap
    meta.extend_from_slice(&1u32.to_le_bytes()); // tiers
    meta.extend_from_slice(&16u64.to_le_bytes()); // tier capacity
    meta.extend_from_slice(&0u64.to_le_bytes()); // tier inserted
    habf_block(&mut fw, 0, 6, 23, 64, &[0]);
    assert_bad_family(container("scalable-habf", &fw));
}

#[test]
fn legacy_habf_family_past_table_ii_is_corrupt() {
    let mut image = b"HABF\x01".to_vec(); // magic, version
    image.extend_from_slice(&[0, 3, 6, 3, 1, 2, 3]); // kind, k, cell_bits, H0
    image.extend_from_slice(&23u64.to_le_bytes()); // family
    image.extend_from_slice(&0u64.to_le_bytes()); // sim_seed
    image.extend_from_slice(&64u64.to_le_bytes()); // m
    image.extend_from_slice(&0u64.to_le_bytes()); // bloom word
    image.extend_from_slice(&4u64.to_le_bytes()); // omega
    image.extend_from_slice(&0u64.to_le_bytes()); // inserted
    image.extend_from_slice(&0u64.to_le_bytes()); // cell word
    assert_eq!(registry::load(&image).err(), BAD_FAMILY);
}

/// A family the hashing can hold passes decode even when the expressor
/// cells name ids past it; only a query's chain walk reads those ids,
/// and it must answer, not index out of the family.
#[test]
fn expressor_ids_past_the_family_answer_instead_of_panicking() {
    // Every 4-bit cell names id 5 of a 3-function family.
    for (id, kind, m) in [("habf", 0, 64), ("fhabf", 1, 64), ("blocked-habf", 2, 512)] {
        let mut fw = FrameWriter::new();
        habf_block(&mut fw, kind, 4, 3, m, &[0x5555]);
        let loaded = registry::load(&container(id, &fw)).expect("the image decodes");
        assert!(!loaded.filter.contains(b"any key"), "{id}");
    }
}
