//! Frozen readers for the image formats the workspace no longer writes:
//! the `HABC` **v1** container and the pre-container `HABF` / `HABS`
//! images. [`crate::registry::load`] hands those images here; everything
//! the workspace writes is the v2 container of [`crate::persist`].
//!
//! This module is frozen. The checked-in fixtures under `tests/golden/`
//! pin every byte it reads: each one must load and re-encode to exactly
//! the v2 fixture of the same filter. It never learns a new filter id —
//! an id registered after v1 was retired has no v1 image to read.
//!
//! The v1 container is the v2 header without the alignment pad, framing
//! one opaque payload:
//!
//! ```text
//! magic "HABC" | version u8 (1) | id_len u8 | filter-id bytes (ASCII)
//! payload_len u64 | payload bytes…
//! ```
//!
//! The legacy `HABF` image (one HABF-family filter) doubles as the v1
//! payload of `habf`, `fhabf` and `blocked-habf`:
//!
//! ```text
//! magic "HABF" | version u8 (1) | kind u8 (0 HABF, 1 f-HABF, 2 blocked)
//! k u8 | cell_bits u8 | h0_len u8 | h0 bytes… | family u64 | sim_seed u64
//! m u64 | bloom words… | omega u64 | inserted u64 | cell words…
//! ```
//!
//! These are the v2 metadata fields in the same order, with the word
//! arrays inline, so [`decode_habf`] reuses the v2 field checks of
//! [`persist::decode_habf_fields`]. The legacy `HABS` image (one sharded
//! filter) doubles as the v1 payload of `sharded-habf` / `sharded-fhabf`:
//!
//! ```text
//! magic "HABS" | version u8 (1) | kind u8 (0 HABF, 1 f-HABF)
//! shards u32 | splitter_seed u64 | built_keys u64 | inserted u64
//! per shard: blob_len u64 | one HABF image
//! ```

use crate::blocked::BlockedHabf;
use crate::filter_api::DynFilter;
use crate::habf::{FHabf, Habf, HabfOver};
use crate::hashing::ShardHashing;
use crate::persist::{self, Decoded, PersistError, Reader};
use crate::registry::{self, ImageFormat, LoadedFilter};
use crate::scalable::{self, ScalableHabf};
use crate::sharded::ShardedHabf;
use habf_filters::{
    BinaryFuseFilter, BlockedBloomFilter, BloomFilter, WeightedBloomFilter, XorFilter,
};
use habf_hashing::double::SimulatedFamily;
use habf_hashing::HashFamily;
use habf_util::{BitVec, PackedCells, Words};

/// The retired container version: opaque, unaligned payload.
pub(crate) const CONTAINER_VERSION_V1: u8 = 1;

/// Magic of the legacy single-filter image.
const HABF_MAGIC: &[u8; 4] = b"HABF";

/// Magic of the legacy sharded image.
const HABS_MAGIC: &[u8; 4] = b"HABS";

/// The one version the legacy images and the v1 payloads ever had.
const V1: u8 = 1;

/// Whether `magic` opens a legacy `HABF` / `HABS` image.
pub(crate) fn is_legacy_magic(magic: &[u8]) -> bool {
    magic == HABF_MAGIC || magic == HABS_MAGIC
}

/// Loads a legacy `HABF` / `HABS` image. Its kind byte names the filter
/// id, and the whole image is that id's v1 payload.
pub(crate) fn load_legacy(buf: &[u8]) -> Result<LoadedFilter, PersistError> {
    let (magic, version, kind) = match buf.get(..6) {
        Some(&[a, b, c, d, v, k]) => ([a, b, c, d], v, k),
        _ => return Err(PersistError::Truncated),
    };
    let sharded = &magic == HABS_MAGIC;
    let id = match (sharded, kind) {
        (false, 0) => "habf",
        (false, 1) => "fhabf",
        (false, 2) => "blocked-habf",
        (true, 0) => "sharded-habf",
        (true, 1) => "sharded-fhabf",
        _ => return Err(PersistError::Corrupt("unknown legacy kind byte")),
    };
    Ok(LoadedFilter {
        filter: load_v1(id, buf)?,
        format: if sharded {
            ImageFormat::LegacySharded
        } else {
            ImageFormat::LegacySingle
        },
        version,
    })
}

/// Decodes the payload of a v1 container naming `id`.
///
/// # Errors
/// A typed [`PersistError`] on malformed input; `BadVersion(1)` for a
/// registered id that never had a v1 codec.
pub(crate) fn load_v1(id: &str, payload: &[u8]) -> Result<Box<dyn DynFilter>, PersistError> {
    Ok(match id {
        "habf" => Box::new(Habf::from_decoded(decode_habf(payload, 0)?)?),
        "fhabf" => Box::new(FHabf::from_decoded(decode_habf(payload, 1)?)?),
        "blocked-habf" => Box::new(BlockedHabf::from_decoded(decode_habf(payload, 2)?)?),
        "sharded-habf" => Box::new(load_sharded::<HashFamily>(payload)?),
        "sharded-fhabf" => Box::new(load_sharded::<SimulatedFamily>(payload)?),
        "scalable-habf" => Box::new(load_scalable(payload)?),
        "bloom" => Box::new(load_bloom(payload)?),
        "weighted-bloom" => Box::new(load_weighted_bloom(payload)?),
        "xor" => Box::new(load_xor(payload)?),
        "blocked-bloom" => Box::new(load_blocked_bloom(payload)?),
        "binary-fuse" => Box::new(load_binary_fuse(payload)?),
        _ => return Err(PersistError::BadVersion(CONTAINER_VERSION_V1)),
    })
}

/// Decodes one legacy `HABF` image of kind `expect_kind`.
fn decode_habf(buf: &[u8], expect_kind: u8) -> Result<Decoded, PersistError> {
    let mut r = Reader::new(buf);
    if r.bytes(4)? != HABF_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u8()?;
    if version != V1 {
        return Err(PersistError::BadVersion(version));
    }
    let d = persist::decode_habf_fields(&mut r, expect_kind, |r, n| r.words(n).map(Words::from))?;
    r.finish()?;
    Ok(d)
}

/// Decodes a legacy `HABS` image whose shards run over the hashing `H`.
fn load_sharded<H: ShardHashing>(buf: &[u8]) -> Result<ShardedHabf<HabfOver<H>>, PersistError> {
    let mut r = Reader::new(buf);
    if r.bytes(4)? != HABS_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u8()?;
    if version != V1 {
        return Err(PersistError::BadVersion(version));
    }
    if r.u8()? != H::KIND {
        return Err(PersistError::WrongKind);
    }
    let shards = usize::try_from(r.u32()?).map_err(|_| PersistError::Truncated)?;
    if shards == 0 || shards > persist::MAX_SHARDS {
        return Err(PersistError::Corrupt("shard count out of range"));
    }
    let splitter_seed = r.u64()?;
    let built_keys = r.count()?;
    let inserted = r.count()?;
    let mut parts = Vec::with_capacity(shards);
    for _ in 0..shards {
        let len = r.count()?;
        let shard = decode_habf(r.bytes(len)?, H::KIND)?;
        parts.push(HabfOver::from_decoded(shard)?);
    }
    r.finish()?;
    Ok(ShardedHabf::from_shard_parts(
        parts,
        splitter_seed,
        built_keys,
        inserted,
    ))
}

/// Opens a v1 baseline or scalable payload, which starts with its own
/// version byte.
fn payload_reader(buf: &[u8]) -> Result<Reader<'_>, PersistError> {
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != V1 {
        return Err(PersistError::BadVersion(version));
    }
    Ok(r)
}

/// ```text
/// version u8 | the v2 growth-parameter block (tier count included)
/// per tier: capacity u64 | inserted u64 | blob_len u64 | one HABF image
/// ```
fn load_scalable(buf: &[u8]) -> Result<ScalableHabf, PersistError> {
    let mut r = payload_reader(buf)?;
    let (growth, tier_count) = scalable::decode_growth_params(&mut r)?;
    let mut tiers = Vec::with_capacity(tier_count.min(scalable::MAX_TIERS));
    for _ in 0..tier_count {
        let (capacity, inserted) = scalable::decode_tier_counters(&mut r)?;
        let len = r.count()?;
        let filter = Habf::from_decoded(decode_habf(r.bytes(len)?, 0)?)?;
        tiers.push((filter, capacity, inserted));
    }
    r.finish()?;
    Ok(ScalableHabf::from_parts(growth, tiers))
}

/// ```text
/// version u8 | strategy u8 (0 family, 1 city64, 2 xxh128, 3 double)
/// strategy fields (0: k u8 + ids | 1/2: k u16 | 3: k u16 + seed u64)
/// items u64 | m u64 | words…
/// ```
fn load_bloom(buf: &[u8]) -> Result<BloomFilter, PersistError> {
    let mut r = payload_reader(buf)?;
    let (strategy, items, m) = registry::decode_bloom_meta(&mut r)?;
    let bits = BitVec::from_words(r.words(m.div_ceil(64))?, m);
    r.finish()?;
    Ok(BloomFilter::from_parts(bits, strategy, items))
}

/// ```text
/// version u8 | k_default u16 | items u64
/// cache_len u64 | per entry: tag u64 + k u16
/// m u64 | words…
/// ```
fn load_weighted_bloom(buf: &[u8]) -> Result<WeightedBloomFilter, PersistError> {
    let mut r = payload_reader(buf)?;
    let (k_default, items, cache, m) = registry::decode_wbf_meta(&mut r)?;
    let bits = BitVec::from_words(r.words(m.div_ceil(64))?, m);
    r.finish()?;
    Ok(WeightedBloomFilter::from_parts(
        bits, cache, k_default, items,
    ))
}

/// ```text
/// version u8 | fp_bits u8 | seg_len u64 | seed u64 | items u64
/// fingerprint words…
/// ```
fn load_xor(buf: &[u8]) -> Result<XorFilter, PersistError> {
    let mut r = payload_reader(buf)?;
    let (fp_bits, seg_len, slots, seed, items, word_count) = registry::decode_xor_meta(&mut r)?;
    let cells = PackedCells::from_words(r.words(word_count)?, slots, fp_bits);
    r.finish()?;
    Ok(XorFilter::from_parts(cells, seg_len, seed, fp_bits, items))
}

/// ```text
/// version u8 | k u16 | base u8 (hash registry index) | seed u64
/// items u64 | m u64 | words…
/// ```
fn load_blocked_bloom(buf: &[u8]) -> Result<BlockedBloomFilter, PersistError> {
    let mut r = payload_reader(buf)?;
    let (k, base, seed, items, m) = registry::decode_blocked_bloom_meta(&mut r)?;
    let bits = BitVec::from_words(r.words(m.div_ceil(64))?, m);
    r.finish()?;
    Ok(BlockedBloomFilter::from_parts(bits, k, base, seed, items))
}

/// ```text
/// version u8 | fp_bits u8 | seg_len u64 | seg_count u64 | seed u64
/// items u64 | fingerprint words…
/// ```
fn load_binary_fuse(buf: &[u8]) -> Result<BinaryFuseFilter, PersistError> {
    let mut r = payload_reader(buf)?;
    let (fp_bits, seg_len, seg_count, seed, items, slots, word_count) =
        registry::decode_binary_fuse_meta(&mut r)?;
    let cells = PackedCells::from_words(r.words(word_count)?, slots, fp_bits);
    r.finish()?;
    Ok(BinaryFuseFilter::from_parts(
        cells, seg_len, seg_count, seed, fp_bits, items,
    ))
}
