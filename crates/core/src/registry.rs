//! The string-keyed filter registry: every servable filter registers one
//! [`FilterEntry`] (build function + payload codec under a stable ASCII
//! id), and every consumer — the LSM store, the CLI, the bench suite —
//! dispatches through it instead of matching on concrete types.
//!
//! Adding a filter variant is one [`crate::DynFilter`] impl plus one line
//! in [`entries`]; nothing downstream changes.
//!
//! Loading is format-sniffing: [`load`] reads the current `HABC` v2
//! container (any registered id) and hands the retired formats — v1
//! containers and the legacy `HABF` / `HABS` images — to the frozen
//! readers in `crate::compat`, so every image ever shipped remains
//! loadable through the same entry point.

use crate::blocked::BlockedHabf;
use crate::compat;
use crate::filter_api::{
    BatchQuery, BuildError, BuildInput, DynFilter, FilterParams, Growable, Rebuildable,
};
use crate::habf::{FHabf, Habf};
use crate::persist::{self, FrameSource, FrameWriter, PersistError, Reader, V2Shard};
use crate::scalable::{self, GrowthParams, ScalableHabf};
use crate::sharded::{ShardFilter, ShardedHabf};
use habf_filters::{
    BinaryFuseFilter, BlockedBloomFilter, BloomFilter, BloomHashStrategy, Filter,
    WeightedBloomFilter, XorFilter,
};
use habf_hashing::HashFunction;
use habf_util::{Backing, BitVec, ImageBytes, PackedCells};
use std::sync::Arc;

/// Signature of a registry build function: common parameter bag in,
/// boxed [`DynFilter`] out.
pub type BuildFn = fn(&FilterParams, &BuildInput<'_>) -> Result<Box<dyn DynFilter>, BuildError>;

/// Signature of a registry payload decoder: metadata bytes plus a
/// [`FrameSource`] yielding the word frames — owned copies on the plain
/// [`load`] path, zero-copy views on the [`load_shared`] / [`load_mmap`]
/// path.
pub type LoadV2Fn = fn(&[u8], &mut FrameSource<'_>) -> Result<Box<dyn DynFilter>, PersistError>;

/// One registered filter: its stable id, a one-line summary, the build
/// dispatch target, and the payload decoder.
pub struct FilterEntry {
    /// Stable ASCII id — the container's self-description and the CLI's
    /// `--filter` argument.
    pub id: &'static str,
    /// One-line summary for listings (`habf filters`).
    pub summary: &'static str,
    /// Builds the filter from the common parameter bag. Assumes the
    /// input passed [`BuildInput::validate_costs`] —
    /// [`crate::FilterSpec::build`] is the checked entry point.
    pub build: BuildFn,
    /// Decodes a v2 container payload written by
    /// [`crate::DynFilter::write_payload_v2`] under this id.
    pub load_v2: LoadV2Fn,
}

/// Every registered filter, in registration order. **This table is the
/// single place a new filter variant is wired in.**
#[must_use]
pub fn entries() -> &'static [FilterEntry] {
    &[
        FilterEntry {
            id: "habf",
            summary: "Hash Adaptive Bloom Filter (full TPJO, two-round query)",
            build: build_habf,
            load_v2: load_habf_v2,
        },
        FilterEntry {
            id: "fhabf",
            summary: "fast HABF (double hashing, gamma off)",
            build: build_fhabf,
            load_v2: load_fhabf_v2,
        },
        FilterEntry {
            id: "sharded-habf",
            summary: "HABF sharded by a splitter hash, built in parallel",
            build: build_sharded_habf,
            load_v2: load_sharded_habf_v2,
        },
        FilterEntry {
            id: "sharded-fhabf",
            summary: "f-HABF sharded by a splitter hash, built in parallel",
            build: build_sharded_fhabf,
            load_v2: load_sharded_fhabf_v2,
        },
        FilterEntry {
            id: "bloom",
            summary: "standard Bloom filter (seeded xxHash-128, k = ln2*b)",
            build: build_bloom,
            load_v2: load_bloom_v2,
        },
        FilterEntry {
            id: "weighted-bloom",
            summary: "Weighted Bloom filter with query-time cost cache",
            build: build_weighted_bloom,
            load_v2: load_weighted_bloom_v2,
        },
        FilterEntry {
            id: "xor",
            summary: "Xor filter (3-wise, peeled fingerprints)",
            build: build_xor,
            load_v2: load_xor_v2,
        },
        FilterEntry {
            id: "blocked-bloom",
            summary: "cache-line-blocked Bloom filter (calibrated base hash)",
            build: build_blocked_bloom,
            load_v2: load_blocked_bloom_v2,
        },
        FilterEntry {
            id: "blocked-habf",
            summary: "HABF over a cache-line-blocked bit layer",
            build: build_blocked_habf,
            load_v2: load_blocked_habf_v2,
        },
        FilterEntry {
            id: "binary-fuse",
            summary: "3-wise binary fuse filter (static, denser than xor)",
            build: build_binary_fuse,
            load_v2: load_binary_fuse_v2,
        },
        FilterEntry {
            id: "scalable-habf",
            summary: "tiered HABF stack that grows past its design capacity",
            build: build_scalable_habf,
            load_v2: load_scalable_habf_v2,
        },
    ]
}

/// Looks up a registered filter by id.
#[must_use]
pub fn entry(id: &str) -> Option<&'static FilterEntry> {
    entries().iter().find(|e| e.id == id)
}

/// The registered ids, in registration order.
#[must_use]
pub fn ids() -> Vec<&'static str> {
    entries().iter().map(|e| e.id).collect()
}

/// Which on-disk format a loaded image used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImageFormat {
    /// The current self-describing `HABC` container.
    Container,
    /// A pre-container unsharded `HABF` image.
    LegacySingle,
    /// A pre-container sharded `HABS` image.
    LegacySharded,
}

impl ImageFormat {
    /// Short display name for diagnostics (`habf inspect`).
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            ImageFormat::Container => "HABC container",
            ImageFormat::LegacySingle => "legacy HABF image",
            ImageFormat::LegacySharded => "legacy HABS image",
        }
    }
}

/// A filter loaded by [`load`], with the envelope facts the image itself
/// declared (format and version) for inspection.
pub struct LoadedFilter {
    /// The loaded filter, servable and re-persistable.
    pub filter: Box<dyn DynFilter>,
    /// The on-disk format the image used.
    pub format: ImageFormat,
    /// The format version the image declared (container version for
    /// [`ImageFormat::Container`], image version for the legacy formats).
    pub version: u8,
}

/// Why [`load_mmap`] failed: the file could not be opened/mapped, or its
/// contents failed image validation.
#[derive(Debug)]
pub enum OpenError {
    /// Opening or mapping the file failed.
    Io(std::io::Error),
    /// The mapped bytes are not a loadable filter image.
    Persist(PersistError),
}

impl core::fmt::Display for OpenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "cannot open filter image: {e}"),
            OpenError::Persist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OpenError {}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> Self {
        OpenError::Io(e)
    }
}

impl From<PersistError> for OpenError {
    fn from(e: PersistError) -> Self {
        OpenError::Persist(e)
    }
}

/// Loads any persisted filter image — the `HABC` v2 container for every
/// registered id, or a retired v1 container / legacy `HABF` / `HABS`
/// image through the frozen `compat` readers. This path always produces
/// owned (copied) word storage; use [`load_shared`] / [`load_mmap`] to
/// serve a v2 image in place.
///
/// # Errors
/// Returns a typed [`PersistError`] on any malformed input — bad magic,
/// unknown version, a container naming an unregistered id, truncation,
/// misalignment, or payload corruption; never panics on untrusted bytes.
pub fn load(buf: &[u8]) -> Result<LoadedFilter, PersistError> {
    let magic = buf.get(..4).ok_or(PersistError::Truncated)?;
    match magic {
        m if m == persist::CONTAINER_MAGIC => {
            let decoded = persist::decode_container(buf)?;
            let e = entry(&decoded.header.id)
                .ok_or_else(|| PersistError::UnknownFilterId(decoded.header.id.clone()))?;
            let filter = if decoded.header.version == persist::CONTAINER_VERSION {
                let (meta, frames) = persist::parse_v2_payload(decoded.payload)?;
                let mut source = FrameSource::borrowed(decoded.payload, frames);
                let filter = (e.load_v2)(meta, &mut source)?;
                source.finish()?;
                filter
            } else {
                compat::load_v1(e.id, decoded.payload)?
            };
            Ok(LoadedFilter {
                filter,
                format: ImageFormat::Container,
                version: decoded.header.version,
            })
        }
        m if compat::is_legacy_magic(m) => compat::load_legacy(buf),
        _ => Err(PersistError::BadMagic),
    }
}

/// Loads a filter from a shared image, serving v2 word frames **in
/// place**: the returned filter's bit arrays and cell tables are views
/// into `image` (held alive by `Arc` clones), with zero payload-word
/// copies. v1 containers and the legacy formats fall back to the copying
/// `compat` readers — byte-compatible, just not zero-copy.
///
/// Mutating the returned filter (rebuild, insert) promotes the touched
/// storage to owned words; the image itself is never written.
///
/// # Errors
/// Same validation as [`load`].
pub fn load_shared(image: &Arc<ImageBytes>) -> Result<LoadedFilter, PersistError> {
    let buf = image.as_bytes();
    if buf.len() < 5 || buf.get(..4).is_none_or(|m| m != persist::CONTAINER_MAGIC) {
        return load(buf);
    }
    let decoded = persist::decode_container(buf)?;
    if decoded.header.version != persist::CONTAINER_VERSION {
        return load(buf);
    }
    let e = entry(&decoded.header.id)
        .ok_or_else(|| PersistError::UnknownFilterId(decoded.header.id.clone()))?;
    let (meta, frames) = persist::parse_v2_payload(decoded.payload)?;
    let mut source = FrameSource::shared(Arc::clone(image), decoded.payload_offset, frames);
    let filter = (e.load_v2)(meta, &mut source)?;
    source.finish()?;
    Ok(LoadedFilter {
        filter,
        format: ImageFormat::Container,
        version: decoded.header.version,
    })
}

/// [`load_shared`] over an owned byte buffer: the bytes are moved into an
/// 8-aligned shared image with one `memcpy` (a `Vec<u8>` has no alignment
/// guarantee), then served in place — no per-word decode, no
/// per-structure allocation.
///
/// # Errors
/// Same validation as [`load`].
pub fn load_bytes(bytes: Vec<u8>) -> Result<LoadedFilter, PersistError> {
    load_shared(&Arc::new(ImageBytes::from_vec(bytes)))
}

/// Opens a filter image from disk and serves it memory-mapped: the word
/// payload of a v2 container is never copied onto the heap — open time is
/// O(header + shard count), not O(image bytes), and the page cache is
/// shared across processes serving the same file. The mapping lives for
/// as long as the filter (or any clone of it) does.
///
/// On platforms without the mmap shim (non-Linux, non-x86_64/aarch64) the
/// file is read into an aligned buffer instead — same API, same answers.
///
/// # Errors
/// [`OpenError::Io`] when the file cannot be opened or mapped,
/// [`OpenError::Persist`] when its contents fail image validation.
pub fn load_mmap(path: impl AsRef<std::path::Path>) -> Result<LoadedFilter, OpenError> {
    let image = Arc::new(ImageBytes::open(path)?);
    Ok(load_shared(&image)?)
}

// ---------------------------------------------------------------------
// HABF family: DynFilter impls + build/load dispatch targets. The v2
// codecs split each filter into metadata + aligned word frames.
// ---------------------------------------------------------------------

impl DynFilter for Habf {
    fn filter_id(&self) -> &'static str {
        "habf"
    }

    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        let img = self.v2_image();
        persist::encode_v2_meta(&img, out.meta());
        persist::push_v2_frames(&img, out);
    }

    fn backing(&self) -> Backing {
        Habf::backing(self)
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("hashes per key (k)", self.h0().len().to_string()),
            ("expressor entries", self.expressor_entries().to_string()),
            ("bloom fill ratio", format!("{:.4}", self.fill_ratio())),
            ("fpr envelope", format!("{:.6}", self.fpr_envelope())),
            ("saturation", format!("{:.4}", self.saturation())),
        ]
    }

    fn as_rebuildable(&mut self) -> Option<&mut dyn Rebuildable> {
        Some(self)
    }

    fn rebuilt(
        &self,
        members: &[Vec<u8>],
        hints: &[(Vec<u8>, f64)],
        seed: u64,
    ) -> Option<Result<Box<dyn DynFilter>, BuildError>> {
        Some(rebuilt_over(hints, |negatives| {
            self.rebuilt_from(members, negatives, seed)
        }))
    }
}

impl Rebuildable for Habf {
    fn rebuild(&mut self, input: &BuildInput<'_>, seed: u64) -> Result<(), BuildError> {
        input.validate_costs()?;
        Habf::rebuild(self, &input.members, &input.merged_negatives(), seed);
        Ok(())
    }
}

/// The body of every [`DynFilter::rebuilt`]: checks and merges the hints
/// as [`Rebuildable::rebuild`] does for an input built with
/// [`BuildInput::with_hints`], then hands them to the type's own
/// fresh-filter rebuild.
fn rebuilt_over<F: DynFilter + 'static>(
    hints: &[(Vec<u8>, f64)],
    rebuild: impl FnOnce(&[(&[u8], f64)]) -> F,
) -> Result<Box<dyn DynFilter>, BuildError> {
    let input = BuildInput::default().with_hints(hints);
    input.validate_costs()?;
    Ok(Box::new(rebuild(&input.merged_negatives())))
}

impl DynFilter for FHabf {
    fn filter_id(&self) -> &'static str {
        "fhabf"
    }

    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        let img = self.v2_image();
        persist::encode_v2_meta(&img, out.meta());
        persist::push_v2_frames(&img, out);
    }

    fn backing(&self) -> Backing {
        FHabf::backing(self)
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("hashes per key (k)", self.h0().len().to_string()),
            ("saturation", format!("{:.4}", self.saturation())),
        ]
    }

    fn as_rebuildable(&mut self) -> Option<&mut dyn Rebuildable> {
        Some(self)
    }

    fn rebuilt(
        &self,
        members: &[Vec<u8>],
        hints: &[(Vec<u8>, f64)],
        seed: u64,
    ) -> Option<Result<Box<dyn DynFilter>, BuildError>> {
        Some(rebuilt_over(hints, |negatives| {
            self.rebuilt_from(members, negatives, seed)
        }))
    }
}

impl Rebuildable for FHabf {
    fn rebuild(&mut self, input: &BuildInput<'_>, seed: u64) -> Result<(), BuildError> {
        input.validate_costs()?;
        FHabf::rebuild(self, &input.members, &input.merged_negatives(), seed);
        Ok(())
    }
}

impl<F: ShardFilter + Clone + V2Shard + 'static> DynFilter for ShardedHabf<F> {
    fn filter_id(&self) -> &'static str {
        if F::KIND == 0 {
            "sharded-habf"
        } else {
            "sharded-fhabf"
        }
    }

    /// v2 metadata:
    /// ```text
    /// kind u8 | shards u32 | splitter_seed u64 | built u64 | inserted u64
    /// per shard: the HABF-family meta block (see persist::encode_v2_meta)
    /// ```
    /// followed by two word frames per shard (bloom bits, expressor
    /// cells) in shard order — which is the frame table `habf inspect`
    /// prints as per-shard payload offsets.
    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        let meta = out.meta();
        meta.push(F::KIND);
        meta.extend_from_slice(&(self.shard_count() as u32).to_le_bytes());
        meta.extend_from_slice(&self.splitter_seed().to_le_bytes());
        meta.extend_from_slice(&(self.built_keys() as u64).to_le_bytes());
        meta.extend_from_slice(&(self.inserted_since_build() as u64).to_le_bytes());
        for i in 0..self.shard_count() {
            persist::encode_v2_meta(&self.shard(i).v2_image(), meta);
        }
        for i in 0..self.shard_count() {
            persist::push_v2_frames(&self.shard(i).v2_image(), out);
        }
    }

    fn backing(&self) -> Backing {
        ShardedHabf::backing(self)
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        let per_shard: Vec<usize> = (0..self.shard_count())
            .map(|i| self.shard(i).space_bits())
            .collect();
        vec![
            ("shards", self.shard_count().to_string()),
            ("splitter seed", format!("{:#x}", self.splitter_seed())),
            ("built keys", self.built_keys().to_string()),
            (
                "inserted since build",
                self.inserted_since_build().to_string(),
            ),
            (
                "shard space bits",
                format!(
                    "{}..{}",
                    per_shard.iter().min().copied().unwrap_or(0),
                    per_shard.iter().max().copied().unwrap_or(0)
                ),
            ),
            ("saturation", format!("{:.4}", self.saturation())),
        ]
    }

    /// Built keys plus the post-build inserts the image records, over
    /// the built design capacity: past 1.0 the filter holds keys TPJO
    /// never saw, and a rebuild recovers its FP envelope.
    fn saturation(&self) -> f64 {
        (self.built_keys() + self.inserted_since_build()) as f64 / self.built_keys().max(1) as f64
    }

    fn as_batch(&self) -> Option<&dyn BatchQuery> {
        Some(self)
    }

    fn as_rebuildable(&mut self) -> Option<&mut dyn Rebuildable> {
        Some(self)
    }

    fn rebuilt(
        &self,
        members: &[Vec<u8>],
        hints: &[(Vec<u8>, f64)],
        seed: u64,
    ) -> Option<Result<Box<dyn DynFilter>, BuildError>> {
        Some(rebuilt_over(hints, |negatives| {
            self.rebuilt_from(members, negatives, seed)
        }))
    }
}

impl<F: ShardFilter> BatchQuery for ShardedHabf<F> {
    fn contains_batch(&self, keys: &[&[u8]]) -> Vec<bool> {
        ShardedHabf::contains_batch(self, keys)
    }

    fn contains_batch_par(&self, keys: &[&[u8]], threads: usize) -> Vec<bool> {
        ShardedHabf::contains_batch_par(self, keys, threads)
    }
}

impl<F: ShardFilter> Rebuildable for ShardedHabf<F> {
    fn rebuild(&mut self, input: &BuildInput<'_>, seed: u64) -> Result<(), BuildError> {
        input.validate_costs()?;
        self.rebuild_in_place(&input.members, &input.merged_negatives(), seed);
        Ok(())
    }
}

fn build_habf(p: &FilterParams, input: &BuildInput<'_>) -> Result<Box<dyn DynFilter>, BuildError> {
    let cfg = p.habf_config(input.members.len());
    cfg.validate()?;
    Ok(Box::new(Habf::build(
        &input.members,
        &input.merged_negatives(),
        &cfg,
    )))
}

fn build_fhabf(p: &FilterParams, input: &BuildInput<'_>) -> Result<Box<dyn DynFilter>, BuildError> {
    let cfg = p.habf_config(input.members.len());
    cfg.validate()?;
    Ok(Box::new(FHabf::build(
        &input.members,
        &input.merged_negatives(),
        &cfg,
    )))
}

fn build_sharded_habf(
    p: &FilterParams,
    input: &BuildInput<'_>,
) -> Result<Box<dyn DynFilter>, BuildError> {
    let cfg = p.sharded_config(input.members.len());
    cfg.validate()?;
    Ok(Box::new(ShardedHabf::<Habf>::build_par(
        &input.members,
        &input.merged_negatives(),
        &cfg,
    )))
}

fn build_sharded_fhabf(
    p: &FilterParams,
    input: &BuildInput<'_>,
) -> Result<Box<dyn DynFilter>, BuildError> {
    let cfg = p.sharded_config(input.members.len());
    cfg.validate()?;
    Ok(Box::new(ShardedHabf::<FHabf>::build_par(
        &input.members,
        &input.merged_negatives(),
        &cfg,
    )))
}

fn load_habf_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    let mut r = Reader::new(meta);
    let d = persist::decode_v2_meta(&mut r, 0, frames)?;
    r.finish()?;
    Ok(Box::new(Habf::from_decoded(d)))
}

fn load_fhabf_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    let mut r = Reader::new(meta);
    let d = persist::decode_v2_meta(&mut r, 1, frames)?;
    r.finish()?;
    Ok(Box::new(FHabf::from_decoded(d)))
}

/// Decodes a sharded v2 payload (see the `write_payload_v2` layout on the
/// `ShardedHabf` impl): each shard's meta block plus its two frames, in
/// shard order — frames may be zero-copy views, so a loaded sharded
/// filter serves every shard straight from the image.
fn load_sharded_v2<F>(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError>
where
    F: ShardFilter + Clone + V2Shard + 'static,
{
    let mut r = Reader::new(meta);
    let kind = r.u8()?;
    if kind != F::KIND {
        return Err(PersistError::WrongKind);
    }
    let shards = usize::try_from(r.u32()?).map_err(|_| PersistError::Truncated)?;
    if shards == 0 || shards > crate::sharded::MAX_SHARDS {
        return Err(PersistError::Corrupt("shard count out of range"));
    }
    let splitter_seed = r.u64()?;
    let built_keys = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    let inserted = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    let mut parts = Vec::with_capacity(shards);
    for _ in 0..shards {
        let d = persist::decode_v2_meta(&mut r, F::KIND, frames)?;
        parts.push(F::from_decoded(d));
    }
    r.finish()?;
    Ok(Box::new(ShardedHabf::from_shard_parts(
        parts,
        splitter_seed,
        built_keys,
        inserted,
    )))
}

fn load_sharded_habf_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    load_sharded_v2::<Habf>(meta, frames)
}

fn load_sharded_fhabf_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    load_sharded_v2::<FHabf>(meta, frames)
}

impl DynFilter for ScalableHabf {
    fn filter_id(&self) -> &'static str {
        "scalable-habf"
    }

    /// v2 metadata:
    /// ```text
    /// k u8 | cell_bits u8 | delta f64-bits u64 | seed u64
    /// base_capacity u64 | base_total_bits u64 | max_tiers u32 | tiers u32
    /// per tier: capacity u64 | inserted u64 | HABF meta block
    /// ```
    /// followed by two word frames per tier (bloom bits, expressor
    /// cells), oldest tier first — one frame set per generation, so the
    /// whole stack serves zero-copy from one mapped container.
    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        let meta = out.meta();
        GrowthParams::of(self).encode(meta, self.generations());
        for i in 0..self.generations() {
            meta.extend_from_slice(&(self.tier_capacity(i) as u64).to_le_bytes());
            meta.extend_from_slice(&(self.tier_inserted(i) as u64).to_le_bytes());
            persist::encode_v2_meta(&self.tier(i).v2_image(), meta);
        }
        for i in 0..self.generations() {
            persist::push_v2_frames(&self.tier(i).v2_image(), out);
        }
    }

    fn backing(&self) -> Backing {
        ScalableHabf::backing(self)
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        let mut rows = vec![
            ("tiers", self.generations().to_string()),
            ("live keys", self.total_inserted().to_string()),
            ("max tiers (autoscale cap)", self.max_tiers().to_string()),
            ("saturation", format!("{:.4}", self.saturation())),
        ];
        for i in 0..self.generations() {
            rows.push((
                "tier fill (inserted/capacity)",
                format!(
                    "#{i}: {}/{} at {} bits",
                    self.tier_inserted(i),
                    self.tier_capacity(i),
                    self.tier(i).space_bits()
                ),
            ));
        }
        rows
    }

    fn saturation(&self) -> f64 {
        ScalableHabf::saturation(self)
    }

    fn generations(&self) -> usize {
        ScalableHabf::generations(self)
    }

    fn as_batch(&self) -> Option<&dyn BatchQuery> {
        Some(self)
    }

    fn as_rebuildable(&mut self) -> Option<&mut dyn Rebuildable> {
        Some(self)
    }

    /// The fold-back into a fresh stack (see [`ScalableHabf::folded`]).
    fn rebuilt(
        &self,
        members: &[Vec<u8>],
        hints: &[(Vec<u8>, f64)],
        seed: u64,
    ) -> Option<Result<Box<dyn DynFilter>, BuildError>> {
        Some(rebuilt_over(hints, |negatives| {
            self.folded(members, negatives, seed)
        }))
    }

    fn as_growable(&mut self) -> Option<&mut dyn Growable> {
        Some(self)
    }
}

impl Growable for ScalableHabf {
    fn insert(&mut self, key: &[u8]) {
        ScalableHabf::insert(self, key);
    }
}

impl Rebuildable for ScalableHabf {
    /// The fold-back: rebuilding a stack collapses it to **one**
    /// right-sized tier (geometry re-derived from the live member count
    /// at the base bits-per-key rate), hints preserved through TPJO.
    fn rebuild(&mut self, input: &BuildInput<'_>, seed: u64) -> Result<(), BuildError> {
        input.validate_costs()?;
        self.fold_rebuild(&input.members, &input.merged_negatives(), seed);
        Ok(())
    }
}

fn build_scalable_habf(
    p: &FilterParams,
    input: &BuildInput<'_>,
) -> Result<Box<dyn DynFilter>, BuildError> {
    let cfg = p.habf_config(input.members.len());
    cfg.validate()?;
    Ok(Box::new(ScalableHabf::build(
        &input.members,
        &input.merged_negatives(),
        &cfg,
    )))
}

fn load_scalable_habf_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    let mut r = Reader::new(meta);
    let (growth, tier_count) = scalable::decode_growth_params(&mut r)?;
    let mut tiers = Vec::with_capacity(tier_count.min(scalable::MAX_TIERS));
    for _ in 0..tier_count {
        let (capacity, inserted) = scalable::decode_tier_counters(&mut r)?;
        let d = persist::decode_v2_meta(&mut r, 0, frames)?;
        tiers.push((Habf::from_decoded(d), capacity, inserted));
    }
    r.finish()?;
    Ok(Box::new(ScalableHabf::from_parts(growth, tiers)))
}

// ---------------------------------------------------------------------
// Baseline filters: DynFilter impls + payload codecs.
// ---------------------------------------------------------------------

/// Bound on decoded per-key hash counts: far above any real
/// configuration (`optimal_k` clamps at 30), low enough to reject
/// corrupt headers before querying burns CPU.
const MAX_DECODED_K: usize = 1024;

impl DynFilter for BloomFilter {
    fn filter_id(&self) -> &'static str {
        "bloom"
    }

    /// ```text
    /// meta:  strategy u8 (0 family, 1 city64, 2 xxh128, 3 double)
    ///        strategy fields (0: k u8 + ids | 1/2: k u16 | 3: k u16 + seed u64)
    ///        items u64 | m u64
    /// frame: the bit array
    /// ```
    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        encode_bloom_meta(self, out.meta());
        out.frame(self.bits().words());
    }

    fn backing(&self) -> Backing {
        self.bits().backing()
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("hashes per key (k)", self.k().to_string()),
            ("items", self.items().to_string()),
            ("fill ratio", format!("{:.4}", self.fill_ratio())),
            ("saturation", format!("{:.4}", self.saturation())),
        ]
    }

    fn as_batch(&self) -> Option<&dyn BatchQuery> {
        Some(self)
    }
}

fn build_bloom(p: &FilterParams, input: &BuildInput<'_>) -> Result<Box<dyn DynFilter>, BuildError> {
    let total = p.total_bits(input.members.len());
    Ok(Box::new(BloomFilter::build(&input.members, total)))
}

/// The bloom v2 metadata blob: strategy and shape fields.
fn encode_bloom_meta(f: &BloomFilter, out: &mut Vec<u8>) {
    match f.strategy() {
        BloomHashStrategy::FamilyDistinct { ids } => {
            out.push(0);
            out.push(ids.len() as u8);
            out.extend_from_slice(ids);
        }
        BloomHashStrategy::SeededCity64 { k } => {
            out.push(1);
            out.extend_from_slice(&(*k as u16).to_le_bytes());
        }
        BloomHashStrategy::SeededXxh128 { k } => {
            out.push(2);
            out.extend_from_slice(&(*k as u16).to_le_bytes());
        }
        BloomHashStrategy::DoubleHashing { k, seed } => {
            out.push(3);
            out.extend_from_slice(&(*k as u16).to_le_bytes());
            out.extend_from_slice(&seed.to_le_bytes());
        }
    }
    out.extend_from_slice(&(f.items() as u64).to_le_bytes());
    out.extend_from_slice(&(f.bits().len() as u64).to_le_bytes());
}

/// Decodes the bloom fields up to (and including) the bit-array length
/// `m`; the caller supplies the words (a v2 frame, or inline in a v1
/// payload).
pub(crate) fn decode_bloom_meta(
    r: &mut Reader<'_>,
) -> Result<(BloomHashStrategy, usize, usize), PersistError> {
    let strategy = match r.u8()? {
        0 => {
            let k = usize::from(r.u8()?);
            let ids = r.bytes(k)?.to_vec();
            if ids.is_empty()
                || ids
                    .iter()
                    .any(|&id| id == 0 || usize::from(id) > habf_hashing::FAMILY_SIZE)
            {
                return Err(PersistError::Corrupt("bloom family id out of range"));
            }
            BloomHashStrategy::FamilyDistinct { ids }
        }
        1 => BloomHashStrategy::SeededCity64 { k: decode_k(r)? },
        2 => BloomHashStrategy::SeededXxh128 { k: decode_k(r)? },
        3 => {
            let k = decode_k(r)?;
            let seed = r.u64()?;
            BloomHashStrategy::DoubleHashing { k, seed }
        }
        _ => return Err(PersistError::Corrupt("unknown bloom strategy")),
    };
    let items = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    let m = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    if m == 0 {
        return Err(PersistError::Corrupt("empty Bloom array"));
    }
    Ok((strategy, items, m))
}

fn load_bloom_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    let mut r = Reader::new(meta);
    let (strategy, items, m) = decode_bloom_meta(&mut r)?;
    r.finish()?;
    let bits = BitVec::from_store(frames.next_words(m.div_ceil(64))?, m);
    Ok(Box::new(BloomFilter::from_parts(bits, strategy, items)))
}

fn decode_k(r: &mut Reader<'_>) -> Result<usize, PersistError> {
    let k = usize::from(r.u16()?);
    if k == 0 || k > MAX_DECODED_K {
        return Err(PersistError::Corrupt("hash count out of range"));
    }
    Ok(k)
}

impl DynFilter for WeightedBloomFilter {
    fn filter_id(&self) -> &'static str {
        "weighted-bloom"
    }

    /// ```text
    /// meta:  k_default u16 | items u64
    ///        cache_len u64 | per entry: tag u64 + k u16
    ///        m u64
    /// frame: the bit array
    /// ```
    ///
    /// The cost cache is scalar data, so it stays in the meta blob.
    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        encode_wbf_meta(self, out.meta());
        out.frame(self.bits().words());
    }

    fn backing(&self) -> Backing {
        self.bits().backing()
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("default k", self.k_default().to_string()),
            ("cost-cache entries", self.cache_len().to_string()),
            ("items", self.items().to_string()),
            ("saturation", format!("{:.4}", self.saturation())),
        ]
    }

    fn as_batch(&self) -> Option<&dyn BatchQuery> {
        Some(self)
    }
}

fn build_weighted_bloom(
    p: &FilterParams,
    input: &BuildInput<'_>,
) -> Result<Box<dyn DynFilter>, BuildError> {
    if input.members.is_empty() {
        return Err(BuildError::EmptyMembers {
            id: "weighted-bloom",
        });
    }
    let total = p.total_bits(input.members.len());
    Ok(Box::new(WeightedBloomFilter::build(
        &input.members,
        &input.merged_negatives(),
        total,
        p.cache_entries,
    )))
}

/// The WBF v2 metadata blob.
fn encode_wbf_meta(f: &WeightedBloomFilter, out: &mut Vec<u8>) {
    out.extend_from_slice(&(f.k_default() as u16).to_le_bytes());
    out.extend_from_slice(&(f.items() as u64).to_le_bytes());
    out.extend_from_slice(&(f.cache().len() as u64).to_le_bytes());
    for (tag, k) in f.cache() {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&k.to_le_bytes());
    }
    out.extend_from_slice(&(f.bits().len() as u64).to_le_bytes());
}

type WbfMeta = (usize, usize, Vec<(u64, u16)>, usize);

/// Decodes the WBF fields up to (and including) the bit-array length
/// `m`.
pub(crate) fn decode_wbf_meta(r: &mut Reader<'_>) -> Result<WbfMeta, PersistError> {
    let k_default = usize::from(r.u16()?);
    if k_default == 0 || k_default > MAX_DECODED_K {
        return Err(PersistError::Corrupt("hash count out of range"));
    }
    let items = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    let cache_len = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    // One bounds-checked read for the whole cache region, so a corrupt
    // length fails before any allocation is sized from it.
    let raw = r.bytes(cache_len.checked_mul(10).ok_or(PersistError::Truncated)?)?;
    let cache: Vec<(u64, u16)> = raw
        .chunks_exact(10)
        .map(|c| {
            // chunks_exact(10) guarantees the 2-byte tail exists.
            let tail = c.get(8..).unwrap_or_default();
            (
                u64::from_le_bytes(persist::le_array(c)),
                u16::from_le_bytes(persist::le_array(tail)),
            )
        })
        .collect();
    let m = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    if m == 0 {
        return Err(PersistError::Corrupt("empty WBF array"));
    }
    Ok((k_default, items, cache, m))
}

fn load_weighted_bloom_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    let mut r = Reader::new(meta);
    let (k_default, items, cache, m) = decode_wbf_meta(&mut r)?;
    r.finish()?;
    let bits = BitVec::from_store(frames.next_words(m.div_ceil(64))?, m);
    Ok(Box::new(WeightedBloomFilter::from_parts(
        bits, cache, k_default, items,
    )))
}

impl DynFilter for XorFilter {
    fn filter_id(&self) -> &'static str {
        "xor"
    }

    /// ```text
    /// meta:  fp_bits u8 | seg_len u64 | seed u64 | items u64
    /// frame: the fingerprint table
    /// ```
    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        encode_xor_meta(self, out.meta());
        out.frame(self.fingerprints().words());
    }

    fn backing(&self) -> Backing {
        self.fingerprints().backing()
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("fingerprint bits", self.fp_bits().to_string()),
            ("items", self.items().to_string()),
            ("theoretical fpr", format!("{:.6}", self.theoretical_fpr())),
            ("saturation", format!("{:.4}", self.saturation())),
        ]
    }
}

fn build_xor(p: &FilterParams, input: &BuildInput<'_>) -> Result<Box<dyn DynFilter>, BuildError> {
    let n = input.members.len();
    if n == 0 {
        return Err(BuildError::EmptyMembers { id: "xor" });
    }
    let total = p.total_bits(n);
    let b = total as f64 / n as f64;
    if (b / (1.23 + 32.0 / n as f64)).floor() < 1.0 {
        return Err(BuildError::BadBudget {
            id: "xor",
            detail: "below one fingerprint bit per key at 1.23x slack",
        });
    }
    Ok(Box::new(XorFilter::build(&input.members, total)))
}

/// The xor-filter v2 metadata blob.
fn encode_xor_meta(f: &XorFilter, out: &mut Vec<u8>) {
    out.push(f.fp_bits() as u8);
    out.extend_from_slice(&(f.seg_len() as u64).to_le_bytes());
    out.extend_from_slice(&f.seed().to_le_bytes());
    out.extend_from_slice(&(f.items() as u64).to_le_bytes());
}

type XorMeta = (u32, usize, usize, u64, usize, usize);

/// Decodes the xor-filter fields, returning
/// `(fp_bits, seg_len, slots, seed, items, word_count)`.
pub(crate) fn decode_xor_meta(r: &mut Reader<'_>) -> Result<XorMeta, PersistError> {
    let fp_bits = u32::from(r.u8()?);
    if !(1..=32).contains(&fp_bits) {
        return Err(PersistError::Corrupt("fingerprint width out of range"));
    }
    let seg_len = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    let slots = seg_len.checked_mul(3).ok_or(PersistError::Truncated)?;
    if slots == 0 {
        return Err(PersistError::Corrupt("empty fingerprint table"));
    }
    let seed = r.u64()?;
    let items = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    let word_count = slots
        .checked_mul(usize::try_from(fp_bits).unwrap_or(usize::MAX))
        .ok_or(PersistError::Truncated)?
        .div_ceil(64);
    Ok((fp_bits, seg_len, slots, seed, items, word_count))
}

fn load_xor_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    let mut r = Reader::new(meta);
    let (fp_bits, seg_len, slots, seed, items, word_count) = decode_xor_meta(&mut r)?;
    r.finish()?;
    let cells = PackedCells::from_store(frames.next_words(word_count)?, slots, fp_bits);
    Ok(Box::new(XorFilter::from_parts(
        cells, seg_len, seed, fp_bits, items,
    )))
}

// ---------------------------------------------------------------------
// Probe-pipeline filters: blocked layouts and the binary-fuse baseline.
// ---------------------------------------------------------------------

impl DynFilter for BlockedBloomFilter {
    fn filter_id(&self) -> &'static str {
        "blocked-bloom"
    }

    /// ```text
    /// meta:  k u16 | base u8 (hash registry index) | seed u64
    ///        items u64 | m u64
    /// frame: the bit array
    /// ```
    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        encode_blocked_bloom_meta(self, out.meta());
        out.frame(self.bits().words());
    }

    fn backing(&self) -> Backing {
        self.bits().backing()
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("hashes per key (k)", self.k().to_string()),
            ("blocks (512-bit)", self.blocks().to_string()),
            ("base hash", self.base().name().to_string()),
            ("items", self.items().to_string()),
            ("fill ratio", format!("{:.4}", self.fill_ratio())),
            ("saturation", format!("{:.4}", self.saturation())),
        ]
    }

    fn as_batch(&self) -> Option<&dyn BatchQuery> {
        Some(self)
    }
}

fn build_blocked_bloom(
    p: &FilterParams,
    input: &BuildInput<'_>,
) -> Result<Box<dyn DynFilter>, BuildError> {
    let total = p.total_bits(input.members.len());
    Ok(Box::new(BlockedBloomFilter::build(&input.members, total)))
}

/// The blocked-Bloom v2 metadata blob.
fn encode_blocked_bloom_meta(f: &BlockedBloomFilter, out: &mut Vec<u8>) {
    out.extend_from_slice(&(f.k() as u16).to_le_bytes());
    out.push(f.base().registry_index() as u8);
    out.extend_from_slice(&f.seed().to_le_bytes());
    out.extend_from_slice(&(f.items() as u64).to_le_bytes());
    out.extend_from_slice(&(f.bits().len() as u64).to_le_bytes());
}

type BlockedBloomMeta = (usize, HashFunction, u64, usize, usize);

/// Decodes the blocked-Bloom fields, returning `(k, base, seed, items,
/// m)`; `m` is validated to span whole blocks.
pub(crate) fn decode_blocked_bloom_meta(
    r: &mut Reader<'_>,
) -> Result<BlockedBloomMeta, PersistError> {
    let k = decode_k(r)?;
    let base = HashFunction::from_registry_index(usize::from(r.u8()?))
        .ok_or(PersistError::Corrupt("unknown base-hash index"))?;
    let seed = r.u64()?;
    let items = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    let m = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    if m == 0 || m % habf_filters::blocked_bloom::BLOCK_BITS != 0 {
        return Err(PersistError::Corrupt(
            "blocked Bloom array not whole 512-bit blocks",
        ));
    }
    Ok((k, base, seed, items, m))
}

fn load_blocked_bloom_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    let mut r = Reader::new(meta);
    let (k, base, seed, items, m) = decode_blocked_bloom_meta(&mut r)?;
    r.finish()?;
    let bits = BitVec::from_store(frames.next_words(m.div_ceil(64))?, m);
    Ok(Box::new(BlockedBloomFilter::from_parts(
        bits, k, base, seed, items,
    )))
}

impl DynFilter for BlockedHabf {
    fn filter_id(&self) -> &'static str {
        "blocked-habf"
    }

    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        let img = self.image();
        persist::encode_v2_meta(&img, out.meta());
        persist::push_v2_frames(&img, out);
    }

    fn backing(&self) -> Backing {
        BlockedHabf::backing(self)
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("hashes per key (k)", self.h0().len().to_string()),
            ("blocks (512-bit)", self.blocks().to_string()),
            (
                "block selector",
                self.family().selector().name().to_string(),
            ),
            ("expressor entries", self.expressor_entries().to_string()),
            ("bloom fill ratio", format!("{:.4}", self.fill_ratio())),
            ("fpr envelope", format!("{:.6}", self.fpr_envelope())),
            ("saturation", format!("{:.4}", self.saturation())),
        ]
    }

    fn as_batch(&self) -> Option<&dyn BatchQuery> {
        Some(self)
    }

    fn as_rebuildable(&mut self) -> Option<&mut dyn Rebuildable> {
        Some(self)
    }

    fn rebuilt(
        &self,
        members: &[Vec<u8>],
        hints: &[(Vec<u8>, f64)],
        seed: u64,
    ) -> Option<Result<Box<dyn DynFilter>, BuildError>> {
        Some(rebuilt_over(hints, |negatives| {
            self.rebuilt_from(members, negatives, seed)
        }))
    }
}

impl Rebuildable for BlockedHabf {
    fn rebuild(&mut self, input: &BuildInput<'_>, seed: u64) -> Result<(), BuildError> {
        input.validate_costs()?;
        BlockedHabf::rebuild(self, &input.members, &input.merged_negatives(), seed);
        Ok(())
    }
}

fn build_blocked_habf(
    p: &FilterParams,
    input: &BuildInput<'_>,
) -> Result<Box<dyn DynFilter>, BuildError> {
    let cfg = p.habf_config(input.members.len());
    cfg.validate()?;
    Ok(Box::new(BlockedHabf::build(
        &input.members,
        &input.merged_negatives(),
        &cfg,
    )))
}

fn load_blocked_habf_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    let mut r = Reader::new(meta);
    let d = persist::decode_v2_meta(&mut r, 2, frames)?;
    r.finish()?;
    Ok(Box::new(BlockedHabf::try_from_decoded(d)?))
}

impl DynFilter for BinaryFuseFilter {
    fn filter_id(&self) -> &'static str {
        "binary-fuse"
    }

    /// ```text
    /// meta:  fp_bits u8 | seg_len u64 | seg_count u64 | seed u64 | items u64
    /// frame: the fingerprint table
    /// ```
    fn write_payload_v2<'a>(&'a self, out: &mut FrameWriter<'a>) {
        encode_binary_fuse_meta(self, out.meta());
        out.frame(self.fingerprints().words());
    }

    fn backing(&self) -> Backing {
        self.fingerprints().backing()
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("fingerprint bits", self.fp_bits().to_string()),
            ("segments", self.seg_count().to_string()),
            ("segment length", self.seg_len().to_string()),
            ("items", self.items().to_string()),
            ("theoretical fpr", format!("{:.6}", self.theoretical_fpr())),
            ("saturation", format!("{:.4}", self.saturation())),
        ]
    }

    fn as_batch(&self) -> Option<&dyn BatchQuery> {
        Some(self)
    }
}

fn build_binary_fuse(
    p: &FilterParams,
    input: &BuildInput<'_>,
) -> Result<Box<dyn DynFilter>, BuildError> {
    let n = input.members.len();
    if n == 0 {
        return Err(BuildError::EmptyMembers { id: "binary-fuse" });
    }
    let total = p.total_bits(n);
    if total / BinaryFuseFilter::slots_for(n) < 1 {
        return Err(BuildError::BadBudget {
            id: "binary-fuse",
            detail: "below one fingerprint bit per fuse slot",
        });
    }
    Ok(Box::new(BinaryFuseFilter::build(&input.members, total)))
}

/// The binary-fuse v2 metadata blob.
fn encode_binary_fuse_meta(f: &BinaryFuseFilter, out: &mut Vec<u8>) {
    out.push(f.fp_bits() as u8);
    out.extend_from_slice(&(f.seg_len() as u64).to_le_bytes());
    out.extend_from_slice(&(f.seg_count() as u64).to_le_bytes());
    out.extend_from_slice(&f.seed().to_le_bytes());
    out.extend_from_slice(&(f.items() as u64).to_le_bytes());
}

type BinaryFuseMeta = (u32, usize, usize, u64, usize, usize, usize);

/// Decodes the binary-fuse fields, returning
/// `(fp_bits, seg_len, seg_count, seed, items, slots, word_count)`.
pub(crate) fn decode_binary_fuse_meta(r: &mut Reader<'_>) -> Result<BinaryFuseMeta, PersistError> {
    let fp_bits = u32::from(r.u8()?);
    if !(1..=32).contains(&fp_bits) {
        return Err(PersistError::Corrupt("fingerprint width out of range"));
    }
    let seg_len = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    if seg_len == 0 || !seg_len.is_power_of_two() {
        return Err(PersistError::Corrupt(
            "segment length not a nonzero power of two",
        ));
    }
    let seg_count = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    if seg_count == 0 {
        return Err(PersistError::Corrupt("empty segment table"));
    }
    let slots = seg_count
        .checked_add(2)
        .and_then(|w| w.checked_mul(seg_len))
        .ok_or(PersistError::Truncated)?;
    let seed = r.u64()?;
    let items = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    let word_count = slots
        .checked_mul(usize::try_from(fp_bits).unwrap_or(usize::MAX))
        .ok_or(PersistError::Truncated)?
        .div_ceil(64);
    Ok((fp_bits, seg_len, seg_count, seed, items, slots, word_count))
}

fn load_binary_fuse_v2(
    meta: &[u8],
    frames: &mut FrameSource<'_>,
) -> Result<Box<dyn DynFilter>, PersistError> {
    let mut r = Reader::new(meta);
    let (fp_bits, seg_len, seg_count, seed, items, slots, word_count) =
        decode_binary_fuse_meta(&mut r)?;
    r.finish()?;
    let cells = PackedCells::from_store(frames.next_words(word_count)?, slots, fp_bits);
    Ok(Box::new(BinaryFuseFilter::from_parts(
        cells, seg_len, seg_count, seed, fp_bits, items,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FilterSpec;

    type Workload = (Vec<Vec<u8>>, Vec<(Vec<u8>, f64)>);

    fn sample() -> Workload {
        let pos: Vec<Vec<u8>> = (0..800).map(|i| format!("pos:{i}").into_bytes()).collect();
        let neg: Vec<(Vec<u8>, f64)> = (0..800)
            .map(|i| (format!("neg:{i}").into_bytes(), 1.0 + (i % 9) as f64))
            .collect();
        (pos, neg)
    }

    #[test]
    fn every_registered_id_builds_and_roundtrips_through_the_container() {
        let (pos, neg) = sample();
        let input = BuildInput::from_members(&pos).with_costed_negatives(&neg);
        for e in entries() {
            let spec = FilterSpec::by_id(e.id).expect("registered id has a spec");
            let spec = spec.bits_per_key(10.0).shards(2);
            let filter = spec.build(&input).unwrap_or_else(|err| {
                panic!("{}: build failed: {err}", e.id);
            });
            assert_eq!(filter.filter_id(), e.id);
            for k in &pos {
                assert!(filter.contains(k), "{}: member dropped", e.id);
            }
            let image = filter.to_container_bytes();
            let loaded = load(&image).unwrap_or_else(|err| {
                panic!("{}: container load failed: {err}", e.id);
            });
            assert_eq!(loaded.format, ImageFormat::Container);
            assert_eq!(loaded.version, persist::CONTAINER_VERSION);
            assert_eq!(loaded.filter.filter_id(), e.id);
            for k in &pos {
                assert!(loaded.filter.contains(k), "{}: member lost in image", e.id);
            }
            for (k, _) in &neg {
                assert_eq!(
                    filter.contains(k),
                    loaded.filter.contains(k),
                    "{}: answer changed through the container",
                    e.id
                );
            }
            assert_eq!(
                loaded.filter.to_container_bytes(),
                image,
                "{}: re-encode must be stable",
                e.id
            );
            assert!(
                !loaded.filter.metadata().is_empty(),
                "{}: no metadata",
                e.id
            );
        }
    }

    /// Every registered id loads zero-copy from a shared image: the
    /// loaded filter is view-backed, answers exactly like the owned
    /// decode, and promotes to owned words on mutation without touching
    /// the image.
    #[test]
    fn every_id_serves_view_backed_from_a_shared_image() {
        let (pos, neg) = sample();
        let input = BuildInput::from_members(&pos).with_costed_negatives(&neg);
        for e in entries() {
            let spec = FilterSpec::by_id(e.id).expect("registered");
            let filter = spec
                .bits_per_key(10.0)
                .shards(2)
                .build(&input)
                .unwrap_or_else(|err| panic!("{}: {err}", e.id));
            assert_eq!(filter.backing(), Backing::Owned, "{}: fresh build", e.id);
            let image = filter.to_container_bytes();

            let owned = load(&image).unwrap_or_else(|err| panic!("{}: {err}", e.id));
            assert_eq!(owned.filter.backing(), Backing::Owned, "{}", e.id);

            let shared = Arc::new(ImageBytes::from_vec(image.clone()));
            let viewed = load_shared(&shared).unwrap_or_else(|err| panic!("{}: {err}", e.id));
            assert_eq!(
                viewed.filter.backing(),
                Backing::SharedBytes,
                "{}: v2 shared load must be a view",
                e.id
            );
            for k in pos.iter().chain(neg.iter().map(|(k, _)| k)) {
                assert_eq!(
                    owned.filter.contains(k),
                    viewed.filter.contains(k),
                    "{}: view answers diverged",
                    e.id
                );
            }
            // Views re-encode byte-identically: serving in place loses
            // nothing.
            assert_eq!(viewed.filter.to_container_bytes(), image, "{}", e.id);
        }
    }

    /// Mutating a view-backed filter promotes its storage to owned words
    /// (copy-on-write) and leaves the shared image untouched.
    #[test]
    fn view_backed_rebuild_promotes_to_owned_words() {
        let (pos, neg) = sample();
        let input = BuildInput::from_members(&pos).with_costed_negatives(&neg);
        let image = FilterSpec::sharded(2)
            .bits_per_key(10.0)
            .build(&input)
            .expect("sharded")
            .to_container_bytes();
        let shared = Arc::new(ImageBytes::from_vec(image.clone()));
        let mut loaded = load_shared(&shared).expect("view load");
        assert_eq!(loaded.filter.backing(), Backing::SharedBytes);

        let mined: Vec<(Vec<u8>, f64)> = (0..200)
            .map(|i| (format!("mined:{i}").into_bytes(), 3.0))
            .collect();
        let rebuild_input = BuildInput::from_members(&pos).with_hints(&mined);
        loaded
            .filter
            .as_rebuildable()
            .expect("sharded rebuilds")
            .rebuild(&rebuild_input, 7)
            .expect("rebuild");
        assert_eq!(
            loaded.filter.backing(),
            Backing::Owned,
            "rebuild must promote every shard to owned words"
        );
        for k in &pos {
            assert!(loaded.filter.contains(k), "member dropped by rebuild");
        }
        // The image is untouched: a fresh view still serves the
        // pre-rebuild answers.
        let fresh = load_shared(&shared).expect("fresh view");
        assert_eq!(fresh.filter.to_container_bytes(), image);
    }

    /// `load_mmap` serves a v2 file with mmap backing; missing and
    /// corrupt files are typed errors.
    #[test]
    fn load_mmap_serves_v2_files_and_rejects_bad_ones() {
        let (pos, neg) = sample();
        let input = BuildInput::from_members(&pos).with_costed_negatives(&neg);
        let dir = std::env::temp_dir().join(format!("habf-registry-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");

        let filter = FilterSpec::fhabf()
            .bits_per_key(10.0)
            .build(&input)
            .expect("fhabf");
        let v2 = dir.join("f.habc");
        std::fs::write(&v2, filter.to_container_bytes()).expect("write v2");
        let loaded = load_mmap(&v2).expect("mmap v2");
        let want = if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            Backing::Mmap
        } else {
            Backing::SharedBytes
        };
        assert_eq!(loaded.filter.backing(), want);
        for k in &pos {
            assert!(loaded.filter.contains(k), "mmap view dropped a member");
        }

        // Missing file and corrupt file are typed errors.
        assert!(matches!(
            load_mmap(dir.join("missing.habc")),
            Err(OpenError::Io(_))
        ));
        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"not a filter").expect("write junk");
        assert!(matches!(
            load_mmap(&junk),
            Err(OpenError::Persist(PersistError::BadMagic))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_container_id_is_a_typed_error() {
        let mut image = Vec::new();
        persist::encode_container_v2("no-such-filter", &FrameWriter::new(), &mut image);
        assert_eq!(
            load(&image).err(),
            Some(PersistError::UnknownFilterId("no-such-filter".into()))
        );
    }

    #[test]
    fn capability_discovery_matches_the_filters() {
        let (pos, neg) = sample();
        let input = BuildInput::from_members(&pos).with_costed_negatives(&neg);
        let mut habf = FilterSpec::habf().build(&input).expect("habf");
        assert!(habf.as_rebuildable().is_some(), "HABF must be rebuildable");
        assert!(habf.as_batch().is_none());

        let mut sharded = FilterSpec::sharded(2).build(&input).expect("sharded");
        assert!(sharded.as_batch().is_some(), "sharded must batch");
        assert!(sharded.as_rebuildable().is_some());
        let keys: Vec<&[u8]> = pos.iter().map(Vec::as_slice).collect();
        let batch = sharded.as_batch().expect("batch").contains_batch(&keys);
        assert!(batch.iter().all(|&b| b));

        let mut bloom = FilterSpec::bloom().build(&input).expect("bloom");
        assert!(bloom.as_rebuildable().is_none(), "bloom is static");
        assert!(bloom.as_batch().is_some(), "bloom has a batch pipeline");

        let mut blocked = FilterSpec::blocked_habf().build(&input).expect("blocked");
        assert!(blocked.as_batch().is_some(), "blocked HABF must batch");
        assert!(blocked.as_rebuildable().is_some());

        let mut fuse = FilterSpec::binary_fuse().build(&input).expect("fuse");
        assert!(fuse.as_rebuildable().is_none(), "binary fuse is static");
        assert!(fuse.as_batch().is_some(), "binary fuse must batch");
    }

    #[test]
    fn rebuild_through_the_capability_prunes_the_new_negatives() {
        let (pos, _) = sample();
        let input = BuildInput::from_members(&pos);
        let mut filter = FilterSpec::habf()
            .bits_per_key(10.0)
            .build(&input)
            .expect("habf");
        let space = filter.space_bits();
        let mined: Vec<(Vec<u8>, f64)> = (0..400)
            .map(|i| (format!("mined:{i}").into_bytes(), 5.0))
            .collect();
        let rebuild_input = BuildInput::from_members(&pos).with_hints(&mined);
        filter
            .as_rebuildable()
            .expect("habf is rebuildable")
            .rebuild(&rebuild_input, 7)
            .expect("rebuild");
        assert_eq!(filter.space_bits(), space, "geometry drifted");
        for k in &pos {
            assert!(filter.contains(k), "member dropped by rebuild");
        }
        let pruned = mined.iter().filter(|(k, _)| !filter.contains(k)).count();
        assert!(pruned > 300, "only {pruned}/400 mined misses pruned");
    }

    /// For every id, the copy-free rebuild exists exactly when the
    /// capability does, and yields the bytes that rebuilding a copy does,
    /// over a grown member list, with the copy's source left untouched.
    #[test]
    fn rebuilt_equals_rebuilding_a_copy_for_every_id() {
        let (pos, neg) = sample();
        let input = BuildInput::from_members(&pos).with_costed_negatives(&neg);
        let mut members = pos.clone();
        members.extend((0..100).map(|i| format!("late:{i}").into_bytes()));
        let hints: Vec<(Vec<u8>, f64)> = (0..300)
            .map(|i| {
                (
                    format!("hint:{}", i % 250).into_bytes(),
                    1.0 + (i % 7) as f64,
                )
            })
            .collect();
        for e in entries() {
            let built = FilterSpec::by_id(e.id)
                .expect("registered id has a spec")
                .bits_per_key(10.0)
                .shards(2)
                .build(&input)
                .expect("build");
            let image = built.to_container_bytes();
            let mut copy = built.clone_filter();
            let Some(rebuildable) = copy.as_rebuildable() else {
                assert!(built.rebuilt(&members, &hints, 9).is_none(), "{}", e.id);
                continue;
            };
            let rebuild_input = BuildInput::from_members(&members).with_hints(&hints);
            rebuildable.rebuild(&rebuild_input, 9).expect("rebuild");
            let fresh = built
                .rebuilt(&members, &hints, 9)
                .unwrap_or_else(|| panic!("{}: rebuildable but no rebuilt", e.id))
                .expect("rebuilt");
            assert_eq!(fresh.filter_id(), e.id);
            assert!(
                fresh.to_container_bytes() == copy.to_container_bytes(),
                "{}: rebuilt differs from rebuilding a copy",
                e.id
            );
            assert!(
                built.to_container_bytes() == image,
                "{}: source written",
                e.id
            );
            let bad = vec![(b"x".to_vec(), f64::NAN)];
            assert_eq!(
                built.rebuilt(&members, &bad, 9).map(|r| r.err()),
                Some(Some(BuildError::BadCost { index: 0 })),
                "{}",
                e.id
            );
        }
    }

    #[test]
    fn bad_costs_are_rejected_at_the_spec_boundary() {
        let (pos, _) = sample();
        let bad = vec![(b"x".to_vec(), f64::NAN)];
        let input = BuildInput::from_members(&pos).with_costed_negatives(&bad);
        assert_eq!(
            FilterSpec::weighted_bloom().build(&input).err(),
            Some(BuildError::BadCost { index: 0 })
        );
        for zero_or_neg in [0.0, -1.0, f64::INFINITY] {
            let bad = vec![(b"x".to_vec(), zero_or_neg)];
            let input = BuildInput::from_members(&pos).with_costed_negatives(&bad);
            assert!(FilterSpec::habf().build(&input).is_err(), "{zero_or_neg}");
        }
    }

    #[test]
    fn empty_member_rules_follow_the_filters() {
        let empty: Vec<Vec<u8>> = Vec::new();
        let input = BuildInput::from_members(&empty);
        assert!(FilterSpec::habf().build(&input).is_ok(), "habf degenerates");
        assert_eq!(
            FilterSpec::xor().build(&input).err(),
            Some(BuildError::EmptyMembers { id: "xor" })
        );
        assert_eq!(
            FilterSpec::weighted_bloom().build(&input).err(),
            Some(BuildError::EmptyMembers {
                id: "weighted-bloom"
            })
        );
    }

    /// The HABF family keeps the LSM run builder's historical 256-bit
    /// budget floor (a 64-bit HABF cannot hold a useful HashExpressor);
    /// cost-oblivious baselines keep the generic 64-bit floor.
    #[test]
    fn habf_family_floors_tiny_budgets_at_256_bits() {
        let members: Vec<Vec<u8>> = (0..5).map(|i| format!("m:{i}").into_bytes()).collect();
        let input = BuildInput::from_members(&members);
        let habf = FilterSpec::habf()
            .total_bits(50)
            .build(&input)
            .expect("habf");
        assert!(
            habf.space_bits() > 200,
            "tiny HABF got only {} bits",
            habf.space_bits()
        );
        let bloom = FilterSpec::bloom()
            .total_bits(50)
            .build(&input)
            .expect("bloom");
        assert_eq!(bloom.space_bits(), 64);
    }

    #[test]
    fn spec_validate_catches_shape_errors_before_any_build() {
        assert!(FilterSpec::habf().validate().is_ok());
        assert!(FilterSpec::bloom().validate().is_ok());
        assert!(matches!(
            FilterSpec::habf().habf_shape(-1.0, 3, 4).validate(),
            Err(BuildError::Config(_))
        ));
        assert!(matches!(
            FilterSpec::sharded(0).validate(),
            Err(BuildError::Config(_))
        ));
    }

    #[test]
    fn merged_negatives_dedup_keeps_max_cost() {
        let negs = vec![(b"a".to_vec(), 1.0), (b"b".to_vec(), 4.0)];
        let hints = vec![(b"a".to_vec(), 5.0), (b"c".to_vec(), 2.0)];
        let members: Vec<Vec<u8>> = Vec::new();
        let input = BuildInput::from_members(&members)
            .with_costed_negatives(&negs)
            .with_hints(&hints);
        let merged = input.merged_negatives();
        assert_eq!(
            merged,
            vec![
                (b"a".as_slice(), 5.0),
                (b"b".as_slice(), 4.0),
                (b"c".as_slice(), 2.0),
            ]
        );
    }
}
