//! Persistence: serialize built filters to one binary format and load
//! them back.
//!
//! The intended deployment (and the paper's setting) builds filters
//! *offline*, where the negative keys and costs are collected, and ships
//! them to query servers, so the image format is the contract between the
//! builder and the server.
//!
//! The **`HABC` v2 container** is the only format the workspace writes:
//! every [`crate::DynFilter`] writes it through
//! [`crate::DynFilter::write_to`] and the [`crate::registry`] loads it.
//! Its payload separates small scalar *metadata* from the bulk `u64`
//! **word frames**, and pads so every frame starts at a file offset that
//! is a multiple of 8:
//!
//! ```text
//! magic "HABC" | version u8 (2) | id_len u8 | filter-id bytes (ASCII)
//! payload_len u64 | zero pad to the next 8-byte boundary
//! payload:
//!   meta_len u64 | meta bytes… | zero pad to 8
//!   nframes u64 | frame table: nframes × (offset u64, words u64)
//!   word frames, little-endian u64s, each at its (8-aligned) offset
//! ```
//!
//! Because the header pad puts the payload — and therefore every frame —
//! on an 8-byte boundary, [`crate::registry::load_shared`] /
//! [`crate::registry::load_mmap`] can hand back filters whose bit arrays
//! and cell tables are *views* into the image (zero payload-word copies),
//! served in place and promoted to owned words only when first mutated.
//! Frame offsets are validated on load: a non-multiple-of-8 offset is the
//! typed [`PersistError::Misaligned`].
//!
//! The filter id names the payload codec in the registry, so any
//! registered filter — HABF family or baseline — round-trips through one
//! format, and loaders reject unknown ids with a typed error instead of
//! misparsing the payload.
//!
//! Older images — the `HABC` v1 container (same header, no alignment
//! pad, one opaque payload) and the pre-container `HABF` / `HABS` images
//! — still load through [`crate::registry::load`], which hands them to
//! the frozen readers in the crate-private `compat` module. Nothing
//! writes them any more; `habf migrate` upgrades them to v2.
//!
//! Hash-function ids are stable across versions (pinned by the golden
//! vectors in `habf-hashing`), so a persisted HashExpressor chain decodes
//! to the same functions forever.

use crate::hash_expressor::HashExpressor;
use habf_hashing::HashId;
use habf_util::{BitVec, ImageBytes, PackedCells, SharedWords, Words};
use std::sync::Arc;

/// Magic of the self-describing container format.
pub(crate) const CONTAINER_MAGIC: &[u8; 4] = b"HABC";

/// Current container version: aligned word frames, zero-copy loadable.
pub const CONTAINER_VERSION: u8 = 2;

/// Longest filter id the container header can name.
const MAX_ID_LEN: usize = 64;

/// Upper bound on the persisted shard count; rejects corrupt headers
/// before any per-shard allocation happens.
pub(crate) const MAX_SHARDS: usize = 65_536;

/// Upper bound on a v2 frame table (two frames per shard plus slack);
/// rejects corrupt headers before the table allocation is sized.
const MAX_FRAMES: usize = 2 * MAX_SHARDS + 8;

/// Errors loading a persisted filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer does not start with a known magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// The kind byte does not match the requested filter type.
    WrongKind,
    /// The container names a filter id absent from the
    /// [`crate::registry`].
    UnknownFilterId(String),
    /// The buffer ended early or a length field is inconsistent.
    Truncated,
    /// A v2 word frame sits at an offset that is not a multiple of 8 —
    /// it could never be served as an in-place `u64` view.
    Misaligned,
    /// A field value is out of its legal range.
    Corrupt(&'static str),
}

impl core::fmt::Display for PersistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a HABF filter image"),
            PersistError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::WrongKind => write!(f, "filter kind mismatch"),
            PersistError::UnknownFilterId(id) => {
                write!(f, "container names unregistered filter id {id:?}")
            }
            PersistError::Truncated => write!(f, "truncated filter image"),
            PersistError::Misaligned => {
                write!(f, "misaligned word frame in filter image")
            }
            PersistError::Corrupt(what) => write!(f, "corrupt filter image: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Fills an `N`-byte array from the front of `bytes` without a panicking
/// conversion. Callers pass slices already length-checked by [`Reader`];
/// a short slice zero-fills rather than aborting the process.
pub(crate) fn le_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (dst, src) in out.iter_mut().zip(bytes) {
        *dst = *src;
    }
    out
}

/// Copies little-endian words out of a byte run (the non-zero-copy decode
/// path).
fn copy_words(raw: &[u8]) -> Vec<u64> {
    raw.chunks_exact(8)
        .map(|c| u64::from_le_bytes(le_array(c)))
        .collect()
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(PersistError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, PersistError> {
        self.bytes(1)?
            .first()
            .copied()
            .ok_or(PersistError::Truncated)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(le_array(self.bytes(2)?)))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(le_array(self.bytes(4)?)))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(le_array(self.bytes(8)?)))
    }

    /// A `u64` count/size field narrowed to `usize`. A value the host
    /// cannot address is a truncation-class error, never a silent wrap.
    pub(crate) fn count(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| PersistError::Truncated)
    }

    pub(crate) fn words(&mut self, n: usize) -> Result<Vec<u64>, PersistError> {
        let raw = self.bytes(n.checked_mul(8).ok_or(PersistError::Truncated)?)?;
        Ok(copy_words(raw))
    }

    pub(crate) fn finish(&self) -> Result<(), PersistError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PersistError::Corrupt("trailing bytes"))
        }
    }
}

/// Parsed container header: which codec owns the payload and the envelope
/// version it was written with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainerHeader {
    /// Registry id of the payload codec (e.g. `"habf"`, `"bloom"`).
    pub id: String,
    /// Container (envelope) format version.
    pub version: u8,
}

/// A decoded container envelope: the header, the payload bytes, and where
/// the payload starts inside the image (v2 guarantees that offset — and
/// every frame offset within the payload — is a multiple of 8, which is
/// what makes in-place word views possible).
#[derive(Clone, Debug)]
pub struct DecodedContainer<'a> {
    /// Which codec owns the payload, and the envelope version.
    pub header: ContainerHeader,
    /// The payload bytes.
    pub payload: &'a [u8],
    /// Byte offset of the payload within the container image.
    pub payload_offset: usize,
}

/// Collects a codec's v2 payload: a small metadata blob plus the borrowed
/// `u64` word frames, which [`encode_container_v2`] lays out with 8-byte
/// alignment. Filled in by [`crate::DynFilter::write_payload_v2`].
#[derive(Default)]
pub struct FrameWriter<'a> {
    meta: Vec<u8>,
    frames: Vec<&'a [u64]>,
}

impl<'a> FrameWriter<'a> {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The metadata blob (scalars, ids, seeds — everything that is not
    /// bulk words). Codecs append to it directly.
    pub fn meta(&mut self) -> &mut Vec<u8> {
        &mut self.meta
    }

    /// Registers a word frame. Frames are laid out in registration order,
    /// each starting on an 8-byte boundary of the final image.
    pub fn frame(&mut self, words: &'a [u64]) {
        self.frames.push(words);
    }
}

/// One entry of a v2 frame table: where a word frame sits inside the
/// payload and how many `u64` words it spans. Surfaced by
/// [`frame_table`] so `habf inspect` can print the layout for operators
/// to verify alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameEntry {
    /// Byte offset of the frame relative to the payload start (always a
    /// multiple of 8 in a well-formed image).
    pub offset: usize,
    /// Frame length in `u64` words.
    pub words: usize,
}

/// Appends a **v2** container for `id` with the metadata and word frames
/// collected in `fw`, padding so the payload and every frame start on an
/// 8-byte boundary of the image.
///
/// # Panics
/// Panics if `id` is empty, longer than 64 bytes, or not ASCII (registry
/// ids are short ASCII slugs by construction), or on more than
/// `MAX_FRAMES` frames (unreachable for registered codecs).
pub fn encode_container_v2(id: &str, fw: &FrameWriter<'_>, out: &mut Vec<u8>) {
    assert!(
        !id.is_empty() && id.len() <= MAX_ID_LEN && id.is_ascii(),
        "filter id must be 1..=64 ASCII bytes"
    );
    assert!(fw.frames.len() <= MAX_FRAMES, "frame table overflow");
    // Payload layout (all offsets relative to the payload start, which the
    // header pad places on an 8-byte boundary of the image).
    let meta_end = 8 + fw.meta.len();
    let table_off = meta_end.next_multiple_of(8);
    let mut cursor = table_off + 8 + 16 * fw.frames.len();
    debug_assert_eq!(cursor % 8, 0);
    let entries: Vec<(u64, u64)> = fw
        .frames
        .iter()
        .map(|f| {
            let e = (cursor as u64, f.len() as u64);
            cursor += f.len() * 8;
            e
        })
        .collect();
    let payload_len = cursor;

    let header_len = 14 + id.len();
    let header_pad = header_len.next_multiple_of(8) - header_len;
    out.reserve(header_len + header_pad + payload_len);
    out.extend_from_slice(CONTAINER_MAGIC);
    out.push(CONTAINER_VERSION);
    out.push(id.len() as u8);
    out.extend_from_slice(id.as_bytes());
    out.extend_from_slice(&(payload_len as u64).to_le_bytes());
    out.extend_from_slice(&[0u8; 8][..header_pad]);

    let payload_start = out.len();
    out.extend_from_slice(&(fw.meta.len() as u64).to_le_bytes());
    out.extend_from_slice(&fw.meta);
    out.extend_from_slice(&[0u8; 8][..table_off - meta_end]);
    out.extend_from_slice(&(fw.frames.len() as u64).to_le_bytes());
    for (off, words) in &entries {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&words.to_le_bytes());
    }
    for frame in &fw.frames {
        for w in *frame {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    debug_assert_eq!(out.len() - payload_start, payload_len);
    debug_assert_eq!(payload_start % 8, 0);
}

/// Splits a container image (v1 or v2) into its header and payload bytes.
///
/// # Errors
/// Returns [`PersistError::BadMagic`] when the buffer is not a container,
/// [`PersistError::BadVersion`] on an unknown envelope version, and
/// [`PersistError::Truncated`] / [`PersistError::Corrupt`] on any length
/// inconsistency. The payload is *not* validated here — that is the
/// codec's job (for v2, [`parse_v2_payload`]).
pub fn decode_container(buf: &[u8]) -> Result<DecodedContainer<'_>, PersistError> {
    let mut r = Reader::new(buf);
    if r.bytes(4)? != CONTAINER_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u8()?;
    if version != CONTAINER_VERSION && version != crate::compat::CONTAINER_VERSION_V1 {
        return Err(PersistError::BadVersion(version));
    }
    let id_len = usize::from(r.u8()?);
    if id_len == 0 || id_len > MAX_ID_LEN {
        return Err(PersistError::Corrupt("filter id length out of range"));
    }
    let id_bytes = r.bytes(id_len)?;
    let id = std::str::from_utf8(id_bytes)
        .map_err(|_| PersistError::Corrupt("filter id is not ASCII"))?;
    if !id.is_ascii() {
        return Err(PersistError::Corrupt("filter id is not ASCII"));
    }
    let payload_len = r.u64()?;
    let payload_len = usize::try_from(payload_len).map_err(|_| PersistError::Truncated)?;
    if version == CONTAINER_VERSION {
        // The v2 header pads to the next 8-byte boundary so the payload
        // (and every frame in it) lands word-aligned in the image.
        // `-len mod 8` is the distance to that boundary.
        let header_len = 14usize.saturating_add(id_len);
        let pad = header_len.wrapping_neg() & 7;
        if r.bytes(pad)?.iter().any(|&b| b != 0) {
            return Err(PersistError::Corrupt("header padding must be zero"));
        }
    }
    let payload_offset = r.pos;
    let payload = r.bytes(payload_len)?;
    r.finish()?;
    Ok(DecodedContainer {
        header: ContainerHeader {
            id: id.to_string(),
            version,
        },
        payload,
        payload_offset,
    })
}

/// Parses a v2 payload into its metadata blob and validated frame table.
///
/// # Errors
/// [`PersistError::Misaligned`] for a frame offset that is not a multiple
/// of 8, [`PersistError::Truncated`] / [`PersistError::Corrupt`] for any
/// other inconsistency (non-contiguous frames, trailing bytes, oversized
/// table).
pub fn parse_v2_payload(payload: &[u8]) -> Result<(&[u8], Vec<FrameEntry>), PersistError> {
    let mut r = Reader::new(payload);
    let meta_len = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    let meta = r.bytes(meta_len)?;
    // `-len mod 8` is the distance to the next 8-byte boundary.
    let meta_end = 8usize.saturating_add(meta_len);
    let pad = meta_end.wrapping_neg() & 7;
    if r.bytes(pad)?.iter().any(|&b| b != 0) {
        return Err(PersistError::Corrupt("meta padding must be zero"));
    }
    let nframes = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    if nframes > MAX_FRAMES {
        return Err(PersistError::Corrupt("frame count out of range"));
    }
    let table_end = meta_end
        .checked_add(pad)
        .and_then(|v| v.checked_add(8))
        .and_then(|v| v.checked_add(nframes.checked_mul(16)?))
        .ok_or(PersistError::Truncated)?;
    let mut entries = Vec::with_capacity(nframes);
    let mut prev_end = table_end;
    for _ in 0..nframes {
        let offset = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
        let words = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
        if offset % 8 != 0 {
            return Err(PersistError::Misaligned);
        }
        let end = offset
            .checked_add(words.checked_mul(8).ok_or(PersistError::Truncated)?)
            .ok_or(PersistError::Truncated)?;
        // Frames are contiguous from the table end — encodings are
        // canonical, so two distinct byte images can never decode to the
        // same filter (a gap would be unvalidated smuggled bytes; an
        // overlap would alias frames).
        if offset != prev_end {
            return Err(PersistError::Corrupt("word frames must be contiguous"));
        }
        if end > payload.len() {
            return Err(PersistError::Truncated);
        }
        prev_end = end;
        entries.push(FrameEntry { offset, words });
    }
    if prev_end != payload.len() {
        return Err(PersistError::Corrupt("trailing payload bytes"));
    }
    Ok((meta, entries))
}

/// The v2 frame table of a container image, with the payload's byte
/// offset inside the image — `None` for v1 containers and the legacy
/// formats (which have no frame table). `habf inspect` prints this so
/// operators can verify every frame is 8-aligned.
///
/// # Errors
/// Propagates header/payload validation errors for container inputs.
pub fn frame_table(buf: &[u8]) -> Result<Option<(usize, Vec<FrameEntry>)>, PersistError> {
    if buf.len() < 5 || buf.get(..4).is_none_or(|magic| magic != CONTAINER_MAGIC) {
        return Ok(None);
    }
    let decoded = decode_container(buf)?;
    if decoded.header.version != CONTAINER_VERSION {
        return Ok(None);
    }
    let (_, entries) = parse_v2_payload(decoded.payload)?;
    Ok(Some((decoded.payload_offset, entries)))
}

/// Hands a v2 payload's word frames to a codec, either **copying** them
/// out of a borrowed buffer or handing back **zero-copy views** into a
/// shared [`ImageBytes`] (the [`crate::registry::load_shared`] /
/// [`crate::registry::load_mmap`] path). Codecs call
/// [`FrameSource::next_words`] once per frame, in frame order, with the
/// word count their metadata implies — a mismatch is a typed error, so a
/// corrupt header can never mis-slice the image.
pub struct FrameSource<'a> {
    entries: Vec<FrameEntry>,
    next: usize,
    backing: FrameBacking<'a>,
}

/// The checked byte range `[start, start + words * 8)` of a frame within
/// `buf` — bounds- and overflow-validated so a hostile frame table can
/// never mis-slice.
fn frame_range(buf: &[u8], start: usize, words: usize) -> Result<&[u8], PersistError> {
    let len = words.checked_mul(8).ok_or(PersistError::Truncated)?;
    let end = start.checked_add(len).ok_or(PersistError::Truncated)?;
    buf.get(start..end).ok_or(PersistError::Truncated)
}

enum FrameBacking<'a> {
    /// Decode by copying from a borrowed payload (the plain
    /// [`crate::registry::load`] path).
    Borrowed { payload: &'a [u8] },
    /// Serve views into a shared image; `payload_offset` locates the
    /// payload inside it.
    Shared {
        image: Arc<ImageBytes>,
        payload_offset: usize,
    },
}

impl<'a> FrameSource<'a> {
    pub(crate) fn borrowed(payload: &'a [u8], entries: Vec<FrameEntry>) -> Self {
        Self {
            entries,
            next: 0,
            backing: FrameBacking::Borrowed { payload },
        }
    }

    pub(crate) fn shared(
        image: Arc<ImageBytes>,
        payload_offset: usize,
        entries: Vec<FrameEntry>,
    ) -> Self {
        Self {
            entries,
            next: 0,
            backing: FrameBacking::Shared {
                image,
                payload_offset,
            },
        }
    }

    /// Takes the next frame as a word store, validating it spans exactly
    /// `expect_words` words.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] on a missing frame or a word-count
    /// mismatch; [`PersistError::Misaligned`] when a shared view cannot
    /// be placed on an 8-byte boundary.
    pub fn next_words(&mut self, expect_words: usize) -> Result<Words, PersistError> {
        let entry = *self
            .entries
            .get(self.next)
            .ok_or(PersistError::Corrupt("missing word frame"))?;
        self.next = self.next.saturating_add(1);
        if entry.words != expect_words {
            return Err(PersistError::Corrupt("frame size mismatch"));
        }
        match &self.backing {
            FrameBacking::Borrowed { payload } => {
                let raw = frame_range(payload, entry.offset, entry.words)?;
                Ok(Words::from(copy_words(raw)))
            }
            FrameBacking::Shared {
                image,
                payload_offset,
            } => {
                let byte_off = payload_offset
                    .checked_add(entry.offset)
                    .ok_or(PersistError::Truncated)?;
                if cfg!(target_endian = "little") {
                    SharedWords::new(Arc::clone(image), byte_off, entry.words)
                        .map(Words::from)
                        .ok_or(PersistError::Misaligned)
                } else {
                    // Big-endian hosts cannot view LE words in place; fall
                    // back to the copying decode.
                    let raw = frame_range(image.as_bytes(), byte_off, entry.words)?;
                    Ok(Words::from(copy_words(raw)))
                }
            }
        }
    }

    /// Asserts every frame was consumed — a codec that reads fewer frames
    /// than the table holds silently ignored image bytes.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] when frames remain.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.next == self.entries.len() {
            Ok(())
        } else {
            Err(PersistError::Corrupt("unconsumed word frames"))
        }
    }
}

/// The fields of one HABF-family filter (`Habf`, `FHabf`,
/// `BlockedHabf`), borrowed for writing.
pub(crate) struct Image<'a> {
    pub kind: u8,
    pub k: usize,
    pub cell_bits: u32,
    pub h0: Vec<HashId>,
    pub family: usize,
    pub sim_seed: u64,
    pub bloom: &'a BitVec,
    pub he: &'a HashExpressor,
}

/// One decoded HABF-family filter, ready for the type's `from_decoded`.
pub(crate) struct Decoded {
    pub h0: Vec<HashId>,
    pub family: usize,
    pub sim_seed: u64,
    pub bloom: BitVec,
    pub he: HashExpressor,
}

/// Crate-internal hooks the sharded v2 codec needs from its shard type:
/// expose the persist image for writing, rebuild from a decode. Bounds on
/// registry impls only — sealed to `Habf` / `FHabf` by visibility.
pub(crate) trait V2Shard: Sized {
    fn v2_image(&self) -> Image<'_>;
    fn from_decoded(d: Decoded) -> Self;
}

/// Writes the v2 metadata block of one HABF-family image (every field
/// except the bulk words, which go into frames):
///
/// ```text
/// kind u8 | k u8 | cell_bits u8 | h0_len u8 | h0 bytes…
/// family u64 | sim_seed u64 | m u64 | omega u64 | inserted u64
/// ```
pub(crate) fn encode_v2_meta(img: &Image<'_>, out: &mut Vec<u8>) {
    out.push(img.kind);
    out.push(img.k as u8);
    out.push(img.cell_bits as u8);
    out.push(img.h0.len() as u8);
    out.extend_from_slice(&img.h0);
    out.extend_from_slice(&(img.family as u64).to_le_bytes());
    out.extend_from_slice(&img.sim_seed.to_le_bytes());
    out.extend_from_slice(&(img.bloom.len() as u64).to_le_bytes());
    out.extend_from_slice(&(img.he.omega() as u64).to_le_bytes());
    out.extend_from_slice(&(img.he.inserted() as u64).to_le_bytes());
}

/// Registers the two word frames of one HABF-family image (bloom bits,
/// then expressor cells) in write order.
pub(crate) fn push_v2_frames<'a>(img: &Image<'a>, fw: &mut FrameWriter<'a>) {
    fw.frame(img.bloom.words());
    fw.frame(img.he.cells().words());
}

/// Decodes one HABF-family v2 metadata block (written by
/// [`encode_v2_meta`]) and pulls its two word frames from `frames`.
pub(crate) fn decode_v2_meta(
    r: &mut Reader<'_>,
    expect_kind: u8,
    frames: &mut FrameSource<'_>,
) -> Result<Decoded, PersistError> {
    decode_habf_fields(r, expect_kind, |_, n| frames.next_words(n))
}

/// Decodes and range-checks the HABF-family fields in the order both the
/// v2 metadata block and the legacy `HABF` image store them. `words`
/// supplies each word array once its length is known — the bloom bits
/// right after `m`, the expressor cells after `inserted` — from a v2
/// frame or inline from `r` (the legacy image).
pub(crate) fn decode_habf_fields<'a>(
    r: &mut Reader<'a>,
    expect_kind: u8,
    mut words: impl FnMut(&mut Reader<'a>, usize) -> Result<Words, PersistError>,
) -> Result<Decoded, PersistError> {
    let kind = r.u8()?;
    if kind != expect_kind {
        return Err(PersistError::WrongKind);
    }
    let k = usize::from(r.u8()?);
    let cell_bits = u32::from(r.u8()?);
    if k == 0 || k > crate::MAX_K {
        return Err(PersistError::Corrupt("k out of range"));
    }
    if !(2..=16).contains(&cell_bits) {
        return Err(PersistError::Corrupt("cell width out of range"));
    }
    let h0_len = usize::from(r.u8()?);
    if h0_len != k {
        return Err(PersistError::Corrupt("H0 length differs from k"));
    }
    let h0: Vec<HashId> = r.bytes(h0_len)?.to_vec();
    let family = r.count()?;
    // cell_bits ∈ 2..=16 (checked above); `checked_shl` keeps a corrupt
    // width from wrapping the id-space bound.
    let max_id = 1usize
        .checked_shl(cell_bits.saturating_sub(1))
        .and_then(|v| v.checked_sub(1))
        .ok_or(PersistError::Corrupt("cell width out of range"))?;
    if family == 0 || family > max_id {
        return Err(PersistError::Corrupt("family size out of id space"));
    }
    if h0.iter().any(|&id| id == 0 || usize::from(id) > family) {
        return Err(PersistError::Corrupt("H0 id out of family"));
    }
    let sim_seed = r.u64()?;
    let m = r.count()?;
    if m == 0 {
        return Err(PersistError::Corrupt("empty Bloom array"));
    }
    let bloom = BitVec::from_store(words(r, m.div_ceil(64))?, m);
    let omega = r.count()?;
    if omega == 0 {
        return Err(PersistError::Corrupt("empty HashExpressor"));
    }
    let inserted = r.count()?;
    // Checked: a corrupt omega near usize::MAX must error, not overflow.
    let cell_word_count = omega
        .checked_mul(usize::try_from(cell_bits).unwrap_or(usize::MAX))
        .ok_or(PersistError::Truncated)?
        .div_ceil(64);
    let cells = PackedCells::from_store(words(r, cell_word_count)?, omega, cell_bits);
    Ok(Decoded {
        h0,
        family,
        sim_seed,
        bloom,
        he: HashExpressor::from_parts(cells, k, inserted),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_container_layout_is_aligned_and_roundtrips() {
        let mut fw = FrameWriter::new();
        fw.meta().extend_from_slice(b"meta-blob");
        let frame_a: Vec<u64> = (0..13).collect();
        let frame_b: Vec<u64> = vec![u64::MAX; 3];
        fw.frame(&frame_a);
        fw.frame(&frame_b);
        let mut image = Vec::new();
        encode_container_v2("habf", &fw, &mut image);

        let decoded = decode_container(&image).expect("v2 decodes");
        assert_eq!(decoded.header.id, "habf");
        assert_eq!(decoded.header.version, CONTAINER_VERSION);
        assert_eq!(decoded.payload_offset % 8, 0, "payload must be aligned");

        let (meta, entries) = parse_v2_payload(decoded.payload).expect("payload parses");
        assert_eq!(meta, b"meta-blob");
        assert_eq!(entries.len(), 2);
        for e in &entries {
            assert_eq!(e.offset % 8, 0, "frame at {e:?} misaligned");
            assert_eq!(
                (decoded.payload_offset + e.offset) % 8,
                0,
                "frame not aligned in the image"
            );
        }
        assert_eq!(entries[0].words, 13);
        assert_eq!(entries[1].words, 3);

        // The borrowed frame source hands the words back verbatim.
        let mut source = FrameSource::borrowed(decoded.payload, entries.clone());
        assert_eq!(
            source.next_words(13).expect("frame a").as_ref(),
            &frame_a[..]
        );
        assert_eq!(
            source.next_words(3).expect("frame b").as_ref(),
            &frame_b[..]
        );
        source.finish().expect("all consumed");

        // The frame table is inspectable without decoding the filter.
        let (off, table) = frame_table(&image).expect("table parses").expect("v2");
        assert_eq!(off, decoded.payload_offset);
        assert_eq!(table, entries);
    }

    #[test]
    fn v2_frame_validation_is_typed() {
        let mut fw = FrameWriter::new();
        fw.meta().push(7);
        let words: Vec<u64> = vec![1, 2, 3, 4];
        fw.frame(&words);
        let mut image = Vec::new();
        encode_container_v2("habf", &fw, &mut image);
        let decoded = decode_container(&image).expect("v2 decodes");
        let table_pos = decoded.payload_offset + 8 + 1 + 7 + 8; // meta_len|meta|pad|nframes

        // A misaligned frame offset is the dedicated typed error.
        let mut bad = image.clone();
        bad[table_pos] = bad[table_pos].wrapping_add(4);
        let d = decode_container(&bad).expect("envelope still fine");
        assert_eq!(
            parse_v2_payload(d.payload).err(),
            Some(PersistError::Misaligned)
        );

        // A frame torn off its canonical position (gap bytes would hide
        // between table and frame) is rejected even when aligned.
        let mut bad = image.clone();
        bad[table_pos] = bad[table_pos].wrapping_add(8);
        let d = decode_container(&bad).expect("envelope still fine");
        assert_eq!(
            parse_v2_payload(d.payload).err(),
            Some(PersistError::Corrupt("word frames must be contiguous"))
        );

        // A wrong expected word count is a typed mismatch, and unread
        // frames are flagged.
        let d = decode_container(&image).expect("pristine");
        let (_, entries) = parse_v2_payload(d.payload).expect("parses");
        let mut source = FrameSource::borrowed(d.payload, entries.clone());
        assert_eq!(
            source.next_words(5).err(),
            Some(PersistError::Corrupt("frame size mismatch"))
        );
        let source = FrameSource::borrowed(d.payload, entries);
        assert_eq!(
            source.finish().err(),
            Some(PersistError::Corrupt("unconsumed word frames"))
        );

        // Non-zero header padding is rejected (canonical encodings only).
        let mut bad = image;
        bad[14 + "habf".len()] = 1; // first pad byte after the 18-byte header
        assert_eq!(
            decode_container(&bad).err(),
            Some(PersistError::Corrupt("header padding must be zero"))
        );
    }

    #[test]
    fn v1_containers_still_decode() {
        // magic | version 1 | id_len | id | payload_len | payload, with no
        // alignment pad (nothing writes this envelope any more).
        let mut image = b"HABC\x01\x05bloom".to_vec();
        image.extend_from_slice(&14u64.to_le_bytes());
        image.extend_from_slice(b"opaque-payload");
        let decoded = decode_container(&image).expect("v1 decodes");
        assert_eq!(decoded.header.id, "bloom");
        assert_eq!(decoded.header.version, 1);
        assert_eq!(decoded.payload, b"opaque-payload");
        assert_eq!(
            frame_table(&image).expect("no error"),
            None,
            "v1 has no table"
        );
    }
}
