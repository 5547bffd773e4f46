//! The compressed (v4) shard layout, every byte of it: the block header and
//! the delta/varint edge frames it prefixes.
//!
//! A `.kbkz` file is one 48-byte little-endian header followed by the
//! payload.  `BlockHeader` is the only code that knows the header layout —
//! it builds the placeholder a sink stages, the patch that seals it, and
//! reads and validates it back:
//!
//! | offset | width | field | written by |
//! |-------:|------:|-------|------------|
//! | 0  | 4 | magic ([`BLOCK_MAGIC`]) | placeholder |
//! | 4  | 4 | version ([`BLOCK_VERSION_COMPRESSED`]) | placeholder |
//! | 8  | 8 | `nrows` | placeholder |
//! | 16 | 8 | `ncols` | placeholder |
//! | 24 | 8 | `nnz`, edges in the payload | seal (zero until then) |
//! | 32 | 8 | `payload_len`, bytes after the header | seal (zero until then) |
//! | 40 | 8 | FNV-1a checksum of the payload | seal (zero until then) |
//!
//! The payload is a sequence of self-describing **frames**:
//!
//! ```text
//! u32 edge_count   u32 byte_len   byte_len bytes of varint deltas
//! ```
//!
//! Within a frame both endpoints are delta-coded against the previous edge
//! (starting from `(0, 0)`), the wrapping difference is zigzag-mapped so
//! small negative jumps stay small, and each mapped delta is LEB128
//! varint-coded.  Generated edge streams have strong endpoint locality —
//! the Kronecker expansion walks `B` in CSC order and R-MAT is skewed
//! toward low vertex ids — so most deltas fit one or two bytes and a shard
//! shrinks to a fraction of 16 bytes per edge.  Every frame resets the delta
//! state, so a decoder can resume at any frame boundary and a corrupt frame
//! is contained.
//!
//! This module is pure byte arithmetic: it opens no file (shard files are
//! owned by the sinks in [`crate::sink`] and read by [`crate::replay`]),
//! allocates nothing beyond the caller's buffers, and returns typed
//! [`SparseError`] results on every malformed input — a header that is not
//! this layout or disagrees with the file's length, truncated varints,
//! overlong encodings, trailing bytes, and frame counts that disagree with
//! the payload all fail loudly instead of decoding garbage.
//!
//! # Where the checksum is computed
//!
//! A shard's FNV-1a checksum covers every frame byte, and FNV-1a is one
//! serial xor→multiply chain: about four cycles a byte that occupy a
//! single multiplier and leave the rest of the core idle.  Varint coding is
//! the opposite — branchy, many cheap independent operations.  Run one
//! after the other over a frame, neither can hide behind the other; run in
//! one loop, the out-of-order core overlaps them and the checksum is
//! nearly free.  So there is one decode loop and one encode loop, each
//! generic over a private byte observer that is shown every byte as the
//! loop loads or stores it: `()` for the plain [`decode_frame`] /
//! [`encode_frame`], [`Fnv1a`] for [`decode_frame_checksummed`] /
//! [`encode_frame_checksummed`], which replay ([`crate::replay`]) and the
//! compressed sink ([`crate::sink::CompressedShardSink`]) call.  The
//! observer of a decode is shown exactly the payload on every outcome,
//! success or failure — see [`decode_frame_checksummed`].

use std::io::Read;

use kron_sparse::SparseError;

/// Magic bytes opening a binary block file.
pub const BLOCK_MAGIC: [u8; 4] = *b"KBLK";
/// Version of the binary block layout this crate writes and reads: a
/// delta/varint-compressed payload behind a header carrying the edge count,
/// the payload byte length — with variable-width frames the edge count does
/// not determine the file size, so truncation detection needs the length
/// spelled out — and the payload checksum.
pub const BLOCK_VERSION_COMPRESSED: u32 = 4;
/// Size in bytes of the [`BLOCK_VERSION_COMPRESSED`] header (see the module
/// docs for the layout).
pub const BLOCK_HEADER_COMPRESSED_LEN: u64 = 4 + 4 + 8 + 8 + 8 + 8 + 8;

/// What every rejection of a raw-binary shard or run says, whether it is
/// met as a block version in a file or as a sink label in a manifest or
/// journal.
pub(crate) const RAW_BINARY_RETIRED: &str =
    "raw-binary shards (block versions 1-3) are no longer read; regenerate the directory \
     from the design and seeds in its manifest.json with write_compressed";

/// Streaming 64-bit FNV-1a hasher — the checksum every shard carries.
///
/// FNV-1a is not cryptographic; it is a fast, dependency-free integrity
/// check that reliably catches the corruption modes a crash or a bad disk
/// produces (flipped bytes, truncation combined with the length check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Start a fresh hash.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Absorb a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = *self;
        for &byte in bytes {
            hash.absorb(byte);
        }
        *self = hash;
    }

    /// Absorb one byte — the step the codec and TSV loops run on each byte
    /// as they produce or consume it, so the serial xor→multiply chain
    /// hides behind their work instead of costing a second pass.
    #[inline(always)]
    pub(crate) fn absorb(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
    }

    /// The hash of everything absorbed so far (non-consuming — more bytes
    /// may still be absorbed afterwards).
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Hash a complete byte slice in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.update(bytes);
        hasher.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The validated header of a compressed block file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockHeader {
    /// Declared number of rows.
    pub nrows: u64,
    /// Declared number of columns.
    pub ncols: u64,
    /// Declared number of edges in the payload.
    pub nnz: u64,
    /// Declared payload byte length.
    pub payload_len: u64,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
}

impl BlockHeader {
    /// The header a sink stages before its first frame: magic, version and
    /// dimensions, with the three fields only known at the end left zero
    /// for [`seal`](Self::seal) to fill in.
    pub(crate) fn placeholder(
        nrows: u64,
        ncols: u64,
    ) -> [u8; BLOCK_HEADER_COMPRESSED_LEN as usize] {
        let mut bytes = [0u8; BLOCK_HEADER_COMPRESSED_LEN as usize];
        bytes[0..4].copy_from_slice(&BLOCK_MAGIC);
        bytes[4..8].copy_from_slice(&BLOCK_VERSION_COMPRESSED.to_le_bytes());
        bytes[8..16].copy_from_slice(&nrows.to_le_bytes());
        bytes[16..24].copy_from_slice(&ncols.to_le_bytes());
        bytes
    }

    /// The patch that completes a [`placeholder`](Self::placeholder) once
    /// the payload is written: the file offset to overwrite at, and the
    /// bytes of the three trailing fields.
    pub(crate) fn seal(nnz: u64, payload_len: u64, checksum: u64) -> (u64, [u8; 24]) {
        let mut bytes = [0u8; 24];
        bytes[0..8].copy_from_slice(&nnz.to_le_bytes());
        bytes[8..16].copy_from_slice(&payload_len.to_le_bytes());
        bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
        (BLOCK_HEADER_COMPRESSED_LEN - 24, bytes)
    }

    /// Read and validate a header — magic, version, and the declared payload
    /// length against the actual `file_len` — leaving `reader` at the first
    /// frame, so a corrupt header fails cleanly before anything is streamed
    /// from it.  `nnz` is only a claim until the frames have been decoded
    /// and counted; nothing may be sized from it.
    pub(crate) fn read(file_len: u64, reader: &mut impl Read) -> Result<Self, SparseError> {
        let parse_error = |message: String| SparseError::Parse { line: 0, message };
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if magic != BLOCK_MAGIC {
            return Err(parse_error(format!(
                "bad block magic {magic:?}, expected {BLOCK_MAGIC:?}"
            )));
        }
        let mut version = [0u8; 4];
        reader.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != BLOCK_VERSION_COMPRESSED {
            let retired = match version {
                1..=3 => format!(": {RAW_BINARY_RETIRED}"),
                _ => String::new(),
            };
            return Err(parse_error(format!(
                "unsupported block version {version}{retired}"
            )));
        }
        let mut field = || -> Result<u64, SparseError> {
            let mut bytes = [0u8; 8];
            reader.read_exact(&mut bytes)?;
            Ok(u64::from_le_bytes(bytes))
        };
        let header = BlockHeader {
            nrows: field()?,
            ncols: field()?,
            nnz: field()?,
            payload_len: field()?,
            checksum: field()?,
        };
        let (nnz, payload_len) = (header.nnz, header.payload_len);
        let expected_len =
            payload_len
                .checked_add(BLOCK_HEADER_COMPRESSED_LEN)
                .ok_or(SparseError::TooLarge {
                    what: "compressed block payload length",
                    requested: payload_len as u128,
                })?;
        if expected_len != file_len {
            return Err(parse_error(format!(
                "binary block declares {nnz} entries ({expected_len} bytes) but the file is {file_len} bytes"
            )));
        }
        Ok(header)
    }
}

/// Edges per full frame the compressed sink emits (the last frame of a
/// shard holds the remainder).  Frames are sized so a decoder's
/// edge-and-byte buffers stay comfortably in cache-friendly territory
/// (≤ 1 MiB of pairs) while the per-frame header overhead stays
/// negligible.
pub const FRAME_EDGES: usize = 1 << 16;

/// Bytes of the `[edge_count: u32][byte_len: u32]` frame header.
pub const FRAME_HEADER_LEN: usize = 8;

/// What rides along the codec loops: it is shown every byte the loop
/// consumes or produces, once, in stream order.  `()` watches nothing and
/// compiles away (the plain [`decode_frame`] / [`encode_frame`]);
/// [`Fnv1a`] is the shard checksum (the `*_checksummed` entry points).
/// `Copy` so a loop can keep its observer in a register and store it back
/// once.
trait ByteObserver: Copy {
    fn byte(&mut self, byte: u8);
    fn bytes(&mut self, bytes: &[u8]);
}

impl ByteObserver for () {
    #[inline(always)]
    fn byte(&mut self, _byte: u8) {}
    #[inline(always)]
    fn bytes(&mut self, _bytes: &[u8]) {}
}

impl ByteObserver for Fnv1a {
    #[inline(always)]
    fn byte(&mut self, byte: u8) {
        self.absorb(byte);
    }
    #[inline(always)]
    fn bytes(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Map a signed delta into the unsigned varint space so small deltas of
/// either sign stay small: `0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …`.
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Invert [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Bytes [`write_varint`] spends on `value`: one per started group of 7
/// significant bits.
#[inline]
fn varint_len(value: u64) -> usize {
    (70 - (value | 1).leading_zeros() as usize) / 7
}

/// Longest varint: ten 7-bit groups hold a `u64`.
const VARINT_MAX: usize = 10;

/// Append `value` as an LEB128 varint (7 bits per byte, high bit =
/// continuation): 1 byte for values below 128, at most 10 for `u64::MAX`.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, value: u64) {
    let mut bytes = [0u8; VARINT_MAX];
    let len = put_varint(&mut bytes, 0, value, &mut ());
    out.extend_from_slice(&bytes[..len]);
}

/// The one varint writer: `value` goes to `buffer[at..]`, every byte written
/// is shown to `observer`, and the end offset comes back.
#[inline(always)]
fn put_varint<O: ByteObserver>(
    buffer: &mut [u8],
    mut at: usize,
    mut value: u64,
    observer: &mut O,
) -> usize {
    while value >= 0x80 {
        let byte = (value as u8) | 0x80;
        observer.byte(byte);
        buffer[at] = byte;
        at += 1;
        value >>= 7;
    }
    observer.byte(value as u8);
    buffer[at] = value as u8;
    at + 1
}

/// Decode one LEB128 varint from `bytes` starting at `*pos`, advancing
/// `*pos` past it.  Fails on truncation (the slice ends mid-varint) and on
/// non-canonical encodings that would overflow 64 bits.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, SparseError> {
    take_varint(bytes, pos, &mut ())
}

/// The one varint reader: `observer` is shown exactly the bytes `*pos`
/// advances over, also when the varint turns out malformed.
#[inline(always)]
fn take_varint<O: ByteObserver>(
    bytes: &[u8],
    pos: &mut usize,
    observer: &mut O,
) -> Result<u64, SparseError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or_else(|| SparseError::Parse {
            line: 0,
            message: format!("varint truncated at byte offset {}", *pos),
        })?;
        observer.byte(byte);
        *pos += 1;
        let payload = u64::from(byte & 0x7f);
        if shift == 63 && payload > 1 {
            return Err(varint_overflow(*pos));
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(varint_overflow(*pos));
        }
    }
}

fn varint_overflow(pos: usize) -> SparseError {
    SparseError::Parse {
        line: 0,
        message: format!("varint overflows u64 at byte offset {pos}"),
    }
}

/// Append one complete frame — header and delta-coded body — for `edges`
/// (at most `u32::MAX` of them; the sinks never exceed [`FRAME_EDGES`]).
/// The frame's byte length is patched into the header after the body is
/// encoded, so encoding is single-pass.
pub fn encode_frame(edges: &[(u64, u64)], out: &mut Vec<u8>) {
    debug_assert!(edges.len() <= u32::MAX as usize, "frame too large");
    let header = out.len();
    out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // byte_len, patched below
    let body = out.len();
    encode_body(edges, out, &mut ());
    let byte_len = (out.len() - body) as u32;
    out[header + 4..header + 8].copy_from_slice(&byte_len.to_le_bytes());
}

/// [`encode_frame`] with the shard checksum riding along (see the module
/// docs for why): `hasher` absorbs exactly the bytes appended to `out`, in
/// order, inside the encode loop.
///
/// The header precedes the body in hash order and holds the body's length,
/// so the body is sized first (a branch-free sum of varint lengths); that
/// also lets `out` grow once, by exactly the frame.
pub fn encode_frame_checksummed(edges: &[(u64, u64)], out: &mut Vec<u8>, hasher: &mut Fnv1a) {
    debug_assert!(edges.len() <= u32::MAX as usize, "frame too large");
    // No state carried from edge to edge but the sum, so this vectorises.
    let delta_len = |from: (u64, u64), to: (u64, u64)| {
        varint_len(zigzag_encode(to.0.wrapping_sub(from.0) as i64))
            + varint_len(zigzag_encode(to.1.wrapping_sub(from.1) as i64))
    };
    let byte_len = edges.first().map_or(0, |&first| delta_len((0, 0), first))
        + edges
            .windows(2)
            .map(|pair| delta_len(pair[0], pair[1]))
            .sum::<usize>();
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&(edges.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&(byte_len as u32).to_le_bytes());
    hasher.update(&header);
    out.reserve(FRAME_HEADER_LEN + byte_len);
    out.extend_from_slice(&header);
    let body = out.len();
    encode_body(edges, out, hasher);
    debug_assert_eq!(out.len() - body, byte_len, "sized and encoded lengths");
}

/// The one encode body: append the delta/zigzag/varint coding of `edges`
/// (no header), showing `observer` every byte appended.  Bytes are staged
/// in a small stack tile, so the per-byte store is an array write rather
/// than a `Vec::push` with its capacity check and length update.
#[inline(always)]
fn encode_body<O: ByteObserver>(edges: &[(u64, u64)], out: &mut Vec<u8>, observer: &mut O) {
    const TILE: usize = 4096;
    let mut tile = [0u8; TILE + 2 * VARINT_MAX];
    let mut filled = 0usize;
    let mut seen = *observer;
    let (mut prev_row, mut prev_col) = (0u64, 0u64);
    for &(row, col) in edges {
        let row_delta = zigzag_encode(row.wrapping_sub(prev_row) as i64);
        let col_delta = zigzag_encode(col.wrapping_sub(prev_col) as i64);
        filled = put_varint(&mut tile, filled, row_delta, &mut seen);
        filled = put_varint(&mut tile, filled, col_delta, &mut seen);
        prev_row = row;
        prev_col = col;
        if filled >= TILE {
            out.extend_from_slice(&tile[..filled]);
            filled = 0;
        }
    }
    out.extend_from_slice(&tile[..filled]);
    *observer = seen;
}

/// Decode one frame body of exactly `count` edges from `payload` into
/// `out` (cleared first).  The payload must be consumed exactly: trailing
/// bytes, truncation, and counts the bytes cannot hold are all typed
/// errors, so a corrupt frame never decodes silently.
pub fn decode_frame(
    count: u32,
    payload: &[u8],
    out: &mut Vec<(u64, u64)>,
) -> Result<(), SparseError> {
    decode_body(count, payload, out, &mut ())
}

/// [`decode_frame`] with the shard checksum riding along (see the module
/// docs for why): the hash of each byte is taken as the decoder loads it,
/// so verification costs no second pass.
///
/// **Contract:** `hasher` absorbs exactly `payload` — all of it, once, in
/// order — on *every* outcome.  When decoding fails at some byte, the
/// undecoded remainder is absorbed before the error returns; a caller
/// deciding between the decode error and a checksum mismatch (replay
/// prefers the mismatch) reads the same finished hash either way.
pub fn decode_frame_checksummed(
    count: u32,
    payload: &[u8],
    out: &mut Vec<(u64, u64)>,
    hasher: &mut Fnv1a,
) -> Result<(), SparseError> {
    decode_body(count, payload, out, hasher)
}

/// The one decode body.  `observer` is shown exactly `payload` on every
/// outcome (see [`decode_frame_checksummed`]).
#[inline(always)]
fn decode_body<O: ByteObserver>(
    count: u32,
    payload: &[u8],
    out: &mut Vec<(u64, u64)>,
    observer: &mut O,
) -> Result<(), SparseError> {
    out.clear();
    // Every edge costs at least two bytes (two one-byte varints), so a
    // count the payload cannot possibly hold is rejected before any
    // allocation is sized from it.
    if (count as usize)
        .checked_mul(2)
        .is_none_or(|min| min > payload.len())
    {
        observer.bytes(payload);
        return Err(SparseError::Parse {
            line: 0,
            message: format!(
                "compressed frame declares {count} edges but holds only {} byte(s)",
                payload.len()
            ),
        });
    }
    out.reserve_exact(count as usize);
    let mut seen = *observer;
    let mut pos = 0usize;
    let mut edges = || -> Result<(), SparseError> {
        let (mut prev_row, mut prev_col) = (0u64, 0u64);
        for _ in 0..count {
            let row = take_varint(payload, &mut pos, &mut seen)?;
            let row = prev_row.wrapping_add(zigzag_decode(row) as u64);
            let col = take_varint(payload, &mut pos, &mut seen)?;
            let col = prev_col.wrapping_add(zigzag_decode(col) as u64);
            out.push((row, col));
            prev_row = row;
            prev_col = col;
        }
        Ok(())
    };
    let mut result = edges();
    if result.is_ok() && pos != payload.len() {
        result = Err(SparseError::Parse {
            line: 0,
            message: format!(
                "compressed frame has {} trailing byte(s) after {count} edges",
                payload.len() - pos
            ),
        });
    }
    // `pos` never passes the end, and everything before it has been seen.
    seen.bytes(&payload[pos..]);
    *observer = seen;
    result
}

/// Decode the `[edge_count][byte_len]` frame header from an exactly-8-byte
/// slice.
#[inline]
pub fn frame_header(bytes: &[u8; FRAME_HEADER_LEN]) -> (u32, u32) {
    let count = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let byte_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    (count, byte_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SplitMix64 output function — the test-local pseudo-random
    /// driver for the property-style round-trip sweeps (deterministic, so
    /// failures reproduce).
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A hasher that has already absorbed something, so "the hash rode
    /// along" is told apart from "the hash was restarted".
    fn primed() -> Fnv1a {
        let mut hasher = Fnv1a::new();
        hasher.update(b"bytes hashed before the frame");
        hasher
    }

    /// The fused encoder appends the plain encoder's bytes and leaves the
    /// hasher where a second pass over those bytes would.
    fn assert_fused_encode_is_encode_then_hash(edges: &[(u64, u64)]) {
        let mut plain = b"prefix".to_vec();
        encode_frame(edges, &mut plain);
        let mut fused = b"prefix".to_vec();
        let mut riding = primed();
        encode_frame_checksummed(edges, &mut fused, &mut riding);
        assert_eq!(fused, plain);
        let mut second_pass = primed();
        second_pass.update(&plain[b"prefix".len()..]);
        assert_eq!(riding, second_pass);
    }

    /// Every property a decode must have, on any `(count, payload)`: a typed
    /// error or exactly `count` edges (never a panic), no allocation sized
    /// beyond what the payload could hold, the hasher left having absorbed
    /// exactly `payload`, and the fused decoder agreeing with the plain one
    /// followed by a second hashing pass.
    fn assert_decode_contract(count: u32, payload: &[u8]) {
        let mut plain_out = Vec::new();
        let plain = decode_frame(count, payload, &mut plain_out);
        let mut fused_out = Vec::new();
        let mut riding = primed();
        let fused = decode_frame_checksummed(count, payload, &mut fused_out, &mut riding);
        let mut second_pass = primed();
        second_pass.update(payload);
        assert_eq!(
            riding, second_pass,
            "the hasher must absorb exactly the payload"
        );
        match (&plain, &fused) {
            (Ok(()), Ok(())) => {
                assert_eq!(fused_out, plain_out);
                assert_eq!(fused_out.len(), count as usize);
            }
            (Err(plain), Err(fused)) => assert_eq!(plain.to_string(), fused.to_string()),
            _ => panic!("plain {plain:?} but fused {fused:?}"),
        }
        for out in [&plain_out, &fused_out] {
            assert!(
                out.capacity() <= payload.len() / 2,
                "capacity {} sized beyond a {}-byte payload",
                out.capacity(),
                payload.len()
            );
        }
    }

    fn round_trip(edges: &[(u64, u64)]) {
        assert_fused_encode_is_encode_then_hash(edges);
        let mut bytes = Vec::new();
        encode_frame(edges, &mut bytes);
        let header: [u8; FRAME_HEADER_LEN] = bytes[..FRAME_HEADER_LEN].try_into().unwrap();
        let (count, byte_len) = frame_header(&header);
        assert_eq!(count as usize, edges.len());
        assert_eq!(byte_len as usize, bytes.len() - FRAME_HEADER_LEN);
        let mut decoded = Vec::new();
        decode_frame(count, &bytes[FRAME_HEADER_LEN..], &mut decoded).unwrap();
        assert_eq!(decoded, edges);
        assert_decode_contract(count, &bytes[FRAME_HEADER_LEN..]);
    }

    /// `len` edges drawn from one of the four magnitude regimes per edge,
    /// so consecutive deltas exercise every varint width and wrap.
    fn regime_edges(case: u64, len: usize) -> Vec<(u64, u64)> {
        (0..len)
            .map(|i| {
                let r = splitmix(case ^ (i as u64).wrapping_mul(0x9E37));
                let mask = match r % 4 {
                    0 => 0xFF,
                    1 => 0xFFFF,
                    2 => 0xFFFF_FFFF,
                    _ => u64::MAX,
                };
                (splitmix(r) & mask, splitmix(r ^ 1) & mask)
            })
            .collect()
    }

    #[test]
    fn zigzag_is_a_bijection_on_the_interesting_values() {
        for v in [0i64, 1, -1, 2, -2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes map to small codes (the point of the mapping).
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }

    #[test]
    fn varints_round_trip_across_every_length_class() {
        let mut values: Vec<u64> = vec![0, 1, 127, 128, 16_383, 16_384, u64::MAX];
        for shift in 0..64 {
            values.push(1u64 << shift);
            values.push((1u64 << shift).wrapping_sub(1));
        }
        for &value in &values {
            let mut bytes = Vec::new();
            write_varint(&mut bytes, value);
            assert!(bytes.len() <= 10);
            let mut pos = 0;
            assert_eq!(read_varint(&bytes, &mut pos).unwrap(), value);
            assert_eq!(pos, bytes.len());
        }
    }

    #[test]
    fn truncated_varints_fail_at_every_prefix() {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX);
        for cut in 0..bytes.len() {
            let mut pos = 0;
            let error = read_varint(&bytes[..cut], &mut pos).unwrap_err();
            assert!(
                error.to_string().contains("truncated"),
                "cut={cut}: {error}"
            );
        }
    }

    #[test]
    fn overlong_varints_are_rejected_not_wrapped() {
        // 10 continuation bytes followed by a terminator: would need 70 bits.
        let eleven = [0x80u8; 10]
            .iter()
            .copied()
            .chain(std::iter::once(0x01))
            .collect::<Vec<u8>>();
        let mut pos = 0;
        assert!(read_varint(&eleven, &mut pos).is_err());
        // A 10-byte encoding whose final byte carries more than u64's last
        // bit must fail too, not silently truncate.
        let mut overweight = vec![0xFFu8; 9];
        overweight.push(0x02);
        let mut pos = 0;
        assert!(read_varint(&overweight, &mut pos).is_err());
    }

    #[test]
    fn frames_round_trip_empty_single_and_max_delta_edges() {
        round_trip(&[]);
        round_trip(&[(0, 0)]);
        round_trip(&[(u64::MAX, u64::MAX)]);
        // Maximal wrapping deltas in both directions.
        round_trip(&[(u64::MAX, 0), (0, u64::MAX), (u64::MAX, 0)]);
        round_trip(&[(1, u64::MAX), (u64::MAX, 1), (0, 0), (u64::MAX, u64::MAX)]);
    }

    #[test]
    fn property_random_edge_lists_round_trip() {
        // Deterministic property sweep: 64 random frames across wildly
        // different magnitude regimes, including cross-regime jumps that
        // exercise every delta width.
        for case in 0..64u64 {
            round_trip(&regime_edges(case, (splitmix(case) % 200) as usize));
        }
        // Long enough that the encoder's staging tile fills and flushes
        // several times, at one byte and at ten bytes a varint.
        round_trip(&regime_edges(64, 3_000));
        round_trip(&(0..9_000u64).map(|i| (i / 7, i % 5)).collect::<Vec<_>>());
    }

    #[test]
    fn frame_counts_that_disagree_with_the_payload_fail() {
        let mut bytes = Vec::new();
        encode_frame(&[(5, 9), (6, 9)], &mut bytes);
        let payload = &bytes[FRAME_HEADER_LEN..];
        let mut out = Vec::new();
        // Fewer edges than encoded: trailing bytes.
        let error = decode_frame(1, payload, &mut out).unwrap_err();
        assert!(error.to_string().contains("trailing"), "{error}");
        // More edges than encoded: truncation (or the cheap length bound).
        assert!(decode_frame(3, payload, &mut out).is_err());
        // A count no payload of this size could hold is rejected before
        // any allocation is sized from it.
        let error = decode_frame(u32::MAX, payload, &mut out).unwrap_err();
        assert!(error.to_string().contains("declares"), "{error}");
        for count in [0, 1, 2, 3, u32::MAX] {
            assert_decode_contract(count, payload);
        }
    }

    #[test]
    fn a_failed_decode_still_hashes_the_whole_payload() {
        // One failure of each kind, each with bytes left after the point of
        // failure: those must reach the hasher too.
        let overlong = [[0x80u8; 10].as_slice(), &[0x01, 7, 7, 7]].concat();
        let overweight = [[0xFFu8; 9].as_slice(), &[0x02, 7, 7, 7]].concat();
        let truncated = [0x05u8, 0x80];
        let trailing = [0x05u8, 0x05, 7, 7, 7];
        for (count, payload) in [
            (1, overlong.as_slice()),
            (1, &overweight),
            (1, &truncated),
            (1, &trailing),
            (9, &trailing),
        ] {
            let mut out = Vec::new();
            assert!(decode_frame(count, payload, &mut out).is_err());
            assert_decode_contract(count, payload);
        }
    }

    #[test]
    fn locality_compresses_well_below_the_fixed_layout() {
        // A plausibly local stream (sorted-ish small deltas) must beat the
        // fixed 16 bytes per edge of raw pairs by a wide margin.
        let edges: Vec<(u64, u64)> = (0..10_000u64)
            .map(|i| (i / 16, splitmix(i) % 4096))
            .collect();
        let mut bytes = Vec::new();
        encode_frame(&edges, &mut bytes);
        let fixed = 16 * edges.len();
        assert!(
            bytes.len() * 3 < fixed,
            "compressed {} bytes vs fixed {fixed}",
            bytes.len()
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Any count: mostly plausible ones, sometimes the whole `u32`.
        fn counts() -> impl Strategy<Value = u32> {
            prop_oneof![0u32..300, any::<u32>()]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn arbitrary_bytes_never_panic_and_always_hash_whole(
                payload in proptest::collection::vec(any::<u8>(), 0..300),
                // Mostly small bytes, so varints terminate and whole frames
                // decode; `payload` alone almost never does.
                small in proptest::collection::vec(0u8..0x90, 0..300),
                count in counts(),
            ) {
                assert_decode_contract(count, &payload);
                assert_decode_contract(count, &small);
                assert_decode_contract((small.len() / 2) as u32, &small);
            }

            #[test]
            fn damaged_valid_frames_never_panic_and_always_hash_whole(
                case in any::<u64>(),
                len in 0usize..200,
                at in any::<usize>(),
                // The byte xor-ed in is `mask + 1`: never a no-op.
                mask in 0u8..255,
                extra in proptest::collection::vec(any::<u8>(), 1..12),
                wrong_count in counts(),
            ) {
                let edges = regime_edges(case, len);
                let mut frame = Vec::new();
                encode_frame(&edges, &mut frame);
                let body = &frame[FRAME_HEADER_LEN..];
                let count = edges.len() as u32;
                assert_decode_contract(count, body);
                assert_decode_contract(wrong_count, body);
                if !body.is_empty() {
                    let at = at % body.len();
                    let mut flipped = body.to_vec();
                    flipped[at] ^= mask + 1;
                    assert_decode_contract(count, &flipped);
                    assert_decode_contract(wrong_count, &flipped);
                    assert_decode_contract(count, &body[..at]);
                }
                let extended = [body, extra.as_slice()].concat();
                assert_decode_contract(count, &extended);
                assert_decode_contract(count.wrapping_add(1), &extended);
            }

            #[test]
            fn fused_encode_is_encode_then_hash(case in any::<u64>(), len in 0usize..600) {
                // Fused encode against plain encode, then the frame decoded
                // back with the hash riding along.
                round_trip(&regime_edges(case, len));
            }

            #[test]
            fn arbitrary_header_bytes_read_whole_or_fail_typed(
                mut bytes in proptest::collection::vec(any::<u8>(), HEADER..HEADER + 1),
                // Arbitrary bytes almost never open with the magic, so most
                // cases get a valid magic and version put in front.
                opens_valid in 0u8..4,
                arbitrary_len in any::<u64>(),
                // …and most of those the one file length that agrees.
                len_agrees in 0u8..4,
                cut in 0usize..HEADER,
            ) {
                if opens_valid > 0 {
                    bytes[..8].copy_from_slice(&BlockHeader::placeholder(0, 0)[..8]);
                }
                let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                let file_len = match len_agrees {
                    0 => arbitrary_len,
                    _ => word(32).wrapping_add(BLOCK_HEADER_COMPRESSED_LEN),
                };
                match BlockHeader::read(file_len, &mut &bytes[..]) {
                    Ok(header) => {
                        prop_assert_eq!(&bytes[..8], &BlockHeader::placeholder(0, 0)[..8]);
                        let fields = [8, 16, 24, 32, 40].map(word);
                        prop_assert_eq!(
                            fields,
                            [header.nrows, header.ncols, header.nnz, header.payload_len, header.checksum]
                        );
                        prop_assert_eq!(
                            header.payload_len.checked_add(BLOCK_HEADER_COMPRESSED_LEN),
                            Some(file_len)
                        );
                    }
                    Err(SparseError::Parse { .. } | SparseError::TooLarge { .. }) => {}
                    Err(other) => prop_assert!(false, "untyped rejection: {other:?}"),
                }
                // A header that ends early is an error at whatever field it
                // ends in, never a panic and never a header.
                prop_assert!(BlockHeader::read(file_len, &mut &bytes[..cut]).is_err());
            }

            #[test]
            fn a_sealed_placeholder_reads_back_its_fields(
                fields in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            ) {
                let (nrows, ncols, nnz, payload_len, checksum) = fields;
                let mut bytes = BlockHeader::placeholder(nrows, ncols);
                let (offset, patch) = BlockHeader::seal(nnz, payload_len, checksum);
                bytes[offset as usize..].copy_from_slice(&patch);
                let header = BlockHeader { nrows, ncols, nnz, payload_len, checksum };
                match payload_len.checked_add(BLOCK_HEADER_COMPRESSED_LEN) {
                    Some(file_len) => {
                        prop_assert_eq!(BlockHeader::read(file_len, &mut &bytes[..]), Ok(header));
                    }
                    None => prop_assert!(matches!(
                        BlockHeader::read(u64::MAX, &mut &bytes[..]),
                        Err(SparseError::TooLarge { .. })
                    )),
                }
            }
        }

        const HEADER: usize = BLOCK_HEADER_COMPRESSED_LEN as usize;
    }
}
