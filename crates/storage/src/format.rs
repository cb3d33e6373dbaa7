//! The BLM2 on-disk grammar.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (64 bytes)                                            │
//! │   "BLM2" · version · section count · flags                   │
//! │   node count · text count · symbol count · file length       │
//! │   directory checksum · reserved                              │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section directory (32 bytes per section)                     │
//! │   id · element size · byte offset · byte length · checksum   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section payloads, each 8-byte aligned, zero-padded between   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Each payload starts on an 8-byte
//! boundary so any column element type can be viewed in place, and each
//! is covered by an FNV-1a 64 checksum recorded in the directory (the
//! directory itself is covered by the header checksum). Offsets are
//! absolute file offsets; `file length` pins the expected size so a
//! truncated file fails before any section is touched. `flags` is
//! reserved: writers store 0 and readers reject any other value.

/// Magic bytes at offset 0.
pub const MAGIC: &[u8; 4] = b"BLM2";
/// Current format version.
pub const VERSION: u32 = 1;
/// Header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Directory entry size in bytes.
pub const DIR_ENTRY_LEN: usize = 32;
/// Upper bound on `section count` — the format defines 16 sections;
/// anything larger is rejected before allocating.
pub const MAX_SECTIONS: u32 = 64;

/// Section identifiers. Fixed-width sections record their element size
/// in the directory; blob sections use element size 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// Parent id per node (`u32`, `NIL` for the document node).
    Parent = 1,
    /// First-child id per node (`u32`).
    FirstChild = 2,
    /// Next-sibling id per node (`u32`).
    NextSibling = 3,
    /// Region `end` column (`u32`).
    LastDesc = 4,
    /// Region `level` column (`u16`).
    Level = 5,
    /// Packed kind/payload column (`u32`).
    KindSym = 6,
    /// Text blob offsets (`u32`, text count + 1 entries).
    TextOffsets = 7,
    /// Concatenated UTF-8 text bytes.
    TextBlob = 8,
    /// Symbol table names (varint-framed blob).
    Symbols = 9,
    /// Attribute map (varint-framed blob).
    Attrs = 10,
    /// Document statistics (see [`crate::stats`]).
    Stats = 11,
    /// Per-symbol posting counts (varint-framed blob).
    PostDir = 12,
    /// Concatenated posting `start` ids (`u32`).
    PostStarts = 13,
    /// Concatenated posting region `end`s (`u32`).
    PostEnds = 14,
    /// Concatenated posting region `level`s (`u16`).
    PostLevels = 15,
    /// Concatenated per-block max-`end` summaries (`u32`).
    PostBlockMax = 16,
}

impl SectionId {
    /// Decode a directory id field.
    pub fn from_u32(v: u32) -> Option<SectionId> {
        use SectionId::*;
        Some(match v {
            1 => Parent,
            2 => FirstChild,
            3 => NextSibling,
            4 => LastDesc,
            5 => Level,
            6 => KindSym,
            7 => TextOffsets,
            8 => TextBlob,
            9 => Symbols,
            10 => Attrs,
            11 => Stats,
            12 => PostDir,
            13 => PostStarts,
            14 => PostEnds,
            15 => PostLevels,
            16 => PostBlockMax,
            _ => return None,
        })
    }

    /// The element size this section must declare (1 for blobs).
    pub fn elem_size(self) -> u32 {
        use SectionId::*;
        match self {
            Level | PostLevels => 2,
            Parent | FirstChild | NextSibling | LastDesc | KindSym | TextOffsets
            | PostStarts | PostEnds | PostBlockMax => 4,
            TextBlob | Symbols | Attrs | Stats | PostDir => 1,
        }
    }
}

/// One parsed directory entry.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Which section this is.
    pub id: SectionId,
    /// Absolute byte offset of the payload (8-aligned).
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// FNV-1a 64 checksum of the payload bytes.
    pub checksum: u64,
}

/// FNV-1a 64: the workspace's one hash that needs a stable on-disk
/// definition (the in-tree `FxHashMap` is seeded per process).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Round `n` up to the next multiple of 8.
pub fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Append a LEB128 varint (shared framing of the blob sections).
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, advancing `pos`; errors on truncation or a
/// value wider than 64 bits.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err("varint overflows u64".into());
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Append a varint-length-prefixed byte block.
pub fn push_block(out: &mut Vec<u8>, bytes: &[u8]) {
    push_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Read a varint-length-prefixed byte block.
pub fn read_block<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], String> {
    let len = read_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len).ok_or("block length overflow")?;
    if end > bytes.len() {
        return Err("truncated block".into());
    }
    let block = &bytes[*pos..end];
    *pos = end;
    Ok(block)
}

/// Read a varint-length-prefixed UTF-8 string.
pub fn read_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a str, String> {
    std::str::from_utf8(read_block(bytes, pos)?).map_err(|_| "invalid UTF-8".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn varints_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            push_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        assert!(read_varint(&buf, &mut pos).is_err(), "reading past the end errors");
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let bytes = [0xffu8; 11];
        let mut pos = 0;
        assert!(read_varint(&bytes, &mut pos).is_err());
    }

    #[test]
    fn blocks_roundtrip_and_bound_check() {
        let mut buf = Vec::new();
        push_block(&mut buf, b"hello");
        let mut pos = 0;
        assert_eq!(read_block(&buf, &mut pos).unwrap(), b"hello");
        let mut bad = Vec::new();
        push_varint(&mut bad, 100);
        bad.extend_from_slice(b"short");
        let mut pos = 0;
        assert!(read_block(&bad, &mut pos).is_err());
    }

    #[test]
    fn section_ids_roundtrip() {
        for v in 1..=16u32 {
            let id = SectionId::from_u32(v).unwrap();
            assert_eq!(id as u32, v);
            assert!(matches!(id.elem_size(), 1 | 2 | 4));
        }
        assert!(SectionId::from_u32(0).is_none());
        assert!(SectionId::from_u32(17).is_none());
    }

    #[test]
    fn alignment() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
    }
}
