//! Encode and open BLM2 snapshots.
//!
//! [`encode`] lays the arena columns, text blob, symbol/attribute/stats
//! metadata, and the full `TagIndex` (posting arrays + block summaries)
//! into the section grammar of [`crate::format`]. [`open_path`] /
//! [`open_bytes`] reverse it: verify the header, directory, and every
//! section checksum, then cut zero-copy [`Col`] windows straight into
//! the mapping and hand them to the *validated* reassembly constructors
//! (`Document::from_column_parts`, `PostingList::from_raw_parts`,
//! `TextStore::from_mapped`, `SymbolTable::from_names`). The contract:
//! any byte-level corruption or truncation — including a flipped bit in
//! the middle of a column — yields a [`StorageError`], never a panic or
//! out-of-bounds access. Only bytes that survive both the checksum and
//! the structural scans are ever trusted by navigation.
//!
//! Opening performs no per-node allocation or decoding: the cost is a
//! streaming checksum/validation pass over the file (sequential,
//! allocation-free) plus O(sections) pointer fixups. Resident memory
//! stays near zero for mapped opens — the touched pages are clean page
//! cache the kernel reclaims under pressure.

use crate::format::{
    align8, fnv64, push_block, push_varint, read_str, read_varint, Section, SectionId,
    DIR_ENTRY_LEN, HEADER_LEN, MAGIC, MAX_SECTIONS, VERSION,
};
use crate::stats::{decode_stats_section, encode_stats_section};
use blossom_xml::colsrc::{Col, Mapping, TextStore};
use blossom_xml::fxhash::FxHashMap;
use blossom_xml::stats::DocStats;
use blossom_xml::{ColumnParts, Document, NodeId, PostingList, Sym, SymbolTable, TagIndex};
use std::path::Path;
use std::sync::Arc;

/// A one-line decode/encode failure (the CLI and server surface it
/// verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError(pub String);

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for StorageError {}

impl From<String> for StorageError {
    fn from(s: String) -> StorageError {
        StorageError(s)
    }
}

impl From<&str> for StorageError {
    fn from(s: &str) -> StorageError {
        StorageError(s.to_string())
    }
}

/// Encoding knobs. There are none today: BLM2 has no optional sections.
/// The struct stays so [`encode`]'s signature is stable for callers
/// (`encode(.., EncodeOptions::default())`) if a knob is added later.
#[derive(Debug, Clone, Copy, Default)]
pub struct EncodeOptions {}

/// How to back the columns of an opened snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// `mmap` the file; columns are kernel-paged, resident charge ~0.
    Map,
    /// Read the file into an aligned heap buffer; columns are resident.
    Heap,
}

/// A fully opened snapshot: the document, its tag index and statistics.
#[derive(Debug)]
pub struct Snapshot {
    /// The reassembled document (columns owned or mapped per [`OpenMode`]).
    pub doc: Document,
    /// The reassembled tag index.
    pub index: TagIndex,
    /// Document statistics (decoded, always owned).
    pub stats: DocStats,
}

fn le_u32s(vals: impl Iterator<Item = u32>, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_u16s(vals: impl Iterator<Item = u16>, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity * 2);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Serialize a `(Document, TagIndex, DocStats)` triple into BLM2 bytes.
///
/// Fails only on representational limits: more than `u32::MAX − 1` text
/// bytes (the offset column is `u32`) — everything else a valid
/// `Document` can hold fits by construction.
pub fn encode(
    doc: &Document,
    index: &TagIndex,
    stats: &DocStats,
    _opts: EncodeOptions,
) -> Result<Vec<u8>, StorageError> {
    let n = doc.len();
    let texts = doc.text_store();
    let symbols = doc.symbols();
    let nsyms = symbols.len();

    let mut sections: Vec<(SectionId, Vec<u8>)> = Vec::with_capacity(16);
    sections.push((SectionId::Parent, le_u32s(doc.parent_column().iter().copied(), n)));
    sections.push((SectionId::FirstChild, le_u32s(doc.first_child_column().iter().copied(), n)));
    sections
        .push((SectionId::NextSibling, le_u32s(doc.next_sibling_column().iter().copied(), n)));
    sections.push((SectionId::LastDesc, le_u32s(doc.last_desc_column().iter().copied(), n)));
    sections.push((SectionId::Level, le_u16s(doc.level_column().iter().copied(), n)));
    sections.push((SectionId::KindSym, le_u32s(doc.kind_sym_column().iter().copied(), n)));

    // Text blob + offsets.
    let total_text: usize = texts.iter().map(str::len).sum();
    if total_text >= u32::MAX as usize {
        return Err("text content exceeds the 4 GiB snapshot limit".into());
    }
    let mut offsets = Vec::with_capacity(texts.len() + 1);
    let mut blob = Vec::with_capacity(total_text);
    offsets.push(0u32);
    for t in texts.iter() {
        blob.extend_from_slice(t.as_bytes());
        offsets.push(blob.len() as u32);
    }
    let ntexts = texts.len();
    sections.push((SectionId::TextOffsets, le_u32s(offsets.into_iter(), ntexts + 1)));
    sections.push((SectionId::TextBlob, blob));

    // Symbol names, in symbol order (entry 0 is the document symbol).
    let mut sym_blob = Vec::new();
    push_varint(&mut sym_blob, nsyms as u64);
    for i in 0..nsyms {
        push_block(&mut sym_blob, symbols.name(Sym(i as u32)).as_bytes());
    }
    sections.push((SectionId::Symbols, sym_blob));

    // Attributes, ascending by element id for deterministic bytes.
    let mut attr_entries = Vec::new();
    let mut n_attr_entries = 0u64;
    for v in 0..n {
        let attrs = doc.attributes(NodeId(v as u32));
        if attrs.is_empty() {
            continue;
        }
        n_attr_entries += 1;
        push_varint(&mut attr_entries, v as u64);
        push_varint(&mut attr_entries, attrs.len() as u64);
        for (sym, val) in attrs {
            push_varint(&mut attr_entries, sym.0 as u64);
            push_block(&mut attr_entries, val.as_bytes());
        }
    }
    let mut attr_blob = Vec::with_capacity(attr_entries.len() + 10);
    push_varint(&mut attr_blob, n_attr_entries);
    attr_blob.extend_from_slice(&attr_entries);
    sections.push((SectionId::Attrs, attr_blob));

    sections.push((SectionId::Stats, encode_stats_section(stats)));

    // Posting lists: per-symbol counts, then four concatenated arrays.
    let mut post_dir = Vec::new();
    push_varint(&mut post_dir, nsyms as u64);
    let mut starts = Vec::new();
    let mut ends = Vec::new();
    let mut levels = Vec::new();
    let mut blockmax = Vec::new();
    for i in 0..nsyms {
        let list = index.postings(Sym(i as u32));
        push_varint(&mut post_dir, list.len() as u64);
        starts.extend(list.starts().iter().map(|s| s.0));
        ends.extend_from_slice(list.ends_column());
        levels.extend_from_slice(list.levels_column());
        blockmax.extend_from_slice(list.block_max_end_column());
    }
    sections.push((SectionId::PostDir, post_dir));
    let np = starts.len();
    let nb = blockmax.len();
    sections.push((SectionId::PostStarts, le_u32s(starts.into_iter(), np)));
    sections.push((SectionId::PostEnds, le_u32s(ends.into_iter(), np)));
    sections.push((SectionId::PostLevels, le_u16s(levels.into_iter(), np)));
    sections.push((SectionId::PostBlockMax, le_u32s(blockmax.into_iter(), nb)));

    // Layout: header, directory, aligned payloads.
    let dir_len = sections.len() * DIR_ENTRY_LEN;
    let mut offset = align8(HEADER_LEN + dir_len);
    let mut directory = Vec::with_capacity(dir_len);
    for (id, payload) in &sections {
        directory.extend_from_slice(&(*id as u32).to_le_bytes());
        directory.extend_from_slice(&id.elem_size().to_le_bytes());
        directory.extend_from_slice(&(offset as u64).to_le_bytes());
        directory.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        directory.extend_from_slice(&fnv64(payload).to_le_bytes());
        offset = align8(offset + payload.len());
    }
    let file_len = offset;

    let mut out = Vec::with_capacity(file_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(ntexts as u64).to_le_bytes());
    out.extend_from_slice(&(nsyms as u64).to_le_bytes());
    out.extend_from_slice(&(file_len as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&directory).to_le_bytes());
    out.resize(HEADER_LEN, 0);
    out.extend_from_slice(&directory);
    for (_, payload) in &sections {
        out.resize(align8(out.len()), 0);
        out.extend_from_slice(payload);
    }
    out.resize(file_len, 0);
    Ok(out)
}

fn rd_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

fn rd_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

struct Header {
    node_count: usize,
    text_count: usize,
    symbol_count: usize,
    sections: FxHashMap<u32, Section>,
}

/// How much of the file an open proves before trusting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Integrity {
    /// Header + directory checks plus an FNV sweep of every payload.
    /// O(file bytes) — touches every page, so only heap opens use it.
    Full,
    /// Header + directory checks only. Every extent is still proven in
    /// bounds, 8-aligned, and element-size-consistent, so decoding
    /// cannot read out of bounds; payload *content* is trusted to the
    /// file. Mapped opens use this so cold start touches O(columns)
    /// metadata, not O(nodes) pages.
    Structural,
}

/// Parse and fully verify the header, directory, and every section
/// checksum. After this returns, each `Section`'s `[offset, offset+len)`
/// window is in bounds, 8-aligned, element-size-consistent, and
/// byte-verified.
fn verify(bytes: &[u8]) -> Result<Header, StorageError> {
    verify_with(bytes, Integrity::Full)
}

fn verify_with(bytes: &[u8], integrity: Integrity) -> Result<Header, StorageError> {
    if bytes.len() < HEADER_LEN {
        return Err("file shorter than the BLM2 header".into());
    }
    if &bytes[..4] != MAGIC {
        return Err("bad magic (not a BLM2 snapshot)".into());
    }
    let version = rd_u32(bytes, 4);
    if version != VERSION {
        return Err(format!("unsupported BLM2 version {version}").into());
    }
    let section_count = rd_u32(bytes, 8);
    if section_count == 0 || section_count > MAX_SECTIONS {
        return Err(format!("implausible section count {section_count}").into());
    }
    let flags = rd_u32(bytes, 12);
    if flags != 0 {
        return Err(format!("unsupported BLM2 header flags {flags:#x}").into());
    }
    let node_count = rd_u64(bytes, 16);
    let text_count = rd_u64(bytes, 24);
    let symbol_count = rd_u64(bytes, 32);
    let file_len = rd_u64(bytes, 40);
    let dir_checksum = rd_u64(bytes, 48);
    if file_len != bytes.len() as u64 {
        return Err(format!(
            "file length mismatch: header says {file_len}, file has {}",
            bytes.len()
        )
        .into());
    }
    if node_count == 0 || node_count >= u32::MAX as u64 {
        return Err(format!("implausible node count {node_count}").into());
    }
    if text_count >= u32::MAX as u64 || symbol_count >= u32::MAX as u64 {
        return Err("implausible text or symbol count".into());
    }
    let dir_end = HEADER_LEN + section_count as usize * DIR_ENTRY_LEN;
    if dir_end > bytes.len() {
        return Err("section directory exceeds the file".into());
    }
    let directory = &bytes[HEADER_LEN..dir_end];
    if fnv64(directory) != dir_checksum {
        return Err("section directory checksum mismatch".into());
    }
    let mut sections = FxHashMap::default();
    for i in 0..section_count as usize {
        let e = HEADER_LEN + i * DIR_ENTRY_LEN;
        let raw_id = rd_u32(bytes, e);
        let id = SectionId::from_u32(raw_id)
            .ok_or_else(|| StorageError(format!("unknown section id {raw_id}")))?;
        let elem = rd_u32(bytes, e + 4);
        if elem != id.elem_size() {
            return Err(format!("section {raw_id} declares element size {elem}").into());
        }
        let offset = rd_u64(bytes, e + 8);
        let len = rd_u64(bytes, e + 16);
        let checksum = rd_u64(bytes, e + 24);
        let end = offset
            .checked_add(len)
            .ok_or_else(|| StorageError(format!("section {raw_id} range overflows")))?;
        if end > bytes.len() as u64 || offset % 8 != 0 || len % elem as u64 != 0 {
            return Err(format!("section {raw_id} has an invalid extent").into());
        }
        let (offset, len) = (offset as usize, len as usize);
        if integrity == Integrity::Full && fnv64(&bytes[offset..offset + len]) != checksum {
            return Err(format!("section {raw_id} checksum mismatch").into());
        }
        if sections.insert(raw_id, Section { id, offset, len, checksum }).is_some() {
            return Err(format!("duplicate section {raw_id}").into());
        }
    }
    Ok(Header {
        node_count: node_count as usize,
        text_count: text_count as usize,
        symbol_count: symbol_count as usize,
        sections,
    })
}

fn section(h: &Header, id: SectionId) -> Result<Section, StorageError> {
    h.sections
        .get(&(id as u32))
        .copied()
        .ok_or_else(|| StorageError(format!("missing section {}", id as u32)))
}

fn sized_section(
    h: &Header,
    id: SectionId,
    expect_elems: usize,
) -> Result<Section, StorageError> {
    let s = section(h, id)?;
    let elems = s.len / id.elem_size() as usize;
    if elems != expect_elems {
        return Err(format!(
            "section {} has {elems} elements, expected {expect_elems}",
            id as u32
        )
        .into());
    }
    Ok(s)
}

/// Open a snapshot from an in-memory buffer (heap-backed columns,
/// full checksum verification).
pub fn open_bytes(bytes: &[u8]) -> Result<Snapshot, StorageError> {
    open_mapping(Arc::new(Mapping::from_bytes(bytes)))
}

/// Open the snapshot file at `path`, mapped or heap-backed.
///
/// The integrity contract differs by mode: `Heap` reads the whole file
/// anyway, so it verifies every section checksum; `Map` performs
/// structural validation only (header, directory checksum, extent
/// bounds and alignment) so the open touches O(columns) metadata and
/// the kernel pages column bytes in lazily. Decoding a structurally
/// valid file can never panic or read out of bounds; content the
/// checksums would have caught is the trade for not faulting every
/// page at open (a mapped text piece that fails its per-access UTF-8
/// check reads as empty rather than crashing).
pub fn open_path(path: &Path, mode: OpenMode) -> Result<Snapshot, StorageError> {
    let (map, integrity) = match mode {
        OpenMode::Map => (
            Mapping::map_path(path)
                .map_err(|e| StorageError(format!("cannot map {}: {e}", path.display())))?,
            Integrity::Structural,
        ),
        OpenMode::Heap => (
            Mapping::from_bytes(
                &std::fs::read(path)
                    .map_err(|e| StorageError(format!("cannot read {}: {e}", path.display())))?,
            ),
            Integrity::Full,
        ),
    };
    open_with(Arc::new(map), integrity)
}

/// Open a snapshot over an existing mapping with full checksum
/// verification — the common spine of [`open_bytes`] and [`open_path`].
pub fn open_mapping(map: Arc<Mapping>) -> Result<Snapshot, StorageError> {
    open_with(map, Integrity::Full)
}

fn open_with(map: Arc<Mapping>, integrity: Integrity) -> Result<Snapshot, StorageError> {
    let h = verify_with(map.bytes(), integrity)?;
    let n = h.node_count;

    // Arena columns: zero-copy windows.
    let col_u32 = |id: SectionId| -> Result<Col<u32>, StorageError> {
        let s = sized_section(&h, id, n)?;
        Col::from_mapping(&map, s.offset, n).map_err(StorageError)
    };
    let parent = col_u32(SectionId::Parent)?;
    let first_child = col_u32(SectionId::FirstChild)?;
    let next_sibling = col_u32(SectionId::NextSibling)?;
    let last_desc = col_u32(SectionId::LastDesc)?;
    let kind_sym = col_u32(SectionId::KindSym)?;
    let level_s = sized_section(&h, SectionId::Level, n)?;
    let level = Col::<u16>::from_mapping(&map, level_s.offset, n).map_err(StorageError)?;

    // Texts.
    let off_s = sized_section(&h, SectionId::TextOffsets, h.text_count + 1)?;
    let offsets =
        Col::<u32>::from_mapping(&map, off_s.offset, h.text_count + 1).map_err(StorageError)?;
    let blob_s = section(&h, SectionId::TextBlob)?;
    let blob = Col::<u8>::from_mapping(&map, blob_s.offset, blob_s.len).map_err(StorageError)?;
    let texts = TextStore::from_mapped(offsets, blob).map_err(StorageError)?;

    // Symbols (owned; small).
    let sym_s = section(&h, SectionId::Symbols)?;
    let sym_bytes = &map.bytes()[sym_s.offset..sym_s.offset + sym_s.len];
    let mut pos = 0usize;
    let count = read_varint(sym_bytes, &mut pos)? as usize;
    if count != h.symbol_count {
        return Err("symbol count mismatch between header and section".into());
    }
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        names.push(Box::<str>::from(read_str(sym_bytes, &mut pos)?));
    }
    let symbols = SymbolTable::from_names(names).map_err(StorageError)?;

    // Attributes (owned; sparse).
    let attr_s = section(&h, SectionId::Attrs)?;
    let attr_bytes = &map.bytes()[attr_s.offset..attr_s.offset + attr_s.len];
    let mut pos = 0usize;
    let n_entries = read_varint(attr_bytes, &mut pos)? as usize;
    if n_entries > n {
        return Err("more attribute entries than nodes".into());
    }
    let mut attrs: FxHashMap<u32, Vec<(Sym, Box<str>)>> = FxHashMap::default();
    for _ in 0..n_entries {
        let id = read_varint(attr_bytes, &mut pos)?;
        if id >= n as u64 {
            return Err(format!("attribute entry for node {id} out of range").into());
        }
        let count = read_varint(attr_bytes, &mut pos)? as usize;
        if count > attr_bytes.len() {
            return Err("implausible attribute count".into());
        }
        let mut list = Vec::with_capacity(count);
        for _ in 0..count {
            let sym = read_varint(attr_bytes, &mut pos)?;
            if sym >= h.symbol_count as u64 {
                return Err(format!("attribute symbol {sym} out of range").into());
            }
            let val = read_str(attr_bytes, &mut pos)?;
            list.push((Sym(sym as u32), Box::<str>::from(val)));
        }
        if attrs.insert(id as u32, list).is_some() {
            return Err(format!("duplicate attribute entry for node {id}").into());
        }
    }

    // Stats (owned).
    let stats_s = section(&h, SectionId::Stats)?;
    let stats = decode_stats_section(&map.bytes()[stats_s.offset..stats_s.offset + stats_s.len])
        .map_err(|e| StorageError(format!("stats section: {e}")))?;

    // The document itself — the validated constructor runs the O(n)
    // structural scans that make mapped navigation safe.
    let doc = Document::from_column_parts(ColumnParts {
        parent,
        first_child,
        next_sibling,
        last_desc,
        level,
        kind_sym,
        texts,
        attrs,
        symbols,
    })
    .map_err(StorageError)?;

    // Posting lists: the directory gives per-symbol counts; the four
    // posting sections are sliced per symbol at cumulative offsets.
    let dir_s = section(&h, SectionId::PostDir)?;
    let dir_bytes = &map.bytes()[dir_s.offset..dir_s.offset + dir_s.len];
    let mut pos = 0usize;
    let nsyms = read_varint(dir_bytes, &mut pos)? as usize;
    if nsyms != h.symbol_count {
        return Err("posting directory symbol count mismatch".into());
    }
    let mut counts = Vec::with_capacity(nsyms);
    let mut total = 0usize;
    let mut total_blocks = 0usize;
    for _ in 0..nsyms {
        let c = read_varint(dir_bytes, &mut pos)? as usize;
        if c > n {
            return Err("posting list longer than the document".into());
        }
        total = total.checked_add(c).ok_or("posting total overflows")?;
        total_blocks += c.div_ceil(64);
        counts.push(c);
    }
    let starts_s = sized_section(&h, SectionId::PostStarts, total)?;
    let ends_s = sized_section(&h, SectionId::PostEnds, total)?;
    let levels_s = sized_section(&h, SectionId::PostLevels, total)?;
    let blocks_s = sized_section(&h, SectionId::PostBlockMax, total_blocks)?;
    let mut lists = Vec::with_capacity(nsyms);
    let mut cum = 0usize;
    let mut cum_blocks = 0usize;
    for &c in &counts {
        let starts = Col::<NodeId>::from_mapping(&map, starts_s.offset + cum * 4, c)
            .map_err(StorageError)?;
        let ends =
            Col::<u32>::from_mapping(&map, ends_s.offset + cum * 4, c).map_err(StorageError)?;
        let levels =
            Col::<u16>::from_mapping(&map, levels_s.offset + cum * 2, c).map_err(StorageError)?;
        let nb = c.div_ceil(64);
        let blocks = Col::<u32>::from_mapping(&map, blocks_s.offset + cum_blocks * 4, nb)
            .map_err(StorageError)?;
        lists.push(
            PostingList::from_raw_parts(starts, ends, levels, blocks, n as u32)
                .map_err(StorageError)?,
        );
        cum += c;
        cum_blocks += nb;
    }
    let index = TagIndex::from_lists(lists);

    Ok(Snapshot { doc, index, stats })
}

/// Per-section byte sizes of an encoded snapshot (for `--stats`).
pub fn section_sizes(bytes: &[u8]) -> Result<Vec<(&'static str, usize)>, StorageError> {
    let h = verify(bytes)?;
    let name = |id: SectionId| match id {
        SectionId::Parent => "parent",
        SectionId::FirstChild => "first_child",
        SectionId::NextSibling => "next_sibling",
        SectionId::LastDesc => "last_desc",
        SectionId::Level => "level",
        SectionId::KindSym => "kind_sym",
        SectionId::TextOffsets => "text_offsets",
        SectionId::TextBlob => "text_blob",
        SectionId::Symbols => "symbols",
        SectionId::Attrs => "attrs",
        SectionId::Stats => "stats",
        SectionId::PostDir => "post_dir",
        SectionId::PostStarts => "post_starts",
        SectionId::PostEnds => "post_ends",
        SectionId::PostLevels => "post_levels",
        SectionId::PostBlockMax => "post_blockmax",
    };
    let mut out: Vec<(&'static str, usize)> =
        h.sections.values().map(|s| (name(s.id), s.len)).collect();
    out.sort_by_key(|&(n, _)| n);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(xml: &str) -> (Document, Snapshot, Vec<u8>) {
        let doc = Document::parse_str(xml).unwrap();
        let index = TagIndex::build(&doc);
        let stats = doc.stats();
        let bytes = encode(&doc, &index, &stats, EncodeOptions::default()).unwrap();
        let snap = open_bytes(&bytes).unwrap();
        (doc, snap, bytes)
    }

    const SAMPLE: &str = r#"<bib><book year="1994"><title>TCP/IP Illustrated</title>
        <author>Stevens</author></book><book year="2000"><title>Data on the Web</title>
        <author>Abiteboul</author><author>Buneman</author></book></bib>"#;

    #[test]
    fn roundtrip_preserves_structure_and_content() {
        let (doc, snap, _) = roundtrip(SAMPLE);
        assert_eq!(doc.len(), snap.doc.len());
        assert_eq!(
            blossom_xml::writer::to_string(&doc),
            blossom_xml::writer::to_string(&snap.doc)
        );
        assert_eq!(doc.stats().element_count, snap.stats.element_count);
        // Index equivalence, symbol by symbol.
        let rebuilt = TagIndex::build(&snap.doc);
        for (sym, name) in snap.doc.symbols().iter() {
            let a = snap.index.postings(sym);
            let b = rebuilt.postings(sym);
            assert_eq!(a.starts(), b.starts(), "{name}");
            assert_eq!(a.ends_column(), b.ends_column(), "{name}");
            assert_eq!(a.levels_column(), b.levels_column(), "{name}");
            assert_eq!(a.block_max_end_column(), b.block_max_end_column(), "{name}");
        }
    }

    #[test]
    fn mapped_columns_have_near_zero_heap_charge() {
        let doc = Document::parse_str(SAMPLE).unwrap();
        let index = TagIndex::build(&doc);
        let stats = doc.stats();
        let bytes = encode(&doc, &index, &stats, EncodeOptions::default()).unwrap();
        let dir = std::env::temp_dir().join(format!("blossom-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.blm2");
        std::fs::write(&path, &bytes).unwrap();
        let snap = open_path(&path, OpenMode::Map).unwrap();
        if cfg!(all(unix, target_endian = "little")) {
            assert!(snap.doc.is_mapped());
            // Only symbols + attrs + fixed overhead are resident.
            assert!(
                snap.doc.approx_heap_bytes() < doc.approx_heap_bytes() / 2,
                "mapped {} vs owned {}",
                snap.doc.approx_heap_bytes(),
                doc.approx_heap_bytes()
            );
            assert_eq!(snap.index.approx_heap_bytes(), 0);
        }
        assert_eq!(
            blossom_xml::writer::to_string(&snap.doc),
            blossom_xml::writer::to_string(&doc)
        );
        drop(snap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_is_deterministic() {
        let doc = Document::parse_str(SAMPLE).unwrap();
        let index = TagIndex::build(&doc);
        let stats = doc.stats();
        let a = encode(&doc, &index, &stats, EncodeOptions::default()).unwrap();
        let b = encode(&doc, &index, &stats, EncodeOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn update_splice_of_reopened_snapshot_works() {
        use blossom_xml::mutate::{apply, parse_mutations};
        let (_, snap, _) = roundtrip(SAMPLE);
        let muts = parse_mutations("insert 1 1 <book><title>b</title></book>").unwrap();
        // Mutating a mapped document produces a fresh owned document.
        let (spliced, _) = apply(&snap.doc, &muts[0]).unwrap();
        assert!(!spliced.is_mapped());
        assert_eq!(spliced.len(), snap.doc.len() + 3);
    }

    #[test]
    fn section_sizes_cover_the_file() {
        let (_, _, bytes) = roundtrip(SAMPLE);
        let sizes = section_sizes(&bytes).unwrap();
        assert_eq!(sizes.len(), 16);
        let total: usize = sizes.iter().map(|&(_, s)| s).sum();
        assert!(total <= bytes.len());
        assert!(sizes.iter().any(|&(n, _)| n == "stats"));
    }

    #[test]
    fn bad_bytes_error_not_panic() {
        assert!(open_bytes(b"").is_err());
        assert!(open_bytes(b"BLM2").is_err());
        assert!(open_bytes(b"nope nope nope nope nope nope nope nope nope nope nope nope nope")
            .is_err());
        let (_, _, bytes) = roundtrip(SAMPLE);
        // Every truncation fails cleanly.
        for cut in [0, 3, 4, 63, 64, 100, bytes.len() / 2, bytes.len() - 1] {
            assert!(open_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
