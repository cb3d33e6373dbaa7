//! Format-sniffing loading across both on-disk shapes: XML text and
//! BLM2 columnar snapshots.
//!
//! The CLI and the server catalog route through here so any input that
//! works in one works in the other. XML always produces an *owned*
//! document (it parses node by node); BLM2 files can additionally be
//! **mapped** via [`loaded_from_path`] with [`OpenMode::Map`], in which
//! case the returned columns are zero-copy views into the page cache.
//! The tag index and statistics come free from a BLM2 snapshot and are
//! built on the spot for XML. Errors are one line, prefixed with
//! `origin` (a file name or a catalog entry name).

use crate::snapshot::{self, OpenMode};
use blossom_xml::stats::DocStats;
use blossom_xml::{Document, TagIndex};
use std::path::Path;

/// Does this buffer start like a BLM2 columnar snapshot?
pub fn is_blm2(bytes: &[u8]) -> bool {
    bytes.starts_with(crate::format::MAGIC)
}

/// A loaded document with everything the catalog serves: the document,
/// its tag index, and its statistics.
#[derive(Debug)]
pub struct Loaded {
    /// The document (owned, or mapped for `OpenMode::Map` BLM2 opens).
    pub doc: Document,
    /// The tag index (decoded from BLM2, built otherwise).
    pub index: TagIndex,
    /// Document statistics (decoded from BLM2, computed otherwise).
    pub stats: DocStats,
}

/// Load from in-memory bytes, sniffing the format. BLM2 bytes open
/// heap-backed (there is no file to map).
pub fn loaded_from_bytes(bytes: &[u8], origin: &str) -> Result<Loaded, String> {
    if is_blm2(bytes) {
        let snap = snapshot::open_bytes(bytes).map_err(|e| format!("{origin}: {e}"))?;
        return Ok(Loaded { doc: snap.doc, index: snap.index, stats: snap.stats });
    }
    let text = std::str::from_utf8(bytes).map_err(|_| format!("{origin}: not UTF-8"))?;
    let doc = Document::parse_str(text).map_err(|e| format!("{origin}: {e}"))?;
    let index = TagIndex::build(&doc);
    let stats = doc.stats();
    Ok(Loaded { doc, index, stats })
}

/// Load from a file path, sniffing the format. BLM2 files are opened in
/// `mode`; XML parses to an owned document regardless.
pub fn loaded_from_path(path: &Path, mode: OpenMode) -> Result<Loaded, String> {
    let origin = path.display().to_string();
    let head = {
        use std::io::Read;
        let mut f =
            std::fs::File::open(path).map_err(|e| format!("reading {origin}: {e}"))?;
        let mut head = [0u8; 4];
        let n = f.read(&mut head).map_err(|e| format!("reading {origin}: {e}"))?;
        head[..n].to_vec()
    };
    if is_blm2(&head) {
        let snap = snapshot::open_path(path, mode).map_err(|e| format!("{origin}: {e}"))?;
        return Ok(Loaded { doc: snap.doc, index: snap.index, stats: snap.stats });
    }
    let bytes = std::fs::read(path).map_err(|e| format!("reading {origin}: {e}"))?;
    loaded_from_bytes(&bytes, &origin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode, EncodeOptions};

    const XML: &str = "<r><a>x</a><a/></r>";

    fn blm2_bytes() -> Vec<u8> {
        let doc = Document::parse_str(XML).unwrap();
        let index = TagIndex::build(&doc);
        encode(&doc, &index, &doc.stats(), EncodeOptions::default()).unwrap()
    }

    #[test]
    fn sniffer_tells_blm2_from_xml() {
        assert!(is_blm2(&blm2_bytes()));
        assert!(!is_blm2(XML.as_bytes()));
    }

    #[test]
    fn both_formats_load_identically() {
        let reference = Document::parse_str(XML).unwrap();
        for (tag, bytes) in [("xml", XML.as_bytes().to_vec()), ("blm2", blm2_bytes())] {
            let loaded = loaded_from_bytes(&bytes, tag).unwrap();
            assert_eq!(
                blossom_xml::writer::to_string(&loaded.doc),
                blossom_xml::writer::to_string(&reference),
                "{tag}"
            );
            assert_eq!(loaded.stats, reference.stats(), "{tag}");
            assert_eq!(loaded.index.num_symbols(), loaded.doc.symbols().len(), "{tag}");
        }
    }

    #[test]
    fn path_loading_maps_blm2() {
        let dir = std::env::temp_dir().join(format!("blossom-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("d.blm2");
        std::fs::write(&p, blm2_bytes()).unwrap();
        let mapped = loaded_from_path(&p, OpenMode::Map).unwrap();
        if cfg!(all(unix, target_endian = "little")) {
            assert!(mapped.doc.is_mapped());
        }
        let heap = loaded_from_path(&p, OpenMode::Heap).unwrap();
        if cfg!(all(unix, target_endian = "little")) {
            // Mapped columns charge no heap; heap-backed ones charge fully.
            assert!(heap.doc.approx_heap_bytes() > mapped.doc.approx_heap_bytes());
        }
        assert_eq!(
            blossom_xml::writer::to_string(&mapped.doc),
            blossom_xml::writer::to_string(&heap.doc)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_one_line_and_name_the_origin() {
        let err = loaded_from_bytes(b"BLM2 but ruined", "bad.blm2").unwrap_err();
        assert!(err.starts_with("bad.blm2: "), "{err}");
        assert!(!err.contains('\n'), "{err}");
        let err = loaded_from_path(Path::new("/nonexistent/x.blm2"), OpenMode::Map).unwrap_err();
        assert!(err.contains("/nonexistent/x.blm2"), "{err}");
        let err = loaded_from_bytes(b"<r><unclosed>", "bad.xml").unwrap_err();
        assert!(err.starts_with("bad.xml: "), "{err}");
        assert!(!err.contains('\n'), "{err}");
        let err = loaded_from_bytes(&[0xff, 0xfe], "bin").unwrap_err();
        assert_eq!(err, "bin: not UTF-8");
    }
}
