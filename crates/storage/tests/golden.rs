//! Golden bytes: the BLM2 image of a fixed document must keep its exact
//! length and FNV-1a 64 digest. Store directories hold generation files
//! written by earlier builds, so any change to the encoder — a section's
//! layout, its order, the stats codec — must show up here as a
//! deliberate format change, never as a side effect of moving code.

use blossom_storage::format::fnv64;
use blossom_storage::stats::{decode_stats_section, encode_stats_section};
use blossom_storage::{snapshot, EncodeOptions};
use blossom_xml::{writer, Document, TagIndex};

/// Attributes, escaped text, same-tag recursion three deep, and one tag
/// with more than 64 postings (two block-max summaries).
fn golden_xml() -> String {
    let mut xml = String::from(
        r#"<lib owner="golden" year="2005"><section id="s1"><title>Intro &amp; scope</title><section id="s2"><para>nested <b>bold</b> text</para><section id="s3"><para/></section></section></section>"#,
    );
    for i in 0..70 {
        xml.push_str(&format!("<item n=\"{i}\"><name>item {i}</name>"));
        if i % 3 == 0 {
            xml.push_str("<tag>t</tag>");
        }
        xml.push_str("</item>");
    }
    xml.push_str("</lib>");
    xml
}

#[test]
fn blm2_image_of_a_fixed_document_is_pinned() {
    let doc = Document::parse_str(&golden_xml()).unwrap();
    assert_eq!(doc.len(), 271);
    let index = TagIndex::build(&doc);
    let bytes = snapshot::encode(&doc, &index, &doc.stats(), EncodeOptions::default()).unwrap();
    assert_eq!(bytes.len(), 10_192);
    assert_eq!(fnv64(&bytes), 0xfdf8_716b_e75a_4753, "BLM2 bytes changed");

    let snap = snapshot::open_bytes(&bytes).unwrap();
    assert_eq!(writer::to_string(&snap.doc), writer::to_string(&doc));
    assert_eq!(snap.stats, doc.stats());
}

#[test]
fn stats_section_of_a_fixed_document_is_pinned() {
    let stats = Document::parse_str(&golden_xml()).unwrap().stats();
    let bytes = encode_stats_section(&stats);
    assert_eq!(bytes.len(), 358);
    assert_eq!(fnv64(&bytes), 0xd57b_adf0_8ea6_bb66, "stats section bytes changed");
    assert_eq!(decode_stats_section(&bytes).unwrap(), stats);
}
