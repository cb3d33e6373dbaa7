//! The BLM2 `Stats` section: [`DocStats`] as varint-framed bytes, so a
//! snapshot opens with its planner statistics and skips re-analysis.
//!
//! Map entries are written in sorted key order, so identical stats
//! produce identical bytes. The layout is part of the on-disk format:
//! store directories hold generation files written with it.

use crate::format::{push_block, push_varint, read_str, read_varint};
use blossom_xml::fxhash::FxHashMap;
use blossom_xml::stats::{Containment, DocStats, FANOUT_BUCKETS};

/// Version tag of the stats section layout.
const STATS_SECTION_VERSION: u64 = 1;

/// Serialize [`DocStats`] into the `Stats` section payload.
pub fn encode_stats_section(stats: &DocStats) -> Vec<u8> {
    let mut out = Vec::new();
    push_varint(&mut out, STATS_SECTION_VERSION);
    push_varint(&mut out, stats.element_count as u64);
    push_varint(&mut out, stats.text_count as u64);
    push_varint(&mut out, stats.max_depth as u64);
    push_varint(&mut out, stats.max_recursion as u64);
    push_varint(&mut out, stats.text_bytes as u64);
    push_varint(&mut out, stats.avg_depth.to_bits());

    let mut recursive: Vec<(&String, &u16)> = stats.recursive_tags.iter().collect();
    recursive.sort();
    push_varint(&mut out, recursive.len() as u64);
    for (name, degree) in recursive {
        push_block(&mut out, name.as_bytes());
        push_varint(&mut out, *degree as u64);
    }

    let mut counts: Vec<(&String, &u32)> = stats.tag_counts.iter().collect();
    counts.sort();
    push_varint(&mut out, counts.len() as u64);
    for (name, count) in counts {
        push_block(&mut out, name.as_bytes());
        push_varint(&mut out, *count as u64);
    }

    let mut pairs: Vec<(&(String, String), &Containment)> = stats.containment.iter().collect();
    pairs.sort_by_key(|(key, _)| *key);
    push_varint(&mut out, pairs.len() as u64);
    for ((anc, desc), c) in pairs {
        push_block(&mut out, anc.as_bytes());
        push_block(&mut out, desc.as_bytes());
        push_varint(&mut out, c.pairs);
        push_varint(&mut out, c.ancestors as u64);
        for b in c.fanout_log2 {
            push_varint(&mut out, b as u64);
        }
    }
    out
}

/// Deserialize a `Stats` section payload back into [`DocStats`].
pub fn decode_stats_section(bytes: &[u8]) -> Result<DocStats, String> {
    let mut pos = 0usize;
    let version = read_varint(bytes, &mut pos)?;
    if version != STATS_SECTION_VERSION {
        return Err(format!("unknown stats section version {version}"));
    }
    let element_count = read_varint(bytes, &mut pos)? as usize;
    let text_count = read_varint(bytes, &mut pos)? as usize;
    let max_depth = read_varint(bytes, &mut pos)? as u16;
    let max_recursion = read_varint(bytes, &mut pos)? as u16;
    let text_bytes = read_varint(bytes, &mut pos)? as usize;
    let avg_depth = f64::from_bits(read_varint(bytes, &mut pos)?);

    let n = read_varint(bytes, &mut pos)? as usize;
    let mut recursive_tags = FxHashMap::default();
    for _ in 0..n {
        let name = read_str(bytes, &mut pos)?.to_string();
        let degree = read_varint(bytes, &mut pos)? as u16;
        recursive_tags.insert(name, degree);
    }

    let n = read_varint(bytes, &mut pos)? as usize;
    let mut tag_counts = FxHashMap::default();
    for _ in 0..n {
        let name = read_str(bytes, &mut pos)?.to_string();
        let count = read_varint(bytes, &mut pos)? as u32;
        tag_counts.insert(name, count);
    }

    let n = read_varint(bytes, &mut pos)? as usize;
    let mut containment = FxHashMap::default();
    for _ in 0..n {
        let anc = read_str(bytes, &mut pos)?.to_string();
        let desc = read_str(bytes, &mut pos)?.to_string();
        let pairs = read_varint(bytes, &mut pos)?;
        let ancestors = read_varint(bytes, &mut pos)? as u32;
        let mut fanout_log2 = [0u32; FANOUT_BUCKETS];
        for b in fanout_log2.iter_mut() {
            *b = read_varint(bytes, &mut pos)? as u32;
        }
        containment.insert((anc, desc), Containment { pairs, ancestors, fanout_log2 });
    }

    let tag_count = tag_counts.len();
    Ok(DocStats {
        recursive_tags,
        tag_counts,
        containment,
        node_count: element_count + text_count,
        element_count,
        text_count,
        avg_depth,
        max_depth,
        tag_count,
        recursive: max_recursion > 1,
        max_recursion,
        text_bytes,
        structure_bytes: element_count * 4,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blossom_xml::Document;

    /// Mapped opens skip payload checksums, so the decoder itself must
    /// reject every truncation. (Round-trips are pinned by
    /// `tests/golden.rs`.)
    #[test]
    fn truncated_or_unknown_sections_error() {
        let bytes = encode_stats_section(&Document::parse_str("<a><b/></a>").unwrap().stats());
        for cut in 0..bytes.len() {
            assert!(decode_stats_section(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_stats_section(&[2]).unwrap_err().contains("version 2"));
    }
}
