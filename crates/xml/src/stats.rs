//! Document statistics.
//!
//! These are the columns of the paper's Table 1 (size, number of nodes,
//! average and maximum depth, number of distinct tags, structure-tree
//! size) plus the *recursion* measurements the optimizer needs to choose
//! between pipelined and nested-loop joins (Sections 4.2–4.3): whether any
//! element occurs as a descendant of a same-tagged element, and the
//! maximum such nesting degree.
//!
//! Since the cost-based planner (DESIGN.md §11) the stats also carry the
//! selectivity structures its estimator prices plans with:
//!
//! * `tag_counts` — occurrences per element tag (posting-list lengths),
//! * `recursive_tags` — per-tag recursion degree (already present),
//! * `containment` — exact ancestor/descendant co-occurrence for the
//!   [`FREQUENT_TAG_LIMIT`] most frequent tag pairs, with a log₂-bucketed
//!   per-ancestor fanout histogram (a region-label containment histogram:
//!   how many `d` regions nest inside each `a` region).
//!
//! All of it is computed at load time in two document-order passes and
//! rides inside the BLM2 snapshot's `Stats` section (see the
//! `blossom-storage` crate), so a server repopulating its catalog from
//! snapshots pays no re-analysis.

use crate::document::{Document, NodeId, NodeKind};
use crate::fxhash::FxHashMap;
use crate::symbol::Sym;

/// How many of the most frequent tags get exact containment statistics.
/// Pass 2 of [`DocStats::compute`] costs `O(n + frequent_opens × K)`, so
/// this bounds both analysis time and the histogram's snapshot/heap size.
pub const FREQUENT_TAG_LIMIT: usize = 32;

/// Number of log₂ fanout buckets per tracked tag pair.
pub const FANOUT_BUCKETS: usize = 8;

/// Ancestor/descendant co-occurrence for one ordered tag pair `(a, d)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Containment {
    /// Number of `(a, d)` node pairs with `a` a proper ancestor of `d` —
    /// exactly the output cardinality of the structural join `a//d`.
    pub pairs: u64,
    /// Number of `a` nodes with at least one `d` descendant (distinct
    /// anchors surviving the `a//d` filter).
    pub ancestors: u32,
    /// Histogram of per-ancestor descendant counts: bucket `i` counts the
    /// `a` nodes whose `d`-descendant fanout is in `[2^i, 2^(i+1))`, the
    /// last bucket absorbing the tail.
    pub fanout_log2: [u32; FANOUT_BUCKETS],
}

/// Summary statistics of one document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocStats {
    /// Maximum same-tag nesting per tag name, for tags that nest at all
    /// (value ≥ 2). The optimizer uses this to decide whether a *query's*
    /// tags are recursive, which is finer than the whole-document flag.
    pub recursive_tags: FxHashMap<String, u16>,
    /// Element occurrences per tag: the length of the posting list a
    /// structural operator would scan for that tag.
    pub tag_counts: FxHashMap<String, u32>,
    /// Exact containment statistics for ordered pairs of frequent tags.
    /// Pairs with zero co-occurrence are absent.
    pub containment: FxHashMap<(String, String), Containment>,
    /// All tree nodes (elements + text), excluding the virtual document node.
    pub node_count: usize,
    /// Element nodes only.
    pub element_count: usize,
    /// Text nodes only.
    pub text_count: usize,
    /// Average element depth (root element = 1).
    pub avg_depth: f64,
    /// Maximum element depth.
    pub max_depth: u16,
    /// Number of distinct element tags.
    pub tag_count: usize,
    /// Is any element a descendant of a same-tagged element?
    pub recursive: bool,
    /// Maximum same-tag nesting (1 = non-recursive).
    pub max_recursion: u16,
    /// Total bytes of text content.
    pub text_bytes: usize,
    /// Approximate size in bytes of the structural part of the tree
    /// (the paper's `|tree|` column): 4 bytes per element, the size of the
    /// succinct structure encoding of \[22\].
    pub structure_bytes: usize,
}

impl DocStats {
    /// Compute statistics in two document-order passes: pass 1 gathers
    /// the Table-1 columns, recursion degrees and tag counts; pass 2
    /// gathers containment statistics restricted to the
    /// [`FREQUENT_TAG_LIMIT`] most frequent tags.
    pub fn compute(doc: &Document) -> DocStats {
        let mut element_count = 0usize;
        let mut text_count = 0usize;
        let mut depth_sum = 0u64;
        let mut max_depth = 0u16;
        let mut text_bytes = 0usize;
        let mut counts: FxHashMap<Sym, u32> = FxHashMap::default();
        // Same-tag nesting: walk with an explicit stack of (node_end, sym)
        // and per-sym active counts.
        let mut active: FxHashMap<Sym, u16> = FxHashMap::default();
        let mut stack: Vec<(u32, Sym)> = Vec::new();
        let mut max_recursion = 0u16;
        let mut per_tag: FxHashMap<Sym, u16> = FxHashMap::default();

        for n in doc.descendants(NodeId::DOCUMENT) {
            match doc.kind(n) {
                NodeKind::Element(sym) => {
                    element_count += 1;
                    let level = doc.level(n);
                    depth_sum += level as u64;
                    max_depth = max_depth.max(level);
                    *counts.entry(sym).or_insert(0) += 1;
                    // Pop finished ancestors.
                    while let Some(&(end, s)) = stack.last() {
                        if n.0 > end {
                            stack.pop();
                            *active.get_mut(&s).unwrap() -= 1;
                        } else {
                            break;
                        }
                    }
                    let count = active.entry(sym).or_insert(0);
                    *count += 1;
                    max_recursion = max_recursion.max(*count);
                    let tag_max = per_tag.entry(sym).or_insert(0);
                    *tag_max = (*tag_max).max(*count);
                    stack.push((doc.last_descendant(n).0, sym));
                }
                NodeKind::Text => {
                    text_count += 1;
                    text_bytes += doc.text(n).map(str::len).unwrap_or(0);
                }
                NodeKind::Document => {}
            }
        }

        let containment = compute_containment(doc, &counts);

        let recursive_tags: FxHashMap<String, u16> = per_tag
            .into_iter()
            .filter(|&(_, depth)| depth > 1)
            .map(|(sym, depth)| (doc.symbols().name(sym).to_string(), depth))
            .collect();
        let tag_count = counts.len();
        let tag_counts: FxHashMap<String, u32> = counts
            .into_iter()
            .map(|(sym, c)| (doc.symbols().name(sym).to_string(), c))
            .collect();
        DocStats {
            recursive_tags,
            tag_counts,
            containment,
            node_count: element_count + text_count,
            element_count,
            text_count,
            avg_depth: if element_count == 0 {
                0.0
            } else {
                depth_sum as f64 / element_count as f64
            },
            max_depth,
            tag_count,
            recursive: max_recursion > 1,
            max_recursion,
            text_bytes,
            structure_bytes: element_count * 4,
        }
    }

    /// Occurrences of `tag` (length of its posting list); 0 if absent.
    pub fn occurrences(&self, tag: &str) -> u32 {
        self.tag_counts.get(tag).copied().unwrap_or(0)
    }

    /// Containment statistics for ancestor tag `anc` over descendant tag
    /// `desc`, if both tags are frequent enough to be tracked and at
    /// least one pair exists.
    pub fn containment_of(&self, anc: &str, desc: &str) -> Option<&Containment> {
        self.containment.get(&(anc.to_string(), desc.to_string()))
    }

    /// Approximate heap footprint in bytes, for the server catalog's
    /// memory accounting (string keys + map entries; hash-map overhead
    /// and allocator slack not counted — an estimate, like
    /// [`Document::approx_heap_bytes`]).
    pub fn approx_heap_bytes(&self) -> usize {
        let entry = |s: &str| s.len() + std::mem::size_of::<String>();
        let recursive: usize =
            self.recursive_tags.keys().map(|k| entry(k) + 2).sum();
        let counts: usize = self.tag_counts.keys().map(|k| entry(k) + 4).sum();
        let pairs: usize = self
            .containment
            .keys()
            .map(|(a, d)| entry(a) + entry(d) + std::mem::size_of::<Containment>())
            .sum();
        std::mem::size_of::<DocStats>() + recursive + counts + pairs
    }
}

/// Pass 2: exact containment counts restricted to the most frequent tags.
///
/// Keeps a cumulative open-count per frequent tag; each frequent element
/// snapshots the vector at open and diffs it when its region closes, so
/// every pop charges `O(K)` and the whole pass is
/// `O(n + frequent_opens × K)`. Stack memory is bounded by
/// `max_depth × K` counters.
fn compute_containment(
    doc: &Document,
    counts: &FxHashMap<Sym, u32>,
) -> FxHashMap<(String, String), Containment> {
    if counts.is_empty() {
        return FxHashMap::default();
    }
    // Top-K tags by count; ties broken by name for determinism.
    let mut ranked: Vec<(Sym, u32)> = counts.iter().map(|(&s, &c)| (s, c)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| {
        doc.symbols().name(a.0).cmp(doc.symbols().name(b.0))
    }));
    ranked.truncate(FREQUENT_TAG_LIMIT);
    let slot_of: FxHashMap<Sym, usize> =
        ranked.iter().enumerate().map(|(i, &(s, _))| (s, i)).collect();
    let k = ranked.len();

    let mut cum = vec![0u64; k];
    // Open frequent-tag regions: (region end, own slot, cum snapshot
    // taken after counting self).
    let mut stack: Vec<(u32, usize, Vec<u64>)> = Vec::new();
    let mut acc: FxHashMap<(usize, usize), Containment> = FxHashMap::default();

    let pop = |entry: (u32, usize, Vec<u64>), cum: &[u64], acc: &mut FxHashMap<(usize, usize), Containment>| {
        let (_, anc_slot, snapshot) = entry;
        for t in 0..cum.len() {
            let desc = cum[t] - snapshot[t];
            if desc == 0 {
                continue;
            }
            let stat = acc.entry((anc_slot, t)).or_default();
            stat.pairs += desc;
            stat.ancestors += 1;
            let bucket = (63 - desc.leading_zeros() as usize).min(FANOUT_BUCKETS - 1);
            stat.fanout_log2[bucket] += 1;
        }
    };

    for n in doc.descendants(NodeId::DOCUMENT) {
        if let NodeKind::Element(sym) = doc.kind(n) {
            while let Some(top) = stack.last() {
                if n.0 > top.0 {
                    let entry = stack.pop().unwrap();
                    pop(entry, &cum, &mut acc);
                } else {
                    break;
                }
            }
            if let Some(&slot) = slot_of.get(&sym) {
                cum[slot] += 1;
                stack.push((doc.last_descendant(n).0, slot, cum.clone()));
            }
        }
    }
    while let Some(entry) = stack.pop() {
        pop(entry, &cum, &mut acc);
    }

    acc.into_iter()
        .map(|((a, d), stat)| {
            let name = |slot: usize| doc.symbols().name(ranked[slot].0).to_string();
            ((name(a), name(d)), stat)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_document() {
        let doc = Document::parse_str("<a><b>x</b><b>y</b><c/></a>").unwrap();
        let s = doc.stats();
        assert_eq!(s.element_count, 4);
        assert_eq!(s.text_count, 2);
        assert_eq!(s.node_count, 6);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.tag_count, 3);
        assert!(!s.recursive);
        assert_eq!(s.max_recursion, 1);
        assert_eq!(s.text_bytes, 2);
    }

    #[test]
    fn recursive_document() {
        let doc = Document::parse_str("<a><a><b/><a/></a><b/></a>").unwrap();
        let s = doc.stats();
        assert!(s.recursive);
        assert_eq!(s.max_recursion, 3); // a > a > a
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.recursive_tags.get("a"), Some(&3));
        assert_eq!(s.recursive_tags.get("b"), None);
    }

    #[test]
    fn per_tag_recursion_is_tag_scoped() {
        // a nests, x does not — even though x appears inside nested a's.
        let doc = Document::parse_str("<r><a><x/><a><x/></a></a></r>").unwrap();
        let s = doc.stats();
        assert!(s.recursive);
        assert!(s.recursive_tags.contains_key("a"));
        assert!(!s.recursive_tags.contains_key("x"));
        assert!(!s.recursive_tags.contains_key("r"));
    }

    #[test]
    fn sibling_same_tags_are_not_recursion() {
        let doc = Document::parse_str("<r><a/><a/><a/></r>").unwrap();
        let s = doc.stats();
        assert!(!s.recursive);
        assert_eq!(s.max_recursion, 1);
    }

    #[test]
    fn recursion_across_gap() {
        // a // (b) // a is still recursion of a.
        let doc = Document::parse_str("<a><b><a/></b></a>").unwrap();
        assert!(doc.stats().recursive);
        assert_eq!(doc.stats().max_recursion, 2);
    }

    #[test]
    fn avg_depth() {
        let doc = Document::parse_str("<a><b/><b/></a>").unwrap();
        let s = doc.stats();
        // depths: 1, 2, 2.
        assert!((s.avg_depth - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn tag_counts_are_posting_lengths() {
        let doc = Document::parse_str("<a><b>x</b><b>y</b><c/></a>").unwrap();
        let s = doc.stats();
        assert_eq!(s.occurrences("a"), 1);
        assert_eq!(s.occurrences("b"), 2);
        assert_eq!(s.occurrences("c"), 1);
        assert_eq!(s.occurrences("zzz"), 0);
    }

    #[test]
    fn containment_counts_join_pairs() {
        let doc = Document::parse_str("<r><a><d/><d/></a><a/><d/></r>").unwrap();
        let s = doc.stats();
        let c = s.containment_of("a", "d").unwrap();
        assert_eq!(c.pairs, 2); // only the two d's under the first a
        assert_eq!(c.ancestors, 1);
        assert_eq!(c.fanout_log2[1], 1); // one a with fanout 2
        // d never contains a.
        assert!(s.containment_of("d", "a").is_none());
        // r contains everything.
        assert_eq!(s.containment_of("r", "d").unwrap().pairs, 3);
        assert_eq!(s.containment_of("r", "a").unwrap().pairs, 2);
    }

    #[test]
    fn containment_under_recursion_counts_pair_multiplicity() {
        // a > a > d: both a's contain the d, and the outer a contains the
        // inner a — exactly the structural-join pair semantics.
        let doc = Document::parse_str("<a><a><d/></a></a>").unwrap();
        let s = doc.stats();
        assert_eq!(s.containment_of("a", "d").unwrap().pairs, 2);
        assert_eq!(s.containment_of("a", "a").unwrap().pairs, 1);
        assert_eq!(s.containment_of("a", "d").unwrap().ancestors, 2);
    }

    // --- edge-case fixtures for the estimator (always-on) ---

    #[test]
    fn empty_document_has_empty_stats() {
        let doc = Document::builder().finish();
        let s = doc.stats();
        assert_eq!(s.element_count, 0);
        assert_eq!(s.tag_count, 0);
        assert!(s.tag_counts.is_empty());
        assert!(s.containment.is_empty());
        assert!(s.recursive_tags.is_empty());
        assert_eq!(s.avg_depth, 0.0);
        assert!(s.approx_heap_bytes() >= std::mem::size_of::<DocStats>());
    }

    #[test]
    fn single_tag_chain_recursion_degree_and_containment() {
        // <a><a><a>…</a></a></a>, depth 10: recursion degree 10, and
        // a//a has C(10,2) = 45 ancestor/descendant pairs.
        let depth = 10usize;
        let xml = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let doc = Document::parse_str(&xml).unwrap();
        let s = doc.stats();
        assert_eq!(s.recursive_tags.get("a"), Some(&(depth as u16)));
        assert_eq!(s.max_recursion, depth as u16);
        let c = s.containment_of("a", "a").unwrap();
        assert_eq!(c.pairs, (depth * (depth - 1) / 2) as u64);
        assert_eq!(c.ancestors, (depth - 1) as u32);
        // The deepest chain ancestor sees 9 descendants → bucket log2(9)=3.
        assert_eq!(c.fanout_log2[3], 2); // fanouts 9 and 8
    }

    #[test]
    fn star_fanout_histogram() {
        // One hub with 100 leaves: a single ancestor in bucket
        // floor(log2(100)) = 6, and no leaf-to-leaf containment.
        let xml = format!("<hub>{}</hub>", "<leaf/>".repeat(100));
        let doc = Document::parse_str(&xml).unwrap();
        let s = doc.stats();
        let c = s.containment_of("hub", "leaf").unwrap();
        assert_eq!(c.pairs, 100);
        assert_eq!(c.ancestors, 1);
        assert_eq!(c.fanout_log2[6], 1);
        assert!(s.containment_of("leaf", "leaf").is_none());
        assert!(s.containment_of("leaf", "hub").is_none());
    }

    #[test]
    fn infrequent_tags_fall_off_the_containment_map() {
        // More distinct tags than FREQUENT_TAG_LIMIT: the rare singleton
        // tags beyond the cap carry no containment entries, but their
        // tag_counts remain exact.
        let mut xml = String::from("<r>");
        for i in 0..(FREQUENT_TAG_LIMIT + 8) {
            // t0 appears many times so it stays frequent; the others once.
            if i == 0 {
                xml.push_str(&"<t0/>".repeat(50));
            } else {
                xml.push_str(&format!("<t{i}/>"));
            }
        }
        xml.push_str("</r>");
        let doc = Document::parse_str(&xml).unwrap();
        let s = doc.stats();
        assert_eq!(s.occurrences("t0"), 50);
        assert!(s.containment_of("r", "t0").is_some());
        // Only FREQUENT_TAG_LIMIT tags are tracked; at least one of the
        // singleton tags must be absent from every pair.
        let tracked: std::collections::HashSet<&str> = s
            .containment
            .keys()
            .flat_map(|(a, d)| [a.as_str(), d.as_str()])
            .collect();
        assert!(tracked.len() <= FREQUENT_TAG_LIMIT);
    }

    #[test]
    fn fanout_tail_bucket_absorbs_large_fanouts() {
        let xml = format!("<hub>{}</hub>", "<leaf/>".repeat(1000));
        let doc = Document::parse_str(&xml).unwrap();
        let c = doc.stats().containment_of("hub", "leaf").unwrap().clone();
        assert_eq!(c.fanout_log2[FANOUT_BUCKETS - 1], 1);
        assert_eq!(c.pairs, 1000);
    }
}
