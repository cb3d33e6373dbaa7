//! Tour of the storage and streaming substrates: grammar-driven document
//! generation, the BLM2 columnar snapshot format, and streaming (SAX)
//! NoK evaluation with memory bounded by document depth.
//!
//! ```text
//! cargo run --example substrates
//! ```

use blossomtree::core::decompose::Decomposition;
use blossomtree::core::nok::NokMatcher;
use blossomtree::core::stream::count_anchors_streaming;
use blossomtree::flwor::BlossomTree;
use blossomtree::storage::{snapshot, EncodeOptions};
use blossomtree::xml::{writer, TagIndex};
use blossomtree::xmlgen::Grammar;
use blossomtree::xpath::parse_path;

fn main() {
    // 1. Describe a corpus with the probabilistic DTD-like rule language.
    let grammar = Grammar::parse(
        "library -> shelf*4\n\
         shelf -> book*5 label?0.5\n\
         book -> title author?0.8 author?0.3 price?0.6\n\
         title -> #text\n\
         author -> #text\n\
         price -> #text",
    )
    .expect("valid grammar");
    let doc = grammar.generate(20_000, 42);
    let stats = doc.stats();
    println!(
        "generated <{}> corpus: {} nodes, {} tags, max depth {}",
        grammar.root(),
        stats.node_count,
        stats.tag_count,
        stats.max_depth
    );

    // 2. Snapshot it as BLM2: one aligned, checksummed extent per arena
    //    column and posting array, ready to be mapped and queried.
    let index = TagIndex::build(&doc);
    let bytes = snapshot::encode(&doc, &index, &stats, EncodeOptions::default())
        .expect("encodable document");
    let xml = writer::to_string(&doc);
    println!("\nBLM2 snapshot: {} bytes total vs {} bytes of XML text", bytes.len(), xml.len());
    for (name, size) in snapshot::section_sizes(&bytes).expect("well-formed snapshot") {
        println!("  {name:<14} {size:>8} bytes");
    }
    let reopened = snapshot::open_bytes(&bytes).expect("round-trips");
    assert_eq!(writer::to_string(&reopened.doc), xml);
    println!("  round-trip: exact");

    // 3. Evaluate a NoK pattern in streaming mode — no tree in memory.
    let query = "//book[author][price]";
    let d = Decomposition::decompose(
        &BlossomTree::from_path(&parse_path(query).unwrap()).unwrap(),
    );
    let streamed = count_anchors_streaming(&xml, &d.noks[0]).expect("well-formed");
    let materialized = NokMatcher::new(&doc, &d.noks[0], d.shape.clone(), None)
        .scan()
        .len();
    println!("\nstreaming NoK evaluation of {query}:");
    println!("  SAX pass (O(depth) memory): {streamed} matches");
    println!("  in-memory matcher:          {materialized} matches");
    assert_eq!(streamed, materialized);
}
