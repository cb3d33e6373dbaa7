//! Storage-engine benchmark: cold-load cost by format, query latency
//! over owned vs mapped columns, and a bounded-memory catalog sweep at
//! 10x the configured cap. The report lands in `BENCH_storage.json`.
//!
//! Three experiments, one per claim the storage engine makes:
//!
//! * **cold-load** — for each paper dataset, the wall-clock to go from
//!   bytes on disk to a queryable `(Document, TagIndex, DocStats)`
//!   triple, three ways: parse the XML, decode a BLM2 image onto the
//!   heap, and `mmap` the BLM2 file. The mapped open touches O(columns) bytes, not O(nodes), so its cost
//!   must stay flat as documents grow.
//! * **query-latency** — the same queries over an owned engine and a
//!   mapped engine, interleaved; mapped columns must not tax steady-
//!   state evaluation once pages are warm.
//! * **catalog-sweep** — a `--store-dir`-backed catalog whose byte cap
//!   is a tenth of the corpus: every document must still serve
//!   byte-identically (spill → remap on demand), the resident charge
//!   must stay bounded by the cap, and the process RSS must not absorb
//!   the whole corpus.
//!
//! ```text
//! cargo run --release -p blossom-bench --bin storage -- \
//!     [--nodes N] [--runs N] [--seed S] [--docs N] [--out FILE]
//! ```

use blossom_bench::timing::{self, Json};
use blossom_bench::Args;
use blossom_core::{EngineOptions, SharedPlanCache, Strategy};
use blossom_server::catalog::Catalog;
use blossom_storage::{snapshot, EncodeOptions, OpenMode, StoreDir};
use blossom_xml::{writer, Document, TagIndex};
use blossom_xmlgen::{generate, Dataset};
use std::sync::Arc;

/// One query per dataset that touches a recursive/descendant axis, so
/// both the posting lists and the arena columns get exercised.
fn query_for(dataset: Dataset) -> &'static str {
    match dataset {
        Dataset::D1Recursive => "//item[//bold]",
        Dataset::D2Address => "//address[//zip_code]",
        Dataset::D3Catalog => "//product[description]",
        Dataset::D4Treebank => "//NP[//NN]",
        Dataset::D5Dblp => "for $a in //article order by $a/year return $a/title",
    }
}

/// `VmRSS` from `/proc/self/status`, in bytes (0 where unavailable).
fn resident_set_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn main() {
    let args = Args::parse();
    let nodes: usize = args.get("nodes").unwrap_or(120_000);
    let runs: u32 = args.get("runs").unwrap_or(5);
    let seed: u64 = args.get("seed").unwrap_or(0xB10550);
    let docs: usize = args.get("docs").unwrap_or(12);
    let out: String = args.get("out").unwrap_or_else(|| "BENCH_storage.json".to_string());

    let scratch = std::env::temp_dir().join(format!("blossom-bench-storage-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    // ------------------------------------------------------------------
    // Experiment 1: cold-load by format.
    // ------------------------------------------------------------------
    let mut cold_rows = Vec::new();
    let mut latency_rows = Vec::new();
    for dataset in Dataset::all() {
        let doc = generate(dataset, nodes, seed);
        let xml = writer::to_string(&doc);
        let index = TagIndex::build(&doc);
        let stats = doc.stats();
        let blm2 =
            snapshot::encode(&doc, &index, &stats, EncodeOptions::default()).expect("encode");
        let blm2_path = scratch.join(format!("{}.blm2", dataset.name()));
        std::fs::write(&blm2_path, &blm2).expect("write snapshot");

        let parse_xml = || {
            let d = Document::parse_str(&xml).expect("parse");
            let i = TagIndex::build(&d);
            let s = d.stats();
            std::hint::black_box((i, s));
            d.len()
        };
        let open_heap = || {
            let snap = snapshot::open_bytes(&blm2).expect("heap open");
            snap.doc.len()
        };
        let open_map = || {
            let snap = snapshot::open_path(&blm2_path, OpenMode::Map).expect("map open");
            snap.doc.len()
        };

        let xml_t = timing::time(&format!("{}-parse-xml", dataset.name()), 1, runs, parse_xml);
        let heap_t = timing::time(&format!("{}-open-blm2-heap", dataset.name()), 1, runs, open_heap);
        let map_t = timing::time(&format!("{}-map-blm2", dataset.name()), 1, runs, open_map);
        let speedup_vs_parse = xml_t.min.as_secs_f64() / map_t.min.as_secs_f64().max(1e-12);
        eprintln!(
            "{:<3} {:>8} nodes  parse {:>10.2?}  blm2-heap {:>10.2?}  blm2-map {:>10.2?}  map vs parse {:.0}x",
            dataset.name(),
            doc.len(),
            xml_t.min,
            heap_t.min,
            map_t.min,
            speedup_vs_parse
        );
        cold_rows.push(Json::obj([
            ("dataset", Json::str(dataset.name())),
            ("nodes", Json::Num(doc.len() as f64)),
            ("xml_bytes", Json::Num(xml.len() as f64)),
            ("blm2_bytes", Json::Num(blm2.len() as f64)),
            ("parse_xml_min_s", Json::Num(xml_t.min.as_secs_f64())),
            ("open_blm2_heap_min_s", Json::Num(heap_t.min.as_secs_f64())),
            ("map_blm2_min_s", Json::Num(map_t.min.as_secs_f64())),
            ("map_speedup_vs_parse", Json::Num(speedup_vs_parse)),
        ]));

        // --------------------------------------------------------------
        // Experiment 2: query latency, owned vs mapped (same pages warm).
        // --------------------------------------------------------------
        let query = query_for(dataset);
        let owned_engine = blossom_core::Engine::with_shared(
            Arc::new(Document::parse_str(&xml).expect("parse")),
            Arc::new(index),
            Arc::new(stats),
            Arc::new(SharedPlanCache::new(8)),
            EngineOptions::default(),
        );
        let snap = snapshot::open_path(&blm2_path, OpenMode::Map).expect("map open");
        let mapped_engine = blossom_core::Engine::with_shared(
            Arc::new(snap.doc),
            Arc::new(snap.index),
            Arc::new(snap.stats),
            Arc::new(SharedPlanCache::new(8)),
            EngineOptions::default(),
        );
        let want = owned_engine.eval_query_str(query, Strategy::Auto).expect("owned eval");
        let got = mapped_engine.eval_query_str(query, Strategy::Auto).expect("mapped eval");
        assert_eq!(
            writer::to_string(&want),
            writer::to_string(&got),
            "{}: owned and mapped results diverged",
            dataset.name()
        );
        let (owned_t, mapped_t) = timing::time_pair(
            &format!("{}-query-owned", dataset.name()),
            &format!("{}-query-mapped", dataset.name()),
            1,
            runs,
            || owned_engine.eval_query_str(query, Strategy::Auto).expect("owned").len(),
            || mapped_engine.eval_query_str(query, Strategy::Auto).expect("mapped").len(),
        );
        latency_rows.push(Json::obj([
            ("dataset", Json::str(dataset.name())),
            ("query", Json::str(query)),
            ("owned_min_s", Json::Num(owned_t.min.as_secs_f64())),
            ("owned_mean_s", Json::Num(owned_t.mean.as_secs_f64())),
            ("mapped_min_s", Json::Num(mapped_t.min.as_secs_f64())),
            ("mapped_mean_s", Json::Num(mapped_t.mean.as_secs_f64())),
            (
                "mapped_overhead",
                Json::Num(mapped_t.min.as_secs_f64() / owned_t.min.as_secs_f64().max(1e-12)),
            ),
        ]));
    }

    // ------------------------------------------------------------------
    // Experiment 3: the catalog at 10x over its cap.
    // ------------------------------------------------------------------
    let store_root = scratch.join("store");
    let corpus: Vec<(String, String)> = (0..docs)
        .map(|i| {
            let dataset = Dataset::all()[i % Dataset::all().len()];
            let doc = generate(dataset, nodes / 2, seed.wrapping_add(i as u64));
            (format!("doc{i:02}"), writer::to_string(&doc))
        })
        .collect();
    // Size the cap from the owned footprint: serve 10x that corpus.
    let owned_total: usize = corpus
        .iter()
        .map(|(_, xml)| Document::parse_str(xml).expect("parse").approx_heap_bytes())
        .sum();
    let cap = (owned_total / 10).max(1);
    let catalog = Catalog::with_store(cap, StoreDir::open(&store_root).expect("store dir"));
    let rss_before = resident_set_bytes();
    let mut expected = Vec::new();
    for (name, xml) in &corpus {
        let entry = catalog.load_bytes(name, xml.as_bytes()).expect("load");
        let engine = entry.engine(Arc::new(SharedPlanCache::new(8)), EngineOptions::default());
        let result = engine.eval_query_str("//*[1]", Strategy::Auto).expect("eval");
        expected.push(writer::to_string(&result));
    }

    // Sweep the corpus several times: every access must return the same
    // bytes whether the entry was resident, mapped, or spilled.
    let sweep = timing::time("catalog-sweep", 1, runs, || {
        let mut hits = 0usize;
        for (i, (name, _)) in corpus.iter().enumerate() {
            let entry = catalog.get(name).expect("entry");
            let engine =
                entry.engine(Arc::new(SharedPlanCache::new(8)), EngineOptions::default());
            let result = engine.eval_query_str("//*[1]", Strategy::Auto).expect("eval");
            assert_eq!(writer::to_string(&result), expected[i], "{name} diverged under spill");
            hits += 1;
        }
        hits
    });
    // Miss penalty: a one-byte cap forces every access to find its
    // entry spilled and remap the generation file from the store.
    let cold = Catalog::with_store(1, StoreDir::open(&scratch.join("cold")).expect("store dir"));
    for (name, xml) in &corpus {
        cold.load_bytes(name, xml.as_bytes()).expect("load");
    }
    let remap = timing::time("catalog-remap", 1, runs, || {
        let mut hits = 0usize;
        for (name, _) in &corpus {
            let entry = cold.get(name).expect("remap");
            std::hint::black_box(&entry);
            hits += 1;
        }
        hits
    });
    let cold_occ = cold.occupancy();
    assert!(cold_occ.remaps > 0, "the one-byte-cap catalog never exercised a remap");

    let occ = catalog.occupancy();
    let rss_after = resident_set_bytes();
    assert!(
        occ.resident_bytes <= (cap + owned_total / docs.max(1)) as u64,
        "resident bytes {} exceed cap {} + one-entry slack",
        occ.resident_bytes,
        cap
    );
    eprintln!(
        "catalog: {} docs, owned total {} B, cap {} B  resident {} B  spilled {} docs  remaps {}  sweep {:?}",
        docs, owned_total, cap, occ.resident_bytes, occ.spilled_docs, occ.remaps, sweep.min
    );

    let report = Json::obj([
        ("bench", Json::str("storage")),
        ("nodes", Json::Num(nodes as f64)),
        ("runs", Json::Num(f64::from(runs))),
        ("seed", Json::Num(seed as f64)),
        ("cold_load", Json::Arr(cold_rows)),
        ("query_latency", Json::Arr(latency_rows)),
        (
            "catalog_sweep",
            Json::obj([
                ("docs", Json::Num(docs as f64)),
                ("owned_total_bytes", Json::Num(owned_total as f64)),
                ("cap_bytes", Json::Num(cap as f64)),
                ("over_cap_factor", Json::Num(owned_total as f64 / cap as f64)),
                ("resident_bytes", Json::Num(occ.resident_bytes as f64)),
                ("mapped_bytes", Json::Num(occ.mapped_bytes as f64)),
                ("spilled_bytes", Json::Num(occ.spilled_bytes as f64)),
                ("resident_docs", Json::Num(occ.resident_docs as f64)),
                ("spilled_docs", Json::Num(occ.spilled_docs as f64)),
                ("spills", Json::Num(occ.spills as f64)),
                ("remaps", Json::Num(occ.remaps as f64)),
                ("sweep_min_s", Json::Num(sweep.min.as_secs_f64())),
                ("sweep_mean_s", Json::Num(sweep.mean.as_secs_f64())),
                (
                    "remap_per_doc_min_s",
                    Json::Num(remap.min.as_secs_f64() / docs.max(1) as f64),
                ),
                ("forced_remaps", Json::Num(cold_occ.remaps as f64)),
                ("rss_before_bytes", Json::Num(rss_before as f64)),
                ("rss_after_bytes", Json::Num(rss_after as f64)),
            ]),
        ),
    ]);
    timing::write_report(&out, &report).expect("write report");
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(&scratch);
}
