//! Seeded workload inputs and their expected responses.
//!
//! Everything the server will be sent is generated here from the seed,
//! and every read's expected bytes are computed in-process by an
//! [`Engine`] before the timed window opens. The server only ever sees
//! the generated documents, queries and mutation scripts.

use crate::stats::Digest;
use blossom_bench::queries::queries;
use blossom_core::{apply_mutations, Engine, EngineOptions, SharedPlanCache, Strategy, UpdatedDoc};
use blossom_xml::mutate::{self, Mutation};
use blossom_xml::{writer, Dewey, Document, NodeId, TagIndex};
use blossom_xmlgen::{generate, random_mutations, Dataset, SplitMix};
use std::sync::Arc;

/// Request classes, each with its own latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A bare XPath query.
    Path,
    /// A FLWOR query.
    Flwor,
}

/// One generated document.
pub struct Doc {
    /// Catalog name it is loaded under.
    pub name: String,
    /// The XML sent with `POST /load`.
    pub xml: String,
    /// Arena nodes.
    pub nodes: usize,
}

/// One read request and the bytes `GET /query` must answer with.
pub struct Case {
    /// Index into the workload's documents.
    pub doc: usize,
    /// Latency class.
    pub class: Class,
    /// Query text.
    pub query: String,
    /// Expected response body.
    pub expected: Vec<u8>,
}

/// Input sizes; [`Sizes::full`] is what the benchmark measures,
/// [`Sizes::smoke`] keeps the tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Nodes per `table3-mix` document.
    pub table3_nodes: usize,
    /// Nodes per `point-open` document.
    pub point_nodes: usize,
    /// Distinct point-lookup keys (several times the server's plan-cache
    /// capacity of 1024).
    pub point_keys: usize,
    /// Nodes of the `update-mix` document.
    pub update_nodes: usize,
    /// Distinct forward scripts in the update cycle.
    pub update_scripts: usize,
    /// Mutations per forward script.
    pub script_len: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Sizes {
        Sizes {
            table3_nodes: 60_000,
            point_nodes: 5_000,
            point_keys: 4096,
            update_nodes: 60_000,
            update_scripts: 8,
            script_len: 3,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn smoke() -> Sizes {
        Sizes {
            table3_nodes: 2_000,
            point_nodes: 1_500,
            point_keys: 256,
            update_nodes: 2_000,
            update_scripts: 2,
            script_len: 2,
        }
    }

    /// Feed the sizes into a digest.
    fn digest(&self, d: &mut Digest) {
        for n in [
            self.table3_nodes,
            self.point_nodes,
            self.point_keys,
            self.update_nodes,
            self.update_scripts,
            self.script_len,
        ] {
            d.num(n as u64);
        }
    }
}

/// Two correlated FLWOR queries per dataset in the style of the paper's
/// Example 1: `for`/`let` bindings relative to an outer variable, a
/// `where` on a value (`=`) or on document order (`<<`), and an
/// element constructor in `return`.
pub fn flwor_queries(dataset: Dataset) -> [&'static str; 2] {
    match dataset {
        Dataset::D1Recursive => [
            r#"for $c in //c2 let $b := $c/b1 where $c/c3 = "data" return <hit>{$b}</hit>"#,
            r#"for $c in //c2, $b in $c/b1 let $t := $c/c3 where $b << $t return <p>{$t}</p>"#,
        ],
        Dataset::D2Address => [
            r#"for $a in //address let $s := $a/street_address where $a/name_of_state = "index" return <addr>{$s}{$a/zip_code}</addr>"#,
            r#"for $a in //address, $z in $a/zip_code let $c := $a/name_of_city where $c << $z return <r>{$c}{$z}</r>"#,
        ],
        Dataset::D3Catalog => [
            r#"for $i in //item let $t := $i/title where $i//author/last_name = "knuth" return <book>{$t}</book>"#,
            r#"for $a in //author, $s in $a//street_address let $l := $a/last_name where $l << $s return <au>{$l}{$s}</au>"#,
        ],
        Dataset::D4Treebank => [
            r#"for $v in //VP, $n in $v/NP where $n/NN = "tree" return <vp>{$n}</vp>"#,
            r#"for $s in //S let $np := $s/NP, $vp := $s/VP where $np << $vp and $vp/VB = "match" return <s>{$np/NN}{$vp/VB}</s>"#,
        ],
        Dataset::D5Dblp => [
            r#"for $p in //inproceedings let $a := $p/author where $p/year = "2002" return <paper>{$p/title}{$a}</paper>"#,
            r#"for $p in //proceedings, $e in $p/editor let $t := $p/title where $e << $t return <ed>{$e}{$p/year}</ed>"#,
        ],
    }
}

/// The response body `GET /query` returns: the serialized result plus a
/// trailing newline.
pub fn expected_bytes(engine: &Engine, query: &str) -> Result<Vec<u8>, String> {
    let doc = engine
        .eval_query_str(query, Strategy::Auto)
        .map_err(|e| format!("evaluating {query:?} in-process: {e}"))?;
    let mut text = writer::to_string(&doc);
    text.push('\n');
    Ok(text.into_bytes())
}

/// Engine options matching the server's one thread per query.
pub fn engine_options() -> EngineOptions {
    EngineOptions {
        threads: 1,
        ..EngineOptions::default()
    }
}

/// A single-threaded engine over `doc`.
pub fn engine_for(doc: Document) -> Engine {
    Engine::with_options(doc, engine_options())
}

/// A single-threaded engine over an updated snapshot.
pub fn engine_for_updated(u: UpdatedDoc) -> Engine {
    Engine::with_shared(
        u.doc,
        u.index,
        u.stats,
        Arc::new(SharedPlanCache::new(64)),
        engine_options(),
    )
}

fn doc_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
}

/// Generator seed of every document. The documents are fixed corpora,
/// like the paper's d1–d5; `--seed` draws the request sequence over
/// them. Seeded documents would make per-query costs, and so every
/// end-to-end figure, move with the seed.
const DOC_SEED: u64 = 42;

fn make_doc(dataset: Dataset, nodes: usize) -> (Doc, Document) {
    let document = generate(dataset, nodes, DOC_SEED);
    let doc = Doc {
        name: dataset.name().to_string(),
        xml: writer::to_string(&document),
        nodes: document.len(),
    };
    (doc, document)
}

fn digest_docs(d: &mut Digest, docs: &[Doc]) {
    for doc in docs {
        d.str(&doc.name);
        d.str(&doc.xml);
    }
}

fn digest_cases(d: &mut Digest, cases: &[Case]) {
    for c in cases {
        d.num(c.doc as u64);
        d.str(&c.query);
    }
}

/// Draws per connection folded into a closed-loop digest: enough to pin
/// the sequence, independent of how many requests a run gets through.
const DIGEST_DRAWS: usize = 4096;

/// The RNG behind connection `conn`'s draws.
pub fn conn_rng(seed: u64, conn: usize) -> SplitMix {
    SplitMix::new(doc_seed(seed, 0x00c0_ffee ^ conn as u64))
}

/// `table3-mix` and the reads of `update-mix`: documents plus a case
/// table that each connection draws from with its own seeded RNG.
pub struct ReadMix {
    /// Documents to load.
    pub docs: Vec<Doc>,
    /// Read cases.
    pub cases: Vec<Case>,
    /// Digest of the documents, cases and each connection's draws.
    pub digest: String,
}

/// The five datasets at `table3_nodes` each, the 30 Table-3 path
/// queries and two FLWOR queries per dataset.
pub fn table3_mix(seed: u64, sizes: &Sizes, connections: usize) -> Result<ReadMix, String> {
    let mut docs = Vec::new();
    let mut cases = Vec::new();
    for (i, dataset) in Dataset::all().into_iter().enumerate() {
        let (doc, document) = make_doc(dataset, sizes.table3_nodes);
        let engine = engine_for(document);
        let paths = queries(dataset).map(|q| (Class::Path, q.path));
        let flwors = flwor_queries(dataset).map(|q| (Class::Flwor, q));
        for (class, query) in paths.into_iter().chain(flwors) {
            let expected = expected_bytes(&engine, query)?;
            cases.push(Case {
                doc: i,
                class,
                query: query.to_string(),
                expected,
            });
        }
        docs.push(doc);
    }
    let mut d = Digest::default();
    d.str("table3-mix");
    sizes.digest(&mut d);
    digest_docs(&mut d, &docs);
    digest_cases(&mut d, &cases);
    for conn in 0..connections {
        let mut rng = conn_rng(seed, conn);
        for _ in 0..DIGEST_DRAWS {
            d.num(rng.gen_index(cases.len()) as u64);
        }
    }
    Ok(ReadMix {
        docs,
        cases,
        digest: d.hex(),
    })
}

/// Distinct text values of `<tag>` elements, sorted.
fn texts_of(doc: &Document, tag: &str) -> Vec<String> {
    let mut out: Vec<String> = doc
        .elements()
        .filter(|&n| doc.tag_name(n) == Some(tag))
        .map(|n| doc.string_value(n))
        .filter(|v| !v.is_empty() && !v.contains('"'))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// `point-open`: a universe of value-predicate point lookups over two
/// small documents, in Zipf rank order (`cases[0]` is the hottest key).
pub struct PointMix {
    /// Documents to load.
    pub docs: Vec<Doc>,
    /// The key universe, hottest first.
    pub cases: Vec<Case>,
    /// Cumulative Zipf weights over `cases`, ending at 1.
    cdf: Vec<f64>,
    /// Digest of documents and universe (the open loop adds its
    /// schedule).
    pub digest: Digest,
}

impl PointMix {
    /// Draw one key index.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.cases.len() - 1)
    }
}

/// Zipf exponent of the point-lookup key distribution.
const ZIPF_S: f64 = 1.0;

/// Build the `point-open` key universe.
pub fn point_mix(seed: u64, sizes: &Sizes) -> Result<PointMix, String> {
    let (d2, d2doc) = make_doc(Dataset::D2Address, sizes.point_nodes);
    let (d5, d5doc) = make_doc(Dataset::D5Dblp, sizes.point_nodes);
    let zips = texts_of(&d2doc, "zip_code");
    let authors = texts_of(&d5doc, "author");
    // One key list per template; which values are hot is seeded.
    let templates: Vec<Vec<(usize, Class, String)>> = vec![
        zips.iter().map(|z| (0, Class::Path, format!(r#"//address[zip_code = "{z}"]/street_address"#))).collect(),
        authors.iter().map(|a| (1, Class::Path, format!(r#"//inproceedings[author = "{a}"]/title"#))).collect(),
        zips.iter()
            .map(|z| {
                let q = format!(r#"for $a in //address where $a/zip_code = "{z}" return <hit>{{$a/street_address}}</hit>"#);
                (0, Class::Flwor, q)
            })
            .collect(),
        zips.iter().map(|z| (0, Class::Path, format!(r#"//address[zip_code = "{z}"]/name_of_city"#))).collect(),
        authors.iter().map(|a| (1, Class::Path, format!(r#"//article[author = "{a}"]/year"#))).collect(),
        authors
            .iter()
            .map(|a| {
                let q = format!(
                    r#"for $p in //inproceedings where $p/author = "{a}" return <paper>{{$p/title}}{{$p/year}}</paper>"#
                );
                (1, Class::Flwor, q)
            })
            .collect(),
    ];
    let mut rng = SplitMix::new(doc_seed(seed, 0x5eed));
    let mut lists: Vec<std::vec::IntoIter<(usize, Class, String)>> = templates
        .into_iter()
        .map(|mut keys| {
            for i in (1..keys.len()).rev() {
                let j = rng.gen_index(i + 1);
                keys.swap(i, j);
            }
            keys.into_iter()
        })
        .collect();
    // Ranks cycle through the templates, so every seed puts the same
    // mix of query shapes and classes at the hot end of the Zipf curve.
    let mut keys = Vec::with_capacity(sizes.point_keys);
    'fill: while keys.len() < sizes.point_keys {
        let mut any = false;
        for list in &mut lists {
            if let Some(k) = list.next() {
                keys.push(k);
                any = true;
                if keys.len() == sizes.point_keys {
                    break 'fill;
                }
            }
        }
        if !any {
            break;
        }
    }
    let engines = [engine_for(d2doc), engine_for(d5doc)];
    let mut cases = Vec::with_capacity(keys.len());
    for (doc, class, query) in keys {
        let expected = expected_bytes(&engines[doc], &query)?;
        cases.push(Case {
            doc,
            class,
            query,
            expected,
        });
    }
    let mut cdf: Vec<f64> = Vec::with_capacity(cases.len());
    let mut total = 0.0;
    for rank in 1..=cases.len() {
        total += 1.0 / (rank as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    let docs = vec![d2, d5];
    let mut digest = Digest::default();
    digest.str("point-open");
    sizes.digest(&mut digest);
    digest_docs(&mut digest, &docs);
    digest_cases(&mut digest, &cases);
    Ok(PointMix {
        docs,
        cases,
        cdf,
        digest,
    })
}

/// One `POST /update` body of the update cycle.
pub struct Script {
    /// The mutation script text.
    pub text: String,
    /// Which content variant the document holds after it.
    pub variant_after: usize,
}

/// `update-mix`: one document, a cycle of update scripts, and reads
/// whose expected bytes are known for every content variant the cycle
/// passes through.
pub struct UpdateMix {
    /// The document (loaded from `--store-dir`).
    pub doc: Doc,
    /// Read cases; `expected` holds variant 0's bytes.
    pub cases: Vec<Case>,
    /// `expected[variant][case]`; variant 0 is the loaded document,
    /// variant `j` the document after forward script `j`.
    pub expected: Vec<Vec<Vec<u8>>>,
    /// `GET /query` answer to [`FINAL_QUERY`] for each variant: the
    /// whole document, compared once the run ends.
    pub final_expected: Vec<Vec<u8>>,
    /// The cycle: forward script `j`, then the script restoring
    /// variant 0, for each `j`.
    pub scripts: Vec<Script>,
    /// Digest of document, reads, scripts and the reader's draws.
    pub digest: String,
}

/// The dataset `update-mix` serves: its top-level `item`s are the units
/// the update scripts edit.
pub const UPDATE_DATASET: Dataset = Dataset::D3Catalog;

/// A query returning the whole `update-mix` document.
pub const FINAL_QUERY: &str = "/catalog";

/// Build the `update-mix` inputs. Forward script `j` is a seeded
/// `xmlgen::mutgen` script drawn against one top-level item (as a
/// document of its own) and re-addressed into the full document; the
/// restoring script replaces that item with its original bytes. The
/// document therefore cycles through a bounded set of variants, which
/// keeps the expected bytes of every read computable before the run.
pub fn update_mix(seed: u64, sizes: &Sizes) -> Result<UpdateMix, String> {
    let (doc, document) = make_doc(UPDATE_DATASET, sizes.update_nodes);
    let root = document
        .root_element()
        .ok_or("update document has no root element")?;
    let items: Vec<NodeId> = document.children(root).collect();
    let base_index = TagIndex::build(&document);
    let mut rng = SplitMix::new(doc_seed(seed, 0xda7a));
    let mut variants: Vec<UpdatedDoc> = Vec::new();
    let mut scripts = Vec::new();
    for j in 0..sizes.update_scripts {
        let (forward, restore) =
            item_scripts(&document, &items, sizes.script_len, &mut rng, j as u64)?;
        let updated = apply_mutations(&document, &base_index, &forward, None)
            .map_err(|e| format!("forward script {j}: {e}"))?;
        let back = mutate::apply_all(&updated.doc, std::slice::from_ref(&restore))
            .map_err(|e| format!("restoring script {j}: {e}"))?;
        if writer::to_string(&back) != doc.xml {
            return Err(format!(
                "restoring script {j} does not restore the document"
            ));
        }
        variants.push(updated);
        scripts.push(Script {
            text: script_text(&forward),
            variant_after: j + 1,
        });
        scripts.push(Script {
            text: restore.to_string(),
            variant_after: 0,
        });
    }
    let mut engines = vec![engine_for(document)];
    engines.extend(variants.into_iter().map(engine_for_updated));
    let reads: Vec<(Class, &str)> = queries(UPDATE_DATASET)
        .map(|q| (Class::Path, q.path))
        .into_iter()
        .chain(flwor_queries(UPDATE_DATASET).map(|q| (Class::Flwor, q)))
        .collect();
    let mut expected = Vec::new();
    for engine in &engines {
        let mut row = Vec::new();
        for (_, q) in &reads {
            row.push(expected_bytes(engine, q)?);
        }
        expected.push(row);
    }
    let final_expected = engines
        .iter()
        .map(|e| expected_bytes(e, FINAL_QUERY))
        .collect::<Result<Vec<_>, _>>()?;
    let cases: Vec<Case> = reads
        .iter()
        .zip(&expected[0])
        .map(|(&(class, q), bytes)| Case {
            doc: 0,
            class,
            query: q.to_string(),
            expected: bytes.clone(),
        })
        .collect();
    let mut d = Digest::default();
    d.str("update-mix");
    sizes.digest(&mut d);
    digest_docs(&mut d, std::slice::from_ref(&doc));
    digest_cases(&mut d, &cases);
    for s in &scripts {
        d.str(&s.text);
    }
    let mut draws = conn_rng(seed, 1);
    for _ in 0..DIGEST_DRAWS {
        d.num(draws.gen_index(cases.len()) as u64);
    }
    Ok(UpdateMix {
        doc,
        cases,
        expected,
        final_expected,
        scripts,
        digest: d.hex(),
    })
}

fn script_text(muts: &[Mutation]) -> String {
    muts.iter().map(|m| format!("{m}\n")).collect()
}

/// A valid forward script against one random top-level item, and the
/// `replace` that restores the item.
fn item_scripts(
    doc: &Document,
    items: &[NodeId],
    len: usize,
    rng: &mut SplitMix,
    salt: u64,
) -> Result<(Vec<Mutation>, Mutation), String> {
    for attempt in 0..64u64 {
        let pos = rng.gen_index(items.len());
        let item = items[pos];
        if !doc.is_element(item) {
            continue;
        }
        let mut original = String::new();
        writer::write_node(doc, item, &mut original);
        let mini = Document::parse_str(&original).map_err(|e| e.to_string())?;
        let muts = random_mutations(&mini, len, rng.next_u64() ^ salt ^ attempt);
        // mutgen sometimes ends a script with a deliberately invalid
        // step; only fully valid scripts of the requested length are
        // used, since no benchmark operation may fail.
        if muts.len() != len || mutate::apply_all(&mini, &muts).is_err() {
            continue;
        }
        let prefix = pos as u32 + 1;
        let lift = |d: &Dewey| {
            let mut c = vec![1, prefix];
            c.extend_from_slice(&d.components()[1..]);
            Dewey::new(c)
        };
        let forward = muts
            .iter()
            .map(|m| match m {
                Mutation::Insert {
                    parent,
                    pos,
                    fragment,
                } => Mutation::Insert {
                    parent: lift(parent),
                    pos: *pos,
                    fragment: fragment.clone(),
                },
                Mutation::Delete { target } => Mutation::Delete {
                    target: lift(target),
                },
                Mutation::Replace { target, fragment } => Mutation::Replace {
                    target: lift(target),
                    fragment: fragment.clone(),
                },
            })
            .collect();
        let restore = Mutation::Replace {
            target: Dewey::new(vec![1, prefix]),
            fragment: original,
        };
        return Ok((forward, restore));
    }
    Err("could not draw a valid update script in 64 attempts".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_and_different_seed_different_digest() {
        // Documents are fixed; the seed draws the requests.
        let sizes = Sizes::smoke();
        let a = table3_mix(7, &sizes, 2).unwrap().digest;
        assert_eq!(a, table3_mix(7, &sizes, 2).unwrap().digest);
        assert_ne!(a, table3_mix(8, &sizes, 2).unwrap().digest);
        let p = point_mix(7, &sizes).unwrap().digest.hex();
        assert_eq!(p, point_mix(7, &sizes).unwrap().digest.hex());
        assert_ne!(p, point_mix(8, &sizes).unwrap().digest.hex());
        let u = update_mix(7, &sizes).unwrap().digest;
        assert_eq!(u, update_mix(7, &sizes).unwrap().digest);
        assert_ne!(u, update_mix(8, &sizes).unwrap().digest);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mix = point_mix(3, &Sizes::smoke()).unwrap();
        let mut rng = SplitMix::new(1);
        let draws: Vec<usize> = (0..4000).map(|_| mix.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&k| k < mix.cases.len() / 10).count();
        assert!(head > 2000, "top decile drew {head} of 4000");
        assert!(draws.iter().all(|&k| k < mix.cases.len()));
    }

    #[test]
    fn update_cycle_alternates_forward_and_restore() {
        let mix = update_mix(5, &Sizes::smoke()).unwrap();
        assert_eq!(mix.scripts.len(), 4);
        let after: Vec<usize> = mix.scripts.iter().map(|s| s.variant_after).collect();
        assert_eq!(after, vec![1, 0, 2, 0]);
        assert_eq!(mix.expected.len(), 3);
        assert_eq!(mix.final_expected.len(), 3);
        assert_ne!(mix.final_expected[0], mix.final_expected[1]);
    }
}
