//! The traced run's per-layer numbers.
//!
//! Two sources, both outside the server's code:
//!
//! * scrapes of `/metrics` before and after the traced window give the
//!   server's own stage, event-loop, scheduler, plan-cache and catalog
//!   counters for exactly that window;
//! * an in-process replay of the same seeded inputs times the public
//!   function of each layer (parse, plan, match, merge, serialize, the
//!   update and storage paths) with spans recorded around each call.

use crate::inputs::{engine_options, Case, Class, Doc, Script};
use crate::server::Scrape;
use blossom_core::{apply_mutations, Engine, EngineOptions, SharedPlanCache, Strategy};
use blossom_server::catalog::Catalog;
use blossom_server::span::STAGE_NAMES;
use blossom_storage::snapshot::{self, EncodeOptions, OpenMode};
use blossom_storage::StoreDir;
use blossom_xml::mutate;
use blossom_xml::{writer, DocStats, Document, TagIndex};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Strategies whose share of executed queries is reported.
pub const STRATEGIES: [&str; 6] = [
    "navigational",
    "twigstack",
    "pathstack",
    "pipelined",
    "bnlj",
    "nlj",
];

/// One named per-layer figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Ordered per-layer metrics.
#[derive(Debug, Default)]
pub struct Layers {
    /// In insertion order.
    pub metrics: Vec<Metric>,
}

impl Layers {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Value of a metric already put (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Time one call; the span's duration and the call's result.
fn span<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (t.elapsed(), r)
}

/// Server-side figures from two scrapes bracketing the traced window:
/// `/metrics` deltas, the catalog's occupancy from `/stats`, and the
/// queue peak from the window's trace `records` (the access log's JSON
/// lines).
pub fn server_layers(layers: &mut Layers, before: &Scrape, after: &Scrape, records: &str) {
    let d = |name: &str, labels: &[(&str, &str)]| {
        after.value(name, labels) - before.value(name, labels)
    };
    let q = [("endpoint", "/query")];
    let queries = d("blossomd_request_duration_seconds_count", &q);
    let wall = d("blossomd_request_duration_seconds_sum", &q);
    let mut stage_sum = 0.0;
    for stage in STAGE_NAMES {
        let labels = [("endpoint", "/query"), ("stage", stage)];
        let sum = d("blossomd_request_stage_duration_seconds_sum", &labels);
        stage_sum += sum;
        layers.put(
            format!("server.{stage}_us"),
            ratio(sum * 1e6, queries),
            "us",
        );
    }
    layers.put("server.wall_us", ratio(wall * 1e6, queries), "us");
    layers.put("reconcile.stage_sum_share", ratio(stage_sum, wall), "ratio");
    let requests = d("blossomd_requests_total", &[]);
    layers.put(
        "eventloop.wakeups_per_req",
        ratio(d("blossomd_io_wakeups_total", &[]), requests),
        "1/req",
    );
    layers.put(
        "eventloop.cpu_us_per_req",
        ratio(d("blossomd_io_cpu_seconds_total", &[]) * 1e6, requests),
        "us",
    );
    layers.put("sched.queue_peak", queue_peak(records), "count");
    layers.put(
        "sched.batched_share",
        ratio(d("blossomd_batched_requests_total", &[]), queries),
        "ratio",
    );
    layers.put(
        "sched.rejected_share",
        ratio(d("blossomd_admission_rejections_total", &[]), requests),
        "ratio",
    );
    let hits = d("blossomd_plan_cache_hits_total", &[]);
    let misses = d("blossomd_plan_cache_misses_total", &[]);
    layers.put(
        "core.plan_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    layers.put(
        "core.plans_invalidated_per_update",
        ratio(
            d("blossomd_plans_invalidated_total", &[]),
            d("blossomd_updates_total", &[]),
        ),
        "count",
    );
    let by: Vec<f64> = STRATEGIES
        .iter()
        .map(|s| d("blossomd_queries_by_strategy_total", &[("strategy", s)]))
        .collect();
    let total: f64 = by.iter().sum();
    for (s, n) in STRATEGIES.iter().zip(by) {
        layers.put(format!("core.strategy_share.{s}"), ratio(n, total), "ratio");
    }
    layers.put(
        "catalog.resident_bytes",
        after.stat("resident_bytes"),
        "bytes",
    );
    layers.put("catalog.mapped_bytes", after.stat("mapped_bytes"), "bytes");
}

/// Per-request sums of the engine replay.
#[derive(Default)]
struct EngineSums {
    paths: f64,
    flwors: f64,
    xpath_parse: f64,
    flwor_parse: f64,
    plan: f64,
    cache: f64,
    matching: f64,
    merge: f64,
    serialize: f64,
    result_bytes: f64,
    engine_total: f64,
    path_results: f64,
    flwor_results: f64,
    scanned: f64,
    skipped: f64,
    pushes: f64,
    flwor_matches: f64,
    replans: f64,
    fallbacks: f64,
}

impl EngineSums {
    /// Add `other` scaled by `k`.
    fn add_scaled(&mut self, other: &EngineSums, k: f64) {
        self.paths += k * other.paths;
        self.flwors += k * other.flwors;
        self.xpath_parse += k * other.xpath_parse;
        self.flwor_parse += k * other.flwor_parse;
        self.plan += k * other.plan;
        self.cache += k * other.cache;
        self.matching += k * other.matching;
        self.merge += k * other.merge;
        self.serialize += k * other.serialize;
        self.result_bytes += k * other.result_bytes;
        self.engine_total += k * other.engine_total;
        self.path_results += k * other.path_results;
        self.flwor_results += k * other.flwor_results;
        self.scanned += k * other.scanned;
        self.skipped += k * other.skipped;
        self.pushes += k * other.pushes;
        self.flwor_matches += k * other.flwor_matches;
        self.replans += k * other.replans;
        self.fallbacks += k * other.fallbacks;
    }
}

/// The documents of a workload, rebuilt in-process with each load-path
/// layer timed.
pub struct Loaded {
    engines: Vec<(Engine, Engine)>,
}

/// Load-path layers over `docs`: parse, index build, statistics, BLM2
/// encode/publish/map. Returns one (timing, counting) engine pair per
/// document, sharing its parts; the counting engine has operator
/// counters on, the timing one does not.
pub fn load_layers(
    layers: &mut Layers,
    docs: &[Doc],
    work: &Path,
    track_load: bool,
) -> Result<Loaded, String> {
    let store = StoreDir::open(&work.join("replay-store")).map_err(|e| e.0)?;
    let (mut parse, mut build, mut stats_t, mut encode, mut publish, mut open) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let (mut blm2_bytes, mut nodes) = (0usize, 0usize);
    let mut engines = Vec::new();
    for (i, d) in docs.iter().enumerate() {
        let (t, doc) = span(|| Document::parse_str(&d.xml));
        let doc = doc.map_err(|e| e.to_string())?;
        parse += t;
        let (t, index) = span(|| TagIndex::build(&doc));
        build += t;
        let (t, stats) = span(|| DocStats::compute(&doc));
        stats_t += t;
        let (t, blm2) = span(|| snapshot::encode(&doc, &index, &stats, EncodeOptions::default()));
        let blm2 = blm2.map_err(|e| e.0)?;
        encode += t;
        let (t, path) = span(|| store.publish(&d.name, i as u64 + 1, &blm2));
        let path = path.map_err(|e| e.0)?;
        publish += t;
        let (t, snap) = span(|| snapshot::open_path(&path, OpenMode::Map));
        snap.map_err(|e| e.0)?;
        open += t;
        blm2_bytes += blm2.len();
        nodes += doc.len();
        let (doc, index, stats) = (Arc::new(doc), Arc::new(index), Arc::new(stats));
        let plain = Engine::with_shared(
            doc.clone(),
            index.clone(),
            stats.clone(),
            Arc::new(SharedPlanCache::new(1024)),
            engine_options(),
        );
        let counting = Engine::with_shared(
            doc,
            index,
            stats,
            Arc::new(SharedPlanCache::new(1024)),
            EngineOptions {
                trace: true,
                ..engine_options()
            },
        );
        engines.push((plain, counting));
    }
    let n = docs.len().max(1) as f64;
    layers.put("xml.parse_doc_us", us(parse) / n, "us");
    if track_load {
        layers.put("xml.index_build_us", us(build) / n, "us");
        layers.put("xml.stats_us", us(stats_t) / n, "us");
        layers.put("storage.encode_us", us(encode) / n, "us");
        layers.put("storage.publish_us", us(publish) / n, "us");
        layers.put("storage.map_open_us", us(open) / n, "us");
    }
    layers.put(
        "storage.blm2_bytes_per_node",
        ratio(blm2_bytes as f64, nodes as f64),
        "bytes",
    );
    Ok(Loaded { engines })
}

/// Replay the requests of `sequence` (indices into `cases`) through the
/// engine layers. Each distinct case is replayed round-robin, at least
/// once and then until `budget` is spent, and weighted by how often the
/// sequence draws it. That is the sequence's mix without the sampling
/// noise of a few hundred draws of very unequal costs. Returns the mean
/// in-process engine time per request (parse, plan, cache lookup, match,
/// merge and serialize), which the caller reconciles against the
/// server's execute stage.
pub fn engine_layers(
    layers: &mut Layers,
    loaded: &Loaded,
    cases: &[Case],
    sequence: &[usize],
    budget: Duration,
) -> Result<f64, String> {
    let mut weight = vec![0usize; cases.len()];
    for &i in sequence {
        weight[i] += 1;
    }
    let distinct: Vec<usize> = (0..cases.len()).filter(|&i| weight[i] > 0).collect();
    let mut per_case: Vec<EngineSums> = cases.iter().map(|_| EngineSums::default()).collect();
    let mut reps = vec![0usize; cases.len()];
    let started = Instant::now();
    'replay: while !distinct.is_empty() {
        for &i in &distinct {
            if reps[i] > 0 && started.elapsed() > budget {
                break 'replay;
            }
            replay_one(&mut per_case[i], loaded, &cases[i])?;
            reps[i] += 1;
        }
    }
    let mut s = EngineSums::default();
    for &i in &distinct {
        s.add_scaled(&per_case[i], weight[i] as f64 / reps[i] as f64);
    }
    layers.put(
        "replay.requests",
        reps.iter().sum::<usize>() as f64,
        "count",
    );
    let n = sequence.len() as f64;
    layers.put("xpath.parse_us", ratio(s.xpath_parse, s.paths), "us");
    layers.put("flwor.parse_us", ratio(s.flwor_parse, s.flwors), "us");
    layers.put("core.plan_us", ratio(s.plan, s.paths), "us");
    layers.put("core.cache_lookup_us", ratio(s.cache, s.paths), "us");
    layers.put("core.match_us", ratio(s.matching, n), "us");
    layers.put("core.merge_us", ratio(s.merge, n), "us");
    layers.put("xml.serialize_us", ratio(s.serialize, n), "us");
    layers.put("xml.result_bytes", ratio(s.result_bytes, n), "bytes");
    layers.put(
        "core.scanned_per_result",
        ratio(s.scanned, s.path_results),
        "ratio",
    );
    layers.put(
        "core.skipped_share",
        ratio(s.skipped, s.scanned + s.skipped),
        "ratio",
    );
    layers.put(
        "core.pushes_per_result",
        ratio(s.pushes, s.path_results),
        "ratio",
    );
    layers.put(
        "core.tuples_per_result",
        ratio(s.flwor_matches, s.flwor_results),
        "ratio",
    );
    layers.put("core.replans", ratio(s.replans, n), "1/req");
    layers.put("core.fallbacks", ratio(s.fallbacks, n), "1/req");
    Ok(ratio(s.engine_total, n))
}

/// Replay one request through the engine layers, adding to `s`.
fn replay_one(s: &mut EngineSums, loaded: &Loaded, case: &Case) -> Result<(), String> {
    let (plain, counting) = &loaded.engines[case.doc];
    let q = case.query.as_str();
    let err = |e: blossom_core::EngineError| format!("replaying {q:?}: {e}");
    let doc = match case.class {
        Class::Path => {
            s.paths += 1.0;
            let (t_parse, parsed) = span(|| blossom_xpath::parse_path(q));
            parsed.map_err(|e| e.to_string())?;
            s.xpath_parse += us(t_parse);
            let (t_explain, plan) = span(|| plain.explain_path(q));
            plan.map_err(err)?;
            s.plan += us(t_explain.saturating_sub(t_parse));
            let (_, trace) = plain.eval_path_traced(q, Strategy::Auto).map_err(err)?;
            let p = &trace.phases;
            s.cache += us(p.cache_lookup);
            s.matching += us(p.matching);
            s.merge += us(p.merge);
            s.engine_total += us(p.parse + p.plan + p.cache_lookup + p.matching + p.merge);
            let (nodes, counted) = counting.eval_path_traced(q, Strategy::Auto).map_err(err)?;
            let c = counted.totals();
            s.path_results += nodes.len() as f64;
            s.scanned += c.scanned as f64;
            s.skipped += c.skipped as f64;
            s.pushes += c.pushes as f64;
            s.replans += counted.estimates.iter().filter(|e| e.replanned).count() as f64;
            s.fallbacks += counted.fallbacks.len() as f64;
            plain.eval_query_str(q, Strategy::Auto).map_err(err)?
        }
        Class::Flwor => {
            s.flwors += 1.0;
            let (t_parse, parsed) = span(|| blossom_flwor::parse_query(q));
            parsed.map_err(|e| e.to_string())?;
            s.flwor_parse += us(t_parse);
            let (doc, trace) = plain.eval_query_traced(q, Strategy::Auto).map_err(err)?;
            let p = &trace.phases;
            s.matching += us(p.matching);
            s.merge += us(p.merge);
            s.engine_total += us(p.parse + p.matching + p.merge);
            let (_, counted) = counting.eval_query_traced(q, Strategy::Auto).map_err(err)?;
            let items = doc.root_element().map_or(0, |r| doc.children(r).count());
            s.flwor_results += items as f64;
            s.flwor_matches += counted.totals().matches as f64;
            s.replans += counted.estimates.iter().filter(|e| e.replanned).count() as f64;
            s.fallbacks += counted.fallbacks.len() as f64;
            doc
        }
    };
    let (t_ser, text) = span(|| writer::to_string(&doc));
    s.serialize += us(t_ser);
    s.engine_total += us(t_ser);
    s.result_bytes += text.len() as f64 + 1.0;
    Ok(())
}

/// Update-path layers over the script cycle, applied in order from the
/// loaded document: the splice path piece by piece, the full
/// `apply_mutations`, the index rebuild it avoids, and the BLM2 publish
/// the server does after each update.
pub fn update_layers(
    layers: &mut Layers,
    doc: &Doc,
    scripts: &[Script],
    work: &Path,
) -> Result<(), String> {
    let store = StoreDir::open(&work.join("replay-updates")).map_err(|e| e.0)?;
    let catalog = Catalog::with_store(
        usize::MAX / 2,
        StoreDir::open(&work.join("replay-catalog")).map_err(|e| e.0)?,
    );
    catalog.load_bytes(&doc.name, doc.xml.as_bytes())?;
    let mut cur = Document::parse_str(&doc.xml).map_err(|e| e.to_string())?;
    let mut index = TagIndex::build(&cur);
    let mut t = [Duration::ZERO; 9];
    let mut written = 0usize;
    for (g, script) in scripts.iter().enumerate() {
        let muts = mutate::parse_mutations(&script.text)?;
        let (d, updated) = span(|| apply_mutations(&cur, &index, &muts, None));
        let updated = updated.map_err(|e| e.to_string())?;
        t[0] += d;
        let mut step = None::<(Document, TagIndex)>;
        for m in &muts {
            let (base_doc, base_index) = match &step {
                Some((d, x)) => (d, x),
                None => (&cur, &index),
            };
            let (d, applied) = span(|| mutate::apply(base_doc, m));
            let (next, splice) = applied?;
            t[1] += d;
            let (d, next_index) =
                span(|| base_index.splice(splice.start, splice.removed, splice.inserted, &next));
            t[2] += d;
            step = Some((next, next_index));
        }
        let (next, next_index) = step.ok_or("empty update script")?;
        let (d, _) = span(|| TagIndex::build(&next));
        t[3] += d;
        let (d, stats) = span(|| DocStats::compute(&next));
        t[4] += d;
        let (d, blm2) = span(|| {
            snapshot::encode(
                &updated.doc,
                &updated.index,
                &updated.stats,
                EncodeOptions::default(),
            )
        });
        let blm2 = blm2.map_err(|e| e.0)?;
        t[5] += d;
        written += blm2.len();
        let (d, path) = span(|| store.publish(&doc.name, g as u64 + 1, &blm2));
        let path = path.map_err(|e| e.0)?;
        t[6] += d;
        let (d, snap) = span(|| snapshot::open_path(&path, OpenMode::Map));
        snap.map_err(|e| e.0)?;
        t[7] += d;
        store.remove_older(&doc.name, g as u64 + 1);
        let (d, swapped) = span(|| catalog.update(&doc.name, &muts, None));
        swapped.map_err(|e| format!("{e:?}"))?;
        t[8] += d;
        drop(stats);
        cur = next;
        index = next_index;
    }
    let n = scripts.len().max(1) as f64;
    layers.put("core.apply_mutations_us", us(t[0]) / n, "us");
    layers.put("xml.mutate_us", us(t[1]) / n, "us");
    layers.put("xml.index_splice_us", us(t[2]) / n, "us");
    layers.put("xml.index_build_us", us(t[3]) / n, "us");
    layers.put("xml.stats_us", us(t[4]) / n, "us");
    layers.put("storage.encode_us", us(t[5]) / n, "us");
    layers.put("storage.publish_us", us(t[6]) / n, "us");
    layers.put("storage.map_open_us", us(t[7]) / n, "us");
    layers.put("catalog.update_us", us(t[8]) / n, "us");
    layers.put(
        "storage.bytes_written_per_update",
        written as f64 / n,
        "bytes",
    );
    Ok(())
}

/// Zeros for the update-path figures on workloads that send no updates,
/// so every workload reports the same metric names.
pub fn no_update_layers(layers: &mut Layers) {
    for name in [
        "core.apply_mutations_us",
        "xml.mutate_us",
        "xml.index_splice_us",
        "catalog.update_us",
        "storage.bytes_written_per_update",
    ] {
        layers.put(
            name,
            0.0,
            if name.ends_with("_us") { "us" } else { "bytes" },
        );
    }
}

/// The deepest execution queue a traced request found on arrival.
/// (`/metrics` only has a high-water mark since start-up.)
fn queue_peak(records: &str) -> f64 {
    const KEY: &str = "\"queue_depth\": ";
    records
        .lines()
        .filter_map(|l| {
            let rest = &l[l.find(KEY)? + KEY.len()..];
            let end = rest.find(|c: char| !c.is_ascii_digit())?;
            rest[..end].parse::<u64>().ok()
        })
        .max()
        .unwrap_or(0) as f64
}

/// Engine-vs-server reconciliation and tracing overhead.
pub fn reconcile(layers: &mut Layers, engine_us: f64, overhead_ms: f64, untraced_ms: f64) {
    let execute = layers.get("server.execute_us");
    let explained = ratio(engine_us, execute);
    layers.put("reconcile.engine_us", engine_us, "us");
    layers.put("reconcile.engine_explained_share", explained, "ratio");
    layers.put("reconcile.unexplained_share", 1.0 - explained, "ratio");
    layers.put("trace.overhead_ms", overhead_ms, "ms");
    layers.put(
        "trace.overhead_share",
        ratio(overhead_ms, untraced_ms),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_peak_is_the_deepest_recorded_queue() {
        let records = "{\"id\": 1, \"queue_depth\": 2, \"batch_size\": 1}\n\
                       {\"id\": 2, \"queue_depth\": 11, \"batch_size\": 0}\n\
                       {\"id\": 3, \"queue_depth\": 0, \"batch_size\": 1}\n";
        assert_eq!(queue_peak(records), 11.0);
        assert_eq!(queue_peak(""), 0.0);
    }
}
