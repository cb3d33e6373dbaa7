//! `blossomd`: the concurrent query server — configuration, request
//! routing and evaluation, per-request deadlines, and graceful drain.
//! The serving core is [`crate::eventloop`]: readiness-driven
//! nonblocking I/O threads own all connection state, a separate
//! execution pool evaluates queries, identical in-flight queries
//! coalesce into one evaluation, and a bounded fair queue applies
//! admission control (503 + `Retry-After` past the knee). Idle
//! keep-alive connections cost no CPU.
//!
//! Robustness contract (DESIGN.md §10): malformed or oversized requests
//! get a 4xx and never touch the engine; query parse/eval errors become
//! 4xx/5xx responses instead of process exits; a per-request wall-clock
//! deadline aborts runaway queries with 503; `POST /shutdown` flips an
//! atomic flag, accepting stops, and every in-flight request drains
//! before the process exits.

use crate::accesslog::{AccessLog, LogTarget};
use crate::catalog::Catalog;
use crate::http::Request;
use crate::metrics::{Metrics, PromGauges};
use crate::sched::{Batches, Sched};
use crate::span::RequestSpan;
use blossom_core::engine::{EngineError, EngineOptions, SharedPlanCache};
use blossom_core::obs::json_str;
use blossom_core::plan::Strategy;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Everything configurable about a server instance.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Execution workers.
    pub workers: usize,
    /// Readiness-driven I/O threads.
    pub io_threads: usize,
    /// `EngineOptions::threads` per query evaluation.
    pub query_threads: usize,
    /// Per-request evaluation budget; `None` never aborts. Requests may
    /// tighten (never extend) their own with `?deadline_ms=N`.
    pub deadline: Option<Duration>,
    /// Bound on the execution queue; past it `/query` answers 503 with
    /// `Retry-After`.
    pub max_queue: usize,
    /// Coalesce identical concurrent queries into one evaluation.
    pub batch: bool,
    /// Catalog byte cap (approximate heap bytes across entries).
    pub catalog_bytes: usize,
    /// Persistent store directory: documents are published as BLM2
    /// generation files, served mapped, spilled on eviction, and
    /// recovered across restarts. `None` keeps the catalog heap-only.
    pub store_dir: Option<String>,
    /// Largest accepted request body (`POST /load` documents).
    pub max_body: usize,
    /// Capacity of the process-wide shared plan cache.
    pub plan_cache_capacity: usize,
    /// Requests at or above this wall time get a structured slow-query
    /// log record; `None` disables the threshold.
    pub slow_ms: Option<u64>,
    /// Deterministic access-log sampling: log every request whose id is
    /// divisible by N (0 disables sampling).
    pub log_sample: u64,
    /// Where slow-query/access records go.
    pub access_log: LogTarget,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            io_threads: 2,
            query_threads: 1,
            deadline: Some(Duration::from_secs(10)),
            max_queue: 1024,
            batch: true,
            catalog_bytes: 512 * 1024 * 1024,
            store_dir: None,
            max_body: 256 * 1024 * 1024,
            plan_cache_capacity: 1024,
            slow_ms: None,
            log_sample: 0,
            access_log: LogTarget::Stderr,
        }
    }
}

/// State shared by the I/O threads and every execution worker.
pub(crate) struct Shared {
    pub(crate) catalog: Catalog,
    pub(crate) plans: Arc<SharedPlanCache>,
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: AtomicBool,
    pub(crate) config: ServerConfig,
    pub(crate) started: Instant,
    /// Bounded fair execution queue.
    pub(crate) sched: Sched,
    /// In-flight coalesced batches.
    pub(crate) batches: Batches,
    /// Fairness ids for accepted connections.
    pub(crate) next_client: AtomicU64,
    /// The I/O-thread mailboxes, once running; lets an external
    /// `ServerHandle::shutdown` wake blocked pollers.
    pub(crate) io: OnceLock<Arc<Vec<Arc<crate::eventloop::IoHandle>>>>,
    /// The structured slow-query/access log.
    pub(crate) log: AccessLog,
}

impl Shared {
    /// Retire one finished request span: fold it into every metrics
    /// surface and hand it to the access-log policy. Every span ends
    /// here exactly once.
    pub(crate) fn finish(&self, span: RequestSpan) {
        let wall_us = span.total_us();
        self.metrics.observe_span(&span);
        self.log.log(&span, wall_us);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Control handle for a server started with [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and wait for every in-flight request to drain.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handles) = self.shared.io.get() {
            for h in handles.iter() {
                h.wake();
            }
        }
        let _ = self.thread.join();
    }
}

impl Server {
    /// Bind the listener (without accepting yet), so callers can learn
    /// the ephemeral port before the first request.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let log = AccessLog::new(&config.access_log, config.slow_ms, config.log_sample)?;
        // With a store directory, the catalog persists every entry as a
        // BLM2 generation file and recovers complete generations now,
        // before the first request.
        let catalog = match &config.store_dir {
            None => Catalog::new(config.catalog_bytes),
            Some(dir) => {
                let store = blossom_storage::StoreDir::open(std::path::Path::new(dir))
                    .map_err(|e| std::io::Error::other(e.0))?;
                let catalog = Catalog::with_store(config.catalog_bytes, store);
                catalog.recover().map_err(std::io::Error::other)?;
                catalog
            }
        };
        let shared = Arc::new(Shared {
            log,
            catalog,
            plans: Arc::new(SharedPlanCache::new(config.plan_cache_capacity)),
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            sched: Sched::new(config.max_queue),
            batches: Batches::new(),
            next_client: AtomicU64::new(0),
            io: OnceLock::new(),
            config,
            started: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Load a document into the catalog before serving (the CLI's
    /// `--load name=path` flags).
    pub fn preload(&self, name: &str, path: &str) -> Result<usize, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        Ok(self.shared.catalog.load_bytes(name, &bytes)?.doc.len())
    }

    /// Serve until shutdown + drain.
    pub fn run(self) {
        let Server { listener, shared } = self;
        crate::eventloop::run(listener, shared)
    }

    /// Run on a background thread; for tests and in-process harnesses.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shared = self.shared.clone();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, shared, thread }
    }
}

/// The effective deadline for one request: the server's configured
/// budget, tightened by a `?deadline_ms=N` parameter when present
/// (testing and per-call SLOs). A request can never *extend* the
/// server's budget.
pub(crate) fn request_deadline(
    request: &Request,
    config: &ServerConfig,
    arrived: Instant,
) -> Option<Instant> {
    let requested = request
        .param("deadline_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|ms| *ms >= 1)
        .map(Duration::from_millis);
    match (config.deadline, requested) {
        (Some(c), Some(r)) => Some(arrived + c.min(r)),
        (Some(c), None) => Some(arrived + c),
        (None, Some(r)) => Some(arrived + r),
        (None, None) => None,
    }
}

/// Route one request; returns `(status, content type, body)`. Pure with
/// respect to request counters/latency — the event loop tallies those
/// at dispatch, before queueing.
pub(crate) fn respond(
    request: &Request,
    shared: &Shared,
    deadline: Option<Instant>,
    span: &mut RequestSpan,
) -> (u16, &'static str, Vec<u8>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "text/plain", b"ok\n".to_vec()),
        ("GET", "/query") => query(request, shared, deadline, span),
        ("POST", "/load") => load(request, shared),
        ("POST", "/update") => update(request, shared, deadline),
        ("GET", "/stats") => (200, "application/json", stats(shared).into_bytes()),
        ("GET", "/metrics") => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            metrics_text(shared).into_bytes(),
        ),
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (200, "text/plain", b"draining\n".to_vec())
        }
        (_, "/healthz" | "/query" | "/load" | "/update" | "/stats" | "/metrics" | "/shutdown") => {
            (405, "text/plain", format!("error: {} not allowed here\n", request.method).into_bytes())
        }
        (_, path) => (404, "text/plain", format!("error: no route {path}\n").into_bytes()),
    }
}

/// `GET /query?doc=NAME&q=QUERY[&strategy=S][&threads=N][&profile=1]
/// [&deadline_ms=N]`.
fn query(
    request: &Request,
    shared: &Shared,
    deadline: Option<Instant>,
    span: &mut RequestSpan,
) -> (u16, &'static str, Vec<u8>) {
    let bad = |msg: String| (400, "text/plain", format!("error: {msg}\n").into_bytes());
    let Some(doc_name) = request.param("doc") else {
        return bad("missing ?doc=NAME".to_string());
    };
    let Some(q) = request.param("q") else {
        return bad("missing ?q=QUERY".to_string());
    };
    let strategy = match request.param("strategy").unwrap_or("auto").parse::<Strategy>() {
        Ok(s) => s,
        Err(e) => return bad(e),
    };
    let threads = match request.param("threads").map(str::parse::<usize>) {
        None => shared.config.query_threads,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => return bad("bad ?threads= (want an integer >= 1)".to_string()),
    };
    let profile = request.param("profile") == Some("1");
    let Some(entry) = shared.catalog.get(doc_name) else {
        return (
            404,
            "text/plain",
            format!("error: no document {doc_name:?} in the catalog\n").into_bytes(),
        );
    };

    // Tracing is always on so /stats sees the executed strategy; the
    // trace is observational (PR 4's invariant: identical result bytes).
    let engine = entry.engine(
        shared.plans.clone(),
        EngineOptions { threads, trace: true, deadline, ..EngineOptions::default() },
    );
    // The plain body is the serialized result plus a newline —
    // byte-identical to `blossom query` stdout, so harnesses can
    // `cmp` the two directly (and so batched responses, which use the
    // same `eval_query_bytes` contract, match solo ones).
    match engine.eval_query_bytes(q, strategy) {
        Ok((bytes, trace)) => {
            shared.metrics.record_strategy(&trace.executed.to_string());
            // Attach the full trace only to records that will be slow
            // (or were forced): the compact rendering is the expensive
            // part, so fast sampled records skip it.
            let slow = shared.log.slow_us().is_some_and(|t| span.elapsed_us() >= t);
            let force = span.force_log;
            if let Some(log) = span.log.as_deref_mut() {
                log.strategy = Some(trace.executed.to_string());
                if force || slow {
                    log.trace_json = Some(trace.to_json_compact());
                }
            }
            if profile {
                let text = String::from_utf8(bytes).expect("serializer emits UTF-8");
                let body = format!(
                    "{{\"result\": {}, \"profile\": {}}}\n",
                    json_str(&text),
                    trace.to_json()
                );
                (200, "application/json", body.into_bytes())
            } else {
                (200, "text/plain", bytes)
            }
        }
        Err(EngineError::Deadline) => (
            503,
            "text/plain",
            format!("error: {}\n", EngineError::Deadline).into_bytes(),
        ),
        Err(e) => bad(e.to_string()),
    }
}

/// `POST /load?name=NAME` with the document bytes (XML or a BLM2
/// snapshot) as the body.
fn load(request: &Request, shared: &Shared) -> (u16, &'static str, Vec<u8>) {
    let Some(name) = request.param("name") else {
        return (400, "text/plain", b"error: missing ?name=NAME\n".to_vec());
    };
    match shared.catalog.load_bytes(name, &request.body) {
        Ok(entry) => {
            let body = format!(
                "{{\"loaded\": {}, \"nodes\": {}, \"approx_bytes\": {}}}\n",
                json_str(name),
                entry.doc.len(),
                entry.bytes
            );
            (200, "application/json", body.into_bytes())
        }
        Err(e) => (400, "text/plain", format!("error: {e}\n").into_bytes()),
    }
}

/// `POST /update?doc=NAME` with a mutation script (one `insert` /
/// `delete` / `replace` line per mutation) as the body. On success the
/// catalog swaps in the mutated snapshot — in-flight readers keep their
/// old `Arc<Document>` — and the old uid's plan-cache entries are
/// invalidated; plans for every other document survive untouched.
fn update(
    request: &Request,
    shared: &Shared,
    deadline: Option<Instant>,
) -> (u16, &'static str, Vec<u8>) {
    use crate::catalog::CatalogUpdateError;
    let bad = |msg: String| (400, "text/plain", format!("error: {msg}\n").into_bytes());
    let Some(doc_name) = request.param("doc") else {
        return bad("missing ?doc=NAME".to_string());
    };
    let Ok(script) = std::str::from_utf8(&request.body) else {
        return bad("mutation script is not UTF-8".to_string());
    };
    if script.trim().is_empty() {
        return bad("empty mutation script".to_string());
    }
    let muts = match blossom_xml::mutate::parse_mutations(script) {
        Ok(m) => m,
        Err(e) => return bad(format!("bad mutation script: {e}")),
    };
    match shared.catalog.update(doc_name, &muts, deadline) {
        Ok((old_uid, entry)) => {
            let dropped = shared.plans.invalidate_doc(old_uid);
            shared.metrics.updates.fetch_add(1, Ordering::Relaxed);
            shared.metrics.mutations_applied.fetch_add(muts.len() as u64, Ordering::Relaxed);
            shared.metrics.plans_invalidated.fetch_add(dropped as u64, Ordering::Relaxed);
            let body = format!(
                "{{\"updated\": {}, \"mutations\": {}, \"nodes\": {}, \"approx_bytes\": {}, \"plans_invalidated\": {}}}\n",
                json_str(doc_name),
                muts.len(),
                entry.doc.len(),
                entry.bytes,
                dropped
            );
            (200, "application/json", body.into_bytes())
        }
        Err(CatalogUpdateError::NotFound) => (
            404,
            "text/plain",
            format!("error: no document {doc_name:?} in the catalog\n").into_bytes(),
        ),
        Err(CatalogUpdateError::Deadline) => (
            503,
            "text/plain",
            format!("error: {}\n", CatalogUpdateError::Deadline).into_bytes(),
        ),
        Err(e @ CatalogUpdateError::Invalid(_)) => bad(e.to_string()),
    }
}

/// `GET /metrics`: the whole metrics surface in Prometheus text
/// exposition format 0.0.4 — counters, point-in-time gauges assembled
/// here, and cumulative per-endpoint/per-stage latency histograms.
fn metrics_text(shared: &Shared) -> String {
    let cache = shared.plans.stats();
    let occ = shared.catalog.occupancy();
    let gauges = PromGauges {
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        queue_depth: shared.sched.depth() as u64,
        queue_peak: shared.sched.peak() as u64,
        queue_capacity: shared.sched.capacity() as u64,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_entries: cache.len as u64,
        cache_capacity: cache.capacity as u64,
        catalog_documents: occ.resident_docs,
        catalog_bytes: occ.resident_bytes,
        catalog_evictions: occ.evictions,
        catalog_spilled_documents: occ.spilled_docs,
        catalog_mapped_bytes: occ.mapped_bytes,
        catalog_spilled_bytes: occ.spilled_bytes,
        catalog_spills: occ.spills,
        catalog_remaps: occ.remaps,
    };
    shared.metrics.render_prometheus(&gauges)
}

/// `GET /stats`: request counters, latency percentiles (global and per
/// endpoint), batching/admission tallies, queue gauges, plan-cache and
/// catalog contents.
fn stats(shared: &Shared) -> String {
    let cache = shared.plans.stats();
    let (entries, evictions) = shared.catalog.snapshot();
    let occ = shared.catalog.occupancy();
    let catalog_fields = entries
        .iter()
        .map(|row| {
            format!(
                "{{\"name\": {}, \"approx_bytes\": {}, \"state\": \"{}\", \"generation\": {}}}",
                json_str(&row.name),
                row.bytes,
                row.state,
                row.generation
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{{}, \
         \"queue\": {{\"depth\": {}, \"peak\": {}, \"capacity\": {}}}, \
         \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"capacity\": {}}}, \
         \"catalog\": {{\"documents\": [{catalog_fields}], \"evictions\": {evictions}, \
         \"resident_bytes\": {}, \"mapped_bytes\": {}, \"spilled_bytes\": {}, \
         \"spills\": {}, \"remaps\": {}}}, \
         \"uptime_us\": {}}}\n",
        shared.metrics.render_json_fields(),
        shared.sched.depth(),
        shared.sched.peak(),
        shared.sched.capacity(),
        cache.hits,
        cache.misses,
        cache.len,
        cache.capacity,
        occ.resident_bytes,
        occ.mapped_bytes,
        occ.spilled_bytes,
        occ.spills,
        occ.remaps,
        shared.started.elapsed().as_micros(),
    )
}
