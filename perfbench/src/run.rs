//! One benchmark run: build, generate, set up, measure, check, report.

use crate::closed::{
    read_loop, update_loop, variant_at, versioned_read_loop, Conn, Generations, Tally,
};
use crate::inputs::{
    point_mix, table3_mix, update_mix, Case, Class, Doc, PointMix, ReadMix, Sizes, UpdateMix,
    FINAL_QUERY,
};
use crate::layers::{self, Layers};
use crate::open::{self, OpenConfig, OpenTally};
use crate::server::{build_server, repo_root, target_dir, ServerFlags, ServerProc};
use crate::stats::{median, Digest};
use blossom_xmlgen::SplitMix;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads.
pub const WORKLOADS: [&str; 3] = ["table3-mix", "point-open", "update-mix"];

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// A named figure with its unit.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Report {
    /// The gated end-to-end metrics (the `end_to_end` list of
    /// `BENCHMARK.json`).
    pub end_to_end: Vec<Figure>,
    /// Workload-specific end-to-end figures printed beside them.
    pub extra: Vec<Figure>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Requests attempted in the measured window(s).
    pub attempted: usize,
    /// Requests that failed (timeouts, 5xx, 503, connection loss, wrong
    /// bytes).
    pub failed: usize,
    /// Whether every answer and check was right.
    pub correct: bool,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
    /// Run provenance, as `(key, value)` pairs.
    pub provenance: Vec<(String, String)>,
}

/// Per-request read timeout in the closed loops.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// `/update` timeout (an update publishes and fsyncs a generation).
const UPDATE_TIMEOUT: Duration = Duration::from_secs(5);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Oracle cross-checks per run.
const ORACLE_SAMPLE: usize = 3;
/// In-process replay time per traced run.
const REPLAY_BUDGET: Duration = Duration::from_secs(3);

/// The `point-open` ladder, SLO and reference band.
pub fn open_config(connections: usize) -> OpenConfig {
    OpenConfig {
        ladder: (4..=16).map(|k| f64::from(k) * 1000.0).collect(),
        rung: Duration::from_millis(500),
        slo: Duration::from_millis(25),
        reference_rate: 2000.0,
        reference_share: 0.4,
        connections,
        timeout: Duration::from_millis(500),
    }
}

enum Inputs {
    Table3(ReadMix),
    Point(PointMix),
    Update(UpdateMix),
}

impl Inputs {
    fn docs(&self) -> &[Doc] {
        match self {
            Inputs::Table3(m) => &m.docs,
            Inputs::Point(m) => &m.docs,
            Inputs::Update(m) => std::slice::from_ref(&m.doc),
        }
    }

    fn cases(&self) -> &[Case] {
        match self {
            Inputs::Table3(m) => &m.cases,
            Inputs::Point(m) => &m.cases,
            Inputs::Update(m) => &m.cases,
        }
    }
}

/// One measured window's raw outcome.
enum Window {
    Closed { tally: Tally, wall: Duration },
    Open(OpenTally),
}

impl Window {
    fn attempted_failed_wrong(&self) -> (usize, usize, usize) {
        match self {
            Window::Closed { tally, .. } => (tally.attempted, tally.failed, tally.wrong),
            Window::Open(t) => (t.attempted, t.failed, t.wrong),
        }
    }

    fn path_p50(&self) -> f64 {
        match self {
            Window::Closed { tally, .. } => tally.path.pct(50.0),
            Window::Open(t) => t.path.pct(50.0),
        }
    }

    fn samples(&self, class: Class) -> usize {
        match (self, class) {
            (Window::Closed { tally, .. }, _) => tally.samples(class),
            (Window::Open(t), Class::Path) => t.path.len(),
            (Window::Open(t), Class::Flwor) => t.flwor.len(),
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (want one of {WORKLOADS:?})",
            opts.workload
        ));
    }
    let bin = build_server()?;
    let work = target_dir().join("perfbench-work").join(format!(
        "{}-{}",
        opts.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(opts, &bin, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(opts: &Options, bin: &Path, work: &Path) -> Result<Report, String> {
    let cores = nproc();
    let width = cores.clamp(1, 2);
    let inputs = match opts.workload.as_str() {
        "table3-mix" => Inputs::Table3(table3_mix(opts.seed, &opts.sizes, width)?),
        "point-open" => Inputs::Point(point_mix(opts.seed, &opts.sizes)?),
        _ => Inputs::Update(update_mix(opts.seed, &opts.sizes)?),
    };
    let mut problems = Vec::new();
    oracle_check(&inputs, opts.seed, &mut problems)?;

    let store = matches!(inputs, Inputs::Update(_)).then(|| work.join("store"));
    let access_log = work.join("access.log");
    let flags = ServerFlags {
        workers: width,
        io_threads: width,
        store_dir: store.clone(),
        access_log: opts.trace.then(|| access_log.clone()),
    };
    let (server, setup_s) = set_up(bin, &flags, inputs.docs(), work)?;

    let open_cfg = open_config(width);
    let digest = match &inputs {
        Inputs::Table3(m) => m.digest.clone(),
        Inputs::Update(m) => m.digest.clone(),
        Inputs::Point(m) => {
            let mut d: Digest = m.digest.clone();
            for r in &open_cfg.ladder {
                d.num(r.to_bits());
            }
            let mut rng = SplitMix::new(opts.seed ^ 0x0be7_1009);
            for _ in 0..4096 {
                d.num(m.sample(&mut rng) as u64);
            }
            d.hex()
        }
    };

    warm(&server, &inputs, &mut problems);
    let gens = Generations::default();
    let measure = |secs: f64, trace: bool| -> Window {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        measure_window(
            &server.addr,
            &inputs,
            opts.seed,
            width,
            &open_cfg,
            &gens,
            deadline,
            trace,
        )
    };

    let mut layers = Layers::default();
    let mut windows = Vec::new();
    if opts.trace {
        // Untraced quarter, traced half, untraced quarter: the traced
        // half's requests carry `trace=1`, so the server writes a trace
        // record for each. Comparing it with the mean of the quarters
        // around it cancels a steady drift of the host's speed.
        let before_q = measure(opts.seconds / 4.0, false);
        let before = server.scrape()?;
        let traced = measure(opts.seconds / 2.0, true);
        let after = server.scrape()?;
        let records = std::fs::read_to_string(&access_log)
            .map_err(|e| format!("{}: {e}", access_log.display()))?;
        let after_q = measure(opts.seconds / 4.0, false);
        layers::server_layers(&mut layers, &before, &after, &records);
        let untraced_ms = (before_q.path_p50() + after_q.path_p50()) / 2.0;
        let overhead = traced.path_p50() - untraced_ms;
        let loaded = layers::load_layers(
            &mut layers,
            inputs.docs(),
            work,
            !matches!(inputs, Inputs::Update(_)),
        )?;
        let sequence = replay_sequence(&inputs, opts.seed);
        let engine_us = layers::engine_layers(
            &mut layers,
            &loaded,
            inputs.cases(),
            &sequence,
            REPLAY_BUDGET,
        )?;
        match &inputs {
            Inputs::Update(m) => layers::update_layers(&mut layers, &m.doc, &m.scripts, work)?,
            _ => layers::no_update_layers(&mut layers),
        }
        layers::reconcile(&mut layers, engine_us, overhead, untraced_ms);
        windows.push(before_q);
        windows.push(traced);
        windows.push(after_q);
    } else {
        windows.push(measure(opts.seconds, false));
    }

    let peak_rss_mb = server.peak_rss_mb()?;
    if let Inputs::Update(m) = &inputs {
        final_document_check(&server, m, &gens, &mut problems)?;
    }
    let store_bytes = store.as_deref().map(dir_bytes).transpose()?.unwrap_or(0);
    server.stop();

    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    for w in &windows {
        let (a, f, x) = w.attempted_failed_wrong();
        attempted += a;
        failed += f;
        wrong += x;
    }
    if wrong > 0 {
        problems.push(format!(
            "{wrong} wrong response(s): wrong bytes, or an error status other than 503"
        ));
    }
    // Every latency class the inputs hold must be measured in every
    // window: a class whose every request failed would read as 0 ms.
    for class in [Class::Path, Class::Flwor] {
        if inputs.cases().iter().any(|c| c.class == class)
            && windows.iter().any(|w| w.samples(class) == 0)
        {
            problems.push(format!("a window ended with no {class:?} latency sample"));
        }
    }
    for w in &windows {
        if let Window::Closed {
            tally: Tally {
                first_wrong: Some(what),
                ..
            },
            ..
        } = w
        {
            problems.push(format!("first wrong answer: {what}"));
        }
    }
    // End-to-end figures come from the untraced window only.
    let first = windows.into_iter().next().expect("at least one window");
    let xml_bytes: usize = inputs.docs().iter().map(|d| d.xml.len()).sum();
    let (end_to_end, extra) = figures(
        first,
        setup_s,
        peak_rss_mb,
        attempted,
        failed + wrong,
        store_bytes,
        xml_bytes,
    );

    let connections = if matches!(inputs, Inputs::Update(_)) {
        2
    } else {
        width
    };
    let provenance = provenance(opts, cores, connections, &flags, &inputs, &digest, work);
    Ok(Report {
        end_to_end,
        extra,
        layers,
        attempted,
        failed: failed + wrong,
        correct: problems.is_empty(),
        problems,
        provenance,
    })
}

/// Start the server and load every document, [`SETUP_REPEATS`] times;
/// keep the last server and report the median set-up time.
fn set_up(
    bin: &Path,
    flags: &ServerFlags,
    docs: &[Doc],
    work: &Path,
) -> Result<(ServerProc, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for r in 0..SETUP_REPEATS {
        if let Some(dir) = &flags.store_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let started = Instant::now();
        let server = ServerProc::spawn(bin, flags, work)?;
        let mut c = server.client()?;
        for d in docs {
            server.ok(
                &mut c,
                "POST",
                &format!("/load?name={}", d.name),
                d.xml.as_bytes(),
            )?;
        }
        server.ok(&mut c, "GET", "/healthz", b"")?;
        times.push(started.elapsed().as_secs_f64());
        drop(c);
        if r + 1 == SETUP_REPEATS {
            kept = Some(server);
        } else {
            server.stop();
        }
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Send each read once (fills the plan cache as a running server's would
/// be). On this one connection nothing may fail: every answer must be
/// 200 with the expected bytes.
fn warm(server: &ServerProc, inputs: &Inputs, problems: &mut Vec<String>) {
    let mut conn = Conn::new(&server.addr, READ_TIMEOUT);
    let docs = inputs.docs();
    let order: Vec<usize> = match inputs {
        // The hot end of the key distribution, as a running server
        // would have seen it.
        Inputs::Point(m) => (0..m.cases.len().min(512)).collect(),
        _ => (0..inputs.cases().len()).collect(),
    };
    for i in order {
        let case = &inputs.cases()[i];
        let target = crate::closed::query_target(&docs[case.doc], &case.query);
        match conn.request("GET", &target, b"") {
            Ok(r) if r.status == 200 && r.body == case.expected => {}
            Ok(r) => problems.push(format!(
                "warm-up: wrong answer (status {}) to {}",
                r.status, case.query
            )),
            Err(e) => problems.push(format!("warm-up: {e} on {}", case.query)),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn measure_window(
    addr: &str,
    inputs: &Inputs,
    seed: u64,
    width: usize,
    open_cfg: &OpenConfig,
    gens: &Generations,
    deadline: Instant,
    trace: bool,
) -> Window {
    let started = Instant::now();
    match inputs {
        Inputs::Point(m) => Window::Open(open::run(addr, m, seed, open_cfg, deadline, trace)),
        Inputs::Table3(m) => {
            let mut tally = Tally::default();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..width)
                    .map(|c| {
                        s.spawn(move || {
                            read_loop(
                                addr,
                                &m.docs,
                                &m.cases,
                                seed,
                                c,
                                deadline,
                                READ_TIMEOUT,
                                trace,
                            )
                        })
                    })
                    .collect();
                for h in handles {
                    tally.merge(h.join().expect("load connection panicked"));
                }
            });
            Window::Closed {
                tally,
                wall: started.elapsed(),
            }
        }
        Inputs::Update(m) => {
            let mut tally = Tally::default();
            std::thread::scope(|s| {
                let writer =
                    s.spawn(|| update_loop(addr, m, gens, deadline, UPDATE_TIMEOUT, trace));
                let reader = s.spawn(|| {
                    versioned_read_loop(addr, m, gens, seed, deadline, READ_TIMEOUT, trace)
                });
                tally.merge(writer.join().expect("update connection panicked"));
                tally.merge(reader.join().expect("read connection panicked"));
            });
            Window::Closed {
                tally,
                wall: started.elapsed(),
            }
        }
    }
}

fn figure(name: &'static str, value: f64, unit: &'static str) -> Figure {
    Figure { name, value, unit }
}

fn figures(
    window: Window,
    setup_s: f64,
    peak_rss_mb: f64,
    attempted: usize,
    failed: usize,
    store_bytes: u64,
    xml_bytes: usize,
) -> (Vec<Figure>, Vec<Figure>) {
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    match window {
        Window::Closed { tally, wall } => {
            let qps = tally.correct as f64 / wall.as_secs_f64();
            let e2e = vec![
                figure("setup_s", setup_s, "s"),
                figure("throughput_qps", qps, "1/s"),
                figure("path_p50_ms", tally.path.pct(50.0), "ms"),
                figure("flwor_p50_ms", tally.flwor.pct(50.0), "ms"),
                figure("peak_rss_mb", peak_rss_mb, "MiB"),
            ];
            let mut extra = vec![
                figure("path_p99_ms", tally.path.p99(), "ms"),
                figure("flwor_p99_ms", tally.flwor.p99(), "ms"),
                figure("failed_ratio", failed_ratio, "ratio"),
                figure("path_samples", tally.path.len() as f64, "count"),
                figure("flwor_samples", tally.flwor.len() as f64, "count"),
            ];
            if !tally.update.is_empty() {
                extra.push(figure("update_p50_ms", tally.update.pct(50.0), "ms"));
                extra.push(figure("update_p99_ms", tally.update.p99(), "ms"));
                extra.push(figure("update_samples", tally.update.len() as f64, "count"));
                extra.push(figure(
                    "store_bytes_per_xml_byte",
                    store_bytes as f64 / xml_bytes.max(1) as f64,
                    "ratio",
                ));
            }
            (e2e, extra)
        }
        Window::Open(t) => {
            let knee = t.max_rps_under_slo;
            let e2e = vec![
                figure("setup_s", setup_s, "s"),
                // Correct answers per second at the reference load; the
                // knee is reported beside it.
                figure("throughput_qps", t.reference_qps, "1/s"),
                figure("path_p50_ms", t.path.pct(50.0), "ms"),
                figure("flwor_p50_ms", t.flwor.pct(50.0), "ms"),
                figure("peak_rss_mb", peak_rss_mb, "MiB"),
            ];
            let extra = vec![
                figure("path_p99_ms", t.path.p99(), "ms"),
                figure("flwor_p99_ms", t.flwor.p99(), "ms"),
                figure("max_rps_under_slo", knee, "1/s"),
                figure("failed_ratio", failed_ratio, "ratio"),
                figure("ladder_passes", t.passes as f64, "count"),
                figure("send_late_p99_ms", t.send_late_p99_ms, "ms"),
                figure("path_samples", t.path.len() as f64, "count"),
                figure("flwor_samples", t.flwor.len() as f64, "count"),
            ];
            (e2e, extra)
        }
    }
}

/// A seeded sample of reads, re-evaluated by the spec-direct oracle and
/// compared with the engine's expected bytes.
fn oracle_check(inputs: &Inputs, seed: u64, problems: &mut Vec<String>) -> Result<(), String> {
    let cases = inputs.cases();
    let mut rng = SplitMix::new(seed ^ 0x000a_11ce);
    let mut parsed: Vec<Option<blossom_xml::Document>> =
        inputs.docs().iter().map(|_| None).collect();
    for _ in 0..ORACLE_SAMPLE {
        let case = &cases[rng.gen_index(cases.len())];
        let doc = match &mut parsed[case.doc] {
            Some(d) => d,
            slot => slot.insert(
                blossom_xml::Document::parse_str(&inputs.docs()[case.doc].xml)
                    .map_err(|e| e.to_string())?,
            ),
        };
        let oracle = blossom_oracle::Oracle::new(doc);
        match oracle.eval_query_str(&case.query) {
            Ok(mut text) => {
                text.push('\n');
                if text.as_bytes() != case.expected {
                    problems.push(format!(
                        "oracle disagrees with the engine on {}",
                        case.query
                    ));
                }
            }
            Err(e) => problems.push(format!("oracle failed on {}: {e}", case.query)),
        }
    }
    Ok(())
}

/// The request sequence the traced replay walks: the seeded draws the
/// load generator makes, in order.
fn replay_sequence(inputs: &Inputs, seed: u64) -> Vec<usize> {
    const N: usize = 20_000;
    match inputs {
        Inputs::Table3(m) => {
            let mut rng = crate::inputs::conn_rng(seed, 0);
            (0..N).map(|_| rng.gen_index(m.cases.len())).collect()
        }
        Inputs::Update(m) => {
            let mut rng = crate::inputs::conn_rng(seed, 1);
            (0..N).map(|_| rng.gen_index(m.cases.len())).collect()
        }
        Inputs::Point(m) => {
            let mut rng = SplitMix::new(seed ^ 0x0be7_1009);
            (0..N).map(|_| m.sample(&mut rng)).collect()
        }
    }
}

/// The served document must equal the in-process result of the scripts
/// the server acknowledged, or of those plus the one that failed (its
/// effect is unknown).
fn final_document_check(
    server: &ServerProc,
    mix: &UpdateMix,
    gens: &Generations,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let mut c = server.client()?;
    let target = crate::closed::query_target(&mix.doc, FINAL_QUERY);
    let r = server.ok(&mut c, "GET", &target, b"")?;
    let matches = gens
        .window(gens.acked())
        .any(|g| r.body == mix.final_expected[variant_at(&mix.scripts, g)]);
    if !matches {
        problems.push(format!(
            "final document after {} update(s) differs from the in-process apply_mutations result",
            gens.acked()
        ));
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        total += entry.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV digest of the repository's sources and manifests, which
/// identifies the code even where the checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut d = Digest::default();
    for f in files {
        d.str(&f.strip_prefix(root).unwrap_or(&f).display().to_string());
        d.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    d.hex()
}

fn provenance(
    opts: &Options,
    cores: usize,
    connections: usize,
    flags: &ServerFlags,
    inputs: &Inputs,
    digest: &str,
    work: &Path,
) -> Vec<(String, String)> {
    let root = repo_root();
    let s = &opts.sizes;
    let nodes: Vec<String> = inputs
        .docs()
        .iter()
        .map(|d| format!("{}={}", d.name, d.nodes))
        .collect();
    let work = work.display().to_string();
    let flag_list: Vec<String> = flags
        .args()
        .iter()
        .map(|a| a.replace(&work, "<work>"))
        .collect();
    vec![
        ("workload".into(), opts.workload.clone()),
        ("seed".into(), opts.seed.to_string()),
        ("seconds".into(), opts.seconds.to_string()),
        ("trace".into(), opts.trace.to_string()),
        ("nproc".into(), cores.to_string()),
        ("commit".into(), command_line("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(|| "none".into())),
        ("source_digest".into(), source_digest(&root)),
        ("rustc".into(), command_line("rustc", &["--version"], &root).unwrap_or_else(|| "unknown".into())),
        ("profile".into(), "release".into()),
        ("server_flags".into(), format!("serve {}", flag_list.join(" "))),
        ("load_connections".into(), connections.to_string()),
        (
            "sizes".into(),
            format!(
                "table3_nodes={} point_nodes={} point_keys={} update_nodes={} update_scripts={} script_len={}",
                s.table3_nodes, s.point_nodes, s.point_keys, s.update_nodes, s.update_scripts, s.script_len
            ),
        ),
        ("documents".into(), nodes.join(" ")),
        ("cases".into(), inputs.cases().len().to_string()),
        ("request_digest".into(), digest.to_string()),
    ]
}
