//! End-to-end tests over a real listening server: spawn on an ephemeral
//! port, drive it with the crate's own client, and check the robustness
//! contract — correct bytes under concurrency, 4xx on garbage without
//! killing the process, deadline aborts as 503, graceful drain.

use blossom_server::{Client, Server, ServerConfig};
use blossom_xml::writer;
use std::time::Duration;

fn spawn_default() -> blossom_server::ServerHandle {
    Server::bind(ServerConfig::default()).expect("bind ephemeral").spawn()
}

/// What `blossom query` would print for this document/query, plus the
/// newline the server's body contract adds.
fn direct_eval(xml: &str, query: &str) -> String {
    let engine = blossom_core::Engine::from_xml(xml).unwrap();
    let result = engine.eval_query_str(query, blossom_core::Strategy::Auto).unwrap();
    format!("{}\n", writer::to_string(&result))
}

const BIB: &str = "<bib><book><title>B</title><author>x</author></book>\
                   <book><title>A</title></book></bib>";

#[test]
fn load_then_query_matches_direct_evaluation() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();

    let loaded = client.load("bib", BIB.as_bytes()).unwrap();
    assert_eq!(loaded.status, 200, "{}", loaded.body_str());
    assert!(loaded.body_str().contains("\"loaded\": \"bib\""));

    for query in ["//book/title", "//book[author]", "for $b in //book order by $b/title return <t>{$b/title}</t>"] {
        let response = client.query("bib", query, &[]).unwrap();
        assert_eq!(response.status, 200, "{query}: {}", response.body_str());
        assert_eq!(response.body_str(), direct_eval(BIB, query), "{query}");
    }
    handle.shutdown();
}

#[test]
fn snapshot_bytes_load_like_xml() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    let doc = blossom_xml::Document::parse_str(BIB).unwrap();
    let index = blossom_xml::TagIndex::build(&doc);
    let snap = blossom_storage::snapshot::encode(
        &doc,
        &index,
        &doc.stats(),
        blossom_storage::EncodeOptions::default(),
    )
    .unwrap();
    assert!(blossom_storage::is_blm2(&snap));
    assert_eq!(client.load("snap", &snap).unwrap().status, 200);
    let response = client.query("snap", "//book/title", &[]).unwrap();
    assert_eq!(response.body_str(), direct_eval(BIB, "//book/title"));
    handle.shutdown();
}

#[test]
fn client_errors_are_4xx_and_the_server_survives() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();

    // Unknown document, bad query text, bad strategy, missing params,
    // unknown route, wrong method: all client errors.
    assert_eq!(client.query("nope", "//a", &[]).unwrap().status, 404);
    assert_eq!(client.query("bib", "//book[", &[]).unwrap().status, 400);
    assert_eq!(client.query("bib", "//a", &["strategy=warp"]).unwrap().status, 400);
    assert_eq!(client.get("/query?doc=bib").unwrap().status, 400);
    assert_eq!(client.get("/no/such/route").unwrap().status, 404);
    assert_eq!(client.request("POST", "/healthz", &[]).unwrap().status, 405);
    // Unparsable document bytes.
    assert_eq!(client.load("bad", b"<r><unclosed>").unwrap().status, 400);

    // A malformed request line gets 400 and closes that connection...
    let mut raw = Client::connect(handle.addr()).unwrap();
    let garbage = raw.send_raw(b"COMPLETE NONSENSE\r\n\r\n").unwrap();
    assert_eq!(garbage.status, 400);
    assert!(garbage.closed);

    // ...but the server keeps serving other connections.
    let good = client.query("bib", "//book/title", &[]).unwrap();
    assert_eq!(good.status, 200);
    assert_eq!(good.body_str(), direct_eval(BIB, "//book/title"));
    handle.shutdown();
}

#[test]
fn profile_returns_trace_json_alongside_the_result() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();
    let response = client.query("bib", "//book/title", &["profile=1"]).unwrap();
    assert_eq!(response.status, 200);
    let body = response.body_str();
    for key in ["\"result\"", "\"profile\"", "\"blossom_profile\"", "\"strategy\"", "\"operators\"", "\"cache\""] {
        assert!(body.contains(key), "missing {key} in {body}");
    }
    // The embedded result is the same bytes the plain endpoint returns.
    let plain = client.query("bib", "//book/title", &[]).unwrap();
    assert!(
        body.contains(&blossom_core::obs::json_str(&plain.body_str())),
        "profile envelope does not embed the plain body: {body}"
    );
    handle.shutdown();
}

#[test]
fn deadline_aborts_are_503() {
    // A tiny budget and a three-way Cartesian product: the cooperative
    // deadline must fire and surface as 503, not kill the worker.
    let mut xml = String::from("<r>");
    for i in 0..80 {
        xml.push_str(&format!("<a>{i}</a>"));
    }
    xml.push_str("</r>");
    let handle = Server::bind(ServerConfig {
        deadline: Some(Duration::from_micros(1)),
        ..ServerConfig::default()
    })
    .unwrap()
    .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("wide", xml.as_bytes()).unwrap();
    let response = client
        .query("wide", "for $x in //a for $y in //a for $z in //a return <t>{$x}</t>", &[])
        .unwrap();
    assert_eq!(response.status, 503, "{}", response.body_str());
    assert!(response.body_str().contains("deadline"), "{}", response.body_str());
    // The worker that hit the deadline still serves the next request
    // (healthz: the 1µs budget would 503 any real query here).
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body_str(), "ok\n");
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_results() {
    let handle = spawn_default();
    let mut setup = Client::connect(handle.addr()).unwrap();
    let mut xml = String::from("<bib>");
    for i in 0..200 {
        xml.push_str(&format!("<book><title>t{i}</title><year>{}</year></book>", 1990 + i % 30));
    }
    xml.push_str("</bib>");
    setup.load("bib", xml.as_bytes()).unwrap();

    let queries = [
        ("//book/title", ""),
        ("//book[year]/title", "strategy=ts"),
        ("//book//title", "strategy=pl"),
        ("for $b in //book where $b/year < 2000 return <t>{$b/title}</t>", ""),
    ];
    let addr = handle.addr();
    let workers: Vec<_> = (0..8)
        .map(|w| {
            let xml = xml.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..5 {
                    let (q, extra) = queries[(w + round) % queries.len()];
                    let extras: Vec<&str> = if extra.is_empty() { vec![] } else { vec![extra] };
                    let response = client.query("bib", q, &extras).unwrap();
                    assert_eq!(response.status, 200, "{q}: {}", response.body_str());
                    assert_eq!(response.body_str(), direct_eval(&xml, q), "{q}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let body = stats.body_str();
    assert!(body.contains("\"requests\""), "{body}");
    assert!(body.contains("\"plan_cache\""), "{body}");
    assert!(body.contains("\"p99\""), "{body}");
    // 8 workers × 5 rounds over 4 distinct queries: the shared plan
    // cache must have served most of them from memory.
    assert!(body.contains("\"hits\""), "{body}");
    handle.shutdown();
}

#[test]
fn shutdown_endpoint_drains_and_exits() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();
    let response = client.request("POST", "/shutdown", &[]).unwrap();
    assert_eq!(response.status, 200);
    assert!(response.closed, "shutdown responses close the connection");
    // The run loop must observe the flag and return; join via shutdown().
    handle.shutdown();
}

#[test]
fn healthz_and_keep_alive() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    // Several requests over one connection: keep-alive works.
    for _ in 0..3 {
        let response = client.get("/healthz").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body_str(), "ok\n");
        assert!(!response.closed);
    }
    handle.shutdown();
}

#[test]
fn oversized_body_is_413() {
    let handle = Server::bind(ServerConfig { max_body: 64, ..ServerConfig::default() })
        .unwrap()
        .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let big = vec![b'x'; 1000];
    let response = client.load("big", &big).unwrap();
    assert_eq!(response.status, 413);
    handle.shutdown();
}

/// Extract an integer stats field by key (first occurrence).
fn stat_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = body.find(&pat).unwrap_or_else(|| panic!("no {key:?} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// A query that keeps one execution worker busy for about `ms`
/// milliseconds: a three-way Cartesian product far larger than the
/// budget, cut off by `?deadline_ms=` so occupancy is machine-speed
/// independent.
fn occupy(addr: std::net::SocketAddr, ms: u64) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let response = client
            .query(
                "wide",
                "for $x in //a for $y in //a for $z in //a return <t>{$x}</t>",
                &[&format!("deadline_ms={ms}")],
            )
            .unwrap();
        assert_eq!(response.status, 503, "occupier should die on its deadline");
    })
}

fn wide_xml() -> String {
    let mut xml = String::from("<r>");
    for i in 0..500 {
        xml.push_str(&format!("<a>{i}</a>"));
    }
    xml.push_str("</r>");
    xml
}

#[test]
fn stats_reports_queue_batching_io_and_endpoint_fields() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();
    client.query("bib", "//book/title", &[]).unwrap();
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let body = stats.body_str();
    for key in [
        "\"queue\": {\"depth\": ",
        "\"peak\": ",
        "\"capacity\": ",
        "\"admission_rejections\": ",
        "\"batching\": {\"batched_requests\": ",
        "\"evaluations_saved\": ",
        "\"io\": {\"wakeups\": ",
        "\"cpu_us\": ",
        "\"latency_us\": {\"count\": ",
        "\"endpoints\": {",
        "\"/query\": {\"count\": 1",
        "\"/load\": {\"count\": 1",
    ] {
        assert!(body.contains(key), "missing {key} in {body}");
    }
    assert_eq!(stat_u64(&body, "capacity"), 1024, "default queue bound");
    handle.shutdown();
}

/// The PR 5 server woke every worker every 100ms per idle keep-alive
/// connection. The event loop must not: parked connections sit in the
/// poller, so I/O-thread CPU and wakeups stay near zero no matter how
/// many idle sockets are open. (Measured via the self-sampled
/// `io.cpu_us` / `io.wakeups` counters so parallel test load cannot
/// pollute the reading.)
#[test]
fn idle_connections_cost_no_io_cpu_or_wakeups() {
    let handle = spawn_default();
    let idle: Vec<std::net::TcpStream> = (0..64)
        .map(|_| std::net::TcpStream::connect(handle.addr()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    let mut client = Client::connect(handle.addr()).unwrap();
    let before = client.get("/stats").unwrap().body_str();
    std::thread::sleep(Duration::from_millis(1000));
    let after = client.get("/stats").unwrap().body_str();

    let cpu = stat_u64(&after, "cpu_us") - stat_u64(&before, "cpu_us");
    let wakeups = stat_u64(&after, "wakeups") - stat_u64(&before, "wakeups");
    // Budget: the 500ms safety tick (2 I/O threads → ~4 returns) plus
    // the /stats request itself. 64 idle connections polled at 100ms
    // would be ~640 wakeups and tens of ms of CPU.
    assert!(wakeups < 40, "idle window saw {wakeups} wakeups with 64 idle connections");
    assert!(cpu < 100_000, "idle window burned {cpu}µs of I/O-thread CPU");
    drop(idle);
    handle.shutdown();
}

/// The slow occupier query from [`occupy`], hand-encoded for a raw
/// socket, with the given evaluation deadline.
fn slow_query_request(deadline_ms: u64) -> String {
    let q = "for%20%24x%20in%20//a%20for%20%24y%20in%20//a%20for%20%24z%20in%20//a%20return%20%24x";
    format!("GET /query?doc=wide&q={q}&deadline_ms={deadline_ms} HTTP/1.1\r\nHost: x\r\n\r\n")
}

/// Wakeup delta across a window in which a client hangs up while its
/// response is still being computed. The abandoned connection must cost
/// nothing: level-triggered readiness re-reports a closed read side (or
/// an error) on every wait, and that hot loop can starve the very
/// completion that would end it.
fn wakeups_around_hangup(prelude: &[u8], linger_ms: u64) -> u64 {
    let handle =
        Server::bind(ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap().spawn();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.load("wide", wide_xml().as_bytes()).unwrap();
    let before = client.get("/stats").unwrap().body_str();

    let mut gone = std::net::TcpStream::connect(addr).unwrap();
    std::io::Write::write_all(&mut gone, prelude).unwrap();
    std::io::Write::write_all(&mut gone, slow_query_request(400).as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(linger_ms));
    drop(gone);

    // Wait out the abandoned query's deadline; its completion lands on
    // a dead connection and must be dropped, then drain must work.
    std::thread::sleep(Duration::from_millis(600));
    let after = client.get("/stats").unwrap().body_str();
    handle.shutdown();
    stat_u64(&after, "wakeups") - stat_u64(&before, "wakeups")
}

/// Clean hangup (FIN): the read side stays readable forever at EOF, so
/// the loop must drop READ interest while the response is pending.
#[test]
fn eof_with_pending_response_does_not_spin_the_poller() {
    let wakeups = wakeups_around_hangup(b"", 150);
    assert!(wakeups < 150, "EOF'd connection spun the poller: {wakeups} wakeups in ~750ms");
}

/// Hard hangup (RST): a /healthz response left unread client-side makes
/// close() send a reset, so the poller reports an error event while the
/// slow query's response is still pending — the connection must close
/// immediately rather than stay registered and re-report forever.
#[test]
fn reset_with_pending_response_does_not_spin_the_poller() {
    let wakeups = wakeups_around_hangup(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 200);
    assert!(wakeups < 150, "reset connection spun the poller: {wakeups} wakeups in ~800ms");
}

#[test]
fn coalesced_identical_queries_return_solo_bytes_and_save_evaluations() {
    let handle = Server::bind(ServerConfig { workers: 1, ..ServerConfig::default() })
        .unwrap()
        .spawn();
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();
    setup.load("wide", wide_xml().as_bytes()).unwrap();
    setup.load("bib", BIB.as_bytes()).unwrap();
    let solo = setup.query("bib", "//book/title", &[]).unwrap();
    assert_eq!(solo.status, 200);
    assert_eq!(solo.body_str(), direct_eval(BIB, "//book/title"));

    // Fill the single worker, then land 4 identical queries while it is
    // busy: one leads, three join, one evaluation serves all four.
    let occupier = occupy(addr, 600);
    std::thread::sleep(Duration::from_millis(100));
    let followers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query("bib", "//book/title", &[]).unwrap()
            })
        })
        .collect();
    for f in followers {
        let response = f.join().unwrap();
        assert_eq!(response.status, 200, "{}", response.body_str());
        assert_eq!(
            response.body_str(),
            direct_eval(BIB, "//book/title"),
            "batched response must be byte-identical to solo evaluation"
        );
    }
    occupier.join().unwrap();

    let stats = setup.get("/stats").unwrap().body_str();
    assert!(
        stat_u64(&stats, "batched_requests") >= 4,
        "expected a 4-member batch in {stats}"
    );
    assert!(
        stat_u64(&stats, "evaluations_saved") >= 3,
        "expected >= 3 evaluations saved in {stats}"
    );
    handle.shutdown();
}

#[test]
fn a_members_deadline_expiring_mid_batch_does_not_poison_the_others() {
    let handle = Server::bind(ServerConfig { workers: 1, ..ServerConfig::default() })
        .unwrap()
        .spawn();
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();
    setup.load("wide", wide_xml().as_bytes()).unwrap();
    setup.load("bib", BIB.as_bytes()).unwrap();

    // Worker busy until ~600ms. The first joiner's 50ms budget expires
    // while its batch is still queued; the second joiner has the full
    // default budget. Identical (doc, query) — they coalesce.
    let occupier = occupy(addr, 600);
    std::thread::sleep(Duration::from_millis(100));
    let tight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query("bib", "//book/title", &["deadline_ms=50"]).unwrap()
    });
    std::thread::sleep(Duration::from_millis(50));
    let lax = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query("bib", "//book/title", &[]).unwrap()
    });

    let tight = tight.join().unwrap();
    let lax = lax.join().unwrap();
    occupier.join().unwrap();
    assert_eq!(tight.status, 503, "expired member: {}", tight.body_str());
    assert!(tight.body_str().contains("deadline"), "{}", tight.body_str());
    assert_eq!(lax.status, 200, "surviving member: {}", lax.body_str());
    assert_eq!(
        lax.body_str(),
        direct_eval(BIB, "//book/title"),
        "survivor still gets solo-identical bytes"
    );
    handle.shutdown();
}

#[test]
fn admission_control_rejects_with_503_and_retry_after() {
    let handle = Server::bind(ServerConfig {
        workers: 1,
        max_queue: 1,
        batch: false, // identical bursts must queue, not coalesce
        ..ServerConfig::default()
    })
    .unwrap()
    .spawn();
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();
    setup.load("wide", wide_xml().as_bytes()).unwrap();
    setup.load("bib", BIB.as_bytes()).unwrap();

    let occupier = occupy(addr, 700);
    std::thread::sleep(Duration::from_millis(100));
    let burst: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query("bib", "//book/title", &[]).unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = burst.into_iter().map(|t| t.join().unwrap()).collect();
    occupier.join().unwrap();

    let rejected: Vec<_> = responses.iter().filter(|r| r.status == 503).collect();
    let served = responses.iter().filter(|r| r.status == 200).count();
    assert!(!rejected.is_empty(), "queue bound 1 must reject part of a 6-burst");
    assert!(served >= 1, "the admitted request must still be served");
    for r in &rejected {
        assert_eq!(r.header("Retry-After"), Some("1"), "{:?}", r.headers);
        assert!(r.body_str().contains("overloaded"), "{}", r.body_str());
    }
    let stats = setup.get("/stats").unwrap().body_str();
    assert!(stat_u64(&stats, "admission_rejections") >= rejected.len() as u64, "{stats}");
    handle.shutdown();
}

#[test]
fn pipelined_requests_get_ordered_responses() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();

    // Three requests in one TCP segment; responses must come back in
    // request order with correct bodies.
    let query_target = "/query?doc=bib&q=%2F%2Fbook%2Ftitle";
    let pipelined = format!(
        "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
         GET {query_target} HTTP/1.1\r\nHost: x\r\n\r\n\
         GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    );
    client.write_raw(pipelined.as_bytes()).unwrap();
    let first = client.recv().unwrap();
    let second = client.recv().unwrap();
    let third = client.recv().unwrap();
    assert_eq!((first.status, first.body_str().as_str()), (200, "ok\n"));
    assert_eq!(second.status, 200);
    assert_eq!(second.body_str(), direct_eval(BIB, "//book/title"));
    assert_eq!((third.status, third.body_str().as_str()), (200, "ok\n"));

    // A request whose header block dribbles in across many segments
    // still parses (incremental framing, not read-to-timeout).
    for fragment in ["GET /hea", "lthz HTTP/1.1\r\nHo", "st: x\r\nContent-Le", "ngth: 0\r\n\r\n"] {
        client.write_raw(fragment.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let dribbled = client.recv().unwrap();
    assert_eq!((dribbled.status, dribbled.body_str().as_str()), (200, "ok\n"));
    handle.shutdown();
}

#[test]
fn deadline_ms_param_tightens_but_cannot_extend_the_budget() {
    let handle = spawn_default(); // default budget: 10s
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("wide", wide_xml().as_bytes()).unwrap();
    let response = client
        .query(
            "wide",
            "for $x in //a for $y in //a for $z in //a return <t>{$x}</t>",
            &["deadline_ms=1"],
        )
        .unwrap();
    assert_eq!(response.status, 503, "{}", response.body_str());
    assert!(response.body_str().contains("deadline"), "{}", response.body_str());
    // A cheap query under the same tightened budget still succeeds.
    client.load("bib", BIB.as_bytes()).unwrap();
    let quick = client.query("bib", "//book/title", &["deadline_ms=5000"]).unwrap();
    assert_eq!(quick.status, 200);
    assert_eq!(quick.body_str(), direct_eval(BIB, "//book/title"));
    handle.shutdown();
}

// ---------------------------------------------------------------------
// POST /update
// ---------------------------------------------------------------------

/// Serialize what `xml` becomes after applying `script` (engine-side
/// splice), for byte-comparing server responses.
fn mutated_xml(xml: &str, script: &str) -> String {
    let doc = blossom_xml::Document::parse_str(xml).unwrap();
    let muts = blossom_xml::mutate::parse_mutations(script).unwrap();
    writer::to_string(&blossom_xml::mutate::apply_all(&doc, &muts).unwrap())
}

#[test]
fn update_then_query_matches_the_mutated_document() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();
    let script = "insert 1 0 <book><title>C</title><author>y</author></book>\n\
                  replace 1.2.1 <title>BB</title>\n\
                  delete 1.3";
    let response = client.update("bib", script).unwrap();
    assert_eq!(response.status, 200, "{}", response.body_str());
    let body = response.body_str();
    assert!(body.contains("\"updated\": \"bib\""), "{body}");
    assert!(body.contains("\"mutations\": 3"), "{body}");

    let after = mutated_xml(BIB, script);
    for query in ["//book/title", "//book[author]/title", "for $b in //book return $b/title"] {
        let got = client.query("bib", query, &[]).unwrap();
        assert_eq!(got.status, 200, "{query}: {}", got.body_str());
        assert_eq!(got.body_str(), direct_eval(&after, query), "{query}");
    }
    handle.shutdown();
}

#[test]
fn update_4xx_matrix() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();

    // Missing ?doc=, unknown doc, empty body, non-UTF-8 body, bad
    // script syntax, invalid mutation, wrong method: all 4xx, and none
    // of them change the document.
    assert_eq!(client.request("POST", "/update", b"delete 1.1").unwrap().status, 400);
    assert_eq!(client.update("ghost", "delete 1.1").unwrap().status, 404);
    assert_eq!(client.update("bib", "").unwrap().status, 400);
    assert_eq!(
        client.request("POST", "/update?doc=bib", &[0xff, 0xfe, 0x00]).unwrap().status,
        400
    );
    assert_eq!(client.update("bib", "munge 1.1").unwrap().status, 400);
    assert_eq!(client.update("bib", "delete 1.9").unwrap().status, 400);
    assert_eq!(client.update("bib", "delete 1").unwrap().status, 400);
    assert_eq!(client.request("GET", "/update?doc=bib", &[]).unwrap().status, 405);

    let unchanged = client.query("bib", "//book/title", &[]).unwrap();
    assert_eq!(unchanged.body_str(), direct_eval(BIB, "//book/title"));
    handle.shutdown();
}

#[test]
fn oversized_update_body_is_413() {
    let handle = Server::bind(ServerConfig { max_body: 64, ..ServerConfig::default() })
        .unwrap()
        .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let script = "insert 1 0 <x/>\n".repeat(100);
    let response = client.update("bib", &script).unwrap();
    assert_eq!(response.status, 413);
    handle.shutdown();
}

#[test]
fn update_past_its_deadline_is_503_and_a_no_op() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("wide", wide_xml().as_bytes()).unwrap();
    // Thousands of splices against a tightened 1ms budget: the
    // per-mutation deadline poll must abort, all-or-nothing.
    let script = "insert 1 0 <a>zz</a>\n".repeat(4000);
    let response = client
        .request("POST", "/update?doc=wide&deadline_ms=1", script.as_bytes())
        .unwrap();
    assert_eq!(response.status, 503, "{}", response.body_str());
    assert!(response.body_str().contains("deadline"), "{}", response.body_str());
    let unchanged = client.query("wide", "//a[1]", &[]).unwrap();
    assert_eq!(unchanged.body_str(), direct_eval(&wide_xml(), "//a[1]"));
    handle.shutdown();
}

/// Queries racing an update must each see one coherent snapshot: every
/// response is byte-identical to the document either before or after
/// the mutation — never a mix, never an error.
#[test]
fn queries_concurrent_with_update_see_exactly_one_snapshot() {
    let handle = spawn_default();
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();
    setup.load("bib", BIB.as_bytes()).unwrap();
    let script = "insert 1 0 <book><title>Z</title></book>";
    let before = direct_eval(BIB, "//book/title");
    let after = direct_eval(&mutated_xml(BIB, script), "//book/title");

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let (before, after) = (before.clone(), after.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..50 {
                    let r = client.query("bib", "//book/title", &[]).unwrap();
                    assert_eq!(r.status, 200, "{}", r.body_str());
                    let body = r.body_str();
                    assert!(
                        body == before || body == after,
                        "tore a snapshot: {body:?} is neither {before:?} nor {after:?}"
                    );
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    let response = setup.update("bib", script).unwrap();
    assert_eq!(response.status, 200, "{}", response.body_str());
    for r in readers {
        r.join().unwrap();
    }
    // After the swap every reader sees the new snapshot.
    let settled = setup.query("bib", "//book/title", &[]).unwrap();
    assert_eq!(settled.body_str(), after);
    handle.shutdown();
}

#[test]
fn stats_reports_update_counters_and_scoped_invalidation() {
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("a", BIB.as_bytes()).unwrap();
    client.load("b", "<r><x>1</x></r>".as_bytes()).unwrap();
    // Warm one plan per document.
    client.query("a", "//book/title", &[]).unwrap();
    client.query("b", "//x", &[]).unwrap();
    let warm = client.get("/stats").unwrap().body_str();

    let response = client.update("a", "delete 1.2\ninsert 1 0 <book><title>N</title></book>").unwrap();
    assert_eq!(response.status, 200, "{}", response.body_str());
    assert!(response.body_str().contains("\"plans_invalidated\": 1"), "{}", response.body_str());

    // b's plan survived the update: re-running its query is a cache hit.
    let hits_before = stat_u64(&client.get("/stats").unwrap().body_str(), "hits");
    client.query("b", "//x", &[]).unwrap();
    let body = client.get("/stats").unwrap().body_str();
    assert_eq!(stat_u64(&body, "hits"), hits_before + 1, "untouched doc's plan stayed warm");
    assert!(
        body.contains("\"updates\": {\"count\": 1, \"mutations_applied\": 2, \"plans_invalidated\": 1}"),
        "{body}"
    );
    assert!(body.contains("\"/update\": {\"count\": 1"), "{body}");
    // Only a's entry was dropped: entry count went 2 -> 1 (plus the
    // re-planned queries since).
    let entries_warm = stat_u64(&warm, "entries");
    assert_eq!(entries_warm, 2, "{warm}");
    handle.shutdown();
}

/// A unique temp path for file-sink access-log tests.
fn tmp_log(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("blossomd-test-{}-{name}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

/// The integer value of `"key": N` inside a JSON log record.
fn field_u64(record: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = record.find(&needle).unwrap_or_else(|| panic!("no {key} in {record}"));
    record[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn metrics_exposition_parses_and_tracks_stage_histograms() {
    use blossom_server::promtext;
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();
    for _ in 0..3 {
        client.query("bib", "//book/title", &[]).unwrap();
    }
    let response = client.get("/metrics").unwrap();
    assert_eq!(response.status, 200);
    let content_type = response.header("Content-Type").expect("content type").to_string();
    assert!(content_type.starts_with("text/plain; version=0.0.4"), "{content_type}");
    let text = response.body_str();
    let stats = promtext::check(&text).expect("exposition must parse");
    assert!(stats.families >= 20, "only {} families", stats.families);
    let v = |name: &str, labels: &[(&str, &str)]| promtext::value(&text, name, labels);
    assert!(v("blossomd_requests_total", &[]).unwrap() >= 4.0);
    assert_eq!(v("blossomd_catalog_documents", &[]), Some(1.0));
    let wall = v("blossomd_request_duration_seconds_count", &[("endpoint", "/query")]);
    assert_eq!(wall, Some(3.0));
    // Every span records all seven stage laps, so each stage family's
    // count equals the endpoint's request count.
    for stage in ["read", "parse", "queue", "batch", "execute", "serialize", "write"] {
        assert_eq!(
            v(
                "blossomd_request_stage_duration_seconds_count",
                &[("endpoint", "/query"), ("stage", stage)],
            ),
            wall,
            "{stage}"
        );
    }
    handle.shutdown();
}

#[test]
fn slow_log_records_reconstruct_wall_time_and_correlate_ids() {
    let path = tmp_log("slow");
    let handle = Server::bind(ServerConfig {
        // Threshold 0ms: every request is "slow", making the test
        // deterministic without an actually slow query.
        slow_ms: Some(0),
        access_log: blossom_server::accesslog::LogTarget::File(path.clone()),
        ..ServerConfig::default()
    })
    .unwrap()
    .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();
    let response = client.query("bib", "//book/title", &[]).unwrap();
    assert_eq!(response.status, 200);
    let id = response.header("X-Request-Id").expect("responses carry X-Request-Id").to_string();
    assert!(id.parse::<u64>().unwrap() >= 1, "{id}");
    // Joining the server guarantees every record reached the file.
    handle.shutdown();

    let log = std::fs::read_to_string(&path).unwrap();
    let record = log
        .lines()
        .find(|l| l.contains(&format!("\"id\": {id},")))
        .unwrap_or_else(|| panic!("no record for id {id} in: {log}"));
    assert!(record.contains("\"endpoint\": \"/query\""), "{record}");
    assert!(record.contains("\"outcome\": \"ok\""), "{record}");
    assert!(record.contains("\"slow\": true"), "{record}");
    assert!(record.contains("\"query\": \"//book/title\""), "{record}");
    assert!(record.contains("\"strategy\": \""), "{record}");
    // Slow /query records carry the engine trace inline.
    assert!(record.contains("\"trace\": {"), "{record}");
    assert!(record.contains("\"blossom_profile\""), "{record}");
    // Stage laps reconstruct the logged wall time (>= 95% is the
    // acceptance bar; the lap design makes it exact).
    let wall = field_u64(record, "wall_us");
    let stages_at = record.find("\"stages_us\"").unwrap();
    let stages: u64 = ["read", "parse", "queue", "batch", "execute", "serialize", "write"]
        .iter()
        .map(|stage| field_u64(&record[stages_at..], stage))
        .sum();
    assert!(stages <= wall, "stage laps exceed wall: {record}");
    assert!(stages * 100 >= wall * 95, "stages {stages}us < 95% of wall {wall}us: {record}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_param_forces_a_log_record_when_nothing_else_would() {
    let path = tmp_log("trace");
    let handle = Server::bind(ServerConfig {
        access_log: blossom_server::accesslog::LogTarget::File(path.clone()),
        ..ServerConfig::default()
    })
    .unwrap()
    .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load("bib", BIB.as_bytes()).unwrap();
    let quiet = client.query("bib", "//book/title", &[]).unwrap();
    let forced = client.query("bib", "//book/title", &["trace=1"]).unwrap();
    assert_eq!(forced.body_str(), quiet.body_str(), "?trace=1 never changes the response body");
    let quiet_id = quiet.header("X-Request-Id").unwrap().to_string();
    let forced_id = forced.header("X-Request-Id").unwrap().to_string();
    assert_ne!(quiet_id, forced_id);
    handle.shutdown();

    let log = std::fs::read_to_string(&path).unwrap();
    assert!(log.contains(&format!("\"id\": {forced_id},")), "no forced record in: {log}");
    assert!(
        !log.contains(&format!("\"id\": {quiet_id},")),
        "un-traced fast request should not be logged: {log}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn endpoint_metrics_normalize_trailing_slashes_and_query_strings() {
    use blossom_server::promtext;
    let handle = spawn_default();
    let mut client = Client::connect(handle.addr()).unwrap();
    // Routing is strict (the trailing-slash spelling is a 404), but the
    // metrics endpoint label normalizes to the canonical path.
    assert_eq!(client.get("/healthz/").unwrap().status, 404);
    assert_eq!(client.get("/healthz?verbose=1").unwrap().status, 200);
    let text = client.get("/metrics").unwrap().body_str();
    assert_eq!(
        promtext::value(
            &text,
            "blossomd_request_duration_seconds_count",
            &[("endpoint", "/healthz")],
        ),
        Some(2.0)
    );
    assert_eq!(
        promtext::value(&text, "blossomd_request_duration_seconds_count", &[("endpoint", "other")]),
        None,
        "nothing should fall into the catch-all bucket"
    );
    handle.shutdown();
}
