//! Stress test for shared-scan batching across I/O threads: many
//! connections, spread over several I/O threads, send the same query in
//! lockstep rounds. Identical requests that land on different I/O
//! threads at the same moment race to lead one batch; every request
//! must still get exactly one response. A lost batch member shows up as
//! a client read timeout, so the test fails instead of hanging.

use blossom_server::{Client, Server, ServerConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const IO_THREADS: usize = 8;
const CONNECTIONS: usize = 32;
const ROUNDS: usize = 500;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
const QUERY: &str = "//book[author]/title";

#[test]
fn identical_queries_on_many_io_threads_get_exactly_one_response_each() {
    let handle = Server::bind(ServerConfig {
        io_threads: IO_THREADS,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral")
    .spawn();
    let addr = handle.addr();

    let mut xml = String::from("<bib>");
    for i in 0..50 {
        xml.push_str(&format!("<book><title>t{i}</title><author>a{}</author></book>", i % 7));
    }
    xml.push_str("</bib>");
    let mut setup = Client::connect(addr).unwrap();
    assert_eq!(setup.load("bib", xml.as_bytes()).unwrap().status, 200);
    let expected = setup.query("bib", QUERY, &[]).unwrap().body_str();

    let barrier = Arc::new(Barrier::new(CONNECTIONS));
    let failed = Arc::new(AtomicBool::new(false));
    let ids = Arc::new(Mutex::new(Vec::<String>::new()));
    let workers: Vec<_> = (0..CONNECTIONS)
        .map(|_| {
            let (barrier, failed, ids, expected) =
                (barrier.clone(), failed.clone(), ids.clone(), expected.clone());
            std::thread::spawn(move || -> Result<usize, String> {
                let mut client = Client::connect(addr).unwrap();
                client.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
                let mut sent = 0;
                let mut first_error = None;
                for round in 0..ROUNDS {
                    // Every connection fires at once. All of them read
                    // the failure flag between two barriers, while no one
                    // can set it, so they stop together after the round
                    // in which one failed.
                    barrier.wait();
                    let stop = failed.load(Ordering::SeqCst);
                    barrier.wait();
                    if stop {
                        break;
                    }
                    sent += 1;
                    let problem = match client.query("bib", QUERY, &[]) {
                        Ok(r) if r.status == 200 && r.body_str() == expected => {
                            match r.header("X-Request-Id") {
                                Some(id) => {
                                    ids.lock().unwrap().push(id.to_string());
                                    continue;
                                }
                                None => "no X-Request-Id".to_string(),
                            }
                        }
                        Ok(r) => format!("status {} body {:?}", r.status, r.body_str()),
                        Err(e) => e.to_string(),
                    };
                    first_error.get_or_insert(format!("round {round}: {problem}"));
                    failed.store(true, Ordering::SeqCst);
                }
                first_error.map_or(Ok(sent), Err)
            })
        })
        .collect();

    let mut sent = 0;
    let mut errors = Vec::new();
    for w in workers {
        match w.join().expect("client thread") {
            Ok(n) => sent += n,
            Err(e) => errors.push(e),
        }
    }
    assert!(errors.is_empty(), "lost or wrong responses: {errors:?}");
    let ids = ids.lock().unwrap();
    assert_eq!(ids.len(), sent, "every request answered");
    let unique: HashSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "every X-Request-Id answered exactly once");
    handle.shutdown();
}
