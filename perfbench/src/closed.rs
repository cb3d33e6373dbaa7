//! Closed loops: each connection sends its next request only
//! after the previous one is answered or has timed out.

use crate::inputs::{conn_rng, Case, Class, Doc, Script, UpdateMix};
use crate::stats::Latencies;
use blossom_server::http::percent_encode;
use blossom_server::{Client, Response};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A keep-alive connection whose every request is bounded by a read
/// timeout. A stall, a reset or a `Connection: close` drops the
/// connection; the next request reconnects.
pub struct Conn {
    addr: String,
    timeout: Duration,
    client: Option<Client>,
}

impl Conn {
    /// A connection to `addr` (opened lazily).
    pub fn new(addr: &str, timeout: Duration) -> Conn {
        Conn {
            addr: addr.to_string(),
            timeout,
            client: None,
        }
    }

    /// Send one request; `Err` on a timeout or connection failure.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Response, String> {
        if self.client.is_none() {
            let c = Client::connect(&*self.addr).map_err(|e| format!("connect: {e}"))?;
            c.set_read_timeout(Some(self.timeout))
                .map_err(|e| e.to_string())?;
            self.client = Some(c);
        }
        let client = self.client.as_mut().expect("connected above");
        match client.request(method, target, body) {
            Ok(r) => {
                if r.closed {
                    self.client = None;
                }
                Ok(r)
            }
            Err(e) => {
                self.client = None;
                Err(e.to_string())
            }
        }
    }
}

/// `GET /query` target for a case.
pub fn query_target(doc: &Doc, query: &str) -> String {
    format!(
        "/query?doc={}&q={}",
        percent_encode(&doc.name),
        percent_encode(query)
    )
}

/// Query parameter that makes the server write a trace record for the
/// request (to its `--access-log`).
pub const TRACE_PARAM: &str = "&trace=1";

/// `target`, with [`TRACE_PARAM`] when `trace` is set.
pub fn traced(target: String, trace: bool) -> String {
    if trace {
        target + TRACE_PARAM
    } else {
        target
    }
}

/// What one closed-loop run saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Path-query latencies (from send).
    pub path: Latencies,
    /// FLWOR-query latencies (from send).
    pub flwor: Latencies,
    /// `/update` latencies (from send).
    pub update: Latencies,
    /// Requests sent.
    pub attempted: usize,
    /// Timeouts, connection failures and 503 answers (admission or
    /// deadline).
    pub failed: usize,
    /// Wrong answers: wrong bytes, or a status other than 200 and 503.
    pub wrong: usize,
    /// First wrong answer, for the log.
    pub first_wrong: Option<String>,
    /// Requests answered 200 with the right bytes.
    pub correct: usize,
}

impl Tally {
    /// Fold another connection's tally in.
    pub fn merge(&mut self, other: Tally) {
        self.path.extend(&other.path);
        self.flwor.extend(&other.flwor);
        self.update.extend(&other.update);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.correct += other.correct;
        if self.first_wrong.is_none() {
            self.first_wrong = other.first_wrong;
        }
    }

    fn class(&mut self, class: Class) -> &mut Latencies {
        match class {
            Class::Path => &mut self.path,
            Class::Flwor => &mut self.flwor,
        }
    }

    /// Latencies recorded for `class`.
    pub fn samples(&self, class: Class) -> usize {
        match class {
            Class::Path => self.path.len(),
            Class::Flwor => self.flwor.len(),
        }
    }

    /// Count a non-200 answer: 503 (admission or deadline) is a
    /// failure, any other status a wrong answer.
    fn note_status(&mut self, what: &str, status: u16) {
        if status == 503 {
            self.failed += 1;
        } else {
            self.note_wrong(format!("{what}: status {status}"));
        }
    }

    fn note_wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.first_wrong.is_none() {
            self.first_wrong = Some(what);
        }
    }
}

/// One connection of `table3-mix`: seeded draws from `cases` until
/// `deadline`; `trace` asks the server for a trace record per request.
#[allow(clippy::too_many_arguments)]
pub fn read_loop(
    addr: &str,
    docs: &[Doc],
    cases: &[Case],
    seed: u64,
    conn: usize,
    deadline: Instant,
    timeout: Duration,
    trace: bool,
) -> Tally {
    let targets: Vec<String> = cases
        .iter()
        .map(|c| traced(query_target(&docs[c.doc], &c.query), trace))
        .collect();
    let mut rng = conn_rng(seed, conn);
    let mut link = Conn::new(addr, timeout);
    let mut t = Tally::default();
    while Instant::now() < deadline {
        let i = rng.gen_index(cases.len());
        let case = &cases[i];
        t.attempted += 1;
        let sent = Instant::now();
        match link.request("GET", &targets[i], b"") {
            Ok(r) if r.status == 200 => {
                t.class(case.class).push(sent.elapsed());
                if r.body == case.expected {
                    t.correct += 1;
                } else {
                    t.note_wrong(format!(
                        "{}: {} bytes, want {}",
                        case.query,
                        r.body.len(),
                        case.expected.len()
                    ));
                }
            }
            Ok(r) => t.note_status(&case.query, r.status),
            Err(_) => t.failed += 1,
        }
    }
    t
}

/// Which generation (count of applied scripts) may be current: shared
/// by the `update-mix` writer and reader.
#[derive(Debug, Default)]
pub struct Generations {
    /// Scripts sent (their effect may be visible from the send on; a
    /// failed one's effect may still become visible).
    sent: AtomicUsize,
    /// Scripts acknowledged with 200 (visible from then on).
    acked: AtomicUsize,
}

impl Generations {
    /// Generations the document may be at, given `acked` before a read's
    /// send and `sent` after its answer.
    pub fn window(&self, acked_before: usize) -> std::ops::RangeInclusive<usize> {
        acked_before..=self.sent.load(Ordering::SeqCst)
    }

    /// Number of acknowledged scripts.
    pub fn acked(&self) -> usize {
        self.acked.load(Ordering::SeqCst)
    }
}

/// Content variant after `generation` scripts of the cycle.
pub fn variant_at(scripts: &[Script], generation: usize) -> usize {
    if generation == 0 {
        0
    } else {
        scripts[(generation - 1) % scripts.len()].variant_after
    }
}

/// The `update-mix` writer: the script cycle, back to back, until
/// `deadline`. Each script is written against the previous one's result,
/// so the writer stops after the first unacknowledged script; whether
/// that one is applied stays open (see [`Generations::window`]).
pub fn update_loop(
    addr: &str,
    mix: &UpdateMix,
    gens: &Generations,
    deadline: Instant,
    timeout: Duration,
    trace: bool,
) -> Tally {
    let target = traced(
        format!("/update?doc={}", percent_encode(&mix.doc.name)),
        trace,
    );
    let mut link = Conn::new(addr, timeout);
    let mut t = Tally::default();
    let mut next = gens.acked();
    while Instant::now() < deadline {
        let script = &mix.scripts[next % mix.scripts.len()];
        t.attempted += 1;
        gens.sent.fetch_add(1, Ordering::SeqCst);
        let sent = Instant::now();
        match link.request("POST", &target, script.text.as_bytes()) {
            Ok(r) if r.status == 200 => {
                t.update.push(sent.elapsed());
                t.correct += 1;
                gens.acked.fetch_add(1, Ordering::SeqCst);
                next += 1;
            }
            Ok(r) => {
                t.note_status("/update", r.status);
                break;
            }
            Err(_) => {
                t.failed += 1;
                break;
            }
        }
    }
    t
}

/// The `update-mix` reader: seeded draws from the reads; each answer
/// must equal the expected bytes of a variant current at some instant
/// between its send and its answer.
pub fn versioned_read_loop(
    addr: &str,
    mix: &UpdateMix,
    gens: &Generations,
    seed: u64,
    deadline: Instant,
    timeout: Duration,
    trace: bool,
) -> Tally {
    let targets: Vec<String> = mix
        .cases
        .iter()
        .map(|c| traced(query_target(&mix.doc, &c.query), trace))
        .collect();
    let mut rng = conn_rng(seed, 1);
    let mut link = Conn::new(addr, timeout);
    let mut t = Tally::default();
    while Instant::now() < deadline {
        let i = rng.gen_index(mix.cases.len());
        let case = &mix.cases[i];
        t.attempted += 1;
        let acked_before = gens.acked();
        let sent = Instant::now();
        match link.request("GET", &targets[i], b"") {
            Ok(r) if r.status == 200 => {
                t.class(case.class).push(sent.elapsed());
                let ok = gens
                    .window(acked_before)
                    .any(|g| mix.expected[variant_at(&mix.scripts, g)][i] == r.body);
                if ok {
                    t.correct += 1;
                } else {
                    t.note_wrong(format!(
                        "{} matches no snapshot current during the read",
                        case.query
                    ));
                }
            }
            Ok(r) => t.note_status(&case.query, r.status),
            Err(_) => t.failed += 1,
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Script, UpdateMix};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::thread::Scope;

    /// A stub server on threads of `s` until `stop` is set. It accepts
    /// and reads requests (none with a body), and answers each with an
    /// empty `status` response, or never answers when `status` is `None`.
    fn stub<'s>(
        s: &'s Scope<'s, '_>,
        listener: &'s TcpListener,
        stop: &'s AtomicBool,
        status: Option<u16>,
    ) {
        s.spawn(move || {
            listener.set_nonblocking(true).unwrap();
            let mut held = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((sock, _)) => match status {
                        None => held.push(sock),
                        Some(code) => {
                            s.spawn(move || answer(sock, code));
                        }
                    },
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
    }

    /// Answer every request on `sock` with `code` until the client
    /// hangs up.
    fn answer(sock: std::net::TcpStream, code: u16) {
        sock.set_nonblocking(false).unwrap();
        let mut out = sock.try_clone().unwrap();
        let mut lines = BufReader::new(sock).lines();
        while let Some(Ok(line)) = lines.next() {
            if line.is_empty()
                && out
                    .write_all(format!("HTTP/1.1 {code} X\r\nContent-Length: 0\r\n\r\n").as_bytes())
                    .is_err()
            {
                return;
            }
        }
    }

    fn one_doc() -> [Doc; 1] {
        [Doc {
            name: "d".into(),
            xml: String::new(),
            nodes: 0,
        }]
    }

    fn one_case() -> [Case; 1] {
        [Case {
            doc: 0,
            class: Class::Path,
            query: "//a".into(),
            expected: Vec::new(),
        }]
    }

    /// `read_loop` for `window` against a stub answering with `status`.
    fn read_against(status: Option<u16>, window: Duration) -> Tally {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            stub(s, &listener, &stop, status);
            let started = Instant::now();
            let t = read_loop(
                &addr,
                &one_doc(),
                &one_case(),
                1,
                0,
                started + window,
                Duration::from_millis(200),
                false,
            );
            stop.store(true, Ordering::SeqCst);
            assert!(
                started.elapsed() < window + Duration::from_secs(1),
                "{:?}",
                started.elapsed()
            );
            t
        })
    }

    /// A server that accepts and reads but never answers: every request
    /// must come back as a failure within the timeout, never a hang.
    #[test]
    fn a_stalled_request_is_counted_failed_within_budget() {
        let t = read_against(None, Duration::from_millis(500));
        assert!(t.attempted >= 2);
        assert_eq!(t.failed, t.attempted);
        assert_eq!(t.correct + t.wrong, 0);
    }

    /// A 503 (admission or deadline) is a failure; any other error
    /// status is a wrong answer, which fails the run.
    #[test]
    fn error_statuses_other_than_503_are_wrong_answers() {
        let busy = read_against(Some(503), Duration::from_millis(200));
        assert!(busy.attempted >= 1);
        assert_eq!(busy.failed, busy.attempted);
        assert_eq!(busy.wrong, 0);
        for code in [400, 500] {
            let t = read_against(Some(code), Duration::from_millis(200));
            assert!(t.attempted >= 1);
            assert_eq!(t.wrong, t.attempted, "status {code}");
            assert_eq!(t.failed, 0);
            assert!(t.first_wrong.unwrap().contains(&code.to_string()));
        }
    }

    /// A stalled update counts as failed; the writer stops, and the
    /// document may be at the generation before or after the script.
    #[test]
    fn a_stalled_update_is_failed_and_leaves_its_script_open() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = AtomicBool::new(false);
        let [doc] = one_doc();
        let mix = UpdateMix {
            doc,
            cases: Vec::new(),
            expected: Vec::new(),
            final_expected: Vec::new(),
            scripts: vec![Script {
                text: "delete 1".into(),
                variant_after: 1,
            }],
            digest: String::new(),
        };
        let gens = Generations::default();
        let t = std::thread::scope(|s| {
            stub(s, &listener, &stop, None);
            let started = Instant::now();
            let t = update_loop(
                &addr,
                &mix,
                &gens,
                started + Duration::from_secs(2),
                Duration::from_millis(200),
                false,
            );
            stop.store(true, Ordering::SeqCst);
            assert!(started.elapsed() < Duration::from_secs(1));
            t
        });
        assert_eq!((t.attempted, t.failed, t.wrong), (1, 1, 0));
        assert_eq!(gens.window(gens.acked()), 0..=1);
    }
}
