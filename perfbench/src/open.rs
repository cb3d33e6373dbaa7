//! The `point-open` open-loop generator: one thread pipelines requests over
//! at most two nonblocking keep-alive connections on a fixed arrival
//! schedule, and times each request from its scheduled arrival.
//!
//! A reference rung at a fixed rate well under the knee comes first and
//! gives the reported latencies. Then the offered rate climbs a ladder
//! of rungs, pass after pass until the run's time is spent. For each
//! rate, the answered latencies of every pass are pooled, except from
//! rungs that lost a request or ended with more backlog than the SLO
//! allows in flight; the rate misses outright when most passes lost or
//! never reached it. `max_rps_under_slo` is where the pooled
//! p99-per-rate curve crosses [`OpenConfig::slo`]. Pooling over passes
//! keeps one stalled rung from deciding the result.

use crate::closed::{query_target, traced};
use crate::inputs::{Class, PointMix};
use crate::stats::{percentile, Latencies};
use blossom_xmlgen::SplitMix;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Ladder and limits of the open loop.
#[derive(Debug, Clone)]
pub struct OpenConfig {
    /// Offered rates in requests per second, ascending.
    pub ladder: Vec<f64>,
    /// Length of one rung.
    pub rung: Duration,
    /// p99-from-arrival limit.
    pub slo: Duration,
    /// Rate of the reference rung, which opens the run and alone feeds
    /// the reported path/FLWOR latencies: a fixed load under the knee.
    pub reference_rate: f64,
    /// Share of the run the reference rung takes.
    pub reference_share: f64,
    /// Connections (at most 2).
    pub connections: usize,
    /// A request unanswered this long fails and its connection is
    /// replaced.
    pub timeout: Duration,
}

/// What the open loop saw.
#[derive(Debug, Default)]
pub struct OpenTally {
    /// Path latencies from arrival on the reference rung.
    pub path: Latencies,
    /// FLWOR latencies from arrival on the reference rung.
    pub flwor: Latencies,
    /// Requests scheduled and sent.
    pub attempted: usize,
    /// Timeouts, connection failures and 503 answers (admission or
    /// deadline).
    pub failed: usize,
    /// Wrong answers: wrong bytes, or a status other than 200 and 503.
    pub wrong: usize,
    /// Correct answers.
    pub correct: usize,
    /// Correct answers per second on the reference rung.
    pub reference_qps: f64,
    /// Ladder passes completed.
    pub passes: usize,
    /// Where the median p99-per-rate curve crosses the SLO (req/s).
    pub max_rps_under_slo: f64,
    /// How late the generator sent, p99 in ms.
    pub send_late_p99_ms: f64,
}

struct Pending {
    due: Instant,
    case: usize,
}

struct Wire {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    pending: VecDeque<Pending>,
    /// When the oldest pending request was written.
    oldest_sent: Option<Instant>,
}

impl Wire {
    fn connect(addr: &str) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Wire {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            oldest_sent: None,
        })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read what is available; `Ok(false)` when the peer closed.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(false),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A response parsed off the front of a buffer.
struct Parsed {
    status: u16,
    body: std::ops::Range<usize>,
    /// Bytes the response takes, head included.
    total: usize,
    /// The server sent `Connection: close`.
    close: bool,
}

/// One response off the front of `buf`, or `None` until it is complete.
fn parse_response(buf: &[u8]) -> Result<Option<Parsed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let mut length = 0usize;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| "bad Content-Length")?;
            } else if name.trim().eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some(Parsed {
        status,
        body: body_start..body_start + length,
        total: body_start + length,
        close,
    }))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Wait until a wire is readable (or writable with output queued) or
/// `timeout` passes. `ppoll` rather than the server's millisecond
/// `Poller`: arrivals here are a fraction of a millisecond apart, and a
/// millisecond-rounded wait would add that rounding to every measured
/// latency.
fn wait(wires: &[Option<Wire>], timeout: Duration) {
    let mut fds: Vec<PollFd> = wires
        .iter()
        .flatten()
        .map(|w| PollFd {
            fd: w.stream.as_raw_fd(),
            events: POLLIN | if w.out.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::os::raw::c_long,
        tv_nsec: timeout.subsec_nanos() as std::os::raw::c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd`-layout records and `ts` a valid timespec, both outliving
    // the call; a null sigmask leaves the signal mask unchanged. The
    // return value only says how many fds are ready (or an EINTR), which
    // the caller rediscovers by reading, so it is ignored.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// One rung's outcome.
struct RungResult {
    /// Answered requests' latencies from arrival, in ms, ascending.
    from_arrival: Vec<f64>,
    /// Some request failed.
    lost: bool,
    /// The backlog at the rung's end exceeded what the SLO allows.
    backlogged: bool,
}

/// State shared by every rung of one run.
struct Generator<'a> {
    addr: &'a str,
    mix: &'a PointMix,
    cfg: &'a OpenConfig,
    requests: Vec<Vec<u8>>,
    rng: SplitMix,
    wires: Vec<Option<Wire>>,
    tally: OpenTally,
    late_ms: Vec<f64>,
}

/// Run the reference rung, then ladder passes until `deadline`; `trace`
/// asks the server for a trace record per request.
pub fn run(
    addr: &str,
    mix: &PointMix,
    seed: u64,
    cfg: &OpenConfig,
    deadline: Instant,
    trace: bool,
) -> OpenTally {
    let requests = mix
        .cases
        .iter()
        .map(|c| {
            let target = traced(query_target(&mix.docs[c.doc], &c.query), trace);
            format!("GET {target} HTTP/1.1\r\nHost: blossomd\r\nContent-Length: 0\r\n\r\n")
                .into_bytes()
        })
        .collect();
    let mut d = Generator {
        addr,
        mix,
        cfg,
        requests,
        rng: SplitMix::new(seed ^ 0x0be7_1009),
        wires: (0..cfg.connections)
            .map(|_| Wire::connect(addr).ok())
            .collect(),
        tally: OpenTally::default(),
        late_ms: Vec::new(),
    };
    let slo_ms = cfg.slo.as_secs_f64() * 1e3;
    let total = deadline.saturating_duration_since(Instant::now());
    let started = Instant::now();
    let answered_before = d.tally.correct;
    let reference = d.rung(cfg.reference_rate, total.mul_f64(cfg.reference_share), true);
    d.tally.reference_qps =
        (d.tally.correct - answered_before) as f64 / started.elapsed().as_secs_f64();
    // Answered latencies per ladder rate, pooled over completed passes
    // from the rungs that lost no request, and how many rungs of each
    // rate counted against the SLO outright: lost requests, a growing
    // backlog, or never reached because an earlier rung was overloaded.
    let mut pooled: Vec<Vec<f64>> = vec![Vec::new(); cfg.ladder.len()];
    let mut missed = vec![0usize; cfg.ladder.len()];
    'passes: loop {
        let mut pass: Vec<Option<Vec<f64>>> = vec![None; cfg.ladder.len()];
        for (k, &rate) in cfg.ladder.iter().enumerate() {
            // A pass cut short by the deadline is dropped.
            if Instant::now() + cfg.rung > deadline {
                break 'passes;
            }
            let rung = d.rung(rate, cfg.rung, false);
            let overloaded =
                rung.backlogged || percentile(&rung.from_arrival, 99.0) > OVERLOAD * slo_ms;
            pass[k] = (!rung.lost && !rung.backlogged).then_some(rung.from_arrival);
            if overloaded {
                break;
            }
        }
        for (k, rung) in pass.into_iter().enumerate() {
            match rung {
                Some(latencies) => pooled[k].extend(latencies),
                None => missed[k] += 1,
            }
        }
        d.tally.passes += 1;
    }
    d.tally.max_rps_under_slo = if d.tally.passes > 0 {
        let p99s: Vec<f64> = pooled
            .iter_mut()
            .zip(&missed)
            .map(|(lat, &missed)| {
                if 2 * missed > d.tally.passes || lat.is_empty() {
                    f64::INFINITY
                } else {
                    lat.sort_by(f64::total_cmp);
                    percentile(lat, 99.0)
                }
            })
            .collect();
        knee(&cfg.ladder, &p99s, slo_ms)
    } else {
        // No full pass fitted (very short runs): the reference rung.
        let p99 = percentile(&reference.from_arrival, 99.0);
        knee(&[cfg.reference_rate], &[p99], slo_ms)
    };
    d.late_ms.sort_by(f64::total_cmp);
    d.tally.send_late_p99_ms = percentile(&d.late_ms, 99.0);
    d.tally
}

/// A pass stops climbing once a rung's p99 exceeds the SLO this many
/// times over: the server is past its knee.
const OVERLOAD: f64 = 2.0;

/// The knee of a p99-per-rate curve: the rate where it crosses
/// `slo_ms`, interpolated linearly between the last rung under and the
/// first over (the last rung under when the first over is infinite).
fn knee(rates: &[f64], p99s: &[f64], slo_ms: f64) -> f64 {
    let Some(bad) = p99s.iter().position(|&p| p > slo_ms) else {
        // The ladder topped out under the SLO: the knee is at least the
        // top rung.
        return rates.last().copied().unwrap_or(0.0);
    };
    if bad == 0 {
        return rates[0] * slo_ms / p99s[0];
    }
    let (ok, over) = (p99s[bad - 1], p99s[bad]);
    if !over.is_finite() {
        return rates[bad - 1];
    }
    rates[bad - 1] + (rates[bad] - rates[bad - 1]) * (slo_ms - ok) / (over - ok)
}

impl Generator<'_> {
    /// Offer `rate` for `length`, then drain. Latencies feed the
    /// reported path/FLWOR figures only on the reference rung.
    fn rung(&mut self, rate: f64, length: Duration, reference: bool) -> RungResult {
        let arrivals = (rate * length.as_secs_f64()).round().max(1.0) as usize;
        let start = Instant::now();
        let end = start + length;
        let gap = Duration::from_secs_f64(1.0 / rate);
        let timeout = self.cfg.timeout;
        let give_up = end + timeout * 2;
        let mut next = 0usize;
        let mut from_arrival: Vec<f64> = Vec::with_capacity(arrivals);
        let mut failures = 0usize;
        let mut backlog_at_end: Option<usize> = None;
        loop {
            let now = Instant::now();
            while next < arrivals && start + gap * next as u32 <= now {
                let due = start + gap * next as u32;
                let case = self.mix.sample(&mut self.rng);
                let w = next % self.wires.len();
                if self.wires[w].is_none() {
                    self.wires[w] = Wire::connect(self.addr).ok();
                }
                self.tally.attempted += 1;
                match self.wires[w].as_mut() {
                    Some(wire) => {
                        wire.out.extend_from_slice(&self.requests[case]);
                        if wire.pending.is_empty() {
                            wire.oldest_sent = Some(now);
                        }
                        wire.pending.push_back(Pending { due, case });
                        self.late_ms
                            .push(now.duration_since(due).as_secs_f64() * 1e3);
                    }
                    None => {
                        self.tally.failed += 1;
                        failures += 1;
                    }
                }
                next += 1;
            }
            if backlog_at_end.is_none() && Instant::now() >= end {
                backlog_at_end = Some(self.inflight() + (arrivals - next));
            }
            for w in 0..self.wires.len() {
                failures += self.service(w, &mut from_arrival, reference);
            }
            let now = Instant::now();
            if next >= arrivals && self.inflight() == 0 {
                break;
            }
            if now >= give_up {
                for wire in self.wires.iter_mut().flatten() {
                    self.tally.failed += wire.pending.len();
                    failures += wire.pending.len();
                }
                self.wires.iter_mut().for_each(|w| *w = None);
                break;
            }
            let next_due = if next < arrivals {
                start + gap * next as u32
            } else {
                now + timeout
            };
            let until = next_due.min(now + timeout).saturating_duration_since(now);
            if !until.is_zero() {
                wait(&self.wires, until);
            }
        }
        from_arrival.sort_by(f64::total_cmp);
        let allowed_backlog = (rate * self.cfg.slo.as_secs_f64()).ceil() as usize;
        let backlog = backlog_at_end.unwrap_or(0);
        eprintln!(
            "perfbench: rung {rate} rps: {} answered, {failures} failed, backlog {backlog}",
            from_arrival.len()
        );
        RungResult {
            from_arrival,
            lost: failures > 0,
            backlogged: backlog > allowed_backlog,
        }
    }

    fn inflight(&self) -> usize {
        self.wires.iter().flatten().map(|w| w.pending.len()).sum()
    }

    /// Flush, read and match answers on wire `w`; a broken, closed or
    /// stalled connection fails whatever is pending on it and is
    /// dropped. Returns the failures counted.
    fn service(&mut self, w: usize, from_arrival: &mut Vec<f64>, reference: bool) -> usize {
        let Some(wire) = self.wires[w].as_mut() else {
            return 0;
        };
        let tally = &mut self.tally;
        let mut failures = 0;
        let mut broken = wire.flush().is_err();
        let open = wire.fill().unwrap_or_else(|_| {
            broken = true;
            false
        });
        let done = Instant::now();
        loop {
            match parse_response(&wire.inbuf) {
                Ok(Some(Parsed {
                    status,
                    body,
                    total,
                    close,
                })) => {
                    let Some(p) = wire.pending.pop_front() else {
                        broken = true;
                        break;
                    };
                    let case = &self.mix.cases[p.case];
                    let latency = done.duration_since(p.due);
                    from_arrival.push(latency.as_secs_f64() * 1e3);
                    if status == 503 {
                        // Admission or deadline.
                        tally.failed += 1;
                        failures += 1;
                    } else if status != 200 || wire.inbuf[body] != case.expected[..] {
                        tally.wrong += 1;
                        failures += 1;
                    } else {
                        tally.correct += 1;
                        if reference {
                            match case.class {
                                Class::Path => tally.path.push(latency),
                                Class::Flwor => tally.flwor.push(latency),
                            }
                        }
                    }
                    wire.inbuf.drain(..total);
                    wire.oldest_sent = (!wire.pending.is_empty()).then_some(done);
                    if close {
                        broken = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        let stalled = wire
            .oldest_sent
            .is_some_and(|t| done.duration_since(t) > self.cfg.timeout);
        if broken || !open || stalled {
            tally.failed += wire.pending.len();
            failures += wire.pending.len();
            self.wires[w] = None;
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{point_mix, Sizes};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Against a server that accepts but never answers, every request
    /// fails and the run still ends on time.
    #[test]
    fn a_stalled_connection_fails_its_requests_within_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mix = point_mix(1, &Sizes::smoke()).unwrap();
        let cfg = OpenConfig {
            ladder: vec![400.0],
            rung: Duration::from_millis(200),
            slo: Duration::from_millis(25),
            reference_rate: 200.0,
            reference_share: 0.2,
            connections: 2,
            timeout: Duration::from_millis(100),
        };
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                listener.set_nonblocking(true).unwrap();
                let mut held = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    if let Ok((sock, _)) = listener.accept() {
                        held.push(sock);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            let started = Instant::now();
            let t = run(
                &addr,
                &mix,
                1,
                &cfg,
                started + Duration::from_secs(1),
                false,
            );
            stop.store(true, Ordering::SeqCst);
            assert!(
                started.elapsed() < Duration::from_secs(3),
                "{:?}",
                started.elapsed()
            );
            assert!(t.attempted > 0);
            assert_eq!(t.failed, t.attempted);
            assert_eq!(t.correct + t.wrong, 0);
            assert!(t.passes >= 1);
        });
    }

    #[test]
    fn parses_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 503 X\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";
        let first = parse_response(two).unwrap().unwrap();
        assert_eq!(
            (first.status, &two[first.body], first.close),
            (200, &b"abc"[..], false)
        );
        let second = parse_response(&two[first.total..]).unwrap().unwrap();
        assert_eq!((second.status, second.close), (503, true));
        assert!(parse_response(&two[..20]).unwrap().is_none());
    }

    #[test]
    fn knee_interpolates_between_rungs() {
        let rates = [1000.0, 2000.0, 3000.0];
        assert_eq!(knee(&rates, &[2.0, 4.0, 14.0], 9.0), 2500.0);
        assert_eq!(knee(&rates, &[2.0, 4.0, 8.0], 9.0), 3000.0);
        assert_eq!(knee(&rates, &[2.0, 4.0, f64::INFINITY], 9.0), 2000.0);
        assert_eq!(
            knee(&rates, &[20.0, f64::INFINITY, f64::INFINITY], 10.0),
            500.0
        );
    }
}
