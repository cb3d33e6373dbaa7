//! Request-lifecycle spans: one [`RequestSpan`] per served request,
//! allocated when the request is framed off the wire and carried
//! through scheduling, batching, evaluation, serialization, and the
//! final socket write. The span records *stage laps*: each
//! [`RequestSpan::mark`] reads the monotonic clock once and attributes
//! the time since the previous mark to the named stage, so the stage
//! durations always sum to the span's wall time exactly — the
//! conservation property the load harness asserts.
//!
//! Spans are cheap by construction: a fixed-size array of lap
//! microseconds, plain integers of context (endpoint, queue depth,
//! batch size, byte counts), and an optional boxed [`LogCtx`] that is
//! only allocated when the access log is armed — at default
//! configuration a span costs a handful of `Instant::now()` reads and
//! no heap traffic beyond the job it rides in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Stage laps a span can record, in pipeline order.
pub const STAGE_COUNT: usize = 7;

/// Stage names, indexed by `Stage as usize`; also the label values in
/// the Prometheus exposition and the keys of the slow-log `stages_us`
/// object.
pub const STAGE_NAMES: [&str; STAGE_COUNT] =
    ["read", "parse", "queue", "batch", "execute", "serialize", "write"];

/// One pipeline stage (see DESIGN.md §14 for the exact boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// First byte on the wire to framing-complete for this request.
    Read = 0,
    /// HTTP parsing (request line, headers, body assembly).
    Parse = 1,
    /// Dispatch to execution start: scheduler queue wait (plain jobs
    /// and batch leaders) or the admission decision for rejects.
    Queue = 2,
    /// Batch joiners only: dispatch to the leader's execution start.
    Batch = 3,
    /// Routing plus engine evaluation plus body assembly.
    Execute = 4,
    /// HTTP response rendering (status line, headers, copy-out).
    Serialize = 5,
    /// Completion routed back to the owning I/O thread and the last
    /// response byte accepted by the socket.
    Write = 6,
}

/// How a request ended, for metrics classification and the slow log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    ClientError,
    ServerError,
    /// 503 from a cooperative deadline abort.
    Deadline,
    /// 503 from admission control (bounded queue full).
    Rejected,
    /// The connection died before the response was fully written.
    Disconnect,
}

impl Outcome {
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::ClientError => "client-error",
            Outcome::ServerError => "server-error",
            Outcome::Deadline => "deadline",
            Outcome::Rejected => "rejected",
            Outcome::Disconnect => "disconnect",
        }
    }

    /// Default classification by status code; sites with more context
    /// (admission control, broken sockets) override it.
    pub fn from_status(status: u16) -> Outcome {
        match status {
            0..=399 => Outcome::Ok,
            400..=499 => Outcome::ClientError,
            503 => Outcome::Deadline,
            _ => Outcome::ServerError,
        }
    }
}

/// Context captured only when the access log is armed, so the default
/// configuration allocates nothing per request beyond the span itself.
#[derive(Debug, Default, Clone)]
pub struct LogCtx {
    pub method: String,
    pub path: String,
    /// `?doc=` / `?name=` parameter: which catalog entry was addressed.
    pub doc: Option<String>,
    /// `?q=` parameter (queries only).
    pub query: Option<String>,
    /// Strategy the engine actually executed.
    pub strategy: Option<String>,
    /// Compact single-line `QueryTrace` JSON, attached to slow `/query`
    /// records so one log line diagnoses the plan.
    pub trace_json: Option<String>,
}

/// Per-request lifecycle record. See the module docs for the lap
/// accounting model.
#[derive(Debug)]
pub struct RequestSpan {
    /// Process-unique request id (monotonic), echoed to the client in
    /// the `X-Request-Id` response header.
    pub id: u64,
    started: Instant,
    last: Instant,
    stages_us: [u64; STAGE_COUNT],
    /// Index into [`crate::metrics::ENDPOINTS`].
    pub endpoint: usize,
    pub status: u16,
    pub outcome: Outcome,
    /// Wire bytes consumed by this request (its exact framed size).
    pub bytes_in: u64,
    /// Rendered response size, headers included.
    pub bytes_out: u64,
    /// Execution-queue depth observed at dispatch (before this request
    /// was enqueued).
    pub queue_depth: u64,
    /// Members sharing this request's evaluation (1 = not coalesced).
    pub batch_size: u64,
    /// The request's effective deadline, if any.
    pub deadline: Option<Instant>,
    /// The deadline budget granted at admission.
    pub budget: Option<Duration>,
    /// `?trace=1`: force this request into the access log regardless of
    /// the slow threshold or sampling.
    pub force_log: bool,
    pub log: Option<Box<LogCtx>>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

impl RequestSpan {
    /// Allocate a span whose clock starts at `started` (normally the
    /// instant the request's first byte was noticed).
    pub fn begin(started: Instant) -> RequestSpan {
        RequestSpan {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            started,
            last: started,
            stages_us: [0; STAGE_COUNT],
            endpoint: crate::metrics::ENDPOINTS.len() - 1,
            status: 0,
            outcome: Outcome::Ok,
            bytes_in: 0,
            bytes_out: 0,
            queue_depth: 0,
            batch_size: 1,
            deadline: None,
            budget: None,
            force_log: false,
            log: None,
        }
    }

    /// End `stage` now: attribute the lap since the previous mark.
    pub fn mark(&mut self, stage: Stage) {
        self.mark_at(stage, Instant::now());
    }

    /// End `stage` at `at` (for call sites that already read the clock).
    /// Laps are saturating: an `at` before the previous mark records 0.
    pub fn mark_at(&mut self, stage: Stage, at: Instant) {
        let lap = at.saturating_duration_since(self.last);
        self.stages_us[stage as usize] += lap.as_micros().min(u64::MAX as u128) as u64;
        self.last = at;
    }

    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.stages_us[stage as usize]
    }

    pub fn stages_us(&self) -> &[u64; STAGE_COUNT] {
        &self.stages_us
    }

    /// Sum of all recorded laps — the span's wall time up to the last
    /// mark. This is what the histograms record, so stage durations sum
    /// to the wall figure exactly.
    pub fn total_us(&self) -> u64 {
        self.stages_us.iter().sum()
    }

    /// Wall time since the span started, independent of marks (used for
    /// "is this already slow?" checks mid-flight).
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Deadline headroom left right now; negative values clamp to 0.
    pub fn deadline_remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Classify by `status` (sites with more context override).
    pub fn finish_status(&mut self, status: u16) {
        self.status = status;
        self.outcome = Outcome::from_status(status);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let a = RequestSpan::begin(Instant::now());
        let b = RequestSpan::begin(Instant::now());
        assert!(b.id > a.id);
    }

    #[test]
    fn laps_sum_to_wall_time() {
        let t0 = Instant::now();
        let mut span = RequestSpan::begin(t0);
        std::thread::sleep(Duration::from_millis(2));
        span.mark(Stage::Read);
        std::thread::sleep(Duration::from_millis(2));
        span.mark(Stage::Execute);
        let t_last = Instant::now();
        span.mark_at(Stage::Write, t_last);
        let wall_us = t_last.duration_since(t0).as_micros() as u64;
        assert_eq!(span.total_us(), span.stages_us().iter().sum::<u64>());
        // The laps are measured against the same instants as wall_us,
        // so conservation holds to rounding (one µs per lap).
        assert!(span.total_us() <= wall_us);
        assert!(span.total_us() + STAGE_COUNT as u64 >= wall_us);
        assert!(span.stage_us(Stage::Read) >= 1_000);
        assert!(span.stage_us(Stage::Execute) >= 1_000);
        assert_eq!(span.stage_us(Stage::Parse), 0);
    }

    #[test]
    fn mark_at_saturates_backwards_clocks() {
        let t0 = Instant::now();
        let mut span = RequestSpan::begin(t0);
        span.mark(Stage::Read);
        span.mark_at(Stage::Parse, t0); // earlier than the last mark
        assert_eq!(span.stage_us(Stage::Parse), 0);
    }

    #[test]
    fn outcome_classification() {
        assert_eq!(Outcome::from_status(200), Outcome::Ok);
        assert_eq!(Outcome::from_status(404), Outcome::ClientError);
        assert_eq!(Outcome::from_status(503), Outcome::Deadline);
        assert_eq!(Outcome::from_status(500), Outcome::ServerError);
        assert_eq!(Outcome::Rejected.as_str(), "rejected");
    }
}
