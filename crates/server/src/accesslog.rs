//! The structured access / slow-query log: one single-line JSON record
//! per logged request, written to stderr or a `--access-log PATH` file.
//!
//! A request is logged when any of these hold:
//!
//! * its wall time is at or above the `--slow-ms` threshold;
//! * it carried `?trace=1` (client-requested correlation record);
//! * deterministic sampling is on (`--log-sample N`) and the request
//!   id is divisible by N — reproducible across runs of the same
//!   request sequence, no RNG.
//!
//! Slow `/query` records carry the engine's `QueryTrace` as a nested
//! compact JSON object, so one log line answers "what did the planner
//! do and where did the time go" without a second round trip.
//!
//! With the log disarmed (`--access-log off`, or no threshold, no
//! sampling, and no `?trace=1` ever sent), nothing is ever formatted or
//! written — the per-request cost is one branch.

use crate::span::{RequestSpan, STAGE_NAMES};
use blossom_core::obs::json_str;
use std::io::Write;
use std::sync::Mutex;
use std::time::SystemTime;

/// Where access-log records go.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum LogTarget {
    /// Single-line JSON records to stderr (the default sink; writes
    /// nothing unless a threshold/sample/`?trace=1` asks for a record).
    #[default]
    Stderr,
    /// Append to a file (created if missing).
    File(String),
    /// No records ever, regardless of thresholds.
    Off,
}

impl std::str::FromStr for LogTarget {
    type Err = String;

    fn from_str(s: &str) -> Result<LogTarget, String> {
        match s {
            "off" | "none" => Ok(LogTarget::Off),
            "stderr" | "-" => Ok(LogTarget::Stderr),
            "" => Err("empty --access-log target".to_string()),
            path => Ok(LogTarget::File(path.to_string())),
        }
    }
}

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
}

/// The armed (or disarmed) access log, shared by the whole server.
pub struct AccessLog {
    sink: Option<Sink>,
    slow_us: Option<u64>,
    sample: u64,
}

impl AccessLog {
    /// Build from configuration; opening the file target can fail.
    pub fn new(
        target: &LogTarget,
        slow_ms: Option<u64>,
        sample: u64,
    ) -> std::io::Result<AccessLog> {
        let sink = match target {
            LogTarget::Off => None,
            LogTarget::Stderr => Some(Sink::Stderr),
            LogTarget::File(path) => {
                let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
                Some(Sink::File(Mutex::new(file)))
            }
        };
        Ok(AccessLog { sink, slow_us: slow_ms.map(|ms| ms.saturating_mul(1000)), sample })
    }

    /// A never-logging instance (the `LogTarget::Off` shape).
    pub fn disabled() -> AccessLog {
        AccessLog { sink: None, slow_us: None, sample: 0 }
    }

    /// Is there any sink records could reach? When false, spans skip
    /// allocating their [`crate::span::LogCtx`] entirely.
    pub fn armed(&self) -> bool {
        self.sink.is_some()
    }

    /// The slow threshold in microseconds, if one is configured.
    pub fn slow_us(&self) -> Option<u64> {
        self.slow_us
    }

    /// Should a span that took `wall_us` produce a record?
    pub fn wants(&self, span: &RequestSpan, wall_us: u64) -> bool {
        if self.sink.is_none() {
            return false;
        }
        span.force_log
            || self.slow_us.is_some_and(|t| wall_us >= t)
            || (self.sample > 0 && span.id % self.sample == 0)
    }

    /// Log `span` if the policy wants it; `wall_us` is the span's
    /// measured wall time (stage laps plus the final delivery gap).
    pub fn log(&self, span: &RequestSpan, wall_us: u64) {
        if !self.wants(span, wall_us) {
            return;
        }
        let record = render_record(span, wall_us, self.slow_us);
        match &self.sink {
            Some(Sink::Stderr) => eprintln!("{record}"),
            Some(Sink::File(file)) => {
                let mut file = file.lock().unwrap();
                let _ = writeln!(file, "{record}");
            }
            None => {}
        }
    }
}

fn json_opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => json_str(s),
        None => "null".to_string(),
    }
}

/// Render one span as a single-line JSON record (no trailing newline).
pub fn render_record(span: &RequestSpan, wall_us: u64, slow_us: Option<u64>) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let stages = STAGE_NAMES
        .iter()
        .zip(span.stages_us())
        .map(|(name, us)| format!("\"{name}\": {us}"))
        .collect::<Vec<_>>()
        .join(", ");
    let endpoint = crate::metrics::ENDPOINTS
        .get(span.endpoint)
        .copied()
        .unwrap_or("other");
    let mut record = format!(
        "{{\"ts_ms\": {ts_ms}, \"id\": {}, \"endpoint\": {}, \"status\": {}, \
         \"outcome\": \"{}\", \"slow\": {}, \"wall_us\": {wall_us}, \"stages_us\": {{{stages}}}, \
         \"bytes_in\": {}, \"bytes_out\": {}, \"queue_depth\": {}, \"batch_size\": {}, \
         \"deadline_budget_ms\": {}, \"deadline_remaining_ms\": {}",
        span.id,
        json_str(endpoint),
        span.status,
        span.outcome.as_str(),
        slow_us.is_some_and(|t| wall_us >= t),
        span.bytes_in,
        span.bytes_out,
        span.queue_depth,
        span.batch_size,
        span.budget
            .map(|b| b.as_millis().to_string())
            .unwrap_or_else(|| "null".to_string()),
        span.deadline_remaining()
            .map(|r| r.as_millis().to_string())
            .unwrap_or_else(|| "null".to_string()),
    );
    if let Some(log) = &span.log {
        record.push_str(&format!(
            ", \"method\": {}, \"path\": {}, \"doc\": {}, \"query\": {}, \"strategy\": {}",
            json_str(&log.method),
            json_str(&log.path),
            json_opt_str(&log.doc),
            json_opt_str(&log.query),
            json_opt_str(&log.strategy),
        ));
        if let Some(trace) = &log.trace_json {
            record.push_str(", \"trace\": ");
            record.push_str(trace);
        }
    }
    record.push('}');
    debug_assert!(!record.contains('\n'), "access-log records are single-line");
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{LogCtx, Stage};
    use std::time::Instant;

    fn span_with_log() -> RequestSpan {
        let mut span = RequestSpan::begin(Instant::now());
        span.endpoint = 0; // "/query"
        span.finish_status(200);
        span.bytes_in = 120;
        span.bytes_out = 450;
        span.mark(Stage::Execute);
        span.log = Some(Box::new(LogCtx {
            method: "GET".into(),
            path: "/query".into(),
            doc: Some("bib".into()),
            query: Some("//a[b=\"x\"]".into()),
            strategy: Some("twigstack".into()),
            trace_json: Some("{\"v\": 1}".into()),
        }));
        span
    }

    #[test]
    fn records_are_single_line_json_with_stage_laps() {
        let record = render_record(&span_with_log(), 1234, Some(1000));
        assert!(!record.contains('\n'), "{record}");
        assert!(record.starts_with('{') && record.ends_with('}'), "{record}");
        assert!(record.contains("\"endpoint\": \"/query\""), "{record}");
        assert!(record.contains("\"slow\": true"), "{record}");
        assert!(record.contains("\"wall_us\": 1234"), "{record}");
        assert!(record.contains("\"stages_us\": {\"read\": 0"), "{record}");
        assert!(record.contains("\"query\": \"//a[b=\\\"x\\\"]\""), "{record}");
        assert!(record.contains("\"trace\": {\"v\": 1}"), "{record}");
    }

    #[test]
    fn sampling_is_deterministic_on_request_id() {
        let log = AccessLog { sink: Some(Sink::Stderr), slow_us: None, sample: 4 };
        let mut span = RequestSpan::begin(Instant::now());
        span.id = 8;
        assert!(log.wants(&span, 10));
        span.id = 9;
        assert!(!log.wants(&span, 10));
        span.force_log = true;
        assert!(log.wants(&span, 10), "?trace=1 overrides sampling");
    }

    #[test]
    fn slow_threshold_and_disarmed_sink() {
        let log = AccessLog { sink: Some(Sink::Stderr), slow_us: Some(5_000), sample: 0 };
        let span = RequestSpan::begin(Instant::now());
        assert!(!log.wants(&span, 4_999));
        assert!(log.wants(&span, 5_000));
        let off = AccessLog::disabled();
        assert!(!off.armed());
        assert!(!off.wants(&span, u64::MAX));
    }

    #[test]
    fn log_target_parses() {
        assert_eq!("off".parse::<LogTarget>(), Ok(LogTarget::Off));
        assert_eq!("stderr".parse::<LogTarget>(), Ok(LogTarget::Stderr));
        assert_eq!(
            "/tmp/x.log".parse::<LogTarget>(),
            Ok(LogTarget::File("/tmp/x.log".into()))
        );
        assert!("".parse::<LogTarget>().is_err());
    }
}
