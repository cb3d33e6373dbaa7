//! Smoke-size runs of every workload through the real command: small
//! inputs, a two-second window, the server built from this repository.

use std::process::Command;

/// Run the benchmark and return its stdout; the run must succeed.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--smoke",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The last line is the one-line JSON result with every named metric.
fn check_result(stdout: &str, metrics: &[&str]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with('{') && last.ends_with('}'), "{last}");
    assert!(last.contains("\"correct\": true"), "{last}");
    for key in ["\"attempted\"", "\"failed\"", "\"metrics\""] {
        assert!(last.contains(key), "{key} missing: {last}");
    }
    for m in metrics {
        assert!(
            last.contains(&format!("\"{m}\": {{\"value\"")),
            "{m} missing: {last}"
        );
    }
}

const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_qps",
    "path_p50_ms",
    "flwor_p50_ms",
    "peak_rss_mb",
];

#[test]
fn table3_mix_smoke() {
    let out = run("table3-mix", 0);
    check_result(&out, &END_TO_END);
    assert!(out.contains("metric path_p99_ms "), "{out}");
}

#[test]
fn point_open_smoke() {
    let out = run("point-open", 0);
    check_result(&out, &END_TO_END);
    assert!(out.contains("metric max_rps_under_slo "), "{out}");
}

#[test]
fn update_mix_smoke() {
    let out = run("update-mix", 0);
    check_result(&out, &END_TO_END);
    assert!(out.contains("metric update_p99_ms "), "{out}");
}

#[test]
fn traced_run_reports_layers_and_reconciliation() {
    check_result(
        &run("update-mix", 1),
        &[
            "server.execute_us",
            "reconcile.stage_sum_share",
            "reconcile.unexplained_share",
            "trace.overhead_ms",
            "sched.queue_peak",
            "core.match_us",
            "xml.index_splice_us",
            "storage.publish_us",
        ],
    );
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("spawn perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
