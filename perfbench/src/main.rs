//! The benchmark command:
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload table3-mix|point-open|update-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Report lines go to stdout, the last one being the JSON result; the
//! exit code is 0 for a correct run, 1 for a run with a wrong answer and
//! 2 for a run that could not be made. `--smoke` shrinks the inputs for
//! the benchmark's own tests.

use blossom_bench::timing::Json;
use blossom_bench::Args;
use perfbench::inputs::Sizes;
use perfbench::run::{run, Options, Report};
use std::process::ExitCode;

fn flag<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, String> {
    match args.get::<T>(name) {
        Some(v) => Ok(Some(v)),
        None if args.has(name) => Err(format!("bad value for --{name}")),
        None => Ok(None),
    }
}

fn options() -> Result<Options, String> {
    let args = Args::parse();
    let workload: String = flag(&args, "workload")?.ok_or("--workload is required")?;
    let seed: u64 = flag(&args, "seed")?.unwrap_or(1);
    let seconds: f64 = flag(&args, "seconds")?.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    let trace = match flag::<u8>(&args, "trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: want 0 or 1")),
    };
    let sizes = if args.has("smoke") {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        sizes,
    })
}

/// Collapse the harness's pretty JSON onto one line. Rendered strings
/// escape their newlines, so every raw newline is layout.
fn one_line(json: &Json) -> String {
    json.render()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("")
}

fn print(report: &Report, trace: bool) {
    let provenance = Json::obj(
        report
            .provenance
            .iter()
            .map(|(k, v)| (k.as_str(), Json::str(v))),
    );
    println!("provenance {}", one_line(&provenance));
    for f in report.end_to_end.iter().chain(&report.extra) {
        println!("metric {} {} {}", f.name, f.value, f.unit);
    }
    for m in &report.layers.metrics {
        println!("layer {} {} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("problem {p}");
    }
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics = if trace {
        Json::obj(
            report
                .layers
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), metric(m.value, m.unit))),
        )
    } else {
        Json::obj(
            report
                .end_to_end
                .iter()
                .map(|f| (f.name, metric(f.value, f.unit))),
        )
    };
    let result = Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", one_line(&result));
}

fn main() -> ExitCode {
    let opts = match options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            print(&report, opts.trace);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
