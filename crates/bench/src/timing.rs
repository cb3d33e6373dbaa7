//! Dependency-free micro-timing (the replacement for the criterion
//! benches).
//!
//! Each sample runs a closure `warmup` discarded times, then `runs`
//! measured times on the monotonic clock ([`std::time::Instant`]),
//! keeping both the minimum — the low-noise statistic benchmarks should
//! compare — and the mean. Reports render through the minimal [`Json`]
//! writer and land in `BENCH_<name>.json` files at the workspace root.

use std::time::{Duration, Instant};

/// One timed closure: repeat-and-min plus the mean for context.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Label for the report.
    pub name: String,
    /// Measured iterations (warmup excluded).
    pub runs: u32,
    /// Fastest iteration.
    pub min: Duration,
    /// Mean over all measured iterations.
    pub mean: Duration,
}

impl Sample {
    /// Render as a JSON object (`name`, `runs`, `min_s`, `mean_s`).
    pub fn json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("runs", Json::Num(f64::from(self.runs))),
            ("min_s", Json::Num(self.min.as_secs_f64())),
            ("mean_s", Json::Num(self.mean.as_secs_f64())),
        ])
    }
}

/// Time `f`: `warmup` discarded runs, then `runs` measured ones.
pub fn time<R>(name: &str, warmup: u32, runs: u32, mut f: impl FnMut() -> R) -> Sample {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let runs = runs.max(1);
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..runs {
        let start = Instant::now();
        std::hint::black_box(f());
        let elapsed = start.elapsed();
        min = min.min(elapsed);
        total += elapsed;
    }
    Sample { name: name.to_string(), runs, min, mean: total / runs }
}

/// Time two closures in interleaved rounds (`a, b, a, b, …`) so slow
/// drift — frequency scaling, cache pressure from neighbours — biases
/// neither side. Use for paired comparisons (e.g. a feature on vs off)
/// where timing the two variants in separate blocks lets the block
/// order masquerade as a speedup.
pub fn time_pair<R>(
    name_a: &str,
    name_b: &str,
    warmup: u32,
    runs: u32,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> R,
) -> (Sample, Sample) {
    for _ in 0..warmup {
        std::hint::black_box(a());
        std::hint::black_box(b());
    }
    let runs = runs.max(1);
    let mut acc = [(Duration::MAX, Duration::ZERO); 2];
    for _ in 0..runs {
        let fs: [&mut dyn FnMut() -> R; 2] = [&mut a, &mut b];
        for (i, f) in fs.into_iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(f());
            let elapsed = start.elapsed();
            acc[i].0 = acc[i].0.min(elapsed);
            acc[i].1 += elapsed;
        }
    }
    let sample = |name: &str, (min, total): (Duration, Duration)| Sample {
        name: name.to_string(),
        runs,
        min,
        mean: total / runs,
    };
    (sample(name_a, acc[0]), sample(name_b, acc[1]))
}

/// Minimal JSON value — just enough to emit bench reports without an
/// external serializer.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (integral values print without a decimal point).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for an object from `(key, value)` pairs.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand for an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Pretty-print with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => out.push_str(&blossom_core::obs::json_str(s)),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    Json::Str(key.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Write a rendered report to `path`.
pub fn write_report(path: &str, report: &Json) -> std::io::Result<()> {
    std::fs::write(path, report.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_counts_runs_and_orders_stats() {
        let mut calls = 0u32;
        let s = time("spin", 2, 5, || {
            calls += 1;
            std::hint::black_box((0..1000).sum::<u64>())
        });
        assert_eq!(calls, 7, "warmup + measured");
        assert_eq!(s.runs, 5);
        assert!(s.min <= s.mean);
    }

    #[test]
    fn zero_runs_clamp_to_one() {
        let s = time("once", 0, 0, || 1);
        assert_eq!(s.runs, 1);
    }

    #[test]
    fn json_renders_and_escapes() {
        let j = Json::obj([
            ("name", Json::str("a\"b\\c\nd")),
            ("n", Json::Num(3.0)),
            ("frac", Json::Num(0.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::arr([Json::Num(1.0), Json::Num(2.0)])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let text = j.render();
        assert!(text.contains(r#""name": "a\"b\\c\nd""#), "{text}");
        assert!(text.contains(r#""n": 3"#), "{text}");
        assert!(text.contains(r#""frac": 0.5"#), "{text}");
        assert!(text.contains(r#""empty": []"#), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn sample_json_has_the_report_fields() {
        let s = time("x", 0, 2, || 1 + 1);
        let text = s.json().render();
        for key in ["name", "runs", "min_s", "mean_s"] {
            assert!(text.contains(key), "{text}");
        }
    }
}
