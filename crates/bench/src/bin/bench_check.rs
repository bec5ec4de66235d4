//! Performance-regression gate over committed telemetry baselines.
//!
//! Compares a freshly generated rock-metrics/v1 NDJSON file against the
//! committed baseline under `results/` line by line (experiment binaries
//! emit lines in a deterministic order, so line `i` of the fresh file is
//! the same run as line `i` of the baseline). Every leaf metric is
//! checked with a per-group policy:
//!
//! - `wall_secs.*` — banded: the fresh value must lie within
//!   `± max(tolerance × baseline, floor)` of the baseline. The floor
//!   exempts millisecond-scale phases where scheduler noise dominates.
//! - `memory_bytes.*` — banded with the same relative tolerance and a
//!   byte floor: the estimates include `HashMap` capacities, which grow
//!   under a per-process random hash seed, so the high-water figures
//!   wobble a little between identical runs.
//! - `*_rps` / `*_pps` (requests/points per second) — one-sided lower
//!   bound: the fresh throughput may fall at most `tolerance` below the
//!   baseline; being faster is never a finding. This is how the
//!   serving-throughput floor is locked in.
//! - `*_ms` (latency percentiles) — one-sided upper bound with an
//!   absolute millisecond floor: the log2-bucketed histogram quantizes
//!   estimates, so one bucket step on a sub-millisecond percentile is
//!   scheduler noise, not a regression. Being faster is never a
//!   finding.
//! - everything else (`counters.*`, `run.*`, schema, experiment,
//!   degradation) — exact: the pipeline is deterministic, so any drift
//!   in these is a real behavior change, not noise.
//!
//! Findings are printed one per line as `file:line:metric: message` so CI
//! logs are grep-able and clickable. Exit status: 0 when everything is
//! within tolerance, 1 on findings, 2 on usage or I/O errors.
//!
//! ```text
//! bench_check --baseline results/BENCH_links.json --fresh target/bench/BENCH_links.json
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;

use rock_core::telemetry::json::Json;

/// Relative tolerance for banded metrics (fraction of the baseline).
const DEFAULT_TOLERANCE: f64 = 0.25;
/// Absolute wall-clock floor in seconds; bands never shrink below this.
const DEFAULT_FLOOR_SECS: f64 = 0.075;
/// Absolute memory floor in bytes (1 MiB): covers capacity jumps (a
/// vector doubling) on structures too small for the relative band to
/// matter.
const DEFAULT_FLOOR_BYTES: f64 = 1_048_576.0;
/// Absolute latency floor in milliseconds: one log2-histogram bucket on
/// a sub-millisecond percentile doubles the estimate, so sub-floor
/// jitter is exempted from the upper bound.
const DEFAULT_FLOOR_MS: f64 = 1.0;

struct Options {
    baseline: String,
    fresh: String,
    tolerance: f64,
    floor: f64,
    mem_floor: f64,
    ms_floor: f64,
}

fn usage() -> String {
    "usage: bench_check --baseline <FILE> --fresh <FILE> \
     [--tolerance <frac>] [--floor <secs>] [--mem-floor <bytes>] \
     [--ms-floor <ms>]"
        .to_owned()
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut baseline = None;
    let mut fresh = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut floor = DEFAULT_FLOOR_SECS;
    let mut mem_floor = DEFAULT_FLOOR_BYTES;
    let mut ms_floor = DEFAULT_FLOOR_MS;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let non_negative = |name: &str, raw: String| -> Result<f64, String> {
            let v: f64 = raw.parse().map_err(|e| format!("{name}: {e}"))?;
            if v >= 0.0 && v.is_finite() {
                Ok(v)
            } else {
                Err(format!("{name} must be non-negative and finite"))
            }
        };
        match flag.as_str() {
            "--baseline" => baseline = Some(take("--baseline")?),
            "--fresh" => fresh = Some(take("--fresh")?),
            "--tolerance" => tolerance = non_negative("--tolerance", take("--tolerance")?)?,
            "--floor" => floor = non_negative("--floor", take("--floor")?)?,
            "--mem-floor" => mem_floor = non_negative("--mem-floor", take("--mem-floor")?)?,
            "--ms-floor" => ms_floor = non_negative("--ms-floor", take("--ms-floor")?)?,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(Options {
        baseline: baseline.ok_or_else(usage)?,
        fresh: fresh.ok_or_else(usage)?,
        tolerance,
        floor,
        mem_floor,
        ms_floor,
    })
}

/// Throughput metrics get the one-sided lower-bound policy.
fn is_throughput(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    leaf.ends_with("_rps") || leaf.ends_with("_pps")
}

/// Latency metrics get the one-sided upper-bound policy.
fn is_latency_ms(path: &str) -> bool {
    path.rsplit('.').next().unwrap_or(path).ends_with("_ms")
}

/// One out-of-tolerance metric, formatted as `file:line:metric: message`.
#[derive(Debug, PartialEq)]
struct Finding {
    /// 1-based NDJSON line in the baseline file.
    line: usize,
    /// Dotted metric path, e.g. `wall_secs.links`.
    metric: String,
    message: String,
}

fn leaf_repr(v: &Json) -> String {
    match v {
        Json::Str(s) => format!("{s:?}"),
        Json::Num(x) => {
            let mut s = String::new();
            let _ = write!(s, "{x}");
            s
        }
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".to_owned(),
        Json::Arr(items) => format!("[{} items]", items.len()),
        Json::Obj(fields) => format!("{{{} fields}}", fields.len()),
    }
}

/// Tolerance bands applied by [`compare_value`].
#[derive(Debug, Clone, Copy)]
struct Bands {
    /// Relative tolerance shared by the wall and memory bands.
    tolerance: f64,
    /// Absolute wall-clock floor, seconds.
    wall_floor: f64,
    /// Absolute memory floor, bytes.
    mem_floor: f64,
    /// Absolute latency floor, milliseconds.
    ms_floor: f64,
}

/// Recursively compares `fresh` against `base`, appending findings. Keys
/// under `wall_secs` and `memory_bytes` get the banded policy; everything
/// else must match exactly. Either side missing a key the other has is
/// itself a finding.
fn compare_value(
    path: &str,
    base: &Json,
    fresh: &Json,
    line: usize,
    bands: Bands,
    findings: &mut Vec<Finding>,
) {
    match (base, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            for (key, bv) in b {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                match f.iter().find(|(k, _)| k == key) {
                    Some((_, fv)) => {
                        compare_value(&sub, bv, fv, line, bands, findings);
                    }
                    None => findings.push(Finding {
                        line,
                        metric: sub,
                        message: "present in baseline, missing from fresh run".to_owned(),
                    }),
                }
            }
            for (key, _) in f {
                if !b.iter().any(|(k, _)| k == key) {
                    let sub = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    findings.push(Finding {
                        line,
                        metric: sub,
                        message: "present in fresh run, missing from baseline".to_owned(),
                    });
                }
            }
        }
        (Json::Num(b), Json::Num(f)) if is_throughput(path) => {
            // Lower bound only: a faster run is an improvement, never a
            // finding; the committed baseline is the throughput floor.
            let band = bands.tolerance * b;
            if *f < b - band {
                let pct = if *b > 0.0 {
                    100.0 * (f - b) / b
                } else {
                    f64::NEG_INFINITY
                };
                findings.push(Finding {
                    line,
                    metric: path.to_owned(),
                    message: format!(
                        "throughput regression: {f:.2}/s vs baseline {b:.2}/s \
                         ({pct:+.1}%, floor {:.2}/s)",
                        b - band
                    ),
                });
            }
        }
        (Json::Num(b), Json::Num(f)) if is_latency_ms(path) => {
            // Upper bound only, with an absolute floor absorbing log2
            // bucket quantization on sub-millisecond percentiles.
            let band = (bands.tolerance * b).max(bands.ms_floor);
            if *f > b + band {
                findings.push(Finding {
                    line,
                    metric: path.to_owned(),
                    message: format!(
                        "latency regression: {f:.3}ms vs baseline {b:.3}ms \
                         (ceiling {:.3}ms)",
                        b + band
                    ),
                });
            }
        }
        (Json::Num(b), Json::Num(f))
            if path.starts_with("wall_secs") || path.starts_with("memory_bytes") =>
        {
            let (floor, unit) = if path.starts_with("wall_secs") {
                (bands.wall_floor, "s")
            } else {
                (bands.mem_floor, "B")
            };
            let band = (bands.tolerance * b).max(floor);
            let delta = f - b;
            if delta.abs() > band {
                let pct = if *b > 0.0 {
                    100.0 * delta / b
                } else {
                    f64::INFINITY
                };
                let direction = if delta > 0.0 { "regression" } else { "drift" };
                findings.push(Finding {
                    line,
                    metric: path.to_owned(),
                    message: format!(
                        "{direction}: {f:.6}{unit} vs baseline {b:.6}{unit} \
                         ({pct:+.1}%, band ±{band:.6}{unit})"
                    ),
                });
            }
        }
        _ => {
            // Exact policy: counters, memory, run identity, schema,
            // degradation blocks. Structural mismatches land here too.
            let matches = match (base, fresh) {
                (Json::Num(b), Json::Num(f)) => b == f,
                _ => base == fresh,
            };
            if !matches {
                findings.push(Finding {
                    line,
                    metric: path.to_owned(),
                    message: format!(
                        "expected {} (baseline), got {}",
                        leaf_repr(base),
                        leaf_repr(fresh)
                    ),
                });
            }
        }
    }
}

/// Pure comparison over two NDJSON documents; returns every finding.
fn compare_files(base_text: &str, fresh_text: &str, bands: Bands) -> Result<Vec<Finding>, String> {
    let base_lines: Vec<&str> = base_text.lines().filter(|l| !l.trim().is_empty()).collect();
    let fresh_lines: Vec<&str> = fresh_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    let mut findings = Vec::new();
    if base_lines.len() != fresh_lines.len() {
        findings.push(Finding {
            line: base_lines.len().min(fresh_lines.len()) + 1,
            metric: "lines".to_owned(),
            message: format!(
                "baseline has {} runs, fresh has {}",
                base_lines.len(),
                fresh_lines.len()
            ),
        });
    }
    for (i, (b, f)) in base_lines.iter().zip(&fresh_lines).enumerate() {
        let line = i + 1;
        let base = Json::parse(b).map_err(|e| format!("baseline line {line}: {e}"))?;
        let fresh = Json::parse(f).map_err(|e| format!("fresh line {line}: {e}"))?;
        compare_value("", &base, &fresh, line, bands, &mut findings);
    }
    Ok(findings)
}

fn run(opts: &Options) -> Result<Vec<Finding>, String> {
    let base_text = std::fs::read_to_string(&opts.baseline)
        .map_err(|e| format!("cannot read {}: {e}", opts.baseline))?;
    let fresh_text = std::fs::read_to_string(&opts.fresh)
        .map_err(|e| format!("cannot read {}: {e}", opts.fresh))?;
    let bands = Bands {
        tolerance: opts.tolerance,
        wall_floor: opts.floor,
        mem_floor: opts.mem_floor,
        ms_floor: opts.ms_floor,
    };
    compare_files(&base_text, &fresh_text, bands)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(findings) if findings.is_empty() => {
            println!(
                "bench_check: {} within tolerance of {} (wall ±{:.0}% / {:.3}s floor; \
                 _rps/_pps ≥ floor, _ms ≤ ceiling, rest exact)",
                opts.fresh,
                opts.baseline,
                100.0 * opts.tolerance,
                opts.floor
            );
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{}:{}:{}: {}", opts.baseline, f.line, f.metric, f.message);
            }
            eprintln!(
                "bench_check: {} finding(s) comparing {} against {}",
                findings.len(),
                opts.fresh,
                opts.baseline
            );
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_check: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"schema":"rock-metrics/v1","experiment":"e[n=1]","run":{"n":10,"theta":0.5},"wall_secs":{"links":1.0,"total":2.0},"counters":{"link_entries":6},"memory_bytes":{"link_table":96}}"#;

    const TIGHT: Bands = Bands {
        tolerance: 0.25,
        wall_floor: 0.0,
        mem_floor: 0.0,
        ms_floor: 0.0,
    };

    fn edited(from: &str, to: &str) -> String {
        LINE.replace(from, to)
    }

    #[test]
    fn identical_files_pass() {
        let findings = compare_files(LINE, LINE, TIGHT).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn wall_within_band_passes() {
        let fresh = edited("\"links\":1.0", "\"links\":1.2");
        assert!(compare_files(LINE, &fresh, TIGHT).unwrap().is_empty());
    }

    #[test]
    fn wall_regression_beyond_band_fails() {
        let fresh = edited("\"links\":1.0", "\"links\":1.3");
        let findings = compare_files(LINE, &fresh, TIGHT).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "wall_secs.links");
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("regression"));
    }

    #[test]
    fn wall_floor_exempts_small_timings() {
        // 1.0 → 1.3 is a 30% regression but inside a 0.5s floor band.
        let fresh = edited("\"links\":1.0", "\"links\":1.3");
        let bands = Bands {
            wall_floor: 0.5,
            ..TIGHT
        };
        assert!(compare_files(LINE, &fresh, bands).unwrap().is_empty());
    }

    #[test]
    fn counters_must_match_exactly() {
        let fresh = edited("\"link_entries\":6", "\"link_entries\":7");
        let findings = compare_files(LINE, &fresh, TIGHT).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "counters.link_entries");
    }

    #[test]
    fn memory_is_banded_not_exact() {
        // +8 bytes on 96 is within the 25% band; +104 is not.
        let near = edited("\"link_table\":96", "\"link_table\":104");
        assert!(compare_files(LINE, &near, TIGHT).unwrap().is_empty());
        let far = edited("\"link_table\":96", "\"link_table\":200");
        let findings = compare_files(LINE, &far, TIGHT).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "memory_bytes.link_table");
        // The byte floor exempts even that jump.
        let bands = Bands {
            mem_floor: 1024.0,
            ..TIGHT
        };
        assert!(compare_files(LINE, &far, bands).unwrap().is_empty());
    }

    const SERVE_LINE: &str = r#"{"schema":"rock-serve-bench/v2","sequential_rps":8000.0,"batched_pps":30000.0,"latency_p99_ms":0.5}"#;

    fn serve_edited(from: &str, to: &str) -> String {
        SERVE_LINE.replace(from, to)
    }

    #[test]
    fn throughput_is_a_one_sided_lower_bound() {
        // Faster than baseline: never a finding, however large the gain.
        let faster = serve_edited("\"sequential_rps\":8000.0", "\"sequential_rps\":80000.0");
        assert!(compare_files(SERVE_LINE, &faster, TIGHT)
            .unwrap()
            .is_empty());
        // Within tolerance below: fine.
        let near = serve_edited("\"sequential_rps\":8000.0", "\"sequential_rps\":6500.0");
        assert!(compare_files(SERVE_LINE, &near, TIGHT).unwrap().is_empty());
        // Below the floor: finding, for both _rps and _pps suffixes.
        let slow = serve_edited("\"sequential_rps\":8000.0", "\"sequential_rps\":5000.0");
        let findings = compare_files(SERVE_LINE, &slow, TIGHT).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "sequential_rps");
        assert!(findings[0].message.contains("throughput regression"));
        let slow = serve_edited("\"batched_pps\":30000.0", "\"batched_pps\":10000.0");
        let findings = compare_files(SERVE_LINE, &slow, TIGHT).unwrap();
        assert_eq!(findings[0].metric, "batched_pps");
    }

    #[test]
    fn latency_is_a_one_sided_upper_bound_with_ms_floor() {
        // Faster: never a finding.
        let faster = serve_edited("\"latency_p99_ms\":0.5", "\"latency_p99_ms\":0.1");
        assert!(compare_files(SERVE_LINE, &faster, TIGHT)
            .unwrap()
            .is_empty());
        // Slower beyond tolerance: finding at zero floor…
        let slower = serve_edited("\"latency_p99_ms\":0.5", "\"latency_p99_ms\":1.0");
        let findings = compare_files(SERVE_LINE, &slower, TIGHT).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "latency_p99_ms");
        assert!(findings[0].message.contains("latency regression"));
        // …but exempted by the millisecond floor (bucket quantization).
        let bands = Bands {
            ms_floor: 1.0,
            ..TIGHT
        };
        assert!(compare_files(SERVE_LINE, &slower, bands)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn run_identity_must_match() {
        let fresh = edited("\"experiment\":\"e[n=1]\"", "\"experiment\":\"e[n=2]\"");
        let findings = compare_files(LINE, &fresh, TIGHT).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "experiment");
    }

    #[test]
    fn missing_and_extra_keys_are_findings() {
        let fresh = edited(
            "\"counters\":{\"link_entries\":6}",
            "\"counters\":{\"merges\":1}",
        );
        let findings = compare_files(LINE, &fresh, TIGHT).unwrap();
        let metrics: Vec<&str> = findings.iter().map(|f| f.metric.as_str()).collect();
        assert!(metrics.contains(&"counters.link_entries"));
        assert!(metrics.contains(&"counters.merges"));
    }

    #[test]
    fn degradation_block_appearing_is_a_finding() {
        let fresh = LINE.replace(
            "\"memory_bytes\":{\"link_table\":96}",
            "\"memory_bytes\":{\"link_table\":96},\"degradation\":{\"reason\":\"memory_budget\"}",
        );
        let findings = compare_files(LINE, &fresh, TIGHT).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "degradation");
    }

    #[test]
    fn line_count_mismatch_is_a_finding() {
        let two = format!("{LINE}\n{LINE}");
        let findings = compare_files(&two, LINE, TIGHT).unwrap();
        assert!(findings.iter().any(|f| f.metric == "lines"));
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        assert!(compare_files("{not json", LINE, TIGHT).is_err());
    }

    #[test]
    fn arg_parsing() {
        let ok = parse_args(
            [
                "--baseline",
                "a",
                "--fresh",
                "b",
                "--tolerance",
                "0.1",
                "--floor",
                "0.05",
                "--mem-floor",
                "4096",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(ok.baseline, "a");
        assert_eq!(ok.fresh, "b");
        assert!((ok.tolerance - 0.1).abs() < 1e-12);
        assert!((ok.floor - 0.05).abs() < 1e-12);
        assert!((ok.mem_floor - 4096.0).abs() < 1e-12);
        assert!(parse_args(["--baseline", "a"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--tolerance", "-1"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--bogus"].iter().map(|s| s.to_string())).is_err());
    }
}
