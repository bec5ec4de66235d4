//! `rock_bench` — the end-to-end benchmark of the ROCK system.
//!
//! ```text
//! rock_bench --workload <fit-dense|sample-label|stream-label|serve-online>
//!            --seed <u64> --seconds <s> [--trace <0|1>] [--smoke] [--work-dir <dir>]
//! ```
//!
//! One process runs one workload, so `peak_rss_mb` belongs to it. Inputs
//! are generated from `--seed`; the operations run for `--seconds`; every
//! output is checked. The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`, which
//! also writes `<work-dir>/traces/<workload>.trace` in rock-trace/v1).
//! The exit code is 0 only when every check passed. See README.md.

mod fit;
mod harness;
mod loadgen;
mod report;
mod serve;
mod stats;
mod stream;
mod sys;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use rock_core::telemetry::trace::Tracer;

use crate::harness::{Ctx, Run};

/// A workload: runs in the context, returns its metrics and tally.
type Workload = fn(&Ctx) -> Result<Run, String>;

/// The workloads, by name.
const WORKLOADS: [(&str, Workload); 4] = [
    ("fit-dense", fit::dense),
    ("sample-label", fit::sample_label),
    ("stream-label", stream::run),
    ("serve-online", serve::run),
];

const USAGE: &str =
    "usage: rock_bench --workload <fit-dense|sample-label|stream-label|serve-online> \
--seed <u64> --seconds <s> [--trace <0|1>] [--smoke] [--work-dir <dir>]";

#[derive(Debug)]
struct Args {
    name: &'static str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    work_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut work_dir = PathBuf::from(".bench_work");
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|(n, _)| *n == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rock_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok(out) => {
            print!("{}", out.report);
            println!("{}", out.result);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rock_bench: {}: {e}", args.name);
            ExitCode::FAILURE
        }
    }
}

/// What a run prints: the human-readable report, then the result line.
#[derive(Debug)]
struct Output {
    report: String,
    result: String,
    /// Every check passed.
    correct: bool,
}

/// Runs one workload in a private scratch directory.
fn execute(args: &Args) -> Result<Output, String> {
    let hw = sys::hw_threads();
    if hw < harness::THREADS {
        eprintln!(
            "rock_bench: warning: {hw} hardware thread(s); the workloads use {}",
            harness::THREADS
        );
    }
    let dir = args
        .work_dir
        .join(format!("{}-{}", args.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        dir,
        tracer: Tracer::new(),
    };
    let trace_path = args
        .work_dir
        .join("traces")
        .join(format!("{}.trace", args.name));
    if args.trace {
        std::fs::create_dir_all(args.work_dir.join("traces")).map_err(|e| e.to_string())?;
        ctx.tracer
            .start_to_path(&trace_path, "rock_bench")
            .map_err(|e| e.to_string())?;
    }
    let result = (args.workload)(&ctx);
    let finished = ctx.tracer.finish();
    std::fs::remove_dir_all(&ctx.dir).ok();
    let mut run = result?;
    finished.map_err(|e| e.to_string())?;

    if args.trace {
        run.report.note(format!("trace: {}", trace_path.display()));
    } else {
        run.report.set("peak_rss_mb", sys::peak_rss_mib()?);
    }
    let metrics = run.report.declared(args.trace)?;
    let correct = run.failed == 0 && run.attempted > 0;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "rock_bench {}: seed {} seconds {} hw_threads {hw} threads {} trace {}",
        args.name,
        args.seed,
        args.seconds,
        harness::THREADS,
        u8::from(args.trace)
    );
    report.push_str(&run.report.render_text(args.trace));
    let _ = writeln!(report, "attempted {} failed {}", run.attempted, run.failed);
    Ok(Output {
        report,
        result: report::result_line(correct, run.attempted, run.failed, &metrics),
        correct,
    })
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use rock_core::telemetry::json::Json;
    use rock_core::telemetry::trace::{validate, TraceRecord};

    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload fit-dense --seed 42 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            (a.name, a.seed, a.seconds, a.trace),
            ("fit-dense", 42, 15.0, true)
        );
        assert!(!a.smoke);
        assert!(
            parse("--workload serve-online --seed 1 --seconds 1 --smoke")
                .unwrap()
                .smoke
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        let ok = "--workload fit-dense --seed 1 --seconds 1";
        assert!(parse(ok).is_ok());
        for bad in [
            "--seed 1 --seconds 1",
            "--workload fit-dense --seconds 1",
            "--workload fit-dense --seed 1",
            "--workload nope --seed 1 --seconds 1",
            "--workload fit-dense --seed -1 --seconds 1",
            "--workload fit-dense --seed 1 --seconds 0",
            "--workload fit-dense --seed 1 --seconds 1 --trace 2",
            "--workload fit-dense --seed 1 --seconds 1 --bogus 3",
            "--workload fit-dense --seed 1 --seconds",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// A file of the repository, from this package's directory.
    fn repo_file(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../../../..")
            .join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn benchmark_json() -> Json {
        Json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// The `key` field of every entry of a BENCHMARK.json list.
    fn declared(bench: &Json, list: &str, key: &str) -> Vec<String> {
        let Some(Json::Arr(entries)) = bench.get(list) else {
            panic!("BENCHMARK.json has no {list} list");
        };
        entries
            .iter()
            .map(|e| {
                e.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("a {list} entry has no {key}"))
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_the_workloads() {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared(&benchmark_json(), "workloads", "name"), names);
    }

    /// The `[profile.release]` lines of a manifest, without comments.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The package is a workspace of its own, so the root's release
    /// profile does not apply to it; its copy must say the same.
    #[test]
    fn release_profile_matches_the_workspace() {
        let root = repo_file("Cargo.toml");
        let own = include_str!("../Cargo.toml");
        assert!(!release_profile(&root).is_empty());
        assert_eq!(release_profile(own), release_profile(&root));
    }

    /// Runs `workload` at smoke scale, untraced and traced, in-process:
    /// each run must pass its own checks (fit equals the composed
    /// pipeline, stream equals `label_chunk`, every served answer equals
    /// `ModelSnapshot::label`) and print exactly the metrics
    /// `BENCHMARK.json` declares, in order and with the same units; the
    /// traced run must leave a valid rock-trace/v1 file.
    fn smoke(workload: &str) {
        let bench = benchmark_json();
        let work_dir =
            std::env::temp_dir().join(format!("rock_bench-{}-{workload}", std::process::id()));
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let args = parse(&format!(
                "--workload {workload} --seed 7 --seconds 0.3 --smoke --trace {trace} --work-dir {}",
                work_dir.display()
            ))
            .unwrap();
            let out = execute(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(out.correct, "{workload} trace={trace}\n{}", out.report);
            let result = Json::parse(&out.result).expect("the result line parses");
            let keys: Vec<&str> = result
                .fields()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);

            let metrics = result
                .get("metrics")
                .and_then(Json::fields)
                .expect("metrics");
            let mut names = Vec::new();
            let mut units = Vec::new();
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).expect("a number");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                if trace == 0 {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
                names.push(name.clone());
                units.push(m.get("unit").and_then(Json::as_str).expect("a unit"));
            }
            assert_eq!(names, declared(&bench, list, "name"), "{workload}");
            assert_eq!(units, declared(&bench, list, "unit"), "{workload}");

            if trace == 1 {
                let path = work_dir.join("traces").join(format!("{workload}.trace"));
                let text = std::fs::read_to_string(&path).expect("trace file");
                std::fs::remove_dir_all(&work_dir).ok();
                validate(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                let spans: Vec<String> = text
                    .lines()
                    .filter_map(|l| match TraceRecord::parse_line(l) {
                        Ok(TraceRecord::Span(s)) => Some(s.name),
                        _ => None,
                    })
                    .collect();
                for name in ["fit.replay", "phase", "snapshot.label_chunk"] {
                    assert!(
                        spans.iter().any(|s| s == name),
                        "{workload}: no {name} span"
                    );
                }
            }
        }
    }

    #[test]
    fn smoke_fit_dense() {
        smoke("fit-dense");
    }

    #[test]
    fn smoke_sample_label() {
        smoke("sample-label");
    }

    #[test]
    fn smoke_stream_label() {
        smoke("stream-label");
    }

    #[test]
    fn smoke_serve_online() {
        smoke("serve-online");
    }
}
