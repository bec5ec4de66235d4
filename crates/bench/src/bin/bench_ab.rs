//! A/B runner for the end-to-end benchmark: alternating runs of two
//! `rock_bench` binaries, summarised per metric.
//!
//! Each pair runs the parent and the change one process at a time on the
//! same seed (seeds `--seed`, `--seed + 1`, …), alternating which side
//! goes first so a drift of the machine's speed lands on both sides, each
//! side in its own work directory. The last line of every run is its
//! result (`{"correct": …, "attempted": …, "failed": …, "metrics": …}`).
//! For each end-to-end metric of `BENCHMARK.json` the runner prints both
//! sides' medians and quartiles and the pairs the change won (a tie
//! counts for neither side); for the `--claim` metric the verdict — met
//! when the change wins at least 9 of every 10 pairs and the medians
//! differ by more than the parent's interquartile range — and for every
//! other metric whether its median got worse by more than its bound.
//!
//! ```text
//! bench_ab --parent ../parent/rock_bench --change ./rock_bench \
//!     --workload fit-dense --seed 1001 --pairs 10 --seconds 20 \
//!     --claim latency_p50_ms
//! ```
//!
//! Exit status: 0 when the claim (if any) is met and no metric passed its
//! bound, 1 otherwise, 2 on usage errors or a run that printed no result.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use rock_core::telemetry::json::Json;

fn usage() -> String {
    "usage: bench_ab --parent <BIN> --change <BIN> --workload <NAME> --seed <FIRST> \
     --pairs <N> --seconds <SECS> [--claim <METRIC>] [--benchmark <BENCHMARK.json>] \
     [--work-dir <DIR>]"
        .to_owned()
}

struct Options {
    parent: PathBuf,
    change: PathBuf,
    workload: String,
    seed: u64,
    pairs: usize,
    seconds: f64,
    claim: Option<String>,
    benchmark: PathBuf,
    work_dir: PathBuf,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let (mut parent, mut change, mut workload) = (None, None, None);
    let (mut seed, mut pairs, mut seconds) = (None, None, None);
    let mut claim = None;
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut work_dir = PathBuf::from("target/bench_ab");
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(take("--parent")?)),
            "--change" => change = Some(PathBuf::from(take("--change")?)),
            "--workload" => workload = Some(take("--workload")?),
            "--seed" => {
                seed = Some(
                    take("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--pairs" => {
                let n: usize = take("--pairs")?
                    .parse()
                    .map_err(|e| format!("--pairs: {e}"))?;
                if n == 0 {
                    return Err("--pairs must be positive".to_owned());
                }
                pairs = Some(n);
            }
            "--seconds" => {
                let s: f64 = take("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--claim" => claim = Some(take("--claim")?),
            "--benchmark" => benchmark = PathBuf::from(take("--benchmark")?),
            "--work-dir" => work_dir = PathBuf::from(take("--work-dir")?),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(Options {
        parent: parent.ok_or_else(usage)?,
        change: change.ok_or_else(usage)?,
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        pairs: pairs.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        claim,
        benchmark,
        work_dir,
    })
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_metrics(path: &Path) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(items)) = json.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or_else(|| format!("metric without {k}"));
            Ok(Metric {
                name: field("name")?.as_str().unwrap_or_default().to_owned(),
                unit: field("unit")?.as_str().unwrap_or_default().to_owned(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One run's result line.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// Parses the last line of a run's standard output that holds a result.
fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or("no result line")?;
    let json = Json::parse(line)?;
    let count = |k: &str| json.get(k).and_then(Json::as_u64).ok_or(format!("no {k}"));
    let fields = json
        .get("metrics")
        .and_then(Json::fields)
        .ok_or("no metrics")?;
    Ok(RunResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics: fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn run_once(bin: &Path, opts: &Options, seed: u64, side: &str) -> Result<RunResult, String> {
    let dir = opts.work_dir.join(side);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = Command::new(bin)
        .args(["--workload", &opts.workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--work-dir"])
        .arg(&dir)
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    parse_result(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{side} seed {seed}: {e} (exit {:?})", out.status.code()))
}

/// First quartile, median and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the
/// rule of `rock_bench`'s own quartiles and of the spreads computed over
/// repeated runs, so "the parent's IQR" means the same everywhere. With
/// one sample all three are that sample.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let len = d.len();
    if len == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Both sides of one metric over the pairs.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    parent: (f64, f64, f64),
    change: (f64, f64, f64),
    /// Pairs where the change was strictly better.
    wins: usize,
    /// Pairs where the parent was strictly better.
    losses: usize,
    pairs: usize,
}

fn summarize(pairs: &[(f64, f64)], lower_is_better: bool) -> Summary {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    Summary {
        parent: quartiles(&parent),
        change: quartiles(&change),
        wins: pairs.iter().filter(|(p, c)| better(*c, *p)).count(),
        losses: pairs.iter().filter(|(p, c)| better(*p, *c)).count(),
        pairs: pairs.len(),
    }
}

impl Summary {
    /// The claim: the change wins at least 9 of every 10 pairs and its
    /// median is better than the parent's by more than the parent's IQR.
    fn claim_met(&self, lower_is_better: bool) -> bool {
        let gain = if lower_is_better {
            self.parent.1 - self.change.1
        } else {
            self.change.1 - self.parent.1
        };
        self.wins * 10 >= self.pairs * 9 && gain > self.parent.2 - self.parent.0
    }

    /// Relative change of the median, positive when it got worse.
    fn worsening(&self, lower_is_better: bool) -> f64 {
        let (p, c) = (self.parent.1, self.change.1);
        if p == 0.0 {
            return 0.0;
        }
        if lower_is_better {
            (c - p) / p
        } else {
            (p - c) / p
        }
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let metrics = load_metrics(&opts.benchmark)?;
    if let Some(claim) = &opts.claim {
        if !metrics.iter().any(|m| &m.name == claim) {
            return Err(format!("--claim {claim}: not an end-to-end metric"));
        }
    }
    let mut results: Vec<(RunResult, RunResult)> = Vec::with_capacity(opts.pairs);
    for i in 0..opts.pairs {
        let seed = opts.seed + i as u64;
        let parent_first = i % 2 == 0;
        let (parent, change) = if parent_first {
            let p = run_once(&opts.parent, opts, seed, "parent")?;
            (p, run_once(&opts.change, opts, seed, "change")?)
        } else {
            let c = run_once(&opts.change, opts, seed, "change")?;
            (run_once(&opts.parent, opts, seed, "parent")?, c)
        };
        eprintln!(
            "pair {}/{} seed {seed} ({} first): {}",
            i + 1,
            opts.pairs,
            if parent_first { "parent" } else { "change" },
            metrics
                .iter()
                .map(|m| format!(
                    "{} {:.4} -> {:.4}",
                    m.name,
                    parent.metric(&m.name).unwrap_or(f64::NAN),
                    change.metric(&m.name).unwrap_or(f64::NAN)
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
        results.push((parent, change));
    }

    println!(
        "bench_ab {}: {} pairs, seeds {}..={}, {} s runs, alternating order",
        opts.workload,
        opts.pairs,
        opts.seed,
        opts.seed + opts.pairs as u64 - 1,
        opts.seconds
    );
    println!(
        "| metric | unit | parent median [q1, q3] | change median [q1, q3] | change | wins / losses |"
    );
    println!("|---|---|---|---|---|---|");
    let mut ok = true;
    let mut verdicts = Vec::new();
    for m in &metrics {
        let pairs: Vec<(f64, f64)> = results
            .iter()
            .filter_map(|(p, c)| Some((p.metric(&m.name)?, c.metric(&m.name)?)))
            .collect();
        if pairs.is_empty() {
            println!("| {} | {} | — | — | — | — |", m.name, m.unit);
            continue;
        }
        let s = summarize(&pairs, m.lower_is_better);
        let rel = if s.parent.1 == 0.0 {
            0.0
        } else {
            (s.change.1 - s.parent.1) / s.parent.1
        };
        println!(
            "| {} | {} | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:+.1}% | {} / {} of {} |",
            m.name,
            m.unit,
            s.parent.1,
            s.parent.0,
            s.parent.2,
            s.change.1,
            s.change.0,
            s.change.2,
            100.0 * rel,
            s.wins,
            s.losses,
            s.pairs
        );
        if opts.claim.as_deref() == Some(m.name.as_str()) {
            let met = s.claim_met(m.lower_is_better);
            ok &= met;
            verdicts.push(format!(
                "claim {}: {} (wins {}/{}, need {}; |Δmedian| {:.4} vs parent IQR {:.4})",
                m.name,
                if met { "MET" } else { "NOT MET" },
                s.wins,
                s.pairs,
                (s.pairs * 9).div_ceil(10),
                (s.parent.1 - s.change.1).abs(),
                s.parent.2 - s.parent.0
            ));
        } else if s.worsening(m.lower_is_better) > m.bound {
            ok = false;
            verdicts.push(format!(
                "WORSE: {} median worse by {:.1}%, past its bound of {:.0}%",
                m.name,
                100.0 * s.worsening(m.lower_is_better),
                100.0 * m.bound
            ));
        }
    }
    for v in &verdicts {
        println!("{v}");
    }
    let total = |f: &dyn Fn(&(RunResult, RunResult)) -> &RunResult| {
        results
            .iter()
            .map(f)
            .fold((0, 0), |(a, b), r| (a + r.failed, b + r.attempted))
    };
    let (pf, pa) = total(&|r| &r.0);
    let (cf, ca) = total(&|r| &r.1);
    println!("failed/attempted: parent {pf}/{pa}, change {cf}/{ca}");
    Ok(ok && pf == 0 && cf == 0)
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
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench_ab: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // Python: statistics.quantiles(values, n=4).
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        assert_eq!(quartiles(&parent_runs()), (101.75, 104.5, 107.25));
    }

    #[test]
    fn ties_count_for_neither_side() {
        let s = summarize(&[(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (5.0, 5.0)], true);
        assert_eq!((s.wins, s.losses, s.pairs), (1, 1, 4));
        let s = summarize(&[(1.0, 2.0), (2.0, 1.0)], false);
        assert_eq!((s.wins, s.losses), (1, 1));
    }

    /// Ten pairs, parent 100..=109 ms: median 104.5, IQR 5.5.
    fn parent_runs() -> Vec<f64> {
        (0..10).map(|i| 100.0 + f64::from(i)).collect()
    }

    #[test]
    fn claim_needs_nine_of_ten_wins_and_a_gap_past_the_parent_iqr() {
        let parent = parent_runs();
        // 10/10 wins, median 95.5 vs 104.5: gap 9 > IQR 5.5.
        let pairs: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p - 9.0)).collect();
        assert!(summarize(&pairs, true).claim_met(true));
        // 10/10 wins by 1 ms each: gap 1 < IQR 5.5.
        let pairs: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p - 1.0)).collect();
        assert!(!summarize(&pairs, true).claim_met(true));
        // A gap of 5 clears the inclusive method's IQR (4.5) but not this
        // one's.
        let pairs: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p - 5.0)).collect();
        assert!(!summarize(&pairs, true).claim_met(true));
        // 9/10 wins (one tie) with a big gap: met.
        let mut pairs: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p - 20.0)).collect();
        pairs[0].1 = pairs[0].0;
        let s = summarize(&pairs, true);
        assert_eq!(s.wins, 9);
        assert!(s.claim_met(true));
        // 8/10 wins: not met, however big the gap.
        pairs[1].1 = pairs[1].0 + 1.0;
        assert!(!summarize(&pairs, true).claim_met(true));
        // A higher-is-better metric wins by going up.
        let pairs: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p + 9.0)).collect();
        assert!(summarize(&pairs, false).claim_met(false));
        assert!(!summarize(&pairs, true).claim_met(true));
    }

    #[test]
    fn worsening_is_relative_to_the_parent_median_in_the_metric_direction() {
        let pairs: Vec<(f64, f64)> = parent_runs().iter().map(|&p| (p, p * 1.3)).collect();
        let s = summarize(&pairs, true);
        assert!((s.worsening(true) - 0.3).abs() < 1e-9);
        assert!((s.worsening(false) + 0.3).abs() < 1e-9);
    }

    #[test]
    fn result_lines_parse_from_the_end_of_the_report() {
        let out = "notes\nsetup_s 0.1 s\n{\"correct\": true, \"attempted\": 14, \"failed\": 1, \
                   \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                   \"latency_p50_ms\": {\"value\": 450, \"unit\": \"ms\"}}}\n";
        let r = parse_result(out).unwrap();
        assert_eq!((r.attempted, r.failed), (14, 1));
        assert_eq!(r.metric("setup_s"), Some(0.25));
        assert_eq!(r.metric("latency_p50_ms"), Some(450.0));
        assert_eq!(r.metric("throughput"), None);
        assert!(parse_result("no json here\n").is_err());
    }

    #[test]
    fn metrics_load_from_the_benchmark_declaration() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let metrics = load_metrics(&root).unwrap();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "latency_p50_ms", "throughput", "peak_rss_mb"]
        );
        assert!(metrics[1].lower_is_better && !metrics[2].lower_is_better);
        assert_eq!(metrics[3].bound, 0.15);
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let o = parse_args(args(
            "--parent a --change b --workload fit-dense --seed 7 --pairs 3 --seconds 0.5 --claim throughput",
        ))
        .unwrap();
        assert_eq!((o.seed, o.pairs, o.seconds), (7, 3, 0.5));
        assert_eq!(o.claim.as_deref(), Some("throughput"));
        assert!(parse_args(args(
            "--parent a --change b --workload w --seed 1 --pairs 0 --seconds 1"
        ))
        .is_err());
        assert!(parse_args(args(
            "--parent a --change b --workload w --seed 1 --pairs 2"
        ))
        .is_err());
        assert!(parse_args(args("--bogus")).is_err());
    }
}
