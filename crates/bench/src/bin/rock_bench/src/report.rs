//! The metric tables and the result line.
//!
//! `END_TO_END` and `PER_LAYER` must match the `end_to_end` and
//! `per_layer` lists of `BENCHMARK.json`: an untraced run prints exactly
//! the first, a traced run exactly the second, in this order (the smoke
//! test checks both against the file).
//!
//! Every workload prints every per-layer metric. Times are only
//! reported for layers that run on every workload (each workload fits a
//! model and builds a labeling snapshot). Layers that only one workload
//! runs — the cache, the stream writer, the server — report counts,
//! rates and shares of an end-to-end time instead, which are 0 on the
//! workloads that do not run them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Samples;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub(crate) name: &'static str,
    /// Unit as printed.
    pub(crate) unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of an untraced run: what a user of the system sees.
pub(crate) const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s"),
    m("latency_p50_ms", "ms"),
    m("throughput", "rows/s"),
    m("peak_rss_mb", "MiB"),
];

/// Metrics of a traced run, named after the module they measure.
pub(crate) const PER_LAYER: [MetricDef; 57] = [
    m("sampling.s", "s"),
    m("neighbors.s", "s"),
    m("neighbors.s_1w", "s"),
    m("neighbors.speedup_2w", "ratio"),
    m("neighbors.candidates", "count"),
    m("neighbors.pairs_verified", "count"),
    m("neighbors.edges", "count"),
    m("neighbors.verify_yield", "ratio"),
    m("outliers.s", "s"),
    m("outliers.filtered", "count"),
    m("links.s", "s"),
    m("links.s_1w", "s"),
    m("links.speedup_2w", "ratio"),
    m("links.kernel_steps", "count"),
    m("links.entries", "count"),
    m("links.entries_per_step", "ratio"),
    m("links.table_bytes", "bytes"),
    m("agglomerate.s", "s"),
    m("agglomerate.init_s", "s"),
    m("agglomerate.loop_s", "s"),
    m("agglomerate.merges", "count"),
    m("agglomerate.heap_pushes", "count"),
    m("agglomerate.heap_pops", "count"),
    m("agglomerate.pushes_per_merge", "ratio"),
    m("agglomerate.heap_bytes", "bytes"),
    m("labeling.share", "ratio"),
    m("labeling.points", "count"),
    m("labeling.labeled_share", "ratio"),
    m("labeling.ns_per_eval", "ns"),
    m("labeling.speedup_2w", "ratio"),
    m("labeling.evaluations", "count"),
    m("fit.layer_sum_s", "s"),
    m("fit.unattributed_share", "ratio"),
    m("trace.overhead_share", "ratio"),
    m("snapshot.build_s", "s"),
    m("snapshot.representatives", "count"),
    m("snapshot.label_chunk_ns_per_point", "ns"),
    m("cache.bytes", "bytes"),
    m("cache.build_share", "ratio"),
    m("stream.read_share", "ratio"),
    m("stream.kernel_share", "ratio"),
    m("stream.write_share", "ratio"),
    m("stream.chunks", "count"),
    m("stream.checkpoint_writes", "count"),
    m("stream.io_retries", "count"),
    m("stream.peak_buffer_bytes", "bytes"),
    m("serve.kernel_share", "ratio"),
    m("serve.r1000.tail_ratio", "ratio"),
    m("serve.r3000.p50_ratio", "ratio"),
    m("serve.r3000.tail_ratio", "ratio"),
    m("serve.r1000.lateness_share", "ratio"),
    m("serve.r3000.lateness_share", "ratio"),
    m("serve.knee_rps", "1/s"),
    m("serve.batch_kernel_share", "ratio"),
    m("serve.accepted", "count"),
    m("serve.shed", "count"),
    m("serve.rejected", "count"),
];

/// A measured value and, for repeated measurements, the samples it is
/// the median of.
#[derive(Debug, Clone)]
struct Value {
    value: f64,
    samples: Option<Samples>,
}

/// Metric values collected by one run, plus human-readable notes.
#[derive(Debug, Default)]
pub(crate) struct Report {
    values: BTreeMap<&'static str, Value>,
    notes: Vec<String>,
}

impl Report {
    /// Records a single measured value.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(
            name,
            Value {
                value,
                samples: None,
            },
        );
    }

    /// Records the median of repeated measurements, keeping the samples
    /// for the quartiles and the sample count.
    pub(crate) fn set_median(&mut self, name: &'static str, samples: Samples) {
        self.values.insert(
            name,
            Value {
                value: samples.median(),
                samples: Some(samples),
            },
        );
    }

    /// Adds a line to the human-readable report.
    pub(crate) fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metrics this run prints: `END_TO_END` untraced, `PER_LAYER`
    /// traced. A per-layer metric the workload did not record is 0 (its
    /// layer did not run); a missing or undeclared end-to-end metric is
    /// an error.
    pub(crate) fn declared(&self, traced: bool) -> Result<Vec<(MetricDef, f64)>, String> {
        let table: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !table.iter().any(|d| d.name == **k))
        {
            return Err(format!("metric {extra} is not declared for this run"));
        }
        table
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(v) if v.value.is_finite() => Ok((*d, v.value)),
                Some(v) => Err(format!("metric {} is not finite ({})", d.name, v.value)),
                None if traced => Ok((*d, 0.0)),
                None => Err(format!("metric {} was not measured", d.name)),
            })
            .collect()
    }

    /// The human-readable report: notes, then one line per metric with
    /// its unit, sample count and quartiles.
    pub(crate) fn render_text(&self, traced: bool) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let table: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        for d in table {
            let Some(v) = self.values.get(d.name) else {
                let _ = writeln!(
                    out,
                    "{:<36} {:>14} {:<7} (layer not run)",
                    d.name, 0, d.unit
                );
                continue;
            };
            let _ = write!(out, "{:<36} {:>14.6} {:<7}", d.name, v.value, d.unit);
            if let Some(s) = &v.samples {
                let (q1, q3) = s.quartiles();
                let _ = write!(out, " median of n={} q1={q1:.6} q3={q3:.6}", s.len());
            }
            out.push('\n');
        }
        out
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each value with all its digits.
pub(crate) fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("p99%"));
    }

    #[test]
    fn untraced_run_needs_every_end_to_end_metric() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        assert!(r.declared(false).is_err());
        for d in END_TO_END {
            r.set(d.name, 2.0);
        }
        assert_eq!(r.declared(false).unwrap().len(), END_TO_END.len());
        r.set("sampling.s", 1.0);
        assert!(
            r.declared(false).is_err(),
            "a per-layer metric in an untraced run"
        );
    }

    #[test]
    fn traced_run_fills_layers_that_did_not_run() {
        let mut r = Report::default();
        r.set("links.s", 0.25);
        let got = r.declared(true).unwrap();
        assert_eq!(got.len(), PER_LAYER.len());
        assert!(got.iter().any(|(d, v)| d.name == "links.s" && *v == 0.25));
        assert!(got.iter().any(|(d, v)| d.name == "serve.shed" && *v == 0.0));
        r.set("links.s", f64::NAN);
        assert!(r.declared(true).is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(true, 3, 0, &[(END_TO_END[0], 0.1 + 0.2)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }
}
