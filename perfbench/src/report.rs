//! Metric names, the result of one run, and its two renderings: lines
//! for a reader and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload from untraced ops.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("rematch_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not reach
/// a layer's call reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_ms", "ms"),
    ("graph.clone_ms", "ms"),
    ("graph.compact_ms", "ms"),
    ("graph.fingerprint_ms", "ms"),
    ("graph.self_s", "s"),
    ("sim.build_ms", "ms"),
    ("sim.round0_ms", "ms"),
    ("sim.rounds_ms", "ms"),
    ("sim.ns_per_msg", "ns"),
    ("sim.rounds", "count"),
    ("sim.messages", "count"),
    ("sim.dropped_frac", "ratio"),
    ("sim.plane_mb", "MB"),
    ("sim.seq_ms", "ms"),
    ("sim.par_speedup", "x"),
    ("sim.self_s", "s"),
    ("mis.repair_ms", "ms"),
    ("mis.repair_nodes", "count"),
    ("mis.repair_rounds", "count"),
    ("mis.self_s", "s"),
    ("core.mwm_ms", "ms"),
    ("core.mwm_rounds", "count"),
    ("core.matching_weight", "count"),
    ("core.repair_ms", "ms"),
    ("core.repair_rounds", "count"),
    ("core.alg2_ms", "ms"),
    ("core.alg2_rounds", "count"),
    ("core.self_s", "s"),
    ("service.new_ms", "ms"),
    ("service.handle_us.is_matched", "us"),
    ("service.handle_us.is_independent", "us"),
    ("service.handle_us.apply_deltas", "us"),
    ("service.handle_us.match_miss", "us"),
    ("service.handle_us.match_hit", "us"),
    ("service.queue_us", "us"),
    ("service.tcp_ms", "ms"),
    ("service.codec_us", "us"),
    ("service.response_kb", "kB"),
    ("service.hit_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cycle_late_ms", "ms"),
    ("service.read_p90_ms", "ms"),
    ("service.self_s", "s"),
    ("host.steal_pct", "%"),
    ("host.cpu_util", "ratio"),
    ("host.load_1m", "load"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Layers whose self time the traced run reports, with the metric.
pub const SELF_TIME: [(&str, &str); 5] = [
    ("graph", "graph.self_s"),
    ("sim", "sim.self_s"),
    ("mis", "mis.self_s"),
    ("core", "core.self_s"),
    ("service", "service.self_s"),
];

/// Keeps the report readable when many checks fail the same way.
const MAX_PROBLEMS_SHOWN: usize = 20;

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Ops attempted, set-up warm-ups included.
    attempted: u64,
    /// Ops that did not complete, got an error, or failed a check.
    failed: u64,
    problems: Vec<String>,
    e2e: BTreeMap<&'static str, (f64, String)>,
    layer: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one attempted op, failed when `outcome` is an error.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS_SHOWN {
                self.problems.push(why);
            }
        }
    }

    /// Records end-to-end metric `name`; `samples` says what it is the
    /// statistic of.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: String) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, (value, samples));
    }

    /// Records per-layer metric `name`.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layer.insert(name, value);
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human-readable report.
    pub fn lines(&self, traced: bool) -> Vec<String> {
        let mut out = self.notes.clone();
        for (name, unit) in END_TO_END {
            if let Some((v, samples)) = self.e2e.get(name) {
                out.push(format!("{name:<16} {v:>12.4} {unit:<4} ({samples})"));
            }
        }
        if traced {
            for (name, unit) in PER_LAYER {
                let v = self.layer.get(name).copied().unwrap_or(0.0);
                out.push(format!("{name:<34} {v:>14.4} {unit}"));
            }
        }
        out.push(format!(
            "ops: {} attempted, {} failed",
            self.attempted, self.failed
        ));
        out.extend(self.problems.iter().map(|p| format!("FAILED: {p}")));
        out
    }

    /// The result line: every end-to-end metric, or with `traced` every
    /// per-layer metric (0 for a layer the workload does not reach).
    pub fn json(&self, traced: bool) -> String {
        let mut metrics = String::new();
        let table = if traced { PER_LAYER } else { END_TO_END };
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = if traced {
                self.layer.get(name).copied()
            } else {
                self.e2e.get(name).map(|(v, _)| *v)
            };
            let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics and units this program prints.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let listed = spec.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_carries_every_metric_of_the_mode() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.e2e("setup_s", 1.25, "x".into());
        let line = r.json(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        r.op(Err("bad".into()));
        let traced = r.json(true);
        assert!(traced.contains("\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
    }
}
