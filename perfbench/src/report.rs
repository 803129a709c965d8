//! Metric names, units, the per-layer table assembled from a replay's
//! ledger, and the result line.

use crate::arith::ratio;
use crate::ledger::{inclusive_times, self_times, uncovered, Ledger, Span};
use std::collections::BTreeMap;
use stitch::AppRun;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_cpu_s", "cycles/s"),
    ("peak_rss_mb", "MB"),
    ("paper_gap", "ratio"),
    ("fault_retention", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A name ending in `_s`
/// is the host time of the span named by the rest of it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiler.compile_s", "s"),
    ("compiler.profile_s", "s"),
    ("compiler.enumerate_s", "s"),
    ("compiler.map_s", "s"),
    ("compiler.rewrite_s", "s"),
    ("compiler.measure_s", "s"),
    ("compiler.map_calls", "count"),
    ("compiler.candidates", "count"),
    ("compiler.variants", "count"),
    ("compiler.node_accel_s", "s"),
    ("compiler.stitcher_s", "s"),
    ("apps.build_s", "s"),
    ("verify.ise_s", "s"),
    ("verify.lint_s", "s"),
    ("verify.gate_s", "s"),
    ("verify.ise_obligations", "count"),
    ("verify.ise_distinct", "count"),
    ("verify.ise_useful_ratio", "ratio"),
    ("stitch.prepare_s", "s"),
    ("cache.load_s", "s"),
    ("cache.store_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("sim.load_s", "s"),
    ("sim.run_s", "s"),
    ("sim.cycles", "count"),
    ("sim.host_ns_per_cycle", "ns/cycle"),
    ("sim.batched_fraction", "ratio"),
    ("sim.skipped_fraction", "ratio"),
    ("sim.ticked_fraction", "ratio"),
    ("sim.windows", "count"),
    ("sim.uops", "count"),
    ("sim.block_cache_hit_ratio", "ratio"),
    ("fault.run_s", "s"),
    ("fault.restitches", "count"),
    ("fault.injected", "count"),
    ("fault.demotions", "count"),
    ("trace.run_s", "s"),
    ("trace.capture_overhead", "ratio"),
    ("trace.export_s", "s"),
    ("trace.export_bytes", "bytes"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.batched_fraction", "ratio"),
    ("other_s", "s"),
    ("trace_overhead_s", "s"),
];

/// Spans reported with their children included; every other span
/// reports its self time.
const INCLUSIVE: &[&str] = &["compiler.compile", "compiler.node_accel", "stitch.prepare"];

pub type Metrics = BTreeMap<&'static str, f64>;

/// Simulator counters summed over a set of runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTally {
    pub cycles: u64,
    pub batched: u64,
    pub skipped: u64,
    pub windows: u64,
    pub uops: u64,
    pub blocks: u64,
    pub block_hits: u64,
}

impl SimTally {
    pub fn add(&mut self, run: &AppRun) {
        self.cycles += run.summary.cycles;
        self.batched += run.translation.batched_cycles;
        self.skipped += run.skipped_cycles;
        self.windows += run.translation.windows;
        self.uops += run.translation.uops_executed;
        self.blocks += run.translation.blocks_translated;
        self.block_hits += run.translation.cache_hits;
    }

    pub fn batched_fraction(&self) -> f64 {
        ratio(self.batched as f64, self.cycles as f64)
    }
}

/// The per-layer table of one replay pass of `wall` seconds: span
/// times, the ledger's counters, and the simulator tally of the runs
/// whose span was `sim.run`.
pub fn layers(l: &Ledger, wall: f64, sim: &SimTally) -> Metrics {
    let selfs = self_times(l.spans());
    let incl = inclusive_times(l.spans());
    let mut m = Metrics::new();
    for &(name, _) in PER_LAYER {
        if let Some(span) = name.strip_suffix("_s") {
            let table = if INCLUSIVE.contains(&span) {
                &incl
            } else {
                &selfs
            };
            m.insert(name, table.get(span).copied().unwrap_or(0.0));
        }
    }
    for name in [
        "compiler.map_calls",
        "compiler.candidates",
        "compiler.variants",
        "verify.ise_obligations",
        "fault.restitches",
    ] {
        m.insert(name, l.counter(name) as f64);
    }
    let distinct = l.distinct("verify.ise_distinct") as f64;
    m.insert("verify.ise_distinct", distinct);
    m.insert(
        "verify.ise_useful_ratio",
        ratio(distinct, l.counter("verify.ise_obligations") as f64),
    );
    let run_s = m["sim.run_s"];
    m.insert("sim.cycles", sim.cycles as f64);
    m.insert(
        "sim.host_ns_per_cycle",
        ratio(run_s * 1e9, sim.cycles as f64),
    );
    let batched = sim.batched_fraction();
    let skipped = ratio(sim.skipped as f64, sim.cycles as f64);
    m.insert("sim.batched_fraction", batched);
    m.insert("sim.skipped_fraction", skipped);
    m.insert(
        "sim.ticked_fraction",
        if sim.cycles == 0 {
            0.0
        } else {
            1.0 - batched - skipped
        },
    );
    m.insert("sim.windows", sim.windows as f64);
    m.insert("sim.uops", sim.uops as f64);
    m.insert(
        "sim.block_cache_hit_ratio",
        ratio(sim.block_hits as f64, (sim.block_hits + sim.blocks) as f64),
    );
    m.insert("other_s", uncovered(l.spans(), wall));
    m
}

/// True when the spans account for a replay of `wall` seconds: the self
/// times plus `other_s` add up to it (no span overlaps another), and
/// `other_s`, the time no span covers, is at most `tolerance` of it.
pub fn accounts_for_wall(spans: &[Span], wall: f64, tolerance: f64) -> bool {
    let covered: f64 = self_times(spans).values().sum();
    let other = uncovered(spans, wall);
    (covered + other - wall).abs() <= 1e-9 * wall.max(1.0) && other <= tolerance * wall
}

/// Result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Whole-run checks not tied to one operation (determinism across
    /// passes, span accounting).
    pub checks_ok: bool,
    pub metrics: Metrics,
    /// Per-operation result digests, for diffing two commits point by
    /// point.
    pub digests: BTreeMap<String, u64>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            checks_ok: true,
            metrics: Metrics::new(),
            digests: BTreeMap::new(),
        }
    }
}

impl Outcome {
    /// A run whose workload could not start: one operation, failed.
    pub fn not_started(why: impl std::fmt::Display) -> Self {
        eprintln!("{why}");
        Outcome {
            attempted: 1,
            failed: 1,
            checks_ok: false,
            ..Outcome::default()
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of `names` with its unit.
pub fn result_line(o: &Outcome, names: &[(&str, &str)]) -> String {
    let mut correct = o.checks_ok && o.failed == 0 && o.attempted > 0;
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let v = o.metrics.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() {
                v
            } else {
                correct = false;
                0.0
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_and_flags_non_finite() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.insert("wall_s", 1.25);
        let line = result_line(&o, &[("wall_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let line = result_line(&o, &[("wall_s", "s"), ("setup_s", "s")]);
        assert!(line.starts_with("{\"correct\": false"));
    }

    #[test]
    fn layers_cover_every_per_layer_metric_but_the_harness_ones() {
        let l = Ledger::new();
        let m = layers(&l, 1.0, &SimTally::default());
        for &(name, _) in PER_LAYER {
            if !name.starts_with("cache.")
                && !name.starts_with("trace.")
                && !name.starts_with("fault.")
                && name != "trace_overhead_s"
            {
                assert!(m.contains_key(name), "{name}");
            }
        }
        assert_eq!(m["other_s"], 1.0);
        // Nothing covered: the spans do not account for the wall.
        assert!(!accounts_for_wall(l.spans(), 1.0, 0.05));
    }

    #[test]
    fn spans_account_for_the_wall_they_cover() {
        let span = |start, end, parent| Span {
            name: "sim.run",
            start,
            end,
            parent,
        };
        let spans = [span(0.01, 1.0, None), span(0.2, 0.5, Some(0))];
        assert!(accounts_for_wall(&spans, 1.0, 0.05));
        // 10% of the wall uncovered.
        assert!(!accounts_for_wall(&spans, 1.1, 0.05));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
