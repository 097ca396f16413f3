//! Metric names, units and the result line; counter-derived per-layer
//! metrics shared by every workload.

use std::collections::BTreeMap;

use valois_core::ListStats;
use valois_mem::MemStats;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("completed_frac", "ratio"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not pass through reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.submit_ns_p50", "ns"),
    ("server.reply_wait_us_p50", "us"),
    ("server.request_self_ns_p50", "ns"),
    ("server.batch_mean", "1/batch"),
    ("server.shard_skew", "ratio"),
    ("server.get_us_p50", "us"),
    ("server.put_us_p50", "us"),
    ("server.del_us_p50", "us"),
    ("server.scan_us_p50", "us"),
    ("dict.find_ns_p50", "ns"),
    ("dict.insert_ns_p50", "ns"),
    ("dict.remove_ns_p50", "ns"),
    ("dict.insert_success_ratio", "ratio"),
    ("dict.bucket_count", "count"),
    ("dict.doublings", "count"),
    ("dict.initialized_buckets", "count"),
    ("list.next_steps_per_op", "1/op"),
    ("list.updates_per_op", "1/op"),
    ("list.aux_skipped_per_op", "1/op"),
    ("list.backlink_hops_per_op", "1/op"),
    ("list.resumes_per_op", "1/op"),
    ("list.resume_hops_per_op", "1/op"),
    ("list.chain_cleanup_retries_per_op", "1/op"),
    ("list.insert_cas_success_ratio", "ratio"),
    ("list.delete_cas_success_ratio", "ratio"),
    ("mem.safe_reads_per_op", "1/op"),
    ("mem.releases_per_op", "1/op"),
    ("mem.safe_read_retry_ratio", "ratio"),
    ("mem.allocs_per_op", "1/op"),
    ("mem.reclaims_per_op", "1/op"),
    ("mem.alloc_retry_ratio", "ratio"),
    ("mem.swing_failure_ratio", "ratio"),
    ("mem.grows", "count"),
    ("mem.node_capacity", "count"),
    ("mem.epoch_pins_per_op", "1/op"),
    ("mem.epoch_advances_per_op", "1/op"),
    ("mem.epoch_limbo_depth_max", "count"),
    ("mem.epoch_pin_lag_max", "count"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run prints.
#[derive(Debug)]
pub struct Report {
    /// First wrong answer, if any.
    pub error: Option<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or answered `Overloaded`.
    pub failed: u64,
    /// Values, keyed by the names in [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Metrics,
}

impl Report {
    /// A run that stopped at a wrong answer before its window.
    pub fn wrong(error: String) -> Self {
        Self {
            error: Some(error),
            attempted: 0,
            failed: 0,
            metrics: Metrics::new(),
        }
    }

    /// Prints one `name value unit` line per metric of `table`, then the
    /// result object as the last line.
    pub fn print(&self, table: &[(&'static str, &'static str)]) {
        if let Some(e) = &self.error {
            println!("WRONG ANSWER: {e}");
        }
        let mut json = String::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let mut value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                value = 0.0;
            }
            println!("{name:<36} {value:>18} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            json.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.error.is_none(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`), or 0 where the
/// file is unavailable.
pub fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident memory so far, in KiB. The kernel updates `VmHWM`
/// lazily, so the current `VmRSS` can be the larger of the two.
pub fn peak_kib() -> u64 {
    let hwm = status_kib("VmHWM");
    hwm.max(status_kib("VmRSS"))
}

/// `list.*` metrics from a counter delta over `ops` operations.
pub fn list_metrics(m: &mut Metrics, d: &ListStats, ops: u64) {
    m.insert("list.next_steps_per_op", ratio(d.next_steps, ops));
    m.insert("list.updates_per_op", ratio(d.updates, ops));
    m.insert("list.aux_skipped_per_op", ratio(d.aux_skipped, ops));
    m.insert("list.backlink_hops_per_op", ratio(d.backlink_hops, ops));
    m.insert("list.resumes_per_op", ratio(d.resumes, ops));
    m.insert("list.resume_hops_per_op", ratio(d.resume_hops, ops));
    m.insert(
        "list.chain_cleanup_retries_per_op",
        ratio(d.chain_cleanup_retries, ops),
    );
    m.insert(
        "list.insert_cas_success_ratio",
        ratio(d.insert_successes, d.insert_attempts),
    );
    m.insert(
        "list.delete_cas_success_ratio",
        ratio(d.delete_successes, d.delete_attempts),
    );
}

/// Gauges sampled during a traced window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gauges {
    /// Largest `epoch_limbo_depth` seen.
    pub limbo_max: u64,
    /// Largest `epoch_pin_lag` seen.
    pub lag_max: u64,
}

impl Gauges {
    /// Folds in one `MemStats` sample.
    pub fn sample(&mut self, m: &MemStats) {
        self.limbo_max = self.limbo_max.max(m.epoch_limbo_depth);
        self.lag_max = self.lag_max.max(m.epoch_pin_lag);
    }
}

/// `mem.*` metrics from a counter delta over `ops` operations, the arena
/// totals at the end of the run, and the sampled gauges.
pub fn mem_metrics(
    m: &mut Metrics,
    d: &MemStats,
    end: &MemStats,
    capacity: u64,
    g: Gauges,
    ops: u64,
) {
    m.insert("mem.safe_reads_per_op", ratio(d.safe_reads, ops));
    m.insert("mem.releases_per_op", ratio(d.releases, ops));
    m.insert(
        "mem.safe_read_retry_ratio",
        ratio(d.safe_read_retries, d.safe_reads),
    );
    m.insert("mem.allocs_per_op", ratio(d.allocs, ops));
    m.insert("mem.reclaims_per_op", ratio(d.reclaims, ops));
    m.insert("mem.alloc_retry_ratio", ratio(d.alloc_retries, d.allocs));
    m.insert("mem.swing_failure_ratio", ratio(d.swing_failures, d.swings));
    m.insert("mem.grows", end.grows as f64);
    m.insert("mem.node_capacity", capacity as f64);
    m.insert("mem.epoch_pins_per_op", ratio(d.epoch_pins, ops));
    m.insert("mem.epoch_advances_per_op", ratio(d.epoch_advances, ops));
    m.insert("mem.epoch_limbo_depth_max", g.limbo_max as f64);
    m.insert("mem.epoch_pin_lag_max", g.lag_max as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and `BENCHMARK.json` name the same metrics with the
    /// same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut declared = Vec::new();
        for line in json.lines() {
            let Some(rest) = line.split("\"name\": \"").nth(1) else {
                continue;
            };
            let name = rest.split('"').next().unwrap();
            if let Some(unit) = line.split("\"unit\": \"").nth(1) {
                declared.push((
                    name.to_string(),
                    unit.split('"').next().unwrap().to_string(),
                ));
            }
        }
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    /// `metrics.json` documents every metric.
    #[test]
    fn every_metric_is_documented() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/metrics.json");
        let doc = std::fs::read_to_string(path).expect("metrics.json beside Cargo.toml");
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                doc.contains(&format!("\"name\": \"{name}\"")),
                "{name} undocumented"
            );
        }
    }

    #[test]
    fn status_fields_parse() {
        if std::path::Path::new("/proc/self/status").exists() {
            let rss = status_kib("VmRSS");
            assert!(rss > 0);
            assert!(status_kib("VmHWM") >= rss);
        }
        assert_eq!(status_kib("NoSuchField"), 0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(3, 4), 0.75);
    }
}
