//! Metric names and units, and the result one run prints.
//!
//! The tables here are the single source of the names: `BENCHMARK.json`
//! repeats them (a test checks the two agree) and every workload fills a
//! [`Report`] keyed by them. A metric a workload does not exercise reads 0
//! in the per-layer list; every end-to-end metric is defined on every
//! workload (see README.md for what "request" means on each).

use std::collections::BTreeMap;

/// End-to-end metrics: name, unit. Printed by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("service_us_p50", "us"),
    ("service_us_p95", "us"),
    ("peak_rss_mb", "MB"),
];

/// Phase-B rates of `replicated_region`, ops per sim-ms.
pub const REPL_RATES: [u64; 6] = [1, 2, 4, 6, 8, 12];

/// Per-layer metrics: name, unit. Printed by `--trace 1`. The first block
/// holds whole-path figures that only some workloads have.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest_ops_per_s", "ops/s"),
    ("tick_ms_p95", "ms"),
    ("recover_s", "s"),
    ("query_us_p50", "us"),
    ("query_us_p99", "us"),
    ("txn_commit_us_p99", "us"),
    ("txn_abort_share", "ratio"),
    ("repl_ack_ms_p99", "sim-ms"),
    ("repl_max_rate_ops_per_ms", "ops/sim-ms"),
    ("repl_failover_unavail_ms", "sim-ms"),
    ("stored_bytes_per_entity", "B"),
    ("workloads.gen_s", "s"),
    ("core.durable_op.encode_ns_per_op", "ns"),
    ("core.durable_op.decode_ns_per_op", "ns"),
    ("core.durable_op.bytes_per_op", "B"),
    ("storage.group_commit.append_ns_per_rec", "ns"),
    ("storage.group_commit.sync_ns_per_batch", "ns"),
    ("storage.group_commit.sync_s", "s"),
    ("storage.group_commit.batches", "count"),
    ("storage.group_commit.records_synced", "count"),
    ("storage.group_commit.synced_bytes", "B"),
    ("storage.group_commit.records_per_batch", "count"),
    ("storage.kv.apply_ns_per_rec", "ns"),
    ("storage.kv.flushes", "count"),
    ("storage.kv.compactions", "count"),
    ("storage.kv.compaction_read_bytes", "B"),
    ("storage.kv.compaction_write_bytes", "B"),
    ("storage.kv.run_bytes", "B"),
    ("storage.kv.write_amp", "ratio"),
    ("storage.kv.bloom_skips", "count"),
    ("storage.kv.run_probes", "count"),
    ("storage.kv.staging_reallocs", "count"),
    ("storage.kv.stall_ms_max", "ms"),
    ("core.sharded.apply_ns_per_op", "ns"),
    ("core.sharded.entity_read_ns", "ns"),
    ("core.sharded.sync_msgs", "count"),
    ("core.sharded.suppressed_syncs", "count"),
    ("core.sharded.query_ns_per_probe", "ns"),
    ("core.sharded.query_batch_ns_per_probe", "ns"),
    ("core.sharded.hits_per_probe", "count"),
    ("core.durable.apply_s", "s"),
    ("core.durable.apply_ns_per_op", "ns"),
    ("core.durable.drain_s", "s"),
    ("core.durable.spawn_ns_per_entity", "ns"),
    ("core.durable.snapshot_ns_per_entity", "ns"),
    ("core.durable.recover_ns_per_rec", "ns"),
    ("core.durable.records_replayed", "count"),
    ("core.arena.divergence_s", "s"),
    ("core.arena.divergence_ns_per_entity", "ns"),
    ("pubsub.broker.publish_s", "s"),
    ("pubsub.broker.publish_ns_per_pub", "ns"),
    ("pubsub.broker.deliveries", "count"),
    ("pubsub.broker.forwards", "count"),
    ("pubsub.broker.pruned", "count"),
    ("pubsub.broker.useful_share", "ratio"),
    ("dissem.sched.run_s", "s"),
    ("dissem.sched.requests", "count"),
    ("dissem.sched.dissem_ms_p50", "sim-ms"),
    ("dissem.sched.dissem_ms_p99", "sim-ms"),
    ("core.txn.begin_ns", "ns"),
    ("core.txn.read_ns", "ns"),
    ("core.txn.commit_ns", "ns"),
    ("core.txn.begun", "count"),
    ("core.txn.committed", "count"),
    ("core.txn.aborted_conflict", "count"),
    ("core.txn.single_shard_commits", "count"),
    ("core.txn.cross_shard_commits", "count"),
    ("core.txn.commit_syncs", "count"),
    ("core.txn.prepares_logged", "count"),
    ("core.txn.decisions_logged", "count"),
    ("core.txn.plain_versions", "count"),
    ("core.txn.gc_versions_auto", "count"),
    ("core.txn.useful_share", "ratio"),
    ("core.txn.recovered_commits", "count"),
    ("core.txn.indoubt_aborted", "count"),
    ("txn.mvcc.install_ns_per_op", "ns"),
    ("raft.client_appends", "count"),
    ("raft.appends_sent", "count"),
    ("raft.entries_sent", "count"),
    ("raft.heartbeats_sent", "count"),
    ("raft.entries_committed", "count"),
    ("raft.wal_records", "count"),
    ("raft.compactions", "count"),
    ("raft.snapshots_sent", "count"),
    ("raft.snapshots_installed", "count"),
    ("raft.elections_started", "count"),
    ("raft.leaders_elected", "count"),
    ("raft.msgs_per_commit", "ratio"),
    ("raft.wal_records_per_commit", "ratio"),
    ("net.reliable.sent", "count"),
    ("net.reliable.transmissions", "count"),
    ("net.reliable.retransmits", "count"),
    ("net.reliable.delivered", "count"),
    ("net.reliable.duplicates", "count"),
    ("net.reliable.expired", "count"),
    ("core.replicated.tick_s", "s"),
    ("core.replicated.tick_us_p50", "us"),
    ("core.replicated.tick_us_max", "us"),
    ("core.replicated.submit_s", "s"),
    ("core.replicated.acks", "count"),
    ("core.replicated.submit_unavailable", "count"),
    ("core.replicated.leader_changes", "count"),
    ("core.replicated.catchup_ms", "sim-ms"),
    ("core.replicated.backlog_end.1", "count"),
    ("core.replicated.backlog_end.2", "count"),
    ("core.replicated.backlog_end.4", "count"),
    ("core.replicated.backlog_end.6", "count"),
    ("core.replicated.backlog_end.8", "count"),
    ("core.replicated.backlog_end.12", "count"),
    ("core.replicated.wall_us_per_ack.1", "us"),
    ("core.replicated.wall_us_per_ack.2", "us"),
    ("core.replicated.wall_us_per_ack.4", "us"),
    ("core.replicated.wall_us_per_ack.6", "us"),
    ("core.replicated.wall_us_per_ack.8", "us"),
    ("core.replicated.wall_us_per_ack.12", "us"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.ladder_residual_share", "ratio"),
];

/// What one run found: metric values by name, operations attempted and
/// failed, the notes of every failed check, and the digests the
/// determinism tests compare.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Same seed and sizes give the same values here, run after run.
    pub digests: BTreeMap<&'static str, u64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a failed correctness check that covered `ops` operations.
    pub fn fail(&mut self, ops: u64, note: String) {
        self.failed += ops.max(1);
        self.failures.push(note);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The contract's result line for `defs` (a metric never set reads 0).
    pub fn result_json(&self, defs: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.get(name).unwrap_or(0.0))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable listing: one `name value unit` line per metric.
    pub fn listing(&self, defs: &[(&str, &str)]) -> String {
        let width = defs.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        defs.iter()
            .map(|(name, unit)| {
                format!(
                    "{name:<width$}  {} {unit}\n",
                    json_number(self.get(name).unwrap_or(0.0))
                )
            })
            .collect()
    }
}

/// How many equal stretches of the measured phase the end-to-end
/// figures are medians over.
pub const CHUNKS: usize = 10;

/// The measured phase as a sequence of steps (ticks, transaction groups,
/// sim-ms), each with its wall, the requests it completed and the service
/// samples taken in it.
///
/// The end-to-end figures are medians over [`CHUNKS`] equal stretches of
/// steps: a stretch is long enough to hold several cycles of the system's
/// own periodic work (flushes, compactions, snapshots), so that work is in
/// every stretch, while a stall the host imposes on a few stretches does
/// not move the median. Whole-run means and tails go to the per-layer list.
#[derive(Debug, Default)]
pub struct Steps {
    wall_s: Vec<f64>,
    requests: Vec<u64>,
    /// `service_us.len()` after each step.
    service_end: Vec<usize>,
    service_us: Vec<f64>,
}

impl Steps {
    /// Record one service sample of the step in progress.
    pub fn service(&mut self, us: f64) {
        self.service_us.push(us);
    }

    /// Close the step in progress.
    pub fn step(&mut self, wall_s: f64, requests: u64) {
        self.wall_s.push(wall_s);
        self.requests.push(requests);
        self.service_end.push(self.service_us.len());
    }

    pub fn len(&self) -> usize {
        self.wall_s.len()
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    pub fn requests(&self) -> u64 {
        self.requests.iter().sum()
    }

    /// Every service sample, in time order.
    pub fn service_us(&self) -> &[f64] {
        &self.service_us
    }

    /// Keep the first `steps` steps and drop the rest.
    pub fn keep_first(&mut self, steps: usize) {
        self.wall_s.truncate(steps);
        self.requests.truncate(steps);
        self.service_end.truncate(steps);
        self.service_us
            .truncate(self.service_end.last().copied().unwrap_or(0));
    }

    /// Stretches the medians are over (fewer when the run is tiny).
    fn chunks(&self) -> usize {
        CHUNKS.min(self.len()).max(1)
    }

    /// (requests per second, service p50, service p95), each the median
    /// over the stretches.
    pub fn summary(&self) -> (f64, f64, f64) {
        let chunks = self.chunks();
        let mut rates = Vec::with_capacity(chunks);
        let mut p50s = Vec::with_capacity(chunks);
        let mut p95s = Vec::with_capacity(chunks);
        for c in 0..chunks {
            let (from, to) = (c * self.len() / chunks, (c + 1) * self.len() / chunks);
            let wall: f64 = self.wall_s[from..to].iter().sum();
            let requests: u64 = self.requests[from..to].iter().sum();
            rates.push(ratio(requests as f64, wall));
            let first = if from == 0 {
                0
            } else {
                self.service_end[from - 1]
            };
            let last = if to == 0 { 0 } else { self.service_end[to - 1] };
            let mut samples = self.service_us[first..last].to_vec();
            p50s.push(quantile(&mut samples, 0.50));
            p95s.push(quantile(&mut samples, 0.95));
        }
        (median(&mut rates), median(&mut p50s), median(&mut p95s))
    }

    /// Set the three end-to-end figures and say what they rest on.
    pub fn report(&self, what: &str, report: &mut Report) {
        let (rate, p50, p95) = self.summary();
        report.set("throughput_per_s", rate);
        report.set("service_us_p50", p50);
        report.set("service_us_p95", p95);
        println!(
            "# {} {what} in {:.3} s measured over {} steps; {} service samples; \
             end-to-end figures are medians over {} stretches",
            self.requests(),
            self.wall_s(),
            self.len(),
            self.service_us.len(),
            self.chunks()
        );
    }
}

/// A float as JSON: shortest form that reads back exactly; JSON has no
/// NaN or infinity, so those read 0 (a workload never produces them on a
/// healthy run).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let idx = ((samples.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    samples[idx.min(samples.len() - 1)]
}

/// Median of a few repeated measurements.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is not there to read.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
        }
        assert!(PER_LAYER.len() <= 128);
        for rate in REPL_RATES {
            assert!(seen.contains(format!("core.replicated.backlog_end.{rate}").as_str()));
            assert!(seen.contains(format!("core.replicated.wall_us_per_ack.{rate}").as_str()));
        }
    }

    /// `BENCHMARK.json` must list exactly the metrics this program prints.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let text = include_str!("../../../../../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from metrics.rs");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            ..Default::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let doc = json::parse(&r.result_json(END_TO_END)).expect("parses");
        let Json::Object(fields) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        r.fail(3, "digest differs".into());
        let doc = json::parse(&r.result_json(END_TO_END)).expect("parses");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn a_stall_in_a_few_stretches_does_not_move_the_summary() {
        let fill = |stalled: &[usize]| {
            let mut steps = Steps::default();
            for i in 0..100 {
                let slow = if stalled.contains(&(i / 10)) {
                    5.0
                } else {
                    1.0
                };
                for _ in 0..20 {
                    steps.service(10.0 * slow);
                }
                steps.step(0.001 * slow, 50);
            }
            steps
        };
        let calm = fill(&[]);
        let (rate, p50, p95) = calm.summary();
        assert!((rate - 50_000.0).abs() < 1e-6 && p50 == 10.0 && p95 == 10.0);
        assert_eq!(fill(&[2, 7]).summary(), calm.summary());
        assert_eq!((calm.requests(), calm.len()), (5_000, 100));
        let mut cut = fill(&[]);
        cut.keep_first(30);
        assert_eq!((cut.len(), cut.service_us().len()), (30, 600));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 51.0);
        assert_eq!(quantile(&mut v, 0.95), 95.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
