//! Transmission scheduling over a bandwidth-limited uplink.
//!
//! §IV-C: *"more critical data can be transmitted first before less
//! critical data … to study different scheduling schemes"*. The scheduler
//! simulates one outgoing link draining a queue of transmission requests
//! under four policies, reporting per-priority-class latency (E4).

use mv_common::metrics::Histogram;
use mv_common::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Criticality classes, most critical first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Safety/consistency-critical (troop "perish" orders, purchase
    /// confirmations).
    Critical,
    /// Interactive state (positions, scores).
    High,
    /// Regular telemetry.
    Normal,
    /// Bulk media/prefetch.
    Bulk,
}

impl Priority {
    /// All classes, most critical first.
    pub const ALL: [Priority; 4] =
        [Priority::Critical, Priority::High, Priority::Normal, Priority::Bulk];

    /// Weight for weighted-fair scheduling.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Critical => 8,
            Priority::High => 4,
            Priority::Normal => 2,
            Priority::Bulk => 1,
        }
    }

    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Critical => "critical",
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }
}

/// One transmission request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxRequest {
    /// Arrival time in the outbound queue.
    pub arrival: SimTime,
    /// Payload size.
    pub bytes: u64,
    /// Criticality class.
    pub priority: Priority,
    /// Optional absolute deadline.
    pub deadline: Option<SimTime>,
}

/// Queue-service policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Arrival order regardless of class.
    Fifo,
    /// Strict priority: drain Critical, then High, … (Bulk can starve).
    StrictPriority,
    /// Earliest absolute deadline first (no deadline = last).
    Edf,
    /// Weighted round-robin by class weight (starvation-free).
    WeightedFair,
}

impl SchedPolicy {
    /// All policies, for sweeps.
    pub const ALL: [SchedPolicy; 4] =
        [SchedPolicy::Fifo, SchedPolicy::StrictPriority, SchedPolicy::Edf, SchedPolicy::WeightedFair];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::StrictPriority => "strict-priority",
            SchedPolicy::Edf => "edf",
            SchedPolicy::WeightedFair => "weighted-fair",
        }
    }
}

/// Per-class results of one run.
#[derive(Debug, Default)]
// lint:allow(dead-pub): exposed by `LinkScheduler::run`, which other crates use
pub struct TxReport {
    /// Latency (finish − arrival) histograms per class, ms.
    pub latency_ms: std::collections::BTreeMap<&'static str, Histogram>,
    /// Deadline misses.
    pub deadline_misses: u64,
    /// Total messages sent.
    pub sent: u64,
}

/// The single-uplink scheduler simulation.
#[derive(Debug)]
pub struct LinkScheduler {
    /// Uplink bandwidth, bytes per simulated second.
    bandwidth_bps: f64,
}

impl LinkScheduler {
    /// A link with the given bandwidth.
    pub fn new(bandwidth_bps: f64) -> Self {
        assert!(bandwidth_bps > 0.0);
        LinkScheduler { bandwidth_bps }
    }

    fn service_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// Drain all requests under a policy; returns the per-class report.
    pub fn run(&self, mut requests: Vec<TxRequest>, policy: SchedPolicy) -> TxReport {
        requests.sort_by_key(|r| (r.arrival, r.bytes));
        let mut report = TxReport::default();
        for p in Priority::ALL {
            report.latency_ms.insert(p.name(), Histogram::new());
        }
        // Per-class FIFO queues (preserve arrival order within class).
        let mut queues: std::collections::BTreeMap<Priority, VecDeque<TxRequest>> =
            Priority::ALL.iter().map(|&p| (p, VecDeque::new())).collect();
        let mut next_arrival = 0usize;
        let mut now = SimTime::ZERO;
        // Weighted-fair state: remaining credits per class in this cycle.
        let mut credits: std::collections::BTreeMap<Priority, u64> =
            Priority::ALL.iter().map(|&p| (p, p.weight())).collect();

        loop {
            while next_arrival < requests.len() && requests[next_arrival].arrival <= now {
                let r = requests[next_arrival];
                queues.get_mut(&r.priority).expect("all classes present").push_back(r);
                next_arrival += 1;
            }
            let total_pending: usize = queues.values().map(VecDeque::len).sum();
            if total_pending == 0 {
                if next_arrival >= requests.len() {
                    break;
                }
                now = requests[next_arrival].arrival;
                continue;
            }
            let pick: Priority = match policy {
                SchedPolicy::Fifo => Priority::ALL
                    .iter()
                    .copied()
                    .filter(|p| !queues[p].is_empty())
                    .min_by_key(|p| queues[p][0].arrival)
                    .expect("pending"),
                SchedPolicy::StrictPriority => Priority::ALL
                    .iter()
                    .copied()
                    .find(|p| !queues[p].is_empty())
                    .expect("pending"),
                SchedPolicy::Edf => Priority::ALL
                    .iter()
                    .copied()
                    .filter(|p| !queues[p].is_empty())
                    .min_by_key(|p| {
                        (queues[p][0].deadline.unwrap_or(SimTime::MAX), queues[p][0].arrival)
                    })
                    .expect("pending"),
                SchedPolicy::WeightedFair => {
                    // Serve classes with remaining credit, most critical
                    // first; refill when all pending classes are out.
                    let with_credit = Priority::ALL
                        .iter()
                        .copied()
                        .find(|p| !queues[p].is_empty() && credits[p] > 0);
                    match with_credit {
                        Some(p) => p,
                        None => {
                            for (p, c) in credits.iter_mut() {
                                *c = p.weight();
                            }
                            Priority::ALL
                                .iter()
                                .copied()
                                .find(|p| !queues[p].is_empty())
                                .expect("pending")
                        }
                    }
                }
            };
            if policy == SchedPolicy::WeightedFair {
                if let Some(c) = credits.get_mut(&pick) {
                    *c = c.saturating_sub(1);
                }
            }
            let req = queues.get_mut(&pick).expect("class exists").pop_front().expect("nonempty");
            let finish = now.max(req.arrival) + self.service_time(req.bytes);
            report
                .latency_ms
                .get_mut(req.priority.name())
                .expect("class registered")
                .record(finish.since(req.arrival).as_millis_f64());
            if let Some(d) = req.deadline {
                if finish > d {
                    report.deadline_misses += 1;
                }
            }
            report.sent += 1;
            now = finish;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burst of bulk traffic at t=0 with critical messages sprinkled in.
    fn burst() -> Vec<TxRequest> {
        let mut reqs = Vec::new();
        for i in 0..100u64 {
            reqs.push(TxRequest {
                arrival: SimTime::from_millis(i / 10),
                bytes: 100_000, // 100 KB bulk
                priority: Priority::Bulk,
                deadline: None,
            });
        }
        for i in 0..10u64 {
            reqs.push(TxRequest {
                arrival: SimTime::from_millis(i),
                bytes: 1_000, // 1 KB critical
                priority: Priority::Critical,
                deadline: Some(SimTime::from_millis(i + 50)),
            });
        }
        reqs
    }

    #[test]
    fn all_policies_send_everything() {
        let link = LinkScheduler::new(1e6); // 1 MB/s
        for p in SchedPolicy::ALL {
            let r = link.run(burst(), p);
            assert_eq!(r.sent, 110, "{}", p.name());
        }
    }

    #[test]
    fn strict_priority_slashes_critical_latency() {
        let link = LinkScheduler::new(1e6);
        let fifo = link.run(burst(), SchedPolicy::Fifo);
        let strict = link.run(burst(), SchedPolicy::StrictPriority);
        let crit = |r: &TxReport| r.latency_ms["critical"].clone().p99();
        assert!(
            crit(&strict) * 5.0 < crit(&fifo),
            "strict {} vs fifo {}",
            crit(&strict),
            crit(&fifo)
        );
    }

    #[test]
    fn edf_respects_deadlines() {
        let link = LinkScheduler::new(1e6);
        let fifo = link.run(burst(), SchedPolicy::Fifo);
        let edf = link.run(burst(), SchedPolicy::Edf);
        assert!(edf.deadline_misses <= fifo.deadline_misses);
        assert_eq!(edf.deadline_misses, 0, "critical deadlines all met under EDF");
    }

    #[test]
    fn weighted_fair_avoids_bulk_starvation() {
        // Continuous critical traffic would starve bulk under strict
        // priority; weighted-fair must still serve bulk early.
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            reqs.push(TxRequest {
                arrival: SimTime::from_millis(i / 4),
                bytes: 10_000,
                priority: Priority::Critical,
                deadline: None,
            });
        }
        for i in 0..10u64 {
            reqs.push(TxRequest {
                arrival: SimTime::from_millis(i),
                bytes: 10_000,
                priority: Priority::Bulk,
                deadline: None,
            });
        }
        let link = LinkScheduler::new(1e6);
        let strict = link.run(reqs.clone(), SchedPolicy::StrictPriority);
        let fair = link.run(reqs, SchedPolicy::WeightedFair);
        let bulk = |r: &TxReport| r.latency_ms["bulk"].clone().p50();
        assert!(
            bulk(&fair) < bulk(&strict),
            "fair {} vs strict {}",
            bulk(&fair),
            bulk(&strict)
        );
    }

    #[test]
    fn fifo_is_arrival_ordered() {
        let link = LinkScheduler::new(1e6);
        let reqs = vec![
            TxRequest {
                arrival: SimTime::from_millis(0),
                bytes: 1000,
                priority: Priority::Bulk,
                deadline: None,
            },
            TxRequest {
                arrival: SimTime::from_millis(1),
                bytes: 1000,
                priority: Priority::Critical,
                deadline: None,
            },
        ];
        let r = link.run(reqs, SchedPolicy::Fifo);
        // Bulk arrived first so it finishes first: its latency (1 ms) is
        // below critical's (1 ms service + 1 ms queue − 1 ms later arrival).
        assert!(r.latency_ms["bulk"].clone().p50() <= r.latency_ms["critical"].clone().p50());
    }
}
