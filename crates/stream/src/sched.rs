//! Multi-query QoS scheduling.
//!
//! §IV-C: *"it may also be necessary to develop techniques to schedule
//! multiple (continuous) queries that meet different Quality of Service
//! (QoS) metrics. While techniques developed in \[69\] provided some
//! insights…"*. Reference \[69\] is Sharaf et al., "Algorithms and metrics
//! for processing multiple heterogeneous continuous queries" (TODS'08).
//!
//! This module simulates a single-core continuous-query executor serving
//! many registered queries whose input batches arrive over virtual time,
//! under five policies. Metrics follow Sharaf et al.: per-batch *response
//! time* (finish − arrival) and per-query *output staleness* (gap between
//! consecutive outputs), plus deadline misses for deadline-bearing
//! queries. Experiment E14 sweeps these policies.

use mv_common::metrics::Histogram;
use mv_common::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A registered continuous query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Processing cost of one input batch.
    pub cost: SimDuration,
    /// QoS weight (freshness-weighted policy favours high weights).
    pub weight: f64,
    /// Optional relative deadline for each batch.
    pub deadline: Option<SimDuration>,
}

impl QuerySpec {
    /// A plain query with unit weight and no deadline.
    pub fn new(cost: SimDuration) -> Self {
        QuerySpec { cost, weight: 1.0, deadline: None }
    }

    /// Builder: set weight.
    pub fn with_weight(mut self, w: f64) -> Self {
        self.weight = w;
        self
    }

    /// Builder: set relative deadline.
    pub fn with_deadline(mut self, d: SimDuration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First come, first served across all queries.
    Fcfs,
    /// Round-robin over queries with pending work.
    RoundRobin,
    /// Shortest (per-batch) job first.
    Sjf,
    /// Earliest deadline first (queries without deadlines sort last).
    Edf,
    /// Serve the query with the greatest `weight × staleness`.
    FreshnessWeighted,
}

impl Policy {
    /// All policies, for sweeps.
    pub const ALL: [Policy; 5] =
        [Policy::Fcfs, Policy::RoundRobin, Policy::Sjf, Policy::Edf, Policy::FreshnessWeighted];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::RoundRobin => "round-robin",
            Policy::Sjf => "sjf",
            Policy::Edf => "edf",
            Policy::FreshnessWeighted => "freshness",
        }
    }
}

/// Results of one scheduling run.
#[derive(Debug)]
// lint:allow(dead-pub): returned by `MultiQueryScheduler::run`, which other crates call
pub struct SchedReport {
    /// Batch response times, milliseconds.
    pub response_ms: Histogram,
    /// Output staleness samples (gap between consecutive outputs of the
    /// same query), milliseconds.
    pub staleness_ms: Histogram,
    /// Batches that finished after their deadline.
    pub deadline_misses: u64,
    /// Total batches processed.
    pub batches: u64,
    /// Virtual time when the last batch finished.
    pub makespan: SimTime,
}

/// The multi-query executor simulation.
#[derive(Debug)]
pub struct MultiQueryScheduler {
    specs: Vec<QuerySpec>,
}

impl MultiQueryScheduler {
    /// Create an executor serving the given queries.
    pub fn new(specs: Vec<QuerySpec>) -> Self {
        assert!(!specs.is_empty(), "no queries registered");
        MultiQueryScheduler { specs }
    }

    /// Run the simulation: `arrivals` is a list of `(time, query_index)`
    /// batch arrivals (need not be sorted). Returns the QoS report.
    pub fn run(&self, mut arrivals: Vec<(SimTime, usize)>, policy: Policy) -> SchedReport {
        for &(_, q) in &arrivals {
            assert!(q < self.specs.len(), "arrival for unknown query {q}");
        }
        arrivals.sort_by_key(|&(t, q)| (t, q));
        let n = self.specs.len();
        let mut pending: Vec<VecDeque<SimTime>> = vec![VecDeque::new(); n];
        let mut last_output: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut next_arrival = 0usize;
        let mut now = SimTime::ZERO;
        let mut rr_cursor = 0usize;

        let mut report = SchedReport {
            response_ms: Histogram::new(),
            staleness_ms: Histogram::new(),
            deadline_misses: 0,
            batches: 0,
            makespan: SimTime::ZERO,
        };

        loop {
            // Admit everything that has arrived by `now`.
            while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
                let (t, q) = arrivals[next_arrival];
                pending[q].push_back(t);
                next_arrival += 1;
            }
            let any_pending = pending.iter().any(|p| !p.is_empty());
            if !any_pending {
                if next_arrival >= arrivals.len() {
                    break; // done
                }
                // Idle until the next arrival.
                now = arrivals[next_arrival].0;
                continue;
            }
            // Pick a query per policy.
            let q = self.pick(policy, &pending, &last_output, now, &mut rr_cursor);
            let arrival = pending[q].pop_front().expect("picked query has work");
            let finish = now.max(arrival) + self.specs[q].cost;
            report.batches += 1;
            report.response_ms.record(finish.since(arrival).as_millis_f64());
            report.staleness_ms.record(finish.since(last_output[q]).as_millis_f64());
            if let Some(d) = self.specs[q].deadline {
                if finish > arrival + d {
                    report.deadline_misses += 1;
                }
            }
            last_output[q] = finish;
            now = finish;
            report.makespan = finish;
        }
        report
    }

    fn pick(
        &self,
        policy: Policy,
        pending: &[VecDeque<SimTime>],
        last_output: &[SimTime],
        now: SimTime,
        rr_cursor: &mut usize,
    ) -> usize {
        let candidates: Vec<usize> =
            (0..pending.len()).filter(|&q| !pending[q].is_empty()).collect();
        debug_assert!(!candidates.is_empty());
        match policy {
            Policy::Fcfs => candidates
                .into_iter()
                .min_by_key(|&q| (pending[q][0], q))
                .expect("nonempty"),
            Policy::RoundRobin => {
                let n = pending.len();
                for step in 0..n {
                    let q = (*rr_cursor + step) % n;
                    if !pending[q].is_empty() {
                        *rr_cursor = (q + 1) % n;
                        return q;
                    }
                }
                unreachable!("candidates nonempty")
            }
            Policy::Sjf => candidates
                .into_iter()
                .min_by_key(|&q| (self.specs[q].cost, q))
                .expect("nonempty"),
            Policy::Edf => candidates
                .into_iter()
                .min_by_key(|&q| {
                    let dl = match self.specs[q].deadline {
                        Some(d) => pending[q][0] + d,
                        None => SimTime::MAX,
                    };
                    (dl, q)
                })
                .expect("nonempty"),
            Policy::FreshnessWeighted => candidates
                .into_iter()
                .max_by(|&a, &b| {
                    let sa = self.specs[a].weight * now.since(last_output[a]).as_millis_f64();
                    let sb = self.specs[b].weight * now.since(last_output[b]).as_millis_f64();
                    sa.total_cmp(&sb).then(b.cmp(&a))
                })
                .expect("nonempty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::sample::exp_sample;
    use mv_common::seeded_rng;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// Heavy-tailed mixed workload: one slow query, several fast ones.
    fn mixed_arrivals() -> (Vec<QuerySpec>, Vec<(SimTime, usize)>) {
        let specs = vec![
            QuerySpec::new(ms(50)),
            QuerySpec::new(ms(2)),
            QuerySpec::new(ms(2)),
            QuerySpec::new(ms(2)),
        ];
        let mut rng = seeded_rng(31);
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        for i in 0..400 {
            t += exp_sample(&mut rng, 15.0); // ~66 batches/sec vs capacity
            arrivals.push((SimTime::from_micros((t * 1000.0) as u64), i % 4));
        }
        (specs, arrivals)
    }

    #[test]
    fn all_policies_process_every_batch() {
        let (specs, arrivals) = mixed_arrivals();
        let sched = MultiQueryScheduler::new(specs);
        for p in Policy::ALL {
            let r = sched.run(arrivals.clone(), p);
            assert_eq!(r.batches, 400, "{}", p.name());
            assert!(r.makespan > SimTime::ZERO);
        }
    }

    #[test]
    fn identical_work_makes_identical_makespan() {
        // Total busy time is policy-independent.
        let (specs, arrivals) = mixed_arrivals();
        let sched = MultiQueryScheduler::new(specs);
        let spans: Vec<u64> = Policy::ALL
            .iter()
            .map(|&p| sched.run(arrivals.clone(), p).makespan.as_micros())
            .collect();
        // Makespan can differ slightly only due to idle gaps; with a
        // saturated tail they should coincide.
        let mx = *spans.iter().max().unwrap();
        let mn = *spans.iter().min().unwrap();
        assert!(mx - mn < 100_000, "spans {spans:?}");
    }

    #[test]
    fn sjf_beats_fcfs_on_mean_response_with_heavy_tails() {
        let (specs, arrivals) = mixed_arrivals();
        let sched = MultiQueryScheduler::new(specs);
        let fcfs = sched.run(arrivals.clone(), Policy::Fcfs);
        let sjf = sched.run(arrivals, Policy::Sjf);
        assert!(
            sjf.response_ms.mean() < fcfs.response_ms.mean(),
            "sjf {} vs fcfs {}",
            sjf.response_ms.mean(),
            fcfs.response_ms.mean()
        );
    }

    #[test]
    fn edf_reduces_deadline_misses() {
        // One urgent query with a tight deadline competing with bulk work.
        let specs = vec![
            QuerySpec::new(ms(5)).with_deadline(ms(20)),
            QuerySpec::new(ms(30)),
            QuerySpec::new(ms(30)),
        ];
        let mut arrivals = Vec::new();
        for i in 0..60u64 {
            arrivals.push((SimTime::from_millis(i * 20), 0));
            if i % 2 == 0 {
                arrivals.push((SimTime::from_millis(i * 20), 1));
                arrivals.push((SimTime::from_millis(i * 20 + 1), 2));
            }
        }
        let sched = MultiQueryScheduler::new(specs);
        let fcfs = sched.run(arrivals.clone(), Policy::Fcfs);
        let edf = sched.run(arrivals, Policy::Edf);
        assert!(
            edf.deadline_misses < fcfs.deadline_misses,
            "edf {} vs fcfs {}",
            edf.deadline_misses,
            fcfs.deadline_misses
        );
    }

    #[test]
    fn freshness_policy_prefers_heavy_weights() {
        // Two identical queries, one with 10x weight; under saturation the
        // weighted one should show lower staleness.
        let specs = vec![
            QuerySpec::new(ms(10)).with_weight(10.0),
            QuerySpec::new(ms(10)).with_weight(1.0),
        ];
        let mut arrivals = Vec::new();
        for i in 0..200u64 {
            arrivals.push((SimTime::from_millis(i * 9), (i % 2) as usize));
        }
        let sched = MultiQueryScheduler::new(specs);
        let r = sched.run(arrivals, Policy::FreshnessWeighted);
        assert_eq!(r.batches, 200);
        // Not directly separable from the aggregate histogram; this test
        // just pins down that the policy runs to completion and keeps
        // staleness bounded.
        let mut st = r.staleness_ms.clone();
        assert!(st.p99() < 2000.0, "p99 staleness {}", st.p99());
    }

    #[test]
    fn rr_cycles_fairly() {
        let specs = vec![QuerySpec::new(ms(1)); 3];
        // All arrive at t=0; RR must process 0,1,2,0,1,2…
        let arrivals: Vec<(SimTime, usize)> =
            (0..9).map(|i| (SimTime::ZERO, i % 3)).collect();
        let sched = MultiQueryScheduler::new(specs);
        let r = sched.run(arrivals, Policy::RoundRobin);
        assert_eq!(r.batches, 9);
        // With equal costs and simultaneous arrivals every query's k-th
        // output lands at 3k+offset ms — mean staleness must equal 3 ms
        // steady-state; just sanity-check the mean is below FCFS-worst.
        assert!(r.staleness_ms.mean() <= 4.0);
    }

    #[test]
    #[should_panic(expected = "unknown query")]
    fn arrival_for_unknown_query_panics() {
        let sched = MultiQueryScheduler::new(vec![QuerySpec::new(ms(1))]);
        sched.run(vec![(SimTime::ZERO, 5)], Policy::Fcfs);
    }
}
