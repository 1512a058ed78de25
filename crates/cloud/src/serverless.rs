//! Serverless executor pool simulation.
//!
//! Requests arrive on a virtual timeline; each runs for its execution
//! duration on a function instance. A request grabs the warm instance
//! that has been idle longest; if none exists, a new instance pays the
//! cold-start penalty (unless the instance cap queues it). Instances are
//! reclaimed after sitting idle past the keep-alive window. Billing is
//! per-busy-microsecond — "fine-grained pricing" per §IV-E3 — and the
//! report contrasts it against provisioning `peak_concurrency` servers
//! for the whole run.

use mv_common::metrics::Histogram;
use mv_common::time::{SimDuration, SimTime};

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct ServerlessPool {
    /// Cold-start penalty added to the first request on a new instance.
    pub cold_start: SimDuration,
    /// Idle window after which a warm instance is reclaimed.
    pub keep_alive: SimDuration,
    /// Optional cap on simultaneous instances (None = unbounded).
    pub max_instances: Option<usize>,
}

impl Default for ServerlessPool {
    fn default() -> Self {
        ServerlessPool {
            cold_start: SimDuration::from_millis(250),
            keep_alive: SimDuration::from_secs(60),
            max_instances: None,
        }
    }
}

/// One request: arrival time and execution duration.
pub(crate) type Request = (SimTime, SimDuration);

/// A workload: a list of requests (generators live in `mv-workloads`).
#[derive(Debug, Clone, Default)]
pub struct WorkloadSpec {
    /// The requests, any order.
    pub requests: Vec<Request>,
}

/// Run results.
#[derive(Debug)]
// lint:allow(dead-pub): exposed by `ServerlessPool::run`, which other crates use
pub struct ServerlessReport {
    /// End-to-end latency (queue + cold start + execution), ms.
    pub latency_ms: Histogram,
    /// Requests that paid a cold start.
    pub cold_starts: u64,
    /// Requests served warm.
    pub warm_starts: u64,
    /// Peak simultaneous instances.
    pub peak_instances: usize,
    /// Billed busy time (µs) across instances — the pay-per-use bill.
    pub busy_us: u64,
    /// Fixed-provisioning cost (µs): peak instances held for the whole
    /// makespan.
    pub fixed_provision_us: u64,
    /// Time of last completion.
    pub makespan: SimTime,
}

impl ServerlessReport {
    /// Pay-per-use bill as a fraction of fixed peak provisioning.
    pub fn cost_ratio(&self) -> f64 {
        if self.fixed_provision_us == 0 {
            0.0
        } else {
            self.busy_us as f64 / self.fixed_provision_us as f64
        }
    }

    /// Fraction of requests that paid a cold start.
    pub fn cold_fraction(&self) -> f64 {
        let total = self.cold_starts + self.warm_starts;
        if total == 0 {
            0.0
        } else {
            self.cold_starts as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Instance {
    /// When the instance finishes its current request (busy until then).
    free_at: SimTime,
}

impl ServerlessPool {
    /// Simulate the workload through the pool.
    pub fn run(&self, workload: &WorkloadSpec) -> ServerlessReport {
        let mut requests = workload.requests.clone();
        requests.sort_by_key(|&(t, d)| (t, d));
        let mut instances: Vec<Instance> = Vec::new();
        let mut report = ServerlessReport {
            latency_ms: Histogram::with_capacity(requests.len()),
            cold_starts: 0,
            warm_starts: 0,
            peak_instances: 0,
            busy_us: 0,
            fixed_provision_us: 0,
            makespan: SimTime::ZERO,
        };
        for (arrival, exec) in requests {
            // Reclaim instances idle past keep-alive.
            instances.retain(|inst| arrival.since(inst.free_at) <= self.keep_alive);
            // Prefer the warm instance free the longest (most likely to
            // be reclaimed next — keeps the fleet small).
            let warm_idx = instances
                .iter()
                .enumerate()
                .filter(|(_, inst)| inst.free_at <= arrival)
                .min_by_key(|(_, inst)| inst.free_at)
                .map(|(i, _)| i);
            let (start, cold) = match warm_idx {
                Some(i) => {
                    // Warm start, immediate.
                    let inst = &mut instances[i];
                    let start = arrival;
                    inst.free_at = start + exec;
                    (start, false)
                }
                None => {
                    let at_cap = self
                        .max_instances
                        .is_some_and(|cap| instances.len() >= cap);
                    if at_cap {
                        // Queue on the instance that frees earliest.
                        let inst = instances
                            .iter_mut()
                            .min_by_key(|inst| inst.free_at)
                            .expect("cap > 0 implies instances exist");
                        let start = inst.free_at.max(arrival);
                        inst.free_at = start + exec;
                        (start, false)
                    } else {
                        // Cold start a new instance.
                        let start = arrival + self.cold_start;
                        instances.push(Instance { free_at: start + exec });
                        (start, true)
                    }
                }
            };
            if cold {
                report.cold_starts += 1;
                report.busy_us += self.cold_start.as_micros();
            } else {
                report.warm_starts += 1;
            }
            report.busy_us += exec.as_micros();
            let finish = start + exec;
            report.latency_ms.record(finish.since(arrival).as_millis_f64());
            report.makespan = report.makespan.max(finish);
            report.peak_instances = report.peak_instances.max(instances.len());
        }
        report.fixed_provision_us =
            report.peak_instances as u64 * report.makespan.as_micros();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn first_request_pays_cold_start() {
        let pool = ServerlessPool { cold_start: ms(100), ..Default::default() };
        let r = pool.run(&WorkloadSpec { requests: vec![(at(0), ms(10))] });
        assert_eq!(r.cold_starts, 1);
        let mut lat = r.latency_ms;
        assert_eq!(lat.p50(), 110.0);
    }

    #[test]
    fn sequential_requests_reuse_warm_instance() {
        let pool = ServerlessPool { cold_start: ms(100), keep_alive: ms(1000), ..Default::default() };
        let reqs = (0..10).map(|i| (at(200 * i), ms(10))).collect();
        let r = pool.run(&WorkloadSpec { requests: reqs });
        assert_eq!(r.cold_starts, 1);
        assert_eq!(r.warm_starts, 9);
        assert_eq!(r.peak_instances, 1);
    }

    #[test]
    fn keep_alive_expiry_forces_new_cold_start() {
        let pool = ServerlessPool { cold_start: ms(100), keep_alive: ms(50), ..Default::default() };
        let r = pool.run(&WorkloadSpec {
            requests: vec![(at(0), ms(10)), (at(1000), ms(10))],
        });
        assert_eq!(r.cold_starts, 2);
    }

    #[test]
    fn burst_scales_out_then_bills_less_than_peak() {
        let pool = ServerlessPool { cold_start: ms(50), keep_alive: ms(500), ..Default::default() };
        // 100 simultaneous requests, then a long quiet tail request.
        let mut reqs: Vec<Request> = (0..100).map(|_| (at(0), ms(20))).collect();
        reqs.push((at(10_000), ms(20)));
        let r = pool.run(&WorkloadSpec { requests: reqs });
        assert_eq!(r.peak_instances, 100);
        // Pay-per-use bill ≪ holding 100 instances for 10 s.
        assert!(r.cost_ratio() < 0.02, "cost ratio {}", r.cost_ratio());
    }

    #[test]
    fn instance_cap_queues_instead_of_scaling() {
        let pool = ServerlessPool {
            cold_start: ms(0),
            keep_alive: ms(10_000),
            max_instances: Some(2),
        };
        let reqs: Vec<Request> = (0..6).map(|_| (at(0), ms(10))).collect();
        let r = pool.run(&WorkloadSpec { requests: reqs });
        assert_eq!(r.peak_instances, 2);
        // Third wave of requests waits 2 service times.
        let mut lat = r.latency_ms;
        assert_eq!(lat.quantile(1.0), 30.0);
    }

    #[test]
    fn empty_workload() {
        let pool = ServerlessPool::default();
        let r = pool.run(&WorkloadSpec::default());
        assert_eq!(r.cold_starts + r.warm_starts, 0);
        assert_eq!(r.cost_ratio(), 0.0);
    }
}
