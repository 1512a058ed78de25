//! Distributed commit over multi-DC topologies: 2PC vs. single-round.
//!
//! The simulation issues transactions whose keys are partitioned across
//! data centers. Commit latency is computed from the topology's actual
//! link latencies:
//!
//! * **Two-phase commit** — client → coordinator, then two sequential
//!   rounds (PREPARE, COMMIT) each bounded by the farthest participant's
//!   round trip.
//! * **Single-round** (Carousel-style, the paper's reference \[86\]) — the
//!   client fans the transaction out to all participants directly; each
//!   participant votes in one round, overlapping the consensus with the
//!   data round. One wide-area round trip total.
//!
//! Contention is modelled with per-key locks held for the transaction's
//! in-flight window: overlapping writers of the same key abort-and-count.
//! E6 sweeps inter-DC RTT and contention.

use mv_common::hash::FastMap;
use mv_common::metrics::Histogram;
use mv_common::sample::{exp_sample, Zipf};
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_net::topology::MultiDcTopology;
use rand::Rng;

/// Which commit protocol to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitProtocol {
    /// Coordinator-driven two-phase commit (two WAN rounds).
    TwoPhase,
    /// Carousel-style single-round commit (one WAN round).
    SingleRound,
}

impl CommitProtocol {
    /// All protocols.
    pub const ALL: [CommitProtocol; 2] = [CommitProtocol::TwoPhase, CommitProtocol::SingleRound];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CommitProtocol::TwoPhase => "2pc",
            CommitProtocol::SingleRound => "single-round",
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Data centers.
    pub dcs: usize,
    /// One-way inter-DC latency.
    pub inter_dc_latency: SimDuration,
    /// Total transactions to run.
    pub txns: usize,
    /// Mean inter-arrival time of transactions (µs).
    pub mean_interarrival_us: f64,
    /// Keys in the database.
    pub keys: usize,
    /// Zipf skew of key popularity (contention knob).
    pub zipf_alpha: f64,
    /// Keys written per transaction.
    pub keys_per_txn: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            dcs: 3,
            inter_dc_latency: SimDuration::from_millis(40),
            txns: 2000,
            mean_interarrival_us: 500.0,
            keys: 10_000,
            zipf_alpha: 0.8,
            keys_per_txn: 3,
            seed: 1,
        }
    }
}

/// Results of one run.
#[derive(Debug)]
// lint:allow(dead-pub): returned by `DistributedSim::run`, which other crates call
pub struct TxnReport {
    /// Commit latency (ms) of committed transactions.
    pub latency_ms: Histogram,
    /// Committed count.
    pub committed: u64,
    /// Aborted count (lock conflicts).
    pub aborted: u64,
    /// Total offered transactions.
    pub offered: u64,
}

impl TxnReport {
    /// Abort fraction.
    pub fn abort_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.aborted as f64 / self.offered as f64
        }
    }
}

/// The simulator.
pub struct DistributedSim {
    params: SimParams,
}

impl DistributedSim {
    /// Create with parameters.
    pub fn new(params: SimParams) -> Self {
        assert!(params.dcs >= 1 && params.keys >= params.keys_per_txn && params.keys_per_txn >= 1);
        DistributedSim { params }
    }

    /// Commit latency of a transaction from `client_dc` touching
    /// `participant_dcs`, under `protocol`, on `topo`.
    pub fn commit_latency(
        topo: &mut MultiDcTopology,
        protocol: CommitProtocol,
        client_dc: usize,
        participant_dcs: &[usize],
    ) -> SimDuration {
        let coords = topo.coordinators.clone();
        let one_way = |topo: &mut MultiDcTopology, a: usize, b: usize| -> SimDuration {
            if a == b {
                // Intra-DC hop (client to its local coordinator).
                SimDuration::from_micros(200)
            } else {
                topo.net.path_latency(coords[a], coords[b]).expect("mesh is connected")
            }
        };
        match protocol {
            CommitProtocol::TwoPhase => {
                // Client → coordinator (local), then PREPARE and COMMIT
                // rounds, each gated by the farthest participant.
                let farthest = participant_dcs
                    .iter()
                    .map(|&p| one_way(topo, client_dc, p).as_micros())
                    .max()
                    .unwrap_or(0);
                let round = SimDuration::from_micros(2 * farthest);
                SimDuration::from_micros(200) + round + round
            }
            CommitProtocol::SingleRound => {
                // Client fans out directly; one round to the farthest
                // participant, votes return in the same round.
                let farthest = participant_dcs
                    .iter()
                    .map(|&p| one_way(topo, client_dc, p).as_micros())
                    .max()
                    .unwrap_or(0);
                SimDuration::from_micros(200 + 2 * farthest)
            }
        }
    }

    /// Run the contention + latency simulation.
    pub fn run(&self, protocol: CommitProtocol) -> TxnReport {
        let p = &self.params;
        let mut topo = MultiDcTopology::build(p.dcs, 0, p.inter_dc_latency);
        let mut rng = seeded_rng(p.seed);
        let zipf = Zipf::new(p.keys, p.zipf_alpha);

        // Per-key lock release time: a writer holds its keys while the
        // commit is in flight.
        let mut lock_until: FastMap<usize, SimTime> = FastMap::default();
        let mut report = TxnReport {
            latency_ms: Histogram::with_capacity(p.txns),
            committed: 0,
            aborted: 0,
            offered: p.txns as u64,
        };
        let mut now_us = 0.0f64;
        for _ in 0..p.txns {
            now_us += exp_sample(&mut rng, p.mean_interarrival_us);
            let start = SimTime::from_micros(now_us as u64);
            // Pick distinct keys.
            let mut keys = Vec::with_capacity(p.keys_per_txn);
            while keys.len() < p.keys_per_txn {
                let k = zipf.sample(&mut rng);
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            let client_dc = rng.gen_range(0..p.dcs);
            let participant_dcs: Vec<usize> =
                keys.iter().map(|k| k % p.dcs).collect();
            let latency =
                Self::commit_latency(&mut topo, protocol, client_dc, &participant_dcs);
            let finish = start + latency;
            // Lock check: any key still locked by an in-flight writer?
            let conflicted = keys.iter().any(|k| {
                lock_until.get(k).is_some_and(|&until| until > start)
            });
            if conflicted {
                report.aborted += 1;
                continue;
            }
            for &k in &keys {
                lock_until.insert(k, finish);
            }
            report.committed += 1;
            report.latency_ms.record(latency.as_millis_f64());
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_round_halves_wan_latency() {
        let mut topo = MultiDcTopology::build(3, 0, SimDuration::from_millis(50));
        let two_pc =
            DistributedSim::commit_latency(&mut topo, CommitProtocol::TwoPhase, 0, &[1, 2]);
        let single =
            DistributedSim::commit_latency(&mut topo, CommitProtocol::SingleRound, 0, &[1, 2]);
        // 2PC ≈ 2 rounds of 100 ms; single ≈ 1 round.
        assert!(two_pc.as_millis_f64() > 190.0, "2pc {two_pc}");
        assert!(single.as_millis_f64() < 110.0, "single {single}");
        assert!(two_pc.as_micros() > 2 * single.as_micros() - 1000);
    }

    #[test]
    fn local_transactions_are_fast_under_both() {
        let mut topo = MultiDcTopology::build(3, 0, SimDuration::from_millis(50));
        for proto in CommitProtocol::ALL {
            let lat = DistributedSim::commit_latency(&mut topo, proto, 1, &[1]);
            assert!(lat.as_millis_f64() < 2.0, "{}: {lat}", proto.name());
        }
    }

    #[test]
    fn simulation_commits_most_transactions_at_low_contention() {
        let sim = DistributedSim::new(SimParams {
            zipf_alpha: 0.0, // uniform over a wide key space: negligible contention
            keys: 200_000,
            mean_interarrival_us: 2_000.0,
            ..Default::default()
        });
        let r = sim.run(CommitProtocol::SingleRound);
        assert_eq!(r.offered, 2000);
        assert!(r.abort_rate() < 0.05, "abort rate {}", r.abort_rate());
        assert!(r.latency_ms.mean() > 0.0);
    }

    #[test]
    fn contention_and_protocol_interact() {
        // Under skew, the longer 2PC window holds locks longer → more
        // aborts than single-round at the same offered load.
        let params = SimParams { zipf_alpha: 1.2, keys: 200, ..Default::default() };
        let sim = DistributedSim::new(params);
        let two_pc = sim.run(CommitProtocol::TwoPhase);
        let single = sim.run(CommitProtocol::SingleRound);
        assert!(
            single.abort_rate() < two_pc.abort_rate(),
            "single {} vs 2pc {}",
            single.abort_rate(),
            two_pc.abort_rate()
        );
        // And single-round is faster on committed latency.
        let mut s = single.latency_ms;
        let mut t = two_pc.latency_ms;
        assert!(s.p50() < t.p50());
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = DistributedSim::new(SimParams::default());
        let a = sim.run(CommitProtocol::TwoPhase);
        let b = sim.run(CommitProtocol::TwoPhase);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborted, b.aborted);
    }
}
