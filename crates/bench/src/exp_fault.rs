//! E16 — fault injection and reliable delivery (§IV-C "disruptive
//! networks").
//!
//! A server pushes round-robin object updates to a client replica over
//! the reliable transport while a [`FaultPlan`] partitions the link.
//! Sweeping loss × partition duration measures the two quantities the
//! robustness story turns on: how far the replica diverges *during* the
//! fault (bounded by update rate × outage, not by luck) and how long
//! after the heal the transport's retransmissions need to reconverge the
//! replica to *exact* equality. Every cell is a pure function of its
//! seed — the determinism table runs one cell twice and compares the
//! full event-log hash.

use mv_common::hash::fx_hash_one;
use mv_common::id::{ClientId, NodeId, ObjectId};
use mv_common::seeded_rng;
use mv_common::table::{f2, n, Table};
use mv_common::time::{SimDuration, SimTime};
use mv_dissem::sched::Priority;
use mv_dissem::{PushServer, Replica};
use mv_net::{FaultPlan, FaultTarget, LinkSpec, Network, RetryPolicy, Sim};
use std::collections::BTreeMap;

const SERVER: NodeId = NodeId::new(0);
const CLIENT_NODE: NodeId = NodeId::new(1);
const CLIENT: ClientId = ClientId::new(1);
const OBJECTS: u64 = 8;
const TICK_MS: u64 = 10;
/// Partition opens here; updates flow until the heal.
const PARTITION_AT_MS: u64 = 1_000;
/// Convergence budget after the heal.
const TAIL_MS: u64 = 5_000;

struct World {
    net: Network,
    rng: rand::rngs::StdRng,
    ps: PushServer,
    replica: Replica,
    truth: BTreeMap<u64, f64>,
    tick: u64,
    heal_ms: u64,
    max_div_during_fault: f64,
    /// First post-heal millisecond at which the replica exactly equals
    /// the truth (and updates have stopped).
    reconverged_at_ms: Option<u64>,
    log: Vec<String>,
}

impl FaultTarget for World {
    fn fault_network(&mut self) -> &mut Network {
        &mut self.net
    }
}

impl World {
    fn new(seed: u64, loss: f64) -> Self {
        let mut net = Network::new();
        net.add_node(SERVER, "server");
        net.add_node(CLIENT_NODE, "client");
        net.add_link_bidi(
            SERVER,
            CLIENT_NODE,
            LinkSpec::new(SimDuration::from_millis(5), 1e8).with_loss(loss),
        );
        net.set_group(CLIENT_NODE, 1).unwrap();
        let mut ps = PushServer::new(SERVER, RetryPolicy::default(), seed, 64);
        ps.outbox.register(CLIENT, CLIENT_NODE);
        World {
            net,
            rng: seeded_rng(seed),
            ps,
            replica: Replica::new(),
            truth: BTreeMap::new(),
            tick: 0,
            heal_ms: 0,
            max_div_during_fault: 0.0,
            reconverged_at_ms: None,
            log: Vec::new(),
        }
    }

    fn update(&mut self, now: SimTime) {
        let obj = self.tick % OBJECTS;
        let value = self.tick as f64;
        self.tick += 1;
        self.truth.insert(obj, value);
        self.ps.push(
            &mut self.net,
            &mut self.rng,
            CLIENT,
            ObjectId::new(obj),
            value,
            Priority::Normal,
            now,
        );
    }

    fn divergence(&self) -> f64 {
        self.truth
            .iter()
            .map(|(&o, &v)| match self.replica.get(ObjectId::new(o)) {
                Some(r) => (v - r.value).abs(),
                None => v.abs(),
            })
            .fold(0.0, f64::max)
    }

    fn pump(&mut self, now: SimTime) {
        for (_client, msg) in self.ps.outbox.poll(&mut self.net, &mut self.rng, now) {
            if self.replica.accept(&msg) {
                self.log.push(format!("apply obj={} seq={}", msg.object.raw(), msg.seq));
            }
        }
        let ms = now.as_millis_f64() as u64;
        if (PARTITION_AT_MS..self.heal_ms).contains(&ms) {
            self.max_div_during_fault = self.max_div_during_fault.max(self.divergence());
        } else if ms >= self.heal_ms && self.reconverged_at_ms.is_none() && self.divergence() == 0.0
        {
            self.reconverged_at_ms = Some(ms);
        }
    }
}

struct CellResult {
    max_div: f64,
    reconverge_ms: Option<u64>,
    transport_stats: String,
    fault_counters: String,
    log_hash: u64,
}

/// Run one sweep cell: `loss` on the link, partition of `part_ms`.
fn run_cell(seed: u64, loss: f64, part_ms: u64) -> CellResult {
    let heal_ms = PARTITION_AT_MS + part_ms;
    let end_ms = heal_ms + TAIL_MS;
    let mut sim = Sim::new(World::new(seed, loss));
    sim.world.heal_ms = heal_ms;
    let sched = sim.scheduler();

    FaultPlan::new()
        .partition_between(0, 1, SimTime::from_millis(PARTITION_AT_MS), SimTime::from_millis(heal_ms))
        .install(sched);

    // Updates flow until the heal; the tail measures pure reconvergence.
    for ms in (0..heal_ms).step_by(TICK_MS as usize) {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.update(s.now()));
    }
    for ms in 0..=end_ms {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.pump(s.now()));
    }
    sim.run_to_completion();

    let w = &sim.world;
    let t = &w.ps.outbox.transport.stats;
    CellResult {
        max_div: w.max_div_during_fault,
        reconverge_ms: w.reconverged_at_ms.map(|at| at - heal_ms),
        transport_stats: format!(
            "sent={} retx={} expired={} dup={}",
            t.get("sent"),
            t.get("retransmits"),
            t.get("expired"),
            t.get("duplicates"),
        ),
        fault_counters: format!(
            "severed={} healed={}",
            w.net.stats.get("faults_severed"),
            w.net.stats.get("faults_healed"),
        ),
        log_hash: fx_hash_one(&w.log),
    }
}

/// Run E16: loss × partition-duration sweep + determinism check.
pub fn e16() -> Vec<Table> {
    let mut sweep = Table::new(
        "E16a: divergence during partition and reconvergence after heal \
         (8 objects, 1 update/10ms until heal, seed 16)",
        &["loss", "partition_ms", "max_div_ticks", "reconverge_ms", "transport", "faults"],
    );
    for &loss in &[0.0, 0.05, 0.2] {
        for &part_ms in &[500u64, 1_000, 2_000] {
            let r = run_cell(16, loss, part_ms);
            sweep.row(&[
                f2(loss),
                n(part_ms),
                f2(r.max_div),
                r.reconverge_ms.map_or("never".into(), n),
                r.transport_stats,
                r.fault_counters,
            ]);
        }
    }

    // Byte-reproducibility: the full apply-log of a lossy cell hashes
    // identically across runs of the same seed, and differs across seeds.
    let mut det = Table::new(
        "E16b: same-seed runs are byte-identical (loss 0.2, partition 1000 ms)",
        &["seed", "log_hash", "matches_rerun"],
    );
    for seed in [16u64, 17] {
        let first = run_cell(seed, 0.2, 1_000);
        let second = run_cell(seed, 0.2, 1_000);
        det.row(&[
            n(seed),
            format!("{:016x}", first.log_hash),
            (first.log_hash == second.log_hash).to_string(),
        ]);
    }

    vec![sweep, det]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_cells_reconverge_and_are_deterministic() {
        let r = run_cell(3, 0.2, 500);
        assert!(r.reconverge_ms.is_some(), "lossy cell must reconverge after heal");
        assert!(r.max_div > 0.0, "a partition must open a divergence gap");
        // ~50 ticks fit in a 500 ms partition; allow retransmission lag.
        assert!(r.max_div <= 110.0, "divergence bounded by update rate: {}", r.max_div);
        let again = run_cell(3, 0.2, 500);
        assert_eq!(r.log_hash, again.log_hash);
        assert_eq!(r.transport_stats, again.transport_stats);
    }
}
