//! E3/E4 — coherency-bounded dissemination and transmission scheduling
//! (§IV-C).
//!
//! E3 claims: (a) incoherency bounds and LOD degradation cut bandwidth
//! dramatically vs. push-everything; (b) unlike the prior work the paper
//! cites ("assume a small number of distinct objects"), per-object
//! filtering scales to 100k objects with flat per-update cost.
//! E4 claims: priority/deadline scheduling delivers critical data first.

use mv_common::id::{ClientId, ObjectId};
use mv_common::sample::normal_sample;
use mv_common::seeded_rng;
use mv_common::table::{f2, n, pct, speedup, Table};
use mv_common::time::SimTime;
use mv_dissem::payload::MediaResolution;
use mv_dissem::{
    Bound, CoherencyServer, DeltaCodec, LinkScheduler, OutMsg, Priority, SchedPolicy, TxRequest,
};
use mv_net::Retention;

/// Run E3: bound sweep, object-count scaling, delta/LOD payload savings.
pub fn e3() -> Vec<Table> {
    let mut rng = seeded_rng(31);

    // E3a: bound sweep on 1k objects / 20 clients, random walks.
    let mut bound_t = Table::new(
        "E3a: incoherency bound vs. push traffic (1k objects, 20 subscribers each, 100 updates/object)",
        &["bound", "updates", "pushes", "suppressed", "push_ratio"],
    );
    for bound in [Bound::Exact, Bound::Absolute(0.5), Bound::Absolute(2.0), Bound::Absolute(8.0)] {
        let mut server = CoherencyServer::new();
        for obj in 0..1_000u64 {
            for c in 0..20u64 {
                server.subscribe(ClientId::new(c), ObjectId::new(obj), bound);
            }
        }
        let mut walks = vec![0.0f64; 1_000];
        for _ in 0..100 {
            for (obj, w) in walks.iter_mut().enumerate() {
                *w += normal_sample(&mut rng, 0.0, 1.0);
                server.update(ObjectId::new(obj as u64), *w);
            }
        }
        let pushes = server.stats.get("pushes");
        let suppressed = server.stats.get("suppressed");
        bound_t.row(&[
            format!("{bound:?}"),
            n(server.stats.get("updates")),
            n(pushes),
            n(suppressed),
            pct(pushes as f64 / (pushes + suppressed) as f64),
        ]);
    }

    // E3b: object-count scaling — per-update cost must stay flat.
    let mut scale_t = Table::new(
        "E3b: per-object filtering scales with object count (bound 2.0, 1 subscriber)",
        &["objects", "updates", "wall_ms", "ns_per_update"],
    );
    for &objects in &[10_000usize, 50_000, 100_000] {
        let mut server = CoherencyServer::new();
        for obj in 0..objects as u64 {
            server.subscribe(ClientId::new(0), ObjectId::new(obj), Bound::Absolute(2.0));
        }
        let mut walks = vec![0.0f64; objects];
        let start = std::time::Instant::now();
        for _ in 0..10 {
            for (obj, w) in walks.iter_mut().enumerate() {
                *w += normal_sample(&mut rng, 0.0, 1.0);
                server.update(ObjectId::new(obj as u64), *w);
            }
        }
        let wall = start.elapsed();
        let updates = objects as u64 * 10;
        scale_t.row(&[
            n(objects as u64),
            n(updates),
            f2(wall.as_secs_f64() * 1000.0),
            f2(wall.as_nanos() as f64 / updates as f64),
        ]);
    }

    // E3c: delta encoding + media degradation.
    let mut payload_t = Table::new(
        "E3c: payload reduction — delta encoding and media LOD",
        &["mechanism", "full_bytes", "sent_bytes", "saving"],
    );
    {
        let mut codec = DeltaCodec::new();
        let mut state = vec![0.0f64; 64];
        for round in 0..200 {
            // A pose vector where only a few joints move per frame.
            for j in 0..4 {
                state[(round * 7 + j * 13) % 64] += 0.1;
            }
            codec.encode(1, &state);
        }
        payload_t.row(&[
            "delta encoding (64-dim pose, 4 joints/frame)".into(),
            n(codec.full_bytes),
            n(codec.sent_bytes),
            pct(codec.savings()),
        ]);
    }
    {
        // 100 clients stream 1 media object; bandwidth classes force LOD.
        let high_bps = 1_000_000u64;
        let budgets = [2_000_000u64, 150_000, 8_000];
        let mut full = 0u64;
        let mut sent = 0u64;
        for (i, &b) in budgets.iter().cycle().take(99).enumerate() {
            let _ = i;
            let res = MediaResolution::fit(high_bps, b);
            full += high_bps;
            sent += res.bytes_per_sec(high_bps);
        }
        payload_t.row(&[
            "media LOD (3 bandwidth classes)".into(),
            n(full),
            n(sent),
            pct(1.0 - sent as f64 / full as f64),
        ]);
    }
    vec![bound_t, scale_t, payload_t]
}

/// Run E4: transmission scheduling policies under a bulk burst.
pub fn e4() -> Vec<Table> {
    let mut t = Table::new(
        "E4: uplink scheduling — critical latency and deadline misses (1 MB/s link, bulk burst + critical trickle)",
        &["policy", "critical_p50_ms", "critical_p99_ms", "bulk_p50_ms", "deadline_misses", "critical_speedup_vs_fifo"],
    );
    let link = LinkScheduler::new(1e6);
    let mk = || {
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            reqs.push(TxRequest {
                arrival: SimTime::from_millis(i / 4),
                bytes: 100_000,
                priority: Priority::Bulk,
                deadline: None,
            });
        }
        for i in 0..40u64 {
            reqs.push(TxRequest {
                arrival: SimTime::from_millis(i * 2),
                bytes: 2_000,
                priority: Priority::Critical,
                deadline: Some(SimTime::from_millis(i * 2 + 60)),
            });
        }
        reqs
    };
    let fifo_crit_p50 = {
        let mut r = link.run(mk(), SchedPolicy::Fifo);
        r.latency_ms.get_mut("critical").expect("class").p50()
    };
    for policy in SchedPolicy::ALL {
        let mut r = link.run(mk(), policy);
        let crit = r.latency_ms.get_mut("critical").expect("class").clone();
        let mut crit = crit;
        let mut bulk = r.latency_ms.get_mut("bulk").expect("class").clone();
        t.row(&[
            policy.name().into(),
            f2(crit.p50()),
            f2(crit.p99()),
            f2(bulk.p50()),
            n(r.deadline_misses),
            speedup(fifo_crit_p50 / crit.p50().max(1e-9)),
        ]);
    }
    // A scheduling aside: ICeDB-style resume merging accounting.
    let mut resume_t = Table::new(
        "E4b: disruption-tolerant outbox — newest-value merging on reconnect",
        &["updates_while_offline", "objects", "replayed_msgs", "msgs_saved"],
    );
    for &(updates, objects) in &[(1_000u64, 100u64), (10_000, 100), (10_000, 1_000)] {
        let mut outbox = Retention::new();
        let c = ClientId::new(1);
        outbox.register(c);
        outbox.disconnect(c);
        for i in 0..updates {
            let (object, value) = (ObjectId::new(i % objects), i as f64);
            let msg = OutMsg { object, value, priority: Priority::Normal, seq: i + 1, ctx: None };
            outbox.offer(c, msg);
        }
        let replay = outbox.reconnect(c).len() as u64;
        resume_t.row(&[
            n(updates),
            n(objects),
            n(replay),
            pct(1.0 - replay as f64 / updates as f64),
        ]);
    }
    vec![t, resume_t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_strict_priority_beats_fifo_for_critical() {
        let tables = super::e4();
        let rendered = tables[0].render();
        assert!(rendered.contains("strict-priority"));
    }

    #[test]
    fn sched_policy_all_len() {
        assert_eq!(super::SchedPolicy::ALL.len(), 4);
    }
}
