//! Topology builders for the paper's deployment shapes.
//!
//! * [`MultiDcTopology`] — a mesh of data centers for the decentralized
//!   database experiments (§IV-E1): one coordinator node per DC, WAN links
//!   between DCs, plus `replicas_per_dc` LAN-attached replica nodes.
//! * [`DisaggTopology`] — the device–cloud–storage architecture of Fig. 7
//!   (§IV-E2): metaverse devices on cellular uplinks, a pool of cloud
//!   executors on a LAN, and storage servers reached over RDMA-class links.

use crate::link::{LinkClass, LinkSpec};
use crate::network::Network;
use mv_common::id::{IdGen, NodeId};
use mv_common::time::SimDuration;

/// A mesh of data centers with LAN-attached replicas.
#[derive(Debug)]
pub struct MultiDcTopology {
    /// The shared network.
    pub net: Network,
    /// One coordinator per DC.
    pub coordinators: Vec<NodeId>,
    /// `replicas[dc]` lists that DC's replica nodes.
    pub replicas: Vec<Vec<NodeId>>,
}

impl MultiDcTopology {
    /// Build `dcs` data centers, fully meshed with symmetric WAN links of
    /// the given one-way latency (bandwidth 1 Gb/s), each with
    /// `replicas_per_dc` replicas attached over LAN links.
    pub fn build(dcs: usize, replicas_per_dc: usize, inter_dc_latency: SimDuration) -> Self {
        let mut net = Network::new();
        let ids = IdGen::new();
        let wan = LinkSpec::new(inter_dc_latency, 125e6);
        let lan = LinkClass::Lan.spec();

        let mut coordinators = Vec::with_capacity(dcs);
        let mut replicas = Vec::with_capacity(dcs);
        for dc in 0..dcs {
            let coord: NodeId = ids.next();
            net.add_node(coord, "coordinator");
            net.set_group(coord, dc as u32).expect("just added");
            coordinators.push(coord);
            let mut reps = Vec::with_capacity(replicas_per_dc);
            for _ in 0..replicas_per_dc {
                let rep: NodeId = ids.next();
                net.add_node(rep, "replica");
                net.set_group(rep, dc as u32).expect("just added");
                net.add_link_bidi(coord, rep, lan);
                reps.push(rep);
            }
            replicas.push(reps);
        }
        for i in 0..dcs {
            for j in (i + 1)..dcs {
                net.add_link_bidi(coordinators[i], coordinators[j], wan);
            }
        }
        MultiDcTopology { net, coordinators, replicas }
    }
}

/// The device–cloud–storage disaggregation of Fig. 7.
#[derive(Debug)]
pub struct DisaggTopology {
    /// The shared network.
    pub net: Network,
    /// Metaverse devices (VR goggles, handsets) on cellular uplinks.
    pub devices: Vec<NodeId>,
    /// Cloud gateway/load-balancer node devices talk to.
    pub gateway: NodeId,
    /// Elastic transaction/query executors (cloud computing layer).
    pub executors: Vec<NodeId>,
    /// Storage-layer servers (KV/object/block stores).
    pub storage: Vec<NodeId>,
}

impl DisaggTopology {
    /// Build `devices` devices (5G uplinks), `executors` cloud executors
    /// (LAN behind the gateway), and `storage` storage servers (RDMA-class
    /// links from executors).
    pub fn build(devices: usize, executors: usize, storage: usize) -> Self {
        let mut net = Network::new();
        let ids = IdGen::new();
        let gateway: NodeId = ids.next();
        net.add_node(gateway, "gateway");

        let mut dev_ids = Vec::with_capacity(devices);
        for _ in 0..devices {
            let d: NodeId = ids.next();
            net.add_node(d, "device");
            net.add_link_bidi(d, gateway, LinkClass::Cellular5G.spec());
            dev_ids.push(d);
        }
        let mut exec_ids = Vec::with_capacity(executors);
        for _ in 0..executors {
            let e: NodeId = ids.next();
            net.add_node(e, "executor");
            net.add_link_bidi(e, gateway, LinkClass::Lan.spec());
            exec_ids.push(e);
        }
        let mut sto_ids = Vec::with_capacity(storage);
        for _ in 0..storage {
            let s: NodeId = ids.next();
            net.add_node(s, "storage");
            for &e in &exec_ids {
                net.add_link_bidi(e, s, LinkClass::Rdma.spec());
            }
            sto_ids.push(s);
        }
        DisaggTopology { net, devices: dev_ids, gateway, executors: exec_ids, storage: sto_ids }
    }

    /// The executor assigned to a device by static round-robin (a stand-in
    /// for the gateway's load balancing when no autoscaler is in play).
    pub fn executor_for(&self, device_idx: usize) -> NodeId {
        self.executors[device_idx % self.executors.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::seeded_rng;
    use mv_common::time::SimTime;

    #[test]
    fn multi_dc_mesh_latency() {
        let mut topo = MultiDcTopology::build(3, 2, SimDuration::from_millis(50));
        assert_eq!(topo.coordinators.len(), 3);
        // Coordinator-to-coordinator is one WAN hop.
        let lat = topo
            .net
            .path_latency(topo.coordinators[0], topo.coordinators[2])
            .unwrap();
        assert_eq!(lat, SimDuration::from_millis(50));
        // Replica in DC0 to replica in DC1: LAN + WAN + LAN.
        let lat = topo.net.path_latency(topo.replicas[0][0], topo.replicas[1][0]).unwrap();
        assert_eq!(lat.as_micros(), 50_000 + 2 * 100);
    }

    #[test]
    fn multi_dc_partition_isolates_dc() {
        let mut topo = MultiDcTopology::build(2, 1, SimDuration::from_millis(10));
        topo.net.sever(0, 1);
        let mut rng = seeded_rng(1);
        assert!(topo
            .net
            .transfer(topo.coordinators[0], topo.coordinators[1], 8, SimTime::ZERO, &mut rng)
            .is_err());
        // Intra-DC still works.
        assert!(topo
            .net
            .transfer(topo.coordinators[0], topo.replicas[0][0], 8, SimTime::ZERO, &mut rng)
            .is_ok());
    }

    #[test]
    fn disagg_layers_have_expected_cost_ordering() {
        let mut topo = DisaggTopology::build(4, 2, 2);
        // Device → executor crosses the cellular uplink; executor → storage
        // is RDMA-class. The former must dominate by orders of magnitude.
        let dev_exec = topo.net.path_latency(topo.devices[0], topo.executors[0]).unwrap();
        let exec_sto = topo.net.path_latency(topo.executors[0], topo.storage[0]).unwrap();
        assert!(dev_exec.as_micros() > 100 * exec_sto.as_micros());
    }

    #[test]
    fn round_robin_executor_assignment() {
        let topo = DisaggTopology::build(5, 2, 1);
        assert_eq!(topo.executor_for(0), topo.executors[0]);
        assert_eq!(topo.executor_for(1), topo.executors[1]);
        assert_eq!(topo.executor_for(2), topo.executors[0]);
    }
}
