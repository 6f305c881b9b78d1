//! Ablation A6 — sensitivity to the interconnect generation.
//!
//! The paper's testbed uses HCCS; deployments will see CXL switches
//! with higher latencies. This ablation reruns the Figure 4 SET path on
//! three fabric models — HCCS-like, CXL-2.0-switched, and a hypothetical
//! fully-coherent uniform machine — against the *same* TCP baseline, to
//! show where the shared-memory advantage erodes and what an ideal
//! coherent fabric would buy.

use flacdk::alloc::GlobalAllocator;
use flacos_ipc::channel::FlacChannel;
use flacos_ipc::netstack::{NetConfig, NetPair};
use rack_sim::{LatencyModel, Rack, RackConfig, RackReport};
use redis_mini::client::{request_stepped, RedisClient};
use redis_mini::resp::Command;
use redis_mini::server::RedisServer;
use redis_mini::transport::Transport;

/// A named latency-model constructor.
pub type FabricModel = (&'static str, fn() -> LatencyModel);

/// Fabrics under comparison.
pub const FABRICS: [FabricModel; 3] = [
    ("hccs", LatencyModel::hccs),
    ("cxl-switched", LatencyModel::cxl_switched),
    ("uniform-coherent", LatencyModel::uniform_coherent),
];

/// One measured fabric point.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRow {
    /// Fabric label.
    pub fabric: &'static str,
    /// Request value size.
    pub size: usize,
    /// Redis SET latency over FlacOS IPC on this fabric (simulated ns).
    pub flacos_ns: u64,
    /// Redis SET latency over TCP (fabric-independent baseline).
    pub networking_ns: u64,
}

impl FabricRow {
    /// Latency reduction over networking.
    pub fn speedup(&self) -> f64 {
        self.networking_ns as f64 / self.flacos_ns.max(1) as f64
    }
}

/// Mean latency of `requests` Redis SETs of `size`-byte values from a
/// client on node 1 to a server on node 0, over the server endpoint
/// `sep` and the client endpoint `cep`.
fn measure_set<T: Transport>(rack: &Rack, (sep, cep): (T, T), size: usize, requests: usize) -> u64 {
    let cmd = Command::Set {
        key: b"k".to_vec(),
        value: vec![1u8; size],
    };
    let mut server = RedisServer::new(rack.node(0), sep);
    let mut client = RedisClient::new(rack.node(1), cep);
    let total: u64 = (0..requests)
        .map(|_| {
            request_stepped(&mut client, &mut server, &cmd)
                .expect("req")
                .1
        })
        .sum();
    total / requests as u64
}

/// Run the fabric sweep with `requests` SETs per cell, with the
/// rack-wide metrics of the HCCS 4 KiB FlacOS cell: operation counts
/// and latency histograms.
pub fn run(requests: usize) -> (Vec<FabricRow>, RackReport) {
    let cells = [16usize, 4096]
        .into_iter()
        .flat_map(|size| (0..FABRICS.len()).map(move |f| (size, f)));
    // `FABRICS[0]` is HCCS.
    crate::sweep(cells, (4096, 0), |(size, f)| {
        let (fabric, model) = FABRICS[f];
        let rack = Rack::new(RackConfig::two_node_hccs().with_latency(model()));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let pair =
            FlacChannel::create(rack.global(), alloc, rack.node(0), rack.node(1)).expect("chan");
        let flacos_ns = measure_set(&rack, pair, size, requests);
        let metrics = rack.metrics_report();

        let rack = Rack::new(RackConfig::two_node_hccs().with_latency(model()));
        let pair = NetPair::connect(rack.node(0), rack.node(1), NetConfig::ten_gbe(), 0);
        let networking_ns = measure_set(&rack, pair, size, requests);

        let row = FabricRow {
            fabric,
            size,
            flacos_ns,
            networking_ns,
        };
        (row, metrics)
    })
}

/// Render the sweep.
pub fn report(rows: &[FabricRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.fabric.to_string(),
                crate::table::fmt_bytes(r.size as u64),
                crate::table::fmt_ns(r.flacos_ns),
                crate::table::fmt_ns(r.networking_ns),
                format!("{:.2}x", r.speedup()),
            ]
        })
        .collect();
    format!(
        "Ablation A6: Redis SET latency by interconnect generation\n\n{}",
        crate::table::render(
            &["fabric", "size", "FlacOS", "networking", "reduction"],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn better_fabrics_help_flacos_not_tcp() {
        let (rows, _) = run(30);
        let at = |f: &str, size: usize| {
            rows.iter()
                .find(|r| r.fabric == f && r.size == size)
                .unwrap()
                .clone()
        };
        // Coherent-uniform < HCCS < CXL-switched on the FlacOS side.
        assert!(at("uniform-coherent", 16).flacos_ns < at("hccs", 16).flacos_ns);
        assert!(at("hccs", 16).flacos_ns < at("cxl-switched", 16).flacos_ns);
        // FlacOS still wins even on the slowest fabric.
        assert!(at("cxl-switched", 16).speedup() > 1.0);
        assert!(at("cxl-switched", 4096).speedup() > 1.0);
    }

    #[test]
    fn report_lists_all_fabrics() {
        let text = report(&run(5).0);
        for (f, _) in FABRICS {
            assert!(text.contains(f));
        }
    }
}
