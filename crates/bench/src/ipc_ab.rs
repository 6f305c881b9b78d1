//! Ablation A4 — transport latency across message sizes.
//!
//! Echo round-trips over FlacOS IPC and the TCP/IP baseline, 64 B to
//! 1 MiB, isolating the transports from the Redis protocol layer. The
//! crossover behaviour explains Figure 4: the networking side pays
//! per-segment stack costs that grow with size, while FlacOS pays
//! near-constant control costs plus bandwidth.

use flacdk::alloc::GlobalAllocator;
use flacos_ipc::channel::FlacChannel;
use flacos_ipc::netstack::{NetConfig, NetPair};
use rack_sim::{Rack, RackConfig, RackReport};
use redis_mini::transport::Transport;

/// Message sizes swept.
pub const SIZES: [usize; 6] = [64, 256, 1024, 4096, 65536, 1 << 20];

/// One measured size point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpcRow {
    /// Message size in bytes.
    pub size: usize,
    /// Mean echo RTT over FlacOS IPC (simulated ns).
    pub flacos_rtt_ns: u64,
    /// Mean echo RTT over TCP/IP (simulated ns).
    pub tcp_rtt_ns: u64,
}

/// Mean round-trip time of `iters` echoes of `size`-byte messages from
/// node 0's endpoint `a` to node 1's `b` and back.
fn echo_rtt<T: Transport>(rack: &Rack, (mut a, mut b): (T, T), size: usize, iters: usize) -> u64 {
    let (na, nb) = (rack.node(0), rack.node(1));
    let payload = vec![0x5Au8; size];
    let t0 = na.clock().now();
    for _ in 0..iters {
        a.send(&payload).expect("send");
        nb.clock().advance_to(na.clock().now());
        let echo = b.try_recv().expect("recv");
        b.send(&echo).expect("echo");
        na.clock().advance_to(nb.clock().now());
        a.try_recv().expect("reply");
    }
    (na.clock().now() - t0) / iters as u64
}

/// Run the sweep with `iters` round-trips per point, with the rack-wide
/// metrics of the FlacOS echo at 4 KiB: operation counts, latency
/// histograms, and the `ipc` message counters.
pub fn run(iters: usize) -> (Vec<IpcRow>, RackReport) {
    crate::sweep(SIZES, 4096, |size| {
        let rack = Rack::new(RackConfig::two_node_hccs());
        let alloc = GlobalAllocator::new(rack.global().clone());
        let pair =
            FlacChannel::create(rack.global(), alloc, rack.node(0), rack.node(1)).expect("channel");
        let flacos_rtt_ns = echo_rtt(&rack, pair, size, iters);
        let metrics = rack.metrics_report();

        let rack = Rack::new(RackConfig::two_node_hccs());
        let pair = NetPair::connect(rack.node(0), rack.node(1), NetConfig::ten_gbe(), 0);
        let tcp_rtt_ns = echo_rtt(&rack, pair, size, iters);

        let row = IpcRow {
            size,
            flacos_rtt_ns,
            tcp_rtt_ns,
        };
        (row, metrics)
    })
}

/// Render the sweep.
pub fn report(rows: &[IpcRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                crate::table::fmt_bytes(r.size as u64),
                crate::table::fmt_ns(r.flacos_rtt_ns),
                crate::table::fmt_ns(r.tcp_rtt_ns),
                format!(
                    "{:.2}x",
                    r.tcp_rtt_ns as f64 / r.flacos_rtt_ns.max(1) as f64
                ),
            ]
        })
        .collect();
    format!(
        "Ablation A4: echo RTT by message size\n\n{}",
        crate::table::render(&["size", "FlacOS IPC", "TCP/IP", "reduction"], &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flacos_wins_across_all_sizes() {
        for row in run(10).0 {
            assert!(
                row.flacos_rtt_ns < row.tcp_rtt_ns,
                "{}B: FlacOS {} vs TCP {}",
                row.size,
                row.flacos_rtt_ns,
                row.tcp_rtt_ns
            );
        }
    }

    #[test]
    fn rtt_grows_with_size() {
        let (rows, _) = run(5);
        assert!(rows.last().unwrap().flacos_rtt_ns > rows[0].flacos_rtt_ns);
        assert!(rows.last().unwrap().tcp_rtt_ns > rows[0].tcp_rtt_ns);
    }
}
