//! Figure 4 — Redis request latency: FlacOS IPC vs. networking.
//!
//! Reproduces the paper's headline experiment: redis-mini server on node
//! 0, client on node 1 of a two-node HCCS rack; SET and GET at two
//! request sizes over (a) FlacOS zero-copy IPC and (b) the TCP/IP
//! baseline. The paper reports a 1.75–2.4× latency reduction; the
//! `speedup` column of [`run`]'s rows reproduces the shape.

use flacdk::alloc::GlobalAllocator;
use flacos_ipc::channel::FlacChannel;
use flacos_ipc::netstack::{NetConfig, NetPair};
use rack_sim::{Rack, RackConfig, RackReport};
use redis_mini::client::{request_stepped, RedisClient};
use redis_mini::resp::Command;
use redis_mini::server::RedisServer;
use redis_mini::transport::Transport;

/// The request sizes Figure 4 evaluates (small and large values).
pub const SIZES: [usize; 2] = [16, 4096];

/// One measured cell of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// "SET" or "GET".
    pub op: &'static str,
    /// Value size in bytes.
    pub size: usize,
    /// Mean latency over FlacOS IPC (simulated ns).
    pub flacos_ns: u64,
    /// Mean latency over TCP/IP (simulated ns).
    pub networking_ns: u64,
}

impl Fig4Row {
    /// Networking latency divided by FlacOS latency — the paper's
    /// reported reduction factor.
    pub fn speedup(&self) -> f64 {
        self.networking_ns as f64 / self.flacos_ns.max(1) as f64
    }
}

fn measure<T: Transport>(
    client: &mut RedisClient<T>,
    server: &mut RedisServer<T>,
    op: &'static str,
    size: usize,
    requests: usize,
) -> u64 {
    let key = b"bench-key".to_vec();
    // Ensure GETs hit.
    let (_, _) = request_stepped(
        client,
        server,
        &Command::Set {
            key: key.clone(),
            value: vec![0xAB; size],
        },
    )
    .expect("warmup set");
    let mut total = 0u64;
    for i in 0..requests {
        let cmd = match op {
            "SET" => Command::Set {
                key: key.clone(),
                value: vec![(i % 251) as u8; size],
            },
            _ => Command::Get { key: key.clone() },
        };
        let (_, latency) = request_stepped(client, server, &cmd).expect("request");
        total += latency;
    }
    total / requests as u64
}

/// Run Figure 4 with `requests` requests per cell, with the rack-wide
/// metrics of the FlacOS SET 4 KiB cell: operation counts, latency
/// histograms, and the `ipc` message counters.
pub fn run(requests: usize) -> (Vec<Fig4Row>, RackReport) {
    let cells = SIZES
        .iter()
        .flat_map(|&size| ["SET", "GET"].map(|op| (op, size)));
    crate::sweep(cells, ("SET", 4096), |(op, size)| {
        // Fresh racks per cell keep clocks and caches independent.
        let rack = Rack::new(RackConfig::two_node_hccs());
        let alloc = GlobalAllocator::new(rack.global().clone());
        let (sep, cep) =
            FlacChannel::create(rack.global(), alloc, rack.node(0), rack.node(1)).expect("channel");
        let mut fserver = RedisServer::new(rack.node(0), sep);
        let mut fclient = RedisClient::new(rack.node(1), cep);
        let flacos_ns = measure(&mut fclient, &mut fserver, op, size, requests);
        let metrics = rack.metrics_report();

        let rack = Rack::new(RackConfig::two_node_hccs());
        let (sep, cep) = NetPair::connect(rack.node(0), rack.node(1), NetConfig::ten_gbe(), 0);
        let mut nserver = RedisServer::new(rack.node(0), sep);
        let mut nclient = RedisClient::new(rack.node(1), cep);
        let networking_ns = measure(&mut nclient, &mut nserver, op, size, requests);

        let row = Fig4Row {
            op,
            size,
            flacos_ns,
            networking_ns,
        };
        (row, metrics)
    })
}

/// Render the figure as a table, with the networking-side overhead
/// decomposition the paper's §4.2 discussion rests on ("the majority of
/// the overhead in the networking method comes from software overhead,
/// including buffer allocations, data copies, and stack processing").
pub fn report(rows: &[Fig4Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.op.to_string(),
                crate::table::fmt_bytes(r.size as u64),
                crate::table::fmt_ns(r.flacos_ns),
                crate::table::fmt_ns(r.networking_ns),
                format!("{:.2}x", r.speedup()),
            ]
        })
        .collect();
    format!(
        "Figure 4: Redis request latency, FlacOS IPC vs networking\n\n{}\n{}",
        crate::table::render(
            &["op", "size", "FlacOS", "networking", "reduction"],
            &table_rows
        ),
        breakdown_report()
    )
}

/// Analytic per-direction decomposition of the TCP path for one small
/// request, from the cost model in force — where the networking method's
/// time goes.
pub fn breakdown_report() -> String {
    let cfg = NetConfig::ten_gbe();
    let rows = vec![
        vec![
            "syscalls (tx + rx)".to_string(),
            crate::table::fmt_ns(2 * cfg.syscall_ns),
        ],
        vec![
            "buffer allocation".to_string(),
            crate::table::fmt_ns(cfg.buf_alloc_ns),
        ],
        vec![
            "TCP processing (tx + rx)".to_string(),
            crate::table::fmt_ns(2 * cfg.tcp_ns),
        ],
        vec![
            "IP + driver (tx + rx)".to_string(),
            crate::table::fmt_ns(2 * (cfg.ip_ns + cfg.driver_ns)),
        ],
        vec![
            "interrupt/softirq".to_string(),
            crate::table::fmt_ns(cfg.irq_ns),
        ],
        vec![
            "wire (propagation + switch)".to_string(),
            crate::table::fmt_ns(cfg.wire_ns),
        ],
    ];
    format!(
        "networking one-way software overhead, one small segment (paper: \"buffer\nallocations, data copies, and stack processing\" dominate):\n\n{}",
        crate::table::render(&["component", "cost"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shape_holds() {
        let (rows, _) = run(50);
        assert_eq!(rows.len(), 4, "2 ops x 2 sizes");
        for row in &rows {
            assert!(
                row.speedup() > 1.6,
                "{} @{}B: FlacOS must clearly win (got {:.2}x)",
                row.op,
                row.size,
                row.speedup()
            );
            assert!(
                row.speedup() < 2.7,
                "{} @{}B: reduction must stay near the paper's 1.75-2.4x band (got {:.2}x)",
                row.op,
                row.size,
                row.speedup()
            );
        }
    }

    #[test]
    fn report_renders_all_rows() {
        let (rows, _) = run(5);
        let text = report(&rows);
        assert!(text.contains("SET"));
        assert!(text.contains("GET"));
        assert!(text.contains("4.0 KiB"));
    }
}
