//! `bench::serve_scale` — the `flac-bench serve` heavy-traffic serving
//! benchmark (ROADMAP item 1).
//!
//! An **open-loop**, multi-node load generator: it simulates `clients`
//! concurrent users (100 k – 1 M in the committed sweep) whose aggregate
//! request stream is a Poisson arrival process at `clients ×
//! per_client_rps` requests per simulated second, multiplexed over
//! `connections` transport connections from distinct client nodes onto
//! one redis-mini server node. Key popularity is zipfian
//! ([`rack_sim::Zipf`]), the op blend mixes GET/SET/INCR/APPEND, and
//! values come in two sizes (the Figure 4 pair). Requests are scheduled
//! by *wall (simulated) time regardless of completions* — the defining
//! property of open-loop load — so queueing delay shows up in the
//! latency distribution instead of silently throttling the offered rate.
//!
//! Each (transport, client-scale) point reports client-observed
//! p50/p99/p999/max latency in simulated nanoseconds, achieved
//! throughput, and a separately measured **saturation throughput** (a
//! closed firehose of deeply pipelined batches, completed requests per
//! simulated second). Every point is measured twice from the same seed:
//! `fingerprint` is an order-sensitive checksum over the first run's
//! latency stream and rates, `fingerprint_rerun` the same over the
//! second, and the two must agree bit for bit — the simulated-time
//! determinism gate.
//!
//! `flac-bench serve` writes `BENCH_serve.json`; `flac-bench serve
//! --check` (run by `scripts/verify.sh`) re-derives it from the tree.

use crate::report::{tenths, Point, Report};
use flacdk::alloc::GlobalAllocator;
use flacos_ipc::channel::FlacChannel;
use flacos_ipc::netstack::{NetConfig, NetPair};
use rack_sim::{Rack, RackConfig, SimError, SplitMix64, Zipf};
use redis_mini::client::RedisClient;
use redis_mini::resp::{Command, Reply};
use redis_mini::server::RedisServer;
use redis_mini::transport::Transport;
use std::collections::VecDeque;

/// Commands per pipelined message in the saturation firehose.
const SATURATION_BATCH: usize = 64;

/// Client scales the committed report must cover.
pub const MIN_SCALES: usize = 3;

/// Safety valve: abort a run whose event loop stops making progress
/// (e.g. a reply stream wedged by a bug) after this many idle ticks.
const MAX_IDLE_TICKS: u64 = 100_000;

/// Op mix in permille of arrivals (must sum to 1000).
#[derive(Debug, Clone, Copy)]
pub struct OpBlend {
    /// GET share (reads of the shared `user:` keyspace).
    pub get: u64,
    /// SET share (writes of the shared `user:` keyspace).
    pub set: u64,
    /// INCR share (counter keyspace `ctr:`).
    pub incr: u64,
    /// APPEND share (log keyspace `log:`).
    pub append: u64,
}

impl OpBlend {
    /// The default serving blend: read-mostly with a write tail.
    pub fn mixed() -> Self {
        OpBlend {
            get: 700,
            set: 200,
            incr: 50,
            append: 50,
        }
    }
}

/// Parameters of one (transport, scale) measurement.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Simulated concurrent clients (drives the aggregate arrival rate
    /// and the keyspace size).
    pub clients: u64,
    /// Transport connections (one per client node) multiplexing them.
    pub connections: usize,
    /// Distinct keys; popularity is zipfian over this domain.
    pub keys: usize,
    /// Zipf skew for key popularity (0.99 = classic web workload).
    pub zipf_skew: f64,
    /// Per-client request rate (requests per simulated second).
    pub per_client_rps: f64,
    /// Requests measured in the open-loop window.
    pub requests: u64,
    /// Event-loop tick (simulated ns): arrivals within one tick are
    /// pipelined into one message per connection.
    pub tick_ns: u64,
    /// Small value size (bytes).
    pub small_value: usize,
    /// Large value size (bytes).
    pub large_value: usize,
    /// Permille of value-bearing ops using the large size.
    pub large_permille: u64,
    /// Op mix.
    pub blend: OpBlend,
    /// Requests driven through the closed saturation firehose.
    pub saturation_requests: u64,
    /// RNG seed (arrivals, keys, ops, sizes all derive from it).
    pub seed: u64,
}

impl ServeConfig {
    /// Full-run parameters at one client scale (committed report).
    pub fn full(clients: u64) -> Self {
        ServeConfig {
            clients,
            connections: 8,
            keys: clients.min(65_536) as usize,
            zipf_skew: 0.99,
            per_client_rps: 0.2,
            requests: 20_000,
            tick_ns: 5_000,
            small_value: 16,
            large_value: 4096,
            large_permille: 100,
            blend: OpBlend::mixed(),
            saturation_requests: 16_000,
            seed: 0x0005_E21E_F1AC ^ clients,
        }
    }

    /// Client scales swept by a run. A report must carry at least
    /// [`MIN_SCALES`] scales (enforced by [`failures`]).
    pub const SCALES: [u64; 3] = [100_000, 300_000, 1_000_000];

    /// Aggregate offered load, requests per simulated second.
    pub fn offered_rps(&self) -> f64 {
        self.clients as f64 * self.per_client_rps
    }
}

/// A freshly built measurement rack: the server, its load-generator
/// connections, and the `Rack` that keeps the simulated nodes alive.
type BuiltRack<T> = (Rack, RedisServer<T>, Vec<LoadConn<T>>);

/// One connection of the load generator.
struct LoadConn<T: Transport> {
    client: RedisClient<T>,
    /// Arrival timestamps of sent-but-unanswered requests, FIFO.
    inflight: VecDeque<u64>,
    /// Commands staged for the next send (this tick's arrivals, plus
    /// any the transport pushed back).
    staged_cmds: Vec<Command>,
    /// Arrival timestamps matching `staged_cmds`.
    staged_arrivals: Vec<u64>,
}

/// Raw output of one open-loop + saturation measurement.
struct RawPoint {
    latencies: Vec<u64>,
    errors: u64,
    backpressure: u64,
    achieved_rps: f64,
    saturation_rps: f64,
}

/// Exact percentile over a sorted latency sample.
fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Deterministic workload generator shared by both phases.
struct WorkloadGen {
    rng: SplitMix64,
    zipf: Zipf,
    cfg: ServeConfig,
}

impl WorkloadGen {
    fn new(cfg: &ServeConfig, stream: u64) -> Self {
        WorkloadGen {
            rng: SplitMix64::new(cfg.seed ^ stream),
            zipf: Zipf::new(cfg.keys, cfg.zipf_skew),
            cfg: *cfg,
        }
    }

    /// Exponential interarrival gap for the aggregate Poisson process.
    fn next_gap_ns(&mut self) -> u64 {
        let lambda_per_ns = self.cfg.offered_rps() / 1e9;
        let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // Inverse-CDF sample, clamped to >= 1 ns so time always moves.
        ((-(1.0 - u).ln()) / lambda_per_ns).round().max(1.0) as u64
    }

    /// Which connection the next arrival's simulated client maps to.
    fn next_conn(&mut self) -> usize {
        (self.rng.next_below(self.cfg.clients) % self.cfg.connections as u64) as usize
    }

    fn value(&mut self) -> Vec<u8> {
        let size = if self.rng.next_below(1000) < self.cfg.large_permille {
            self.cfg.large_value
        } else {
            self.cfg.small_value
        };
        vec![0xAB; size]
    }

    /// One command drawn from the blend with a zipfian key.
    fn next_command(&mut self) -> Command {
        let rank = self.zipf.sample(&mut self.rng);
        let r = self.rng.next_below(1000);
        let b = self.cfg.blend;
        if r < b.get {
            Command::Get {
                key: format!("user:{rank:07}").into_bytes(),
            }
        } else if r < b.get + b.set {
            Command::Set {
                key: format!("user:{rank:07}").into_bytes(),
                value: self.value(),
            }
        } else if r < b.get + b.set + b.incr {
            // Counter keys live in their own namespace so INCR never
            // collides with a binary SET value (which would be a RESP
            // error and trip the errors==0 gate).
            Command::Incr {
                key: format!("ctr:{rank:07}").into_bytes(),
            }
        } else {
            Command::Append {
                key: format!("log:{rank:07}").into_bytes(),
                value: b"entry;".to_vec(),
            }
        }
    }
}

/// Drive the open-loop window: Poisson arrivals pipelined per tick,
/// latency = reply delivery (sim clock) minus scheduled arrival.
fn run_open_loop<T: Transport>(
    server: &mut RedisServer<T>,
    conns: &mut [LoadConn<T>],
    cfg: &ServeConfig,
) -> Result<(Vec<u64>, u64, u64, f64), SimError> {
    let mut wl = WorkloadGen::new(cfg, 0x09E9);
    let mut latencies = Vec::with_capacity(cfg.requests as usize);
    let mut errors = 0u64;
    let mut backpressure = 0u64;

    let t0 = conns
        .iter()
        .map(|c| c.client.node().clock().now())
        .chain(std::iter::once(server.node().clock().now()))
        .max()
        .unwrap_or(0);
    let mut next_arrival = t0 + wl.next_gap_ns();
    let mut sent = 0u64;
    let mut now_tick = t0;
    let mut idle_ticks = 0u64;

    while (latencies.len() as u64) < cfg.requests {
        // Fast-forward across dead air when nothing is in flight.
        let quiescent = conns
            .iter()
            .all(|c| c.inflight.is_empty() && c.staged_cmds.is_empty());
        if quiescent && sent < cfg.requests && next_arrival > now_tick + cfg.tick_ns {
            now_tick = next_arrival - (next_arrival - now_tick) % cfg.tick_ns;
        }
        let tick_end = now_tick + cfg.tick_ns;

        // Schedule this tick's arrivals onto their connections.
        while sent < cfg.requests && next_arrival < tick_end {
            let conn = &mut conns[wl.next_conn()];
            conn.staged_cmds.push(wl.next_command());
            conn.staged_arrivals.push(next_arrival);
            sent += 1;
            next_arrival += wl.next_gap_ns();
        }

        // Send each connection's pipelined batch.
        for conn in conns.iter_mut() {
            conn.client.node().clock().advance_to(tick_end);
            if conn.staged_cmds.is_empty() {
                continue;
            }
            match conn.client.send_pipelined(&conn.staged_cmds) {
                Ok(()) => {
                    conn.inflight.extend(conn.staged_arrivals.drain(..));
                    conn.staged_cmds.clear();
                }
                Err(SimError::WouldBlock) => backpressure += 1, // retry next tick
                Err(e) => return Err(e),
            }
        }

        // No explicit clock coupling: ring publish timestamps and fabric
        // arrival times already forbid consuming a message before it was
        // sent, so client nodes stay parallel and only the single-threaded
        // server serializes (its clock advances as it consumes and
        // charges per command).
        let served = server.poll()?;

        let mut progressed = served > 0;
        for conn in conns.iter_mut() {
            loop {
                match conn.client.recv_reply() {
                    Ok(reply) => {
                        let arrival = conn
                            .inflight
                            .pop_front()
                            .ok_or_else(|| SimError::Protocol("reply without request".into()))?;
                        latencies.push(conn.client.node().clock().now() - arrival);
                        if matches!(reply, Reply::Error(_)) {
                            errors += 1;
                        }
                        progressed = true;
                    }
                    Err(SimError::WouldBlock) => break,
                    Err(e) => return Err(e),
                }
            }
        }

        now_tick = tick_end;
        idle_ticks = if progressed { 0 } else { idle_ticks + 1 };
        if idle_ticks > MAX_IDLE_TICKS {
            return Err(SimError::Timeout {
                waited_ns: idle_ticks * cfg.tick_ns,
            });
        }
    }

    let end = conns
        .iter()
        .map(|c| c.client.node().clock().now())
        .max()
        .unwrap_or(now_tick);
    let achieved_rps = latencies.len() as f64 / ((end - t0).max(1) as f64 / 1e9);
    Ok((latencies, errors, backpressure, achieved_rps))
}

/// Closed firehose: keep every connection's pipeline full of
/// [`SATURATION_BATCH`]-deep batches and measure completions per
/// simulated second — the ceiling the open-loop sweep is compared to.
fn run_saturation<T: Transport>(
    server: &mut RedisServer<T>,
    conns: &mut [LoadConn<T>],
    cfg: &ServeConfig,
) -> Result<(f64, u64, u64), SimError> {
    let mut wl = WorkloadGen::new(cfg, 0x5A7);
    let total = cfg.saturation_requests;
    let mut remaining: Vec<u64> = vec![total / conns.len() as u64; conns.len()];
    remaining[0] += total % conns.len() as u64;
    let mut errors = 0u64;
    let mut backpressure = 0u64;

    let t0 = conns
        .iter()
        .map(|c| c.client.node().clock().now())
        .chain(std::iter::once(server.node().clock().now()))
        .max()
        .unwrap_or(0);
    for conn in conns.iter_mut() {
        conn.client.node().clock().advance_to(t0);
    }
    server.node().clock().advance_to(t0);

    let mut completed = 0u64;
    let mut idle_rounds = 0u64;
    while completed < total {
        let mut progressed = false;
        for (i, conn) in conns.iter_mut().enumerate() {
            if remaining[i] == 0 || !conn.inflight.is_empty() {
                continue;
            }
            let batch_len = (remaining[i] as usize).min(SATURATION_BATCH);
            if conn.staged_cmds.len() < batch_len {
                while conn.staged_cmds.len() < batch_len {
                    conn.staged_cmds.push(wl.next_command());
                }
            }
            match conn.client.send_pipelined(&conn.staged_cmds) {
                Ok(()) => {
                    let now = conn.client.node().clock().now();
                    for _ in 0..conn.staged_cmds.len() {
                        conn.inflight.push_back(now);
                    }
                    remaining[i] -= conn.staged_cmds.len() as u64;
                    conn.staged_cmds.clear();
                    progressed = true;
                }
                Err(SimError::WouldBlock) => backpressure += 1,
                Err(e) => return Err(e),
            }
        }

        server.poll()?;

        for conn in conns.iter_mut() {
            loop {
                match conn.client.recv_reply() {
                    Ok(reply) => {
                        conn.inflight.pop_front();
                        completed += 1;
                        if matches!(reply, Reply::Error(_)) {
                            errors += 1;
                        }
                        progressed = true;
                    }
                    Err(SimError::WouldBlock) => break,
                    Err(e) => return Err(e),
                }
            }
        }

        idle_rounds = if progressed { 0 } else { idle_rounds + 1 };
        if idle_rounds > MAX_IDLE_TICKS {
            return Err(SimError::Timeout {
                waited_ns: idle_rounds,
            });
        }
    }

    let end = conns
        .iter()
        .map(|c| c.client.node().clock().now())
        .max()
        .unwrap_or(t0);
    let rps = total as f64 / ((end - t0).max(1) as f64 / 1e9);
    Ok((rps, errors, backpressure))
}

/// A fresh server + connections over FlacOS IPC.
fn build_flac(cfg: &ServeConfig) -> Result<BuiltRack<flacos_ipc::channel::FlacEndpoint>, SimError> {
    let rack = Rack::new(RackConfig::n_node(cfg.connections + 1).with_global_mem(128 << 20));
    let alloc = GlobalAllocator::new(rack.global().clone());
    let mut server_eps = Vec::new();
    let mut conns = Vec::new();
    for i in 0..cfg.connections {
        let (sep, cep) =
            FlacChannel::create(rack.global(), alloc.clone(), rack.node(0), rack.node(i + 1))?;
        server_eps.push(sep);
        conns.push(LoadConn {
            client: RedisClient::new(rack.node(i + 1), cep),
            inflight: VecDeque::new(),
            staged_cmds: Vec::new(),
            staged_arrivals: Vec::new(),
        });
    }
    let server = RedisServer::with_connections(rack.node(0), server_eps);
    Ok((rack, server, conns))
}

/// A fresh server + connections over the TCP/IP baseline.
fn build_net(cfg: &ServeConfig) -> BuiltRack<flacos_ipc::netstack::NetEndpoint> {
    let rack = Rack::new(RackConfig::n_node(cfg.connections + 1).with_global_mem(128 << 20));
    let mut server_eps = Vec::new();
    let mut conns = Vec::new();
    for i in 0..cfg.connections {
        let (sep, cep) = NetPair::connect(
            rack.node(0),
            rack.node(i + 1),
            NetConfig::ten_gbe(),
            i as u16,
        );
        server_eps.push(sep);
        conns.push(LoadConn {
            client: RedisClient::new(rack.node(i + 1), cep),
            inflight: VecDeque::new(),
            staged_cmds: Vec::new(),
            staged_arrivals: Vec::new(),
        });
    }
    let server = RedisServer::with_connections(rack.node(0), server_eps);
    (rack, server, conns)
}

/// Order-sensitive checksum over the latency stream plus the derived
/// rates — the quantity two seeded runs must reproduce exactly.
fn fingerprint(raw: &RawPoint) -> u64 {
    let mut fp = 0x9E3779B97F4A7C15u64;
    for &l in &raw.latencies {
        fp = fp.rotate_left(7) ^ l.wrapping_mul(0xFF51AFD7ED558CCD);
    }
    fp ^= raw.achieved_rps.to_bits().wrapping_mul(3);
    fp ^= raw.saturation_rps.to_bits().rotate_left(17);
    fp ^ raw.errors ^ raw.backpressure.rotate_left(32)
}

fn measure_once<T: Transport>(
    builds: &dyn Fn() -> Result<BuiltRack<T>, SimError>,
    cfg: &ServeConfig,
) -> Result<RawPoint, SimError> {
    // Open-loop window on a fresh rack...
    let (_rack, mut server, mut conns) = builds()?;
    let (latencies, errors, bp_open, achieved_rps) = run_open_loop(&mut server, &mut conns, cfg)?;
    // ...and the saturation firehose on another, so queue state from an
    // overloaded open-loop run cannot leak into the ceiling measurement.
    let (_rack2, mut server2, mut conns2) = builds()?;
    let (saturation_rps, sat_errors, bp_sat) = run_saturation(&mut server2, &mut conns2, cfg)?;
    Ok(RawPoint {
        latencies,
        errors: errors + sat_errors,
        backpressure: bp_open + bp_sat,
        achieved_rps,
        saturation_rps,
    })
}

/// Measure one (transport, scale) point, keyed `transport=<t>
/// clients=<n>`: two identical seeded runs, the second one only for its
/// `fingerprint_rerun`. `ops` counts the open-loop requests completed,
/// `errors` the RESP error replies, `backpressure` the transport's send
/// `WouldBlock`s; rates are per simulated second and latencies
/// simulated ns.
fn run_transport_point<T: Transport>(
    label: &'static str,
    builds: &dyn Fn() -> Result<BuiltRack<T>, SimError>,
    cfg: &ServeConfig,
) -> Result<Point, SimError> {
    let first = measure_once(builds, cfg)?;
    let second = measure_once(builds, cfg)?;
    let mut sorted = first.latencies.clone();
    sorted.sort_unstable();
    Ok(
        Point::new(format!("transport={label} clients={}", cfg.clients))
            .with("ops", first.latencies.len())
            .with("connections", cfg.connections)
            .with("errors", first.errors)
            .with("offered_rps", tenths(cfg.offered_rps()))
            .with("achieved_rps", tenths(first.achieved_rps))
            .with("p50_ns", percentile_ns(&sorted, 50.0))
            .with("p99_ns", percentile_ns(&sorted, 99.0))
            .with("p999_ns", percentile_ns(&sorted, 99.9))
            .with("max_ns", sorted.last().copied().unwrap_or(0))
            .with("saturation_rps", tenths(first.saturation_rps))
            .with("backpressure", first.backpressure)
            .with("fingerprint", fingerprint(&first))
            .with("fingerprint_rerun", fingerprint(&second)),
    )
}

/// Measure both transports at one scale.
///
/// # Errors
///
/// Propagates simulator failures (a wedged reply stream is a `Timeout`).
pub fn run_scale(cfg: &ServeConfig) -> Result<Vec<Point>, SimError> {
    let flac = run_transport_point("flacos-ipc", &|| build_flac(cfg), cfg)?;
    let net = run_transport_point("tcp/ip", &|| Ok(build_net(cfg)), cfg)?;
    Ok(vec![flac, net])
}

/// The client scales a report covers, ascending.
fn scales(report: &Report) -> Result<Vec<u64>, String> {
    let mut scales = report
        .points
        .iter()
        .map(|p| p.key_u64("clients"))
        .collect::<Result<Vec<u64>, String>>()?;
    scales.sort_unstable();
    scales.dedup();
    Ok(scales)
}

/// The judgement of a report. Everything here is simulated-time-derived
/// and therefore exactly reproducible, so it is strict:
///
/// * zero RESP errors at every point (rerun parity is the schema's own
///   check);
/// * percentiles ordered (`p50 ≤ p99 ≤ p999 ≤ max`), all nonzero;
/// * both transports at every scale, FlacOS IPC p50 strictly beating
///   TCP/IP and its saturation throughput at least TCP/IP's;
/// * at least [`MIN_SCALES`] client scales.
///
/// # Errors
///
/// Names a column the report lacks.
pub fn failures(report: &Report) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    for p in &report.points {
        let at = p.key.replacen("transport=", "", 1);
        let errors = p.u64("errors")?;
        if errors != 0 {
            failures.push(format!("{at}: {errors} RESP error replies (must be 0)"));
        }
        let [p50, p99, p999, max] =
            ["p50_ns", "p99_ns", "p999_ns", "max_ns"].map(|name| p.u64(name));
        let (p50, p99, p999, max) = (p50?, p99?, p999?, max?);
        if p.u64("ops")? == 0 || p50 == 0 || p.f64("saturation_rps")? <= 0.0 {
            failures.push(format!("{at}: empty or degenerate measurement"));
        }
        if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
            failures.push(format!(
                "{at}: percentiles out of order ({p50} / {p99} / {p999} / {max})"
            ));
        }
    }
    let scales = scales(report)?;
    for &scale in &scales {
        let (Some(flac), Some(net)) = (
            report.point(&format!("transport=flacos-ipc clients={scale}")),
            report.point(&format!("transport=tcp/ip clients={scale}")),
        ) else {
            failures.push(format!(
                "scale {scale}: missing a (flacos-ipc, tcp/ip) transport pair"
            ));
            continue;
        };
        let (flac_p50, net_p50) = (flac.u64("p50_ns")?, net.u64("p50_ns")?);
        if flac_p50 >= net_p50 {
            failures.push(format!(
                "scale {scale}: FlacOS IPC p50 ({flac_p50} ns) must beat TCP/IP ({net_p50} ns)"
            ));
        }
        let (flac_sat, net_sat) = (flac.f64("saturation_rps")?, net.f64("saturation_rps")?);
        if flac_sat < net_sat {
            failures.push(format!(
                "scale {scale}: FlacOS saturation ({flac_sat:.0} rps) below TCP/IP \
                 ({net_sat:.0} rps)"
            ));
        }
    }
    if scales.len() < MIN_SCALES {
        failures.push(format!(
            "report must cover >= {MIN_SCALES} client scales, found {scales:?}"
        ));
    }
    Ok(failures)
}

/// The report of a run over `points`.
fn report(points: Vec<Point>) -> Report {
    let mut report = Report::new("serve").fact("min_scales", MIN_SCALES);
    report.points = points;
    report
}

/// Run every client scale of [`ServeConfig::SCALES`] over both
/// transports and build the report.
///
/// # Errors
///
/// Names the scale whose simulation failed.
pub fn run() -> Result<Report, String> {
    println!(
        "serve: client scales {:?}, both transports, open loop + saturation",
        ServeConfig::SCALES
    );
    let mut points = Vec::new();
    for clients in ServeConfig::SCALES {
        let cfg = ServeConfig::full(clients);
        points.extend(
            run_scale(&cfg).map_err(|e| format!("{clients} clients: simulation failed: {e}"))?,
        );
    }
    Ok(report(points))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServeConfig {
        ServeConfig {
            clients: 500,
            connections: 2,
            keys: 128,
            requests: 200,
            saturation_requests: 200,
            per_client_rps: 40.0,
            ..ServeConfig::full(500)
        }
    }

    #[test]
    fn open_loop_point_is_deterministic_and_error_free() {
        let cfg = tiny_cfg();
        let points = run_scale(&cfg).expect("run");
        assert_eq!(points.len(), 2);
        for p in &points {
            let u = |name| p.u64(name).unwrap();
            assert_eq!(u("ops"), cfg.requests, "{}: all requests answered", p.key);
            assert_eq!(u("errors"), 0, "{}: no RESP errors", p.key);
            assert_eq!(
                u("fingerprint"),
                u("fingerprint_rerun"),
                "{}: seeded rerun must reproduce exactly",
                p.key
            );
            assert!(u("p50_ns") > 0 && u("p50_ns") <= u("p99_ns") && u("p999_ns") <= u("max_ns"));
            assert!(p.f64("saturation_rps").unwrap() > 0.0);
        }
        let (flac, net) = (&points[0], &points[1]);
        assert_eq!(flac.key_part("transport"), Ok("flacos-ipc"));
        let (flac_p50, net_p50) = (flac.u64("p50_ns").unwrap(), net.u64("p50_ns").unwrap());
        assert!(
            flac_p50 < net_p50,
            "IPC p50 {flac_p50} must beat TCP p50 {net_p50}"
        );
    }

    #[test]
    fn report_roundtrips_and_checker_accepts_a_good_full_run() {
        let cfg = tiny_cfg();
        let mut points = Vec::new();
        for clients in [500u64, 1_000, 2_000] {
            let c = ServeConfig { clients, ..cfg };
            points.extend(run_scale(&c).expect("run"));
        }
        let report = report(points);
        let json = report.to_json();
        let parsed = Report::parse(&json).expect("writer output parses");
        assert_eq!(parsed.points.len(), 6);
        assert_eq!(parsed, report);
        assert_eq!(
            crate::suite::Suite::Serve.failures(&parsed),
            Vec::<String>::new()
        );
    }

    #[test]
    fn checker_rejects_errors_parity_violations_and_too_few_scales() {
        let mk = |transport: &str, clients: u64, errors: u64, parity: bool, p50: u64| {
            Point::new(format!("transport={transport} clients={clients}"))
                .with("ops", 10u64)
                .with("connections", 2u64)
                .with("errors", errors)
                .with("offered_rps", 1.0)
                .with("achieved_rps", 1.0)
                .with("p50_ns", p50)
                .with("p99_ns", 100u64)
                .with("p999_ns", 200u64)
                .with("max_ns", 300u64)
                .with("saturation_rps", 100.0)
                .with("backpressure", 0u64)
                .with("fingerprint", 1u64)
                .with("fingerprint_rerun", if parity { 1u64 } else { 2 })
        };
        let points = vec![
            mk("flacos-ipc", 100, 0, true, 10),
            mk("tcp/ip", 100, 0, true, 50),
            mk("flacos-ipc", 200, 1, true, 10),
            mk("tcp/ip", 200, 0, false, 50),
            mk("flacos-ipc", 300, 0, true, 60),
            mk("tcp/ip", 300, 0, true, 50),
        ];
        let serve = crate::suite::Suite::Serve;
        let failures = serve.failures(&report(points.clone()));
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("RESP error")));
        assert!(failures.iter().any(|f| f.contains("did not reproduce")));
        assert!(failures.iter().any(|f| f.contains("must beat")));
        let failures = serve.failures(&report(points[..2].to_vec()));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains(">= 3 client scales"), "{failures:?}");
    }

    #[test]
    fn pipelining_carries_many_frames_per_message() {
        // The loadgen depends on batched frames actually batching: at a
        // high per-tick arrival rate the server must see fewer messages
        // than frames.
        let cfg = ServeConfig {
            per_client_rps: 2_000.0, // ~1 arrival/µs across 500 clients
            ..tiny_cfg()
        };
        let (_rack, mut server, mut conns) = build_flac(&cfg).expect("build");
        run_open_loop(&mut server, &mut conns, &cfg).expect("run");
        let stats = server.stats();
        assert_eq!(stats.frames, cfg.requests);
        assert!(
            stats.reply_batches < stats.frames / 2,
            "replies must batch: {} batches for {} frames",
            stats.reply_batches,
            stats.frames
        );
    }
}
