//! `serve-read-small` and `serve-write-large`: redis-mini over the
//! FlacOS IPC transport, one server node and eight client
//! nodes/connections, zipf-0.99 keys over 65 536 preloaded keys.
//!
//! Three phases on one long-lived rack: an **open loop** in simulated
//! time at the reference rate (Poisson arrivals, latency = completion −
//! scheduled arrival, 5 µs tick), the same open loop at each step of a
//! fixed **rate ladder** for the SLO search, and a **closed loop** of 8
//! connections × 64-deep pipelines for saturation. The same generated
//! stream is replayed over the `tcp/ip` netstack transport for the
//! baseline.
//!
//! Keys are connection-affine (a key always travels on the same
//! connection), so each key's commands are FIFO end to end and the
//! oracle — an in-benchmark model store — knows the exact reply every
//! request must get at the moment it is staged.

use super::{
    common_layers, fingerprint, median_secs, EndToEnd, Layers, RunConfig, MEASURED_SEGMENTS,
    SETUP_REPS,
};
use crate::counters::{snapshot, Delta};
use crate::metrics::{ratio, LayerValues};
use crate::slo::{self, LadderStep};
use crate::stats::{percentile, segment_rate, summarize, Fold};
use crate::trace::{Span, Tracer};
use flacos::FlacRack;
use flacos_ipc::netstack::{NetConfig, NetPair};
use rack_sim::{NodeCtx, RackConfig, SimError, SplitMix64, StatsSnapshot, Zipf};
use redis_mini::transport::Transport;
use redis_mini::{Command, KeyspaceStore, RedisClient, RedisServer, Reply};
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: usize = 65_536;
const ZIPF_SKEW: f64 = 0.99;
const CONNS: usize = 8;
const TICK_NS: u64 = 5_000;
const PIPELINE_DEPTH: usize = 64;
/// Latency limit on p99 for the SLO search.
pub const SLO_P99_NS: u64 = 100_000;
/// Abort a phase whose event loop stops making progress.
const MAX_IDLE_TICKS: u64 = 200_000;
/// Every key is preloaded with a value this long; the workload's own
/// SETs and APPENDs grow them to its value size.
const PRELOAD_VALUE_LEN: usize = 16;
/// Commands replayed through single-layer probes.
const PROBE_SAMPLE: usize = 4_096;

/// Everything that distinguishes the two serving workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    /// Op mix in permille: GET, SET; the rest is APPEND.
    pub get_permille: u64,
    pub set_permille: u64,
    pub value_len: usize,
    /// Frozen open-loop reference rate, requests per simulated second.
    pub reference_rps: f64,
    /// Frozen 8-step rate ladder; the SLO answer must lie strictly inside.
    pub ladder_rps: [f64; 8],
    /// Op counts at the reference `--seconds`.
    pub segment_requests: u64,
    pub ladder_requests: u64,
    pub closed_requests: u64,
    pub baseline_requests: u64,
    pub global_mem: usize,
}

/// 95 % GET / 5 % SET, 16 B values: per-request fixed costs dominate.
pub const READ_SMALL: ServeSpec = ServeSpec {
    name: "serve-read-small",
    get_permille: 950,
    set_permille: 50,
    value_len: 16,
    reference_rps: 60_000.0,
    ladder_rps: [
        20_000.0, 40_000.0, 60_000.0, 80_000.0, 100_000.0, 120_000.0, 140_000.0, 160_000.0,
    ],
    segment_requests: 125_000,
    ladder_requests: 40_000,
    closed_requests: 262_144,
    baseline_requests: 250_000,
    global_mem: 128 << 20,
};

/// 50 % SET / 30 % APPEND / 20 % GET, 4 KiB values: bytes dominate.
pub const WRITE_LARGE: ServeSpec = ServeSpec {
    name: "serve-write-large",
    get_permille: 200,
    set_permille: 500,
    value_len: 4096,
    reference_rps: 20_000.0,
    ladder_rps: [
        25_000.0, 50_000.0, 75_000.0, 100_000.0, 125_000.0, 150_000.0, 175_000.0, 200_000.0,
    ],
    segment_requests: 15_000,
    ladder_requests: 15_000,
    closed_requests: 32_768,
    baseline_requests: 25_000,
    global_mem: 256 << 20,
};

// ---------------------------------------------------------------------
// Generated inputs and the oracle
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Get,
    Set,
    Append,
}

#[derive(Debug, Clone)]
struct Op {
    rank: u32,
    kind: Kind,
    /// Value bytes for SET/APPEND (empty for GET).
    value: Vec<u8>,
}

/// The reply the model store says a request must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Ok,
    Len(i64),
    Bulk { len: u32, hash: Fold },
}

impl Expect {
    fn matches(&self, reply: &Reply) -> bool {
        match (self, reply) {
            (Expect::Ok, Reply::Simple(s)) => s == "OK",
            (Expect::Len(n), Reply::Integer(got)) => n == got,
            (Expect::Bulk { len, hash }, Reply::Bulk(v)) => {
                let mut h = Fold::INIT;
                h.push_bytes(v);
                v.len() == *len as usize && h == *hash
            }
            _ => false,
        }
    }
}

/// Model store: per key rank, the length and incremental hash of the
/// value the server must hold (value lengths are multiples of eight, so
/// APPEND extends the hash exactly).
#[derive(Debug, Clone)]
struct Model(Vec<(u32, Fold)>);

impl Model {
    fn new() -> Self {
        Model(vec![(0, Fold::INIT); KEYS])
    }

    /// Apply `op` and return the command to send with its expected reply.
    fn stage(&mut self, op: Op) -> (Command, Expect) {
        let key = key_bytes(op.rank);
        let slot = &mut self.0[op.rank as usize];
        match op.kind {
            Kind::Get => (
                Command::Get { key },
                Expect::Bulk {
                    len: slot.0,
                    hash: slot.1,
                },
            ),
            Kind::Set => {
                let mut h = Fold::INIT;
                h.push_bytes(&op.value);
                *slot = (op.value.len() as u32, h);
                (
                    Command::Set {
                        key,
                        value: op.value,
                    },
                    Expect::Ok,
                )
            }
            Kind::Append => {
                slot.0 += op.value.len() as u32;
                slot.1.push_bytes(&op.value);
                (
                    Command::Append {
                        key,
                        value: op.value,
                    },
                    Expect::Len(i64::from(slot.0)),
                )
            }
        }
    }
}

fn key_bytes(rank: u32) -> Vec<u8> {
    format!("user:{rank:07}").into_bytes()
}

/// Connection a key travels on (top three bits of a multiplicative hash).
fn conn_of(rank: u32) -> usize {
    (u64::from(rank).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize
}

fn value_bytes(word: u64, len: usize) -> Vec<u8> {
    let mut v = vec![word as u8; len];
    v[..8].copy_from_slice(&word.to_le_bytes());
    v
}

/// Deterministic request generator; the system sees only its output.
#[derive(Debug, Clone)]
struct Gen {
    rng: SplitMix64,
    zipf: Rc<Zipf>,
    spec: ServeSpec,
}

impl Gen {
    fn new(spec: &ServeSpec, zipf: &Rc<Zipf>, seed: u64, stream: u64) -> Self {
        Gen {
            rng: SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)),
            zipf: zipf.clone(),
            spec: *spec,
        }
    }

    /// Exponential inter-arrival gap of a Poisson process at `rps`.
    fn gap_ns(&mut self, rps: f64) -> u64 {
        let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        ((-(1.0 - u).ln()) * 1e9 / rps).round().max(1.0) as u64
    }

    fn op(&mut self) -> Op {
        let rank = self.zipf.sample(&mut self.rng) as u32;
        let r = self.rng.next_below(1000);
        let kind = if r < self.spec.get_permille {
            Kind::Get
        } else if r < self.spec.get_permille + self.spec.set_permille {
            Kind::Set
        } else {
            Kind::Append
        };
        let value = match kind {
            Kind::Get => Vec::new(),
            _ => value_bytes(self.rng.next_u64(), self.spec.value_len),
        };
        Op { rank, kind, value }
    }
}

// ---------------------------------------------------------------------
// Traced transport
// ---------------------------------------------------------------------

/// Transport wrapper owned by the benchmark: transport calls made
/// *inside* `RedisServer::poll` / `RedisClient` become child spans of
/// the redis-mini span around them, named by their outcome.
pub struct Traced<T: Transport> {
    inner: T,
    node: Arc<NodeCtx>,
    /// Whether this is the server's end of the connection.
    server_side: bool,
    tracer: Tracer,
    tally: Rc<IpcTally>,
}

/// Counts the wrapper keeps beside the spans.
#[derive(Debug, Default)]
struct IpcTally {
    bytes_sent: Cell<u64>,
    /// Simulated ns the server spent on polls that found nothing. An
    /// empty poll consumes no message, so its span holds no catch-up to
    /// a publish timestamp: it is exactly the poll's charge.
    server_empty_poll_sim_ns: Cell<u64>,
}

impl<T: Transport> Transport for Traced<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), SimError> {
        self.tracer.enter(0, self.node.clock().now());
        let out = self.inner.send(payload);
        let span = match &out {
            Err(SimError::WouldBlock) => Span::IpcSendBackpressure,
            _ => {
                let sent = &self.tally.bytes_sent;
                sent.set(sent.get() + payload.len() as u64);
                Span::IpcSend
            }
        };
        self.tracer.exit(span, self.node.clock().now());
        out
    }

    fn try_recv(&mut self) -> Result<Vec<u8>, SimError> {
        let start = self.node.clock().now();
        self.tracer.enter(0, start);
        let out = self.inner.try_recv();
        let end = self.node.clock().now();
        let span = match &out {
            Err(SimError::WouldBlock) => {
                if self.server_side {
                    let idle = &self.tally.server_empty_poll_sim_ns;
                    idle.set(idle.get() + (end - start));
                }
                Span::IpcRecvEmpty
            }
            _ => Span::IpcRecv,
        };
        self.tracer.exit(span, end);
        out
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

// ---------------------------------------------------------------------
// The rack under test
// ---------------------------------------------------------------------

struct Conn<T: Transport> {
    node: Arc<NodeCtx>,
    client: RedisClient<T>,
    /// Sent, unanswered: scheduled arrival and expected reply, FIFO.
    inflight: VecDeque<(u64, Expect)>,
    /// Staged for the next send (this tick's arrivals plus anything the
    /// transport pushed back).
    staged_cmds: Vec<Command>,
    staged: Vec<(u64, Expect)>,
}

struct World<T: Transport> {
    rack: FlacRack,
    server: RedisServer<T>,
    conns: Vec<Conn<T>>,
    model: Model,
    boot: Duration,
}

/// How a connection's endpoints are made: `(server side, client side)`.
type MakePair<'a, T> = &'a dyn Fn(&FlacRack, usize) -> Result<(T, T), SimError>;

fn ipc_pair(
    rack: &FlacRack,
    i: usize,
) -> Result<
    (
        flacos_ipc::channel::FlacEndpoint,
        flacos_ipc::channel::FlacEndpoint,
    ),
    SimError,
> {
    rack.channel(0, i + 1)
}

fn net_pair(
    rack: &FlacRack,
    i: usize,
) -> Result<
    (
        flacos_ipc::netstack::NetEndpoint,
        flacos_ipc::netstack::NetEndpoint,
    ),
    SimError,
> {
    Ok(NetPair::connect(
        rack.sim().node(0),
        rack.sim().node(i + 1),
        NetConfig::ten_gbe(),
        i as u16,
    ))
}

/// Boot the rack, connect the clients, preload every key through the
/// transport (closed loop, replies checked).
fn setup<T: Transport>(
    spec: &ServeSpec,
    seed: u64,
    make: MakePair<'_, T>,
) -> Result<World<T>, SimError> {
    let t = Instant::now();
    let rack = FlacRack::boot(RackConfig::n_node(CONNS + 1).with_global_mem(spec.global_mem))?;
    let boot = t.elapsed();
    let mut server_eps = Vec::with_capacity(CONNS);
    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let (sep, cep) = make(&rack, i)?;
        server_eps.push(sep);
        conns.push(Conn {
            node: rack.sim().node(i + 1),
            client: RedisClient::new(rack.sim().node(i + 1), cep),
            inflight: VecDeque::new(),
            staged_cmds: Vec::new(),
            staged: Vec::new(),
        });
    }
    let server = RedisServer::with_connections(rack.sim().node(0), server_eps);
    let mut world = World {
        rack,
        server,
        conns,
        model: Model::new(),
        boot,
    };
    let mut rng = SplitMix64::new(seed ^ 0x9E10_AD00);
    let mut rank = 0u32;
    let out = run_closed(
        &mut world,
        &mut || {
            let op = Op {
                rank,
                kind: Kind::Set,
                value: value_bytes(rng.next_u64(), PRELOAD_VALUE_LEN),
            };
            rank += 1;
            op
        },
        KEYS as u64,
        &Tracer::off(),
    )?;
    if out.failed > 0 {
        return Err(SimError::Protocol(format!(
            "{} preload SETs were not acknowledged",
            out.failed
        )));
    }
    Ok(world)
}

fn start_time<T: Transport>(world: &World<T>) -> u64 {
    world
        .conns
        .iter()
        .map(|c| c.node.clock().now())
        .chain(std::iter::once(world.server.node().clock().now()))
        .max()
        .unwrap_or(0)
}

fn end_time<T: Transport>(world: &World<T>) -> u64 {
    world
        .conns
        .iter()
        .map(|c| c.node.clock().now())
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct PhaseOut {
    /// Per-request latency in completion order, simulated ns.
    latencies: Vec<u64>,
    /// Send time − scheduled arrival per request (open loop only).
    sched_delays: Vec<u64>,
    failed: u64,
    backpressure: u64,
    sim_start_ns: u64,
    sim_end_ns: u64,
    /// Scheduled arrival of the last request (open loop only).
    last_arrival_ns: u64,
    /// Wall ns (from phase start) at each segment boundary.
    marks_ns: Vec<u64>,
    /// Rack counters when the warm-up segment ended.
    after_warmup: Option<StatsSnapshot>,
}

impl PhaseOut {
    fn rps(&self) -> f64 {
        self.latencies.len() as f64 * 1e9 / (self.sim_end_ns - self.sim_start_ns).max(1) as f64
    }

    /// Completion rate ÷ realised arrival rate: 1 when the last reply
    /// follows the last arrival closely, lower as a backlog grows.
    fn achieved_share(&self) -> f64 {
        (self.last_arrival_ns - self.sim_start_ns) as f64
            / (self.sim_end_ns - self.sim_start_ns).max(1) as f64
    }
}

/// Send every connection's staged batch. In the open loop `send_at` is
/// the simulated time the sends begin, for the generator's lateness.
fn send_staged<T: Transport>(
    conns: &mut [Conn<T>],
    tick: u64,
    out: &mut PhaseOut,
    tracer: &Tracer,
    send_at: Option<u64>,
) -> Result<bool, SimError> {
    let mut sent_any = false;
    for conn in conns.iter_mut() {
        if conn.staged_cmds.is_empty() {
            continue;
        }
        let clock = conn.node.clock();
        let res = tracer.span(Span::ClientSend, tick, clock, || {
            conn.client.send_pipelined(&conn.staged_cmds)
        });
        match res {
            Ok(()) => {
                if let Some(at) = send_at {
                    out.sched_delays
                        .extend(conn.staged.iter().map(|(arrival, _)| at - arrival));
                }
                conn.inflight.extend(conn.staged.drain(..));
                conn.staged_cmds.clear();
                sent_any = true;
            }
            Err(SimError::WouldBlock) => out.backpressure += 1, // retry next tick
            Err(e) => return Err(e),
        }
    }
    Ok(sent_any)
}

/// Poll the server once, then drain every connection's replies through
/// the oracle. Returns whether anything progressed.
fn serve_and_collect<T: Transport>(
    world: &mut World<T>,
    tick: u64,
    out: &mut PhaseOut,
    tracer: &Tracer,
) -> Result<bool, SimError> {
    tracer.enter(tick, world.server.node().clock().now());
    let served = world.server.poll();
    tracer.exit(
        match served {
            Ok(0) => Span::ServerPollIdle,
            _ => Span::ServerPoll,
        },
        world.server.node().clock().now(),
    );
    let mut progressed = served? > 0;
    for conn in world.conns.iter_mut() {
        // One span per connection drain; the transport polls and the
        // oracle's comparisons inside it are its children.
        let clock = conn.node.clock();
        tracer.enter(tick, clock.now());
        let drained = loop {
            match conn.client.recv_reply() {
                Ok(reply) => {
                    let Some((arrival, expect)) = conn.inflight.pop_front() else {
                        break Err(SimError::Protocol("reply without request".into()));
                    };
                    if !tracer.span(Span::Oracle, tick, clock, || expect.matches(&reply)) {
                        out.failed += 1;
                    }
                    out.latencies.push(clock.now() - arrival);
                    progressed = true;
                }
                Err(SimError::WouldBlock) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        tracer.exit(Span::ClientRecv, clock.now());
        drained?;
    }
    Ok(progressed)
}

/// Open loop: Poisson arrivals at `rps` pipelined per tick; a request's
/// latency runs from its *scheduled arrival*, so time spent queued
/// behind a stall is counted. With `segment > 0` the phase is cut into
/// equal-completion-count segments for the wall-clock rate.
fn run_open_loop<T: Transport>(
    world: &mut World<T>,
    gen: &mut Gen,
    rps: f64,
    requests: u64,
    segment: u64,
    tracer: &Tracer,
) -> Result<PhaseOut, SimError> {
    let mut out = PhaseOut {
        latencies: Vec::with_capacity(requests as usize),
        sched_delays: Vec::with_capacity(requests as usize),
        ..PhaseOut::default()
    };
    let wall = Instant::now();
    let t0 = start_time(world);
    out.sim_start_ns = t0;
    if segment > 0 {
        out.marks_ns.push(0);
    }
    let mut next_arrival = t0 + gen.gap_ns(rps);
    let mut staged_total = 0u64;
    let mut now_tick = t0;
    let mut tick_no = 0u64;
    let mut idle_ticks = 0u64;

    while (out.latencies.len() as u64) < requests {
        // Fast-forward across dead air when nothing is in flight.
        let quiescent = world
            .conns
            .iter()
            .all(|c| c.inflight.is_empty() && c.staged_cmds.is_empty());
        if quiescent && staged_total < requests && next_arrival > now_tick + TICK_NS {
            now_tick = next_arrival - (next_arrival - now_tick) % TICK_NS;
        }
        let tick_end = now_tick + TICK_NS;
        tick_no += 1;

        if staged_total < requests && next_arrival < tick_end {
            tracer.enter(tick_no, now_tick);
            while staged_total < requests && next_arrival < tick_end {
                let op = gen.op();
                let conn = &mut world.conns[conn_of(op.rank)];
                let (cmd, expect) = world.model.stage(op);
                conn.staged_cmds.push(cmd);
                conn.staged.push((next_arrival, expect));
                out.last_arrival_ns = next_arrival;
                staged_total += 1;
                next_arrival += gen.gap_ns(rps);
            }
            tracer.exit(Span::Gen, tick_end);
        }

        for conn in world.conns.iter() {
            conn.node.clock().advance_to(tick_end);
        }
        send_staged(&mut world.conns, tick_no, &mut out, tracer, Some(tick_end))?;

        // No explicit clock coupling: ring publish timestamps and fabric
        // arrival times already forbid consuming a message before it was
        // sent, so client nodes stay parallel and only the single-threaded
        // server serializes.
        let before = out.latencies.len() as u64;
        let progressed = serve_and_collect(world, tick_no, &mut out, tracer)?;
        if let Some(segment) = std::num::NonZeroU64::new(segment) {
            let (was, is) = (before / segment, out.latencies.len() as u64 / segment);
            for _ in was..is {
                out.marks_ns.push(wall.elapsed().as_nanos() as u64);
            }
            if was == 0 && is > 0 {
                out.after_warmup = Some(snapshot(world.rack.sim()));
            }
        }

        now_tick = tick_end;
        idle_ticks = if progressed { 0 } else { idle_ticks + 1 };
        if idle_ticks > MAX_IDLE_TICKS {
            return Err(SimError::Timeout {
                waited_ns: idle_ticks * TICK_NS,
            });
        }
    }
    out.sim_end_ns = end_time(world);
    Ok(out)
}

/// Closed loop: every connection keeps one [`PIPELINE_DEPTH`]-deep
/// batch outstanding and sends the next only after the previous one is
/// fully answered. `next_op` must yield ops whose connection is
/// `conn_of(rank)`; batches are filled per connection in draw order.
fn run_closed<T: Transport>(
    world: &mut World<T>,
    next_op: &mut dyn FnMut() -> Op,
    requests: u64,
    tracer: &Tracer,
) -> Result<PhaseOut, SimError> {
    let mut out = PhaseOut {
        latencies: Vec::with_capacity(requests as usize),
        ..PhaseOut::default()
    };
    let t0 = start_time(world);
    out.sim_start_ns = t0;
    for conn in world.conns.iter() {
        conn.node.clock().advance_to(t0);
    }
    world.server.node().clock().advance_to(t0);

    // Ops drawn but not yet staged, per connection (a draw lands on
    // whatever connection its key maps to).
    let mut backlog: Vec<VecDeque<Op>> = vec![VecDeque::new(); CONNS];
    let mut drawn = 0u64;
    let mut round = 0u64;
    let mut idle_rounds = 0u64;
    while (out.latencies.len() as u64) < requests {
        round += 1;
        let mut progressed = false;
        tracer.enter(round, 0);
        for (i, conn) in world.conns.iter_mut().enumerate() {
            if !conn.inflight.is_empty() || !conn.staged_cmds.is_empty() {
                continue;
            }
            // Fill this connection's batch, drawing until it is full or
            // the phase's ops are exhausted.
            while backlog[i].len() < PIPELINE_DEPTH && drawn < requests {
                let op = next_op();
                drawn += 1;
                backlog[conn_of(op.rank)].push_back(op);
            }
            let now = conn.node.clock().now();
            let take = PIPELINE_DEPTH.min(backlog[i].len());
            for op in backlog[i].drain(..take) {
                let (cmd, expect) = world.model.stage(op);
                conn.staged_cmds.push(cmd);
                conn.staged.push((now, expect));
            }
        }
        tracer.exit(Span::Gen, 0);
        progressed |= send_staged(&mut world.conns, round, &mut out, tracer, None)?;
        progressed |= serve_and_collect(world, round, &mut out, tracer)?;
        idle_rounds = if progressed { 0 } else { idle_rounds + 1 };
        if idle_rounds > MAX_IDLE_TICKS {
            return Err(SimError::Timeout {
                waited_ns: idle_rounds,
            });
        }
    }
    out.sim_end_ns = end_time(world);
    Ok(out)
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------

/// One workload's reference open loop on an already set-up world.
fn reference_phase<T: Transport>(
    world: &mut World<T>,
    spec: &ServeSpec,
    zipf: &Rc<Zipf>,
    seed: u64,
    segment: u64,
    tracer: &Tracer,
) -> Result<PhaseOut, SimError> {
    let mut gen = Gen::new(spec, zipf, seed, 1);
    run_open_loop(
        world,
        &mut gen,
        spec.reference_rps,
        segment * (MEASURED_SEGMENTS + 1),
        segment,
        tracer,
    )
}

pub fn run_end_to_end(spec: &ServeSpec, cfg: &RunConfig) -> Result<EndToEnd, SimError> {
    let zipf = Rc::new(Zipf::new(KEYS, ZIPF_SKEW));
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup(spec, cfg.seed, &ipc_pair)?);
        setups.push(t.elapsed());
    }
    let mut world = world.expect("SETUP_REPS > 0");
    let mut notes = Vec::new();
    let mut violations = Vec::new();

    // Open loop at the reference rate.
    let segment = cfg.scaled(spec.segment_requests);
    let reference = reference_phase(&mut world, spec, &zipf, cfg.seed, segment, &Tracer::off())?;
    let warm_snap = reference
        .after_warmup
        .as_ref()
        .expect("warm-up boundary is crossed");
    let delta = Delta::between(warm_snap, &snapshot(world.rack.sim()));
    let measured = &reference.latencies[segment as usize..];
    let latency = summarize(measured);
    if !latency.supported {
        violations.push(format!("p99 from only {} samples", latency.samples));
    }
    let ops = measured.len() as u64;
    let host = segment_rate(&reference.marks_ns, segment);
    notes.push(format!(
        "open loop @ {:.0} rps: {} samples, achieved/arrived {:.4}, backpressure {}",
        spec.reference_rps,
        latency.samples,
        reference.achieved_share(),
        reference.backpressure
    ));
    let mut attempted = reference.latencies.len() as u64;
    let mut failed = reference.failed;

    // The rate ladder.
    let mut steps = Vec::new();
    for (i, &rps) in spec.ladder_rps.iter().enumerate() {
        let mut gen = Gen::new(spec, &zipf, cfg.seed, 100 + i as u64);
        let n = cfg.scaled(spec.ladder_requests);
        let step = run_open_loop(&mut world, &mut gen, rps, n, 0, &Tracer::off())?;
        let mut sorted = step.latencies.clone();
        sorted.sort_unstable();
        steps.push(LadderStep {
            offered: rps,
            achieved_share: step.achieved_share(),
            p99_ns: percentile(&sorted, 99.0),
            failed: step.failed,
        });
        attempted += n;
        failed += step.failed;
    }
    for s in &steps {
        notes.push(format!(
            "ladder {:>7.0} rps: p99 {:>9} ns, achieved/arrived {:.4}, failed {} -> {}",
            s.offered,
            s.p99_ns,
            s.achieved_share,
            s.failed,
            if s.meets(SLO_P99_NS) {
                "meets"
            } else {
                "misses"
            }
        ));
    }
    let sim_slo_ops_per_s = match slo::highest_meeting(&steps, SLO_P99_NS) {
        Ok(rate) => rate,
        Err(e) => {
            violations.push(format!("SLO ladder: {e}"));
            // Keep the metric non-zero so the report stays well-formed.
            spec.ladder_rps[0]
        }
    };

    // Closed loop for saturation.
    let mut gen = Gen::new(spec, &zipf, cfg.seed, 2);
    let n = cfg.scaled(spec.closed_requests);
    let closed = run_closed(&mut world, &mut || gen.op(), n, &Tracer::off())?;
    attempted += n;
    failed += closed.failed;
    let sim_ops_per_s = closed.rps();
    drop(world);

    // Baseline: the same generated stream over tcp/ip.
    let mut net = setup(spec, cfg.seed, &net_pair)?;
    let n = cfg.scaled(spec.baseline_requests);
    let mut gen = Gen::new(spec, &zipf, cfg.seed, 1);
    let base = run_open_loop(&mut net, &mut gen, spec.reference_rps, n, 0, &Tracer::off())?;
    attempted += n;
    failed += base.failed;
    let baseline_p50_ns = summarize(&base.latencies).p50;
    notes.push(format!(
        "baseline tcp/ip: p50 {} ns over the first {} requests of the same stream",
        baseline_p50_ns, n
    ));

    Ok(EndToEnd {
        latency,
        sim_ops_per_s,
        sim_slo_ops_per_s,
        sim_fabric_ops_per_op: delta.fabric_ops() as f64 / ops as f64,
        sim_bytes_moved_per_op: delta.bytes_moved() as f64 / ops as f64,
        baseline_speedup: baseline_p50_ns as f64 / latency.p50 as f64,
        baseline_p50_ns,
        host,
        setup_s: median_secs(&setups),
        attempted,
        failed,
        fingerprint: fingerprint(
            measured,
            &delta,
            &[
                sim_ops_per_s.to_bits(),
                sim_slo_ops_per_s.to_bits(),
                baseline_p50_ns,
            ],
        ),
        notes,
        violations,
    })
}

// ---------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------

pub fn run_layers(spec: &ServeSpec, cfg: &RunConfig) -> Result<Layers, SimError> {
    let zipf = Rc::new(Zipf::new(KEYS, ZIPF_SKEW));
    // The traced run uses a quarter of the ops.
    let segment = (cfg.scaled(spec.segment_requests) / 4).max(1);
    let ops = segment * (MEASURED_SEGMENTS + 1);

    // Untraced pass over the same ops, for the tracing overhead.
    let mut plain = setup(spec, cfg.seed, &ipc_pair)?;
    let t = Instant::now();
    reference_phase(&mut plain, spec, &zipf, cfg.seed, segment, &Tracer::off())?;
    let untraced_wall = t.elapsed();
    drop(plain);

    let tracer = Tracer::on();
    let tally = Rc::new(IpcTally::default());
    let make = |rack: &FlacRack, i: usize| {
        let (sep, cep) = ipc_pair(rack, i)?;
        let wrap = |inner, node, server_side| Traced {
            inner,
            node,
            server_side,
            tracer: tracer.clone(),
            tally: tally.clone(),
        };
        Ok((
            wrap(sep, rack.sim().node(0), true),
            wrap(cep, rack.sim().node(i + 1), false),
        ))
    };
    // Set-up traffic goes through the wrapper too; only the phase below
    // is the traced phase.
    tracer.set_active(false);
    let mut world = setup(spec, cfg.seed, &make)?;
    tracer.set_active(true);
    tally.bytes_sent.set(0);
    tally.server_empty_poll_sim_ns.set(0);
    let server_charged = |w: &World<_>| w.server.node().stats().snapshot().total_charged_ns();
    let server_before = server_charged(&world);
    let before = snapshot(world.rack.sim());
    let stats_before = world.server.stats();
    tracer.enter(0, world.server.node().clock().now());
    let phase = reference_phase(&mut world, spec, &zipf, cfg.seed, segment, &tracer)?;
    tracer.exit(Span::Driver, world.server.node().clock().now());
    let delta = Delta::between(&before, &snapshot(world.rack.sim()));
    // Busy = everything the server node was charged, less its polls
    // that found nothing.
    let server_busy_ns =
        server_charged(&world) - server_before - tally.server_empty_poll_sim_ns.get();
    let stats = world.server.stats();
    let trace = tracer.report();

    let (mut v, violations) = common_layers(
        &trace,
        &delta,
        ops,
        untraced_wall,
        world.boot,
        &[
            crate::trace::Layer::FlacStore,
            crate::trace::Layer::FlacosFault,
            crate::trace::Layer::Serverless,
        ],
        spec.name,
    );

    let send = trace.of(Span::IpcSend);
    let recv = trace.of(Span::IpcRecv);
    let per_op = |x: u64| x as f64 / ops as f64;
    v.set("flacos-ipc.msgs_per_op", per_op(send.count));
    v.set(
        "flacos-ipc.bytes_per_msg",
        ratio(tally.bytes_sent.get() as f64, send.count as f64),
    );
    v.set(
        "flacos-ipc.send_sim_ns_per_msg",
        ratio(send.sim_total_ns as f64, send.count as f64),
    );
    v.set(
        "flacos-ipc.recv_sim_ns_per_msg",
        ratio(recv.sim_total_ns as f64, recv.count as f64),
    );
    v.set(
        "flacos-ipc.send_host_ns_per_msg",
        ratio(send.host_total_ns as f64, send.count as f64),
    );
    v.set(
        "flacos-ipc.recv_host_ns_per_msg",
        ratio(recv.host_total_ns as f64, recv.count as f64),
    );
    v.set(
        "flacos-ipc.empty_polls_per_op",
        per_op(trace.of(Span::IpcRecvEmpty).count),
    );
    v.set(
        "flacos-ipc.backpressure_per_op",
        per_op(trace.of(Span::IpcSendBackpressure).count),
    );

    let busy = trace.of(Span::ServerPoll);
    let polls = trace.sum(&[Span::ServerPoll, Span::ServerPollIdle]);
    let client = trace.sum(&[Span::ClientSend, Span::ClientRecv]);
    v.set(
        "redis-mini.frames_per_poll",
        ratio(
            (stats.frames - stats_before.frames) as f64,
            busy.count as f64,
        ),
    );
    v.set(
        "redis-mini.reply_batches_per_op",
        per_op(stats.reply_batches - stats_before.reply_batches),
    );
    v.set(
        "redis-mini.protocol_errors",
        (stats.protocol_errors - stats_before.protocol_errors) as f64,
    );
    v.set(
        "redis-mini.server_util",
        server_busy_ns as f64 / (phase.sim_end_ns - phase.sim_start_ns).max(1) as f64,
    );
    v.set(
        "redis-mini.server_self_sim_ns_per_op",
        per_op(polls.sim_self_ns),
    );
    v.set(
        "redis-mini.server_self_host_ns_per_op",
        per_op(polls.host_self_ns),
    );
    v.set(
        "redis-mini.client_self_host_ns_per_op",
        per_op(client.host_self_ns),
    );
    let mut delays = phase.sched_delays.clone();
    delays.sort_unstable();
    v.set("bench.sched_delay_p50_ns", percentile(&delays, 50.0) as f64);
    probe_redis(spec, &zipf, cfg.seed, &mut v);
    Ok(Layers {
        values: v,
        attempted: phase.latencies.len() as u64,
        failed: phase.failed,
        trace,
        violations,
    })
}

/// Probes: replay the workload's own sampled commands through one
/// redis-mini entry point at a time, in isolation.
fn probe_redis(spec: &ServeSpec, zipf: &Rc<Zipf>, seed: u64, v: &mut LayerValues) {
    let mut gen = Gen::new(spec, zipf, seed, 1);
    let mut model = Model::new();
    let cmds: Vec<Command> = (0..PROBE_SAMPLE).map(|_| model.stage(gen.op()).0).collect();
    // ~200 k frames per probe: tens of milliseconds at least.
    let reps = 48;

    let t = Instant::now();
    let mut wire = Vec::new();
    for _ in 0..reps {
        wire = cmds.iter().map(Command::encode).collect::<Vec<_>>();
        std::hint::black_box(&wire);
    }
    let frames = (reps * cmds.len()) as f64;
    v.set(
        "redis-mini.resp_encode_host_ns_per_frame",
        t.elapsed().as_nanos() as f64 / frames,
    );

    let t = Instant::now();
    for _ in 0..reps {
        for w in &wire {
            let parsed = Command::parse_frame(std::hint::black_box(w));
            assert!(matches!(parsed, Ok(Some(_))), "probe frame must parse");
        }
    }
    v.set(
        "redis-mini.resp_parse_host_ns_per_frame",
        t.elapsed().as_nanos() as f64 / frames,
    );

    let rack = rack_sim::Rack::new(RackConfig::small_test());
    let node = rack.node(0);
    let mut store = KeyspaceStore::new();
    let sim0 = node.clock().now();
    let t = Instant::now();
    for cmd in &cmds {
        std::hint::black_box(store.execute(&node, cmd.clone()));
    }
    v.set(
        "redis-mini.store_exec_host_ns_per_cmd",
        t.elapsed().as_nanos() as f64 / cmds.len() as f64,
    );
    v.set(
        "redis-mini.store_exec_sim_ns_per_cmd",
        (node.clock().now() - sim0) as f64 / cmds.len() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: ServeSpec = ServeSpec {
        segment_requests: 200,
        ladder_requests: 200,
        closed_requests: 512,
        baseline_requests: 200,
        ..READ_SMALL
    };

    #[test]
    fn model_store_tracks_set_append_get() {
        let mut m = Model::new();
        let v1 = value_bytes(7, 16);
        let v2 = value_bytes(9, 16);
        assert_eq!(
            m.stage(Op {
                rank: 3,
                kind: Kind::Set,
                value: v1.clone()
            })
            .1,
            Expect::Ok
        );
        assert_eq!(
            m.stage(Op {
                rank: 3,
                kind: Kind::Append,
                value: v2.clone()
            })
            .1,
            Expect::Len(32)
        );
        let (_, expect) = m.stage(Op {
            rank: 3,
            kind: Kind::Get,
            value: Vec::new(),
        });
        let whole = [v1, v2].concat();
        assert!(expect.matches(&Reply::Bulk(whole.clone())));
        let mut wrong = whole;
        wrong[20] ^= 1;
        assert!(!expect.matches(&Reply::Bulk(wrong)), "a wrong answer fails");
        assert!(!expect.matches(&Reply::Null));
        assert!(!Expect::Ok.matches(&Reply::Error("ERR".into())));
    }

    #[test]
    fn keys_spread_over_all_connections() {
        let mut seen = [0usize; CONNS];
        for rank in 0..1024 {
            seen[conn_of(rank)] += 1;
        }
        assert!(seen.iter().all(|&n| n > 64), "{seen:?}");
    }

    #[test]
    fn tiny_run_is_error_free_and_repeats_exactly() {
        let cfg = RunConfig {
            seed: 42,
            seconds: 10,
        };
        let zipf = Rc::new(Zipf::new(KEYS, ZIPF_SKEW));
        let run = || {
            let mut w = setup(&TINY, cfg.seed, &ipc_pair).unwrap();
            let p = reference_phase(&mut w, &TINY, &zipf, cfg.seed, 200, &Tracer::off()).unwrap();
            assert_eq!(p.failed, 0);
            assert_eq!(p.latencies.len(), 1_800);
            assert_eq!(p.marks_ns.len(), 10);
            p.latencies
        };
        assert_eq!(run(), run(), "same seed, same latency stream");
    }
}
