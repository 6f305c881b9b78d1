//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own files, around
//! calls into each layer's public functions, on both clocks: wall-clock
//! ns from one monotonic origin and simulated ns read from the acting
//! node's clock. A layer's *self* time is its span minus the interval
//! its child spans cover, so the self times of all spans telescope to
//! exactly the root's duration — the identity every traced run checks.
//!
//! Everything runs on the one measuring thread, so open spans are a
//! plain stack. A disabled tracer costs one branch per call.

use crate::json::Json;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Layers are crate names; the three `bench.*` parts are the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    FlacosIpc,
    RedisMini,
    Flacdk,
    FlacStore,
    Serverless,
    FlacosMem,
    FlacosFs,
    FlacosFault,
    BenchGen,
    BenchOracle,
    BenchDriver,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::FlacosIpc => "flacos-ipc",
            Layer::RedisMini => "redis-mini",
            Layer::Flacdk => "flacdk",
            Layer::FlacStore => "flac-store",
            Layer::Serverless => "serverless",
            Layer::FlacosMem => "flacos-mem",
            Layer::FlacosFs => "flacos-fs",
            Layer::FlacosFault => "flacos-fault",
            Layer::BenchGen => "bench.gen",
            Layer::BenchOracle => "bench.oracle",
            Layer::BenchDriver => "bench.driver",
        }
    }
}

/// Every kind of span the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Root of a traced phase; its self time is the driver's residual.
    Driver,
    Gen,
    Oracle,
    IpcSend,
    IpcSendBackpressure,
    IpcRecv,
    IpcRecvEmpty,
    ClientSend,
    ClientRecv,
    ServerPoll,
    ServerPollIdle,
    SyncPublish,
    SyncCombine,
    SyncPoll,
    SyncReplica,
    SyncReadLocal,
    SyncUpdate,
    SyncRead,
    StoreClaim,
    StoreEnsure,
    StoreVerify,
    StartContainer,
    FsRead,
    AppWrite,
    AppRead,
    FaultRefresh,
    HandleCrash,
}

impl Span {
    pub const ALL: [Span; 27] = [
        Span::Driver,
        Span::Gen,
        Span::Oracle,
        Span::IpcSend,
        Span::IpcSendBackpressure,
        Span::IpcRecv,
        Span::IpcRecvEmpty,
        Span::ClientSend,
        Span::ClientRecv,
        Span::ServerPoll,
        Span::ServerPollIdle,
        Span::SyncPublish,
        Span::SyncCombine,
        Span::SyncPoll,
        Span::SyncReplica,
        Span::SyncReadLocal,
        Span::SyncUpdate,
        Span::SyncRead,
        Span::StoreClaim,
        Span::StoreEnsure,
        Span::StoreVerify,
        Span::StartContainer,
        Span::FsRead,
        Span::AppWrite,
        Span::AppRead,
        Span::FaultRefresh,
        Span::HandleCrash,
    ];

    /// The layer a span belongs to and its name within the layer.
    fn info(self) -> (Layer, &'static str) {
        match self {
            Span::Driver => (Layer::BenchDriver, "driver"),
            Span::Gen => (Layer::BenchGen, "gen"),
            Span::Oracle => (Layer::BenchOracle, "oracle"),
            Span::IpcSend => (Layer::FlacosIpc, "send"),
            Span::IpcSendBackpressure => (Layer::FlacosIpc, "send_backpressure"),
            Span::IpcRecv => (Layer::FlacosIpc, "recv"),
            Span::IpcRecvEmpty => (Layer::FlacosIpc, "recv_empty"),
            Span::ClientSend => (Layer::RedisMini, "client_send"),
            Span::ClientRecv => (Layer::RedisMini, "client_recv"),
            Span::ServerPoll => (Layer::RedisMini, "server_poll"),
            Span::ServerPollIdle => (Layer::RedisMini, "server_poll_idle"),
            Span::SyncPublish => (Layer::Flacdk, "nr_publish_batch"),
            Span::SyncCombine => (Layer::Flacdk, "nr_combine"),
            Span::SyncPoll => (Layer::Flacdk, "nr_poll"),
            Span::SyncReplica => (Layer::Flacdk, "sync_replica"),
            Span::SyncReadLocal => (Layer::Flacdk, "read_local"),
            Span::SyncUpdate => (Layer::Flacdk, "update"),
            Span::SyncRead => (Layer::Flacdk, "read"),
            Span::StoreClaim => (Layer::FlacStore, "claim"),
            Span::StoreEnsure => (Layer::FlacStore, "ensure"),
            Span::StoreVerify => (Layer::FlacStore, "read_chunk"),
            Span::StartContainer => (Layer::Serverless, "start_container"),
            Span::FsRead => (Layer::FlacosFs, "read_file"),
            Span::AppWrite => (Layer::FlacosMem, "space_write"),
            Span::AppRead => (Layer::FlacosMem, "space_read"),
            Span::FaultRefresh => (Layer::FlacosFault, "refresh"),
            Span::HandleCrash => (Layer::FlacosFault, "handle_node_crash"),
        }
    }

    pub fn layer(self) -> Layer {
        self.info().0
    }

    pub fn label(self) -> &'static str {
        self.info().1
    }
}

/// Accumulated totals of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAcc {
    pub count: u64,
    pub host_total_ns: u64,
    pub host_self_ns: u64,
    pub sim_total_ns: u64,
    pub sim_self_ns: u64,
}

/// One recorded span, as exported to the Chrome trace.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub id: u64,
    /// Id of the enclosing span; `u64::MAX` for a root.
    pub parent: u64,
    pub span: Span,
    /// Request / start / cell-op / cycle id the span belongs to.
    pub op: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

/// Spans kept verbatim for the Chrome trace; later spans are only
/// folded into the per-kind totals, so memory stays bounded on
/// million-request runs.
const KEEP_SPANS: usize = 50_000;

#[derive(Debug)]
struct Open {
    id: u64,
    op: u64,
    host_start_ns: u64,
    sim_start_ns: u64,
    child_host_ns: u64,
    child_sim_ns: u64,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    /// Spans are recorded only while active, so set-up traffic through
    /// an instrumented transport stays out of the traced phase.
    active: bool,
    stack: Vec<Open>,
    acc: [SpanAcc; Span::ALL.len()],
    root_host_ns: u64,
    next_id: u64,
    kept: Vec<SpanRecord>,
}

/// Handle to the recorder; clones share it. `Tracer::off()` records
/// nothing.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Rc<RefCell<Inner>>>);

impl Tracer {
    pub fn off() -> Self {
        Tracer(None)
    }

    pub fn on() -> Self {
        Tracer(Some(Rc::new(RefCell::new(Inner {
            origin: Instant::now(),
            active: true,
            stack: Vec::new(),
            acc: [SpanAcc::default(); Span::ALL.len()],
            root_host_ns: 0,
            next_id: 0,
            kept: Vec::new(),
        }))))
    }

    /// Pause or resume recording (no span may be open).
    pub fn set_active(&self, active: bool) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            assert!(inner.stack.is_empty(), "toggling a tracer mid-span");
            inner.active = active;
        }
    }

    /// Open a span for op `op` at simulated time `sim_ns`.
    #[inline]
    pub fn enter(&self, op: u64, sim_ns: u64) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            if !inner.active {
                return;
            }
            let now = inner.origin.elapsed().as_nanos() as u64;
            inner.enter_at(op, now, sim_ns);
        }
    }

    /// Close the innermost open span as a `span` (the kind may depend
    /// on the outcome, e.g. an empty poll) at simulated time `sim_ns`.
    #[inline]
    pub fn exit(&self, span: Span, sim_ns: u64) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            if !inner.active {
                return;
            }
            let now = inner.origin.elapsed().as_nanos() as u64;
            inner.exit_at(span, now, sim_ns);
        }
    }

    /// Run `f` inside a `span` on `clock`.
    #[inline]
    pub fn span<R>(
        &self,
        span: Span,
        op: u64,
        clock: &rack_sim::SimClock,
        f: impl FnOnce() -> R,
    ) -> R {
        if self.0.is_none() {
            return f();
        }
        self.enter(op, clock.now());
        let out = f();
        self.exit(span, clock.now());
        out
    }

    /// Totals so far.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open: an unbalanced enter/exit would
    /// silently break the self-time identity.
    pub fn report(&self) -> TraceReport {
        let Some(inner) = &self.0 else {
            return TraceReport::default();
        };
        let inner = inner.borrow();
        assert!(inner.stack.is_empty(), "trace report with a span open");
        TraceReport {
            acc: inner.acc,
            root_host_ns: inner.root_host_ns,
            spans_recorded: inner.next_id,
            kept: inner.kept.clone(),
        }
    }
}

impl Inner {
    fn enter_at(&mut self, op: u64, host_ns: u64, sim_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            op,
            host_start_ns: host_ns,
            sim_start_ns: sim_ns,
            child_host_ns: 0,
            child_sim_ns: 0,
        });
    }

    fn exit_at(&mut self, span: Span, host_ns: u64, sim_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let host = host_ns - open.host_start_ns;
        // Simulated clocks are per node and only move forward, but a
        // child may run on another node's clock; saturate instead of
        // trusting cross-node ordering.
        let sim = sim_ns.saturating_sub(open.sim_start_ns);
        let acc = &mut self.acc[span as usize];
        acc.count += 1;
        acc.host_total_ns += host;
        acc.host_self_ns += host - open.child_host_ns;
        acc.sim_total_ns += sim;
        acc.sim_self_ns += sim.saturating_sub(open.child_sim_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_host_ns += host;
                p.child_sim_ns += sim;
                p.id
            }
            None => {
                self.root_host_ns += host;
                u64::MAX
            }
        };
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(SpanRecord {
                id: open.id,
                parent,
                span,
                op: open.op,
                host_start_ns: open.host_start_ns,
                host_end_ns: host_ns,
                sim_start_ns: open.sim_start_ns,
                sim_end_ns: sim_ns,
            });
        }
    }
}

/// Folded result of a traced phase.
#[derive(Debug, Clone)]
pub struct TraceReport {
    acc: [SpanAcc; Span::ALL.len()],
    /// Wall ns covered by root spans: the measured wall of the traced
    /// phase, by construction from the same timestamps.
    pub root_host_ns: u64,
    pub spans_recorded: u64,
    pub kept: Vec<SpanRecord>,
}

impl Default for TraceReport {
    fn default() -> Self {
        TraceReport {
            acc: [SpanAcc::default(); Span::ALL.len()],
            root_host_ns: 0,
            spans_recorded: 0,
            kept: Vec::new(),
        }
    }
}

impl TraceReport {
    pub fn of(&self, span: Span) -> SpanAcc {
        self.acc[span as usize]
    }

    /// Sum of several span kinds.
    pub fn sum(&self, spans: &[Span]) -> SpanAcc {
        let mut out = SpanAcc::default();
        for s in spans {
            let a = self.of(*s);
            out.count += a.count;
            out.host_total_ns += a.host_total_ns;
            out.host_self_ns += a.host_self_ns;
            out.sim_total_ns += a.sim_total_ns;
            out.sim_self_ns += a.sim_self_ns;
        }
        out
    }

    /// Wall self time of one layer.
    pub fn layer_self_host_ns(&self, layer: Layer) -> u64 {
        Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|s| self.of(*s).host_self_ns)
            .sum()
    }

    /// Spans recorded by one layer.
    pub fn layer_spans(&self, layer: Layer) -> u64 {
        Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|s| self.of(*s).count)
            .sum()
    }

    /// Σ self times of every span; equals [`Self::root_host_ns`] exactly
    /// when the spans nest properly.
    pub fn total_self_host_ns(&self) -> u64 {
        self.acc.iter().map(|a| a.host_self_ns).sum()
    }

    /// A layer's share of the traced wall.
    pub fn layer_share(&self, layer: Layer) -> f64 {
        self.layer_self_host_ns(layer) as f64 / self.root_host_ns.max(1) as f64
    }

    /// The kept spans as a Chrome trace-event document (`ph: "X"`
    /// complete events on one track, so nesting follows containment;
    /// simulated times and the op id travel in `args`).
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .kept
            .iter()
            .map(|r| {
                Json::obj([
                    (
                        "name",
                        Json::str(format!("{}.{}", r.span.layer().label(), r.span.label())),
                    ),
                    ("cat", Json::str(r.span.layer().label())),
                    ("ph", Json::str("X")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    ("ts", Json::Num(r.host_start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::Num((r.host_end_ns - r.host_start_ns) as f64 / 1e3),
                    ),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Int(r.id)),
                            (
                                "parent",
                                if r.parent == u64::MAX {
                                    Json::str("root")
                                } else {
                                    Json::Int(r.parent)
                                },
                            ),
                            ("op", Json::Int(r.op)),
                            ("sim_start_ns", Json::Int(r.sim_start_ns)),
                            ("sim_end_ns", Json::Int(r.sim_end_ns)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            (
                "otherData",
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("spans_recorded", Json::Int(self.spans_recorded)),
                    ("spans_kept", Json::Int(self.kept.len() as u64)),
                ]),
            ),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inner() -> Inner {
        Inner {
            origin: Instant::now(),
            active: true,
            stack: Vec::new(),
            acc: [SpanAcc::default(); Span::ALL.len()],
            root_host_ns: 0,
            next_id: 0,
            kept: Vec::new(),
        }
    }

    #[test]
    fn nested_self_times_sum_to_the_root() {
        // driver [0,100) ⊃ server_poll [10,70) ⊃ {recv [12,20), send [40,65)}
        //                ⊃ gen [80,95)
        let mut t = inner();
        t.enter_at(0, 0, 1_000);
        t.enter_at(1, 10, 1_000);
        t.enter_at(1, 12, 1_000);
        t.exit_at(Span::IpcRecv, 20, 1_700);
        t.enter_at(1, 40, 2_700);
        t.exit_at(Span::IpcSend, 65, 3_400);
        t.exit_at(Span::ServerPoll, 70, 3_500);
        t.enter_at(2, 80, 0);
        t.exit_at(Span::Gen, 95, 0);
        t.exit_at(Span::Driver, 100, 9_000);
        assert!(t.stack.is_empty());
        let rep = TraceReport {
            acc: t.acc,
            root_host_ns: t.root_host_ns,
            spans_recorded: t.next_id,
            kept: t.kept,
        };
        assert_eq!(rep.root_host_ns, 100);
        assert_eq!(rep.of(Span::ServerPoll).host_total_ns, 60);
        assert_eq!(rep.of(Span::ServerPoll).host_self_ns, 60 - 8 - 25);
        assert_eq!(rep.of(Span::ServerPoll).sim_self_ns, 2_500 - 700 - 700);
        assert_eq!(rep.layer_self_host_ns(Layer::FlacosIpc), 33);
        assert_eq!(rep.of(Span::Driver).host_self_ns, 100 - 60 - 15);
        assert_eq!(rep.total_self_host_ns(), rep.root_host_ns, "Σ self = root");
        assert_eq!(rep.spans_recorded, 5);
        // Parents are recorded by id; the root has none.
        let root = rep.kept.iter().find(|r| r.span == Span::Driver).unwrap();
        assert_eq!(root.parent, u64::MAX);
        let recv = rep.kept.iter().find(|r| r.span == Span::IpcRecv).unwrap();
        assert_eq!(recv.parent, 1);
    }

    #[test]
    fn several_roots_accumulate_and_off_records_nothing() {
        let mut t = inner();
        for k in 0..3u64 {
            t.enter_at(k, k * 100, 0);
            t.enter_at(k, k * 100 + 5, 0);
            t.exit_at(Span::Oracle, k * 100 + 9, 0);
            t.exit_at(Span::Driver, k * 100 + 50, 0);
        }
        assert_eq!(t.root_host_ns, 150);
        let total: u64 = t.acc.iter().map(|a| a.host_self_ns).sum();
        assert_eq!(total, 150);

        let off = Tracer::off();
        off.enter(0, 0);
        off.exit(Span::Driver, 0);
        assert_eq!(off.report().spans_recorded, 0);
    }

    #[test]
    fn span_table_is_indexable_by_discriminant() {
        for (i, s) in Span::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "{s:?} out of place in Span::ALL");
        }
    }
}
