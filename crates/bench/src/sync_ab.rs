//! Ablation A1 — synchronization methods on non-coherent shared memory.
//!
//! Compares the baseline global spinlock (with the mandatory
//! flush/invalidate discipline) against the paper's three lock-free
//! families across read ratios and node counts. Every method is one
//! [`SyncCell`] policy over the same per-node tally state, so the table
//! measures the policies the kernel paths run. The expected shape:
//! locking pays fabric atomics *plus* cache maintenance on every
//! operation; replication makes reads local; delegation makes the
//! owner's operations local but queues every node behind the owner; RCU
//! makes reads wait-free at publish-cost writes.

use crate::adaptive_ab::{tally_op, Tally};
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy};
use rack_sim::{Rack, RackConfig, RackReport};

/// Methods under comparison.
pub const METHODS: [&str; 4] = ["spinlock", "replication", "delegation", "rcu"];

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncRow {
    /// Synchronization method.
    pub method: &'static str,
    /// Nodes participating.
    pub nodes: usize,
    /// Percent of operations that are reads.
    pub read_pct: u32,
    /// Mean per-operation latency in simulated ns.
    pub mean_op_ns: u64,
}

fn policy_of(method: &str) -> SyncPolicy {
    match method {
        "spinlock" => SyncPolicy::Lock,
        "replication" => SyncPolicy::Replicated,
        "delegation" => SyncPolicy::Delegated,
        "rcu" => SyncPolicy::Rcu,
        other => panic!("unknown method {other}"),
    }
}

fn is_read(i: usize, read_pct: u32) -> bool {
    (i as u32 % 100) < read_pct
}

/// Run one (method, nodes, read_pct) cell with `ops` operations spread
/// round-robin across the nodes of a fresh rack, with that rack's
/// metrics.
///
/// Contention model: nodes issue operations in closed-loop rounds. Each
/// method's *serial section* is tracked in virtual time — an operation
/// cannot enter it before the previous one left. For the lock that is
/// the whole critical section, and for delegation the whole operation
/// too, because the owner runs one at a time. For replication and RCU it
/// is a single fabric atomic per write (log-tail claim / version bump),
/// and reads do not serialize at all. This is what makes the paper's
/// point measurable: the lock and the delegation owner serialize *work*,
/// replication and RCU serialize only one atomic.
pub fn run_cell(
    method: &'static str,
    nodes: usize,
    read_pct: u32,
    ops: usize,
) -> (SyncRow, RackReport) {
    let rack = Rack::new(RackConfig::n_node(nodes));
    let policy = policy_of(method);
    let cfg = SyncCellConfig::new(nodes, policy);
    let cell = SyncCell::alloc(rack.global(), "sync_ab", cfg, Tally::new(nodes)).expect("cell");
    let whole_op_serial = matches!(policy, SyncPolicy::Lock | SyncPolicy::Delegated);
    let mut total_ns = 0u64;
    // Virtual-time point at which the method's serial section frees up.
    let mut serial_free_at = 0u64;
    for i in 0..ops {
        let node = rack.node(i % nodes);
        let read = is_read(i, read_pct);
        let serial = whole_op_serial || !read;
        let t0 = node.clock().now();
        if serial {
            // Queue behind the previous holder.
            node.clock().advance_to(serial_free_at);
        }
        let start = node.clock().now();
        if read {
            cell.read(&node, |t| t.total).expect("read");
        } else {
            cell.update(&node, &tally_op(i % nodes, 1)).expect("update");
        }
        if whole_op_serial {
            serial_free_at = node.clock().now();
        } else if serial {
            serial_free_at = start + node.latency().global_atomic_ns;
        }
        total_ns += node.clock().now() - t0;
        // Keep the bounded log drained, as a deployment would.
        if i % 512 == 511 {
            cell.gc(&rack.node(0)).expect("gc");
        }
    }

    let row = SyncRow {
        method,
        nodes,
        read_pct,
        mean_op_ns: total_ns / ops as u64,
    };
    (row, rack.metrics_report())
}

/// Run the full sweep: every method × node counts × read ratios, with
/// the rack-wide metrics of the (rcu, 2 nodes, 50% reads) cell:
/// operation counts, latency histograms, subsystem counters.
pub fn run(ops: usize) -> (Vec<SyncRow>, RackReport) {
    let cells = METHODS.iter().flat_map(|&method| {
        [2usize, 4, 8]
            .into_iter()
            .flat_map(move |nodes| [0u32, 50, 90, 100].map(|read_pct| (method, nodes, read_pct)))
    });
    crate::sweep(cells, ("rcu", 2, 50), |(method, nodes, read_pct)| {
        run_cell(method, nodes, read_pct, ops)
    })
}

/// Render the sweep.
pub fn report(rows: &[SyncRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.method.to_string(),
                r.nodes.to_string(),
                format!("{}%", r.read_pct),
                crate::table::fmt_ns(r.mean_op_ns),
            ]
        })
        .collect();
    format!(
        "Ablation A1: synchronization methods under incoherence (mean op latency)\n\n{}",
        crate::table::render(&["method", "nodes", "reads", "mean latency"], &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_mostly_replication_beats_lock() {
        let lock = run_cell("spinlock", 2, 90, 100).0;
        let repl = run_cell("replication", 2, 90, 100).0;
        assert!(
            repl.mean_op_ns < lock.mean_op_ns,
            "replication ({}) must beat locking ({}) at 90% reads",
            repl.mean_op_ns,
            lock.mean_op_ns
        );
    }

    #[test]
    fn rcu_reads_are_cheap() {
        let reads = run_cell("rcu", 2, 100, 100).0;
        let writes = run_cell("rcu", 2, 0, 100).0;
        assert!(reads.mean_op_ns < writes.mean_op_ns);
    }

    #[test]
    fn all_methods_produce_rows() {
        for m in METHODS {
            let (row, _) = run_cell(m, 2, 50, 60);
            assert!(row.mean_op_ns > 0, "{m} measured nothing");
        }
    }

    #[test]
    fn report_covers_methods() {
        let rows: Vec<SyncRow> = METHODS.iter().map(|m| run_cell(m, 2, 50, 40).0).collect();
        let text = report(&rows);
        for m in METHODS {
            assert!(text.contains(m));
        }
    }
}
