//! Experiment implementations for every table and figure of the paper,
//! plus the ablations DESIGN.md commits to.
//!
//! Each experiment module returns structured rows; the `figures` binary
//! prints them as the paper-style tables, one section per module, into
//! the committed `FIGURES.txt`. Each figure and ablation A1–A8 also
//! returns the rack-wide metrics of one named cell of its table, taken
//! from the rack that cell ran on, so the block under a table decomposes
//! a number in it. The five judged sections (`serve`,
//! `store`, `replication`, `topo`, `storm`) print only a run that passes
//! its module's `failures`. Wall-clock speed is measured by the repo
//! benchmark's `host_*` metrics (`benchmark/`), not here.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig4`] | Figure 4 — Redis SET/GET latency, FlacOS IPC vs TCP/IP |
//! | [`startup`] | §4.2 container startup: cold / FlacOS / hot |
//! | [`sync_ab`] | Ablation A1 — the three lock-free families vs locking |
//! | [`pagecache_ab`] | Ablation A2 — shared vs per-node page caches |
//! | [`faultbox_ab`] | Ablation A3 — fault-box blast radius & recovery |
//! | [`ipc_ab`] | Ablation A4 — transport latency across message sizes |
//! | [`dedup_ab`] | Ablation A5 — page dedup effectiveness |
//! | [`fabric_ab`] | Ablation A6 — sensitivity to the interconnect generation |
//! | [`tiering_ab`] | Ablation A7 — page tiering daemon off vs on |
//! | [`adaptive_ab`] | Ablation A8 — fixed sync policies vs adaptive driver |
//! | [`serve_scale`] | E3 — §4 serving at scale, open-loop sweep (`figures serve`) |
//! | [`store_scale`] | A9 — §4.2 chunk store, shard sweep and overlap (`figures store`) |
//! | [`sync_scale`] | A10 — §3.2 node replication, flat-combining sweep (`figures replication`) |
//! | [`topo_scale`] | A11 — §2.1/§3.3 topology depth × page size, 1 shootdown per 2 MiB (`figures topo`) |
//! | [`faultstorm`] | §3.6 reliability — five seeded fault-storm campaigns, each seed rerun (`figures storm`) |

pub mod adaptive_ab;
pub mod dedup_ab;
pub mod fabric_ab;
pub mod faultbox_ab;
pub mod faultstorm;
pub mod fig4;
pub mod ipc_ab;
pub mod pagecache_ab;
pub mod serve_scale;
pub mod startup;
pub mod store_scale;
pub mod sync_ab;
pub mod sync_scale;
pub mod table;
pub mod tiering_ab;
pub mod topo_scale;

use rack_sim::RackReport;

/// Run `cells` in order, keeping each cell's row and the metrics of the
/// cell equal to `named`.
///
/// # Panics
///
/// Panics if `named` is not one of `cells`.
fn sweep<K: Copy + PartialEq, R>(
    cells: impl IntoIterator<Item = K>,
    named: K,
    mut cell: impl FnMut(K) -> (R, RackReport),
) -> (Vec<R>, RackReport) {
    let mut metrics = None;
    let rows = cells
        .into_iter()
        .map(|k| {
            let (row, report) = cell(k);
            if k == named {
                metrics = Some(report);
            }
            row
        })
        .collect();
    (rows, metrics.expect("the named cell is one of the sweep's"))
}

/// The nearest-rank `p`th percentile of ascending `sorted`; 0 when empty.
fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A text a judgement's failures must contain, and the edit of a
/// passing result that must produce it.
#[cfg(test)]
type Mutation<T> = (&'static str, fn(&mut T));

/// Assert that `failures` passes `good`, and that each mutation of it
/// fails with a failure containing that mutation's text.
#[cfg(test)]
fn assert_judged<T: Clone>(
    good: &T,
    failures: impl Fn(&T) -> Vec<String>,
    mutations: &[Mutation<T>],
) {
    assert_eq!(failures(good), Vec::<String>::new(), "unmutated");
    for (want, mutate) in mutations {
        let mut bad = good.clone();
        mutate(&mut bad);
        let found = failures(&bad);
        assert!(found.iter().any(|f| f.contains(want)), "{want}: {found:?}");
    }
}

/// The cells of each data row of the first table in a rendered report:
/// the lines between the header rule and the next blank line, split on
/// whitespace.
#[cfg(test)]
fn table_cells(report: &str) -> Vec<Vec<String>> {
    report
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::percentile_ns;

    #[test]
    fn percentile_covers_empty_and_both_ends() {
        assert_eq!(percentile_ns(&[], 50.0), 0);
        let sorted = [3, 5, 8, 13];
        assert_eq!(percentile_ns(&sorted, 0.0), 3);
        assert_eq!(percentile_ns(&sorted, 100.0), 13);
    }
}
