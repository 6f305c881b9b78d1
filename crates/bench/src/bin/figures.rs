//! Regenerate the paper's figures/tables, the ablations and the judged
//! scale sweeps.
//!
//! ```text
//! figures [fig4|startup|sync|pagecache|ipc|faultbox|dedup|fabric|tiering|adaptive|serve|store|replication|topo|storm|all]
//! ```
//!
//! Every figure and ablation A1–A8 is followed by the rack-wide metrics
//! decomposition of one named cell of its table — operation counts,
//! per-cost-class latency histograms, and per-subsystem counters — taken
//! from the rack that cell ran on, so the headline numbers can be traced
//! back to the simulated operations that produced them. The four scale
//! sweeps (`serve`, `store`, `replication`, `topo`) and the fault-storm
//! campaigns (`storm`, followed by one run's metrics) are judged: a
//! section that breaks one of its invariants prints nothing on stdout,
//! names each broken invariant on stderr, and makes `figures` exit 1, so
//! `figures all > FIGURES.txt` cannot record it. An unknown section
//! exits 2.

use bench::{
    adaptive_ab, dedup_ab, fabric_ab, faultbox_ab, faultstorm, fig4, ipc_ab, pagecache_ab,
    serve_scale, startup, store_scale, sync_ab, sync_scale, tiering_ab, topo_scale,
};
use rack_sim::RackReport;

/// A section's text, or every invariant its run broke.
type Outcome = Result<String, Vec<String>>;

/// Run one section.
type Section = fn() -> Outcome;

/// A table followed by the metrics decomposition of its cell `what`.
fn decomposed(table: String, what: &str, metrics: &RackReport) -> String {
    format!("{table}\n\nmetrics — {what}:\n{metrics}\n")
}

/// An unjudged figure: its table and one cell's decomposition.
fn figure(table: String, what: &str, metrics: &RackReport) -> Outcome {
    Ok(decomposed(table, what, metrics) + "\n")
}

/// A judged run's table if `failures` is empty.
fn judged(failures: Vec<String>, table: String) -> Outcome {
    if failures.is_empty() {
        Ok(format!("{table}\n"))
    } else {
        Err(failures)
    }
}

/// Every section, in the order `all` prints them.
const SECTIONS: [(&str, Section); 15] = [
    ("fig4", || {
        let (rows, metrics) = fig4::run(1000);
        figure(
            fig4::report(&rows),
            "Figure 4 cell (FlacOS SET, 4 KiB, 1000 requests)",
            &metrics,
        )
    }),
    ("startup", || {
        let (rows, metrics) = startup::run(startup::IMAGE_PAGES, startup::SCALE);
        figure(
            startup::report(&rows),
            "container startup (cold on node 0, shared then hot on node 1)",
            &metrics,
        )
    }),
    ("sync", || {
        let (rows, metrics) = sync_ab::run(400);
        figure(
            sync_ab::report(&rows),
            "A1 representative cell (rcu, 2 nodes, 50% reads)",
            &metrics,
        )
    }),
    ("pagecache", || {
        let (rows, metrics) = pagecache_ab::run();
        figure(
            pagecache_ab::report(&rows),
            "A2 cell (2 nodes, 4 shared files of 64 pages)",
            &metrics,
        )
    }),
    ("ipc", || {
        let (rows, metrics) = ipc_ab::run(200);
        figure(
            ipc_ab::report(&rows),
            "A4 representative point (FlacOS echo, 4 KiB)",
            &metrics,
        )
    }),
    ("faultbox", || {
        let (rows, metrics) = faultbox_ab::run();
        figure(
            faultbox_ab::report(&rows),
            "A3 representative cell (8 apps, fault-box path)",
            &metrics,
        )
    }),
    ("dedup", || {
        let (rows, metrics) = dedup_ab::run();
        figure(
            dedup_ab::report(&rows),
            "A5 representative cell (4 images, shared layers)",
            &metrics,
        )
    }),
    ("fabric", || {
        let (rows, metrics) = fabric_ab::run(300);
        figure(
            fabric_ab::report(&rows),
            "A6 representative cell (HCCS, FlacOS SET, 4 KiB)",
            &metrics,
        )
    }),
    ("tiering", || {
        let (rows, metrics) = tiering_ab::run();
        figure(
            tiering_ab::report(&rows),
            "A7 representative cell (zipf 0.99, daemon on)",
            &metrics,
        )
    }),
    ("adaptive", || {
        let (rows, metrics) = adaptive_ab::run();
        figure(
            adaptive_ab::report(&rows),
            "A8 representative cell (adaptive driver, 25% reads)",
            &metrics,
        )
    }),
    ("serve", || {
        let r = serve_scale::run().map_err(|e| vec![e])?;
        judged(serve_scale::failures(&r), serve_scale::report(&r))
    }),
    ("store", || {
        let r = store_scale::run();
        judged(store_scale::failures(&r), store_scale::report(&r))
    }),
    ("replication", || {
        let r = sync_scale::run();
        judged(sync_scale::failures(&r), sync_scale::report(&r))
    }),
    ("topo", || {
        let r = topo_scale::run();
        judged(topo_scale::failures(&r), topo_scale::report(&r))
    }),
    ("storm", || {
        let runs = faultstorm::run();
        let named = faultstorm::named(&runs);
        let what = format!("{} campaign, seed {}", named.campaign.name(), named.seed);
        let text = decomposed(faultstorm::report(&runs), &what, &named.metrics);
        judged(faultstorm::failures(&runs), text)
    }),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let chosen: Vec<_> = SECTIONS
        .iter()
        .filter(|(name, _)| arg == "all" || arg == *name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: figures [{}|all]", names.join("|"));
        std::process::exit(2);
    }
    let mut failed = false;
    for (name, section) in chosen {
        match section() {
            Ok(text) => print!("{text}"),
            Err(failures) => {
                failed = true;
                for f in failures {
                    eprintln!("figures {name}: JUDGEMENT FAILURE: {f}");
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
