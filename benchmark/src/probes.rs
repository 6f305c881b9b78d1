//! Probes that exercise one layer's public entry point in isolation.
//! They run outside the traced phase, on a rack of their own.

use crate::metrics::LayerValues;
use rack_sim::{Rack, RackConfig, LINE_SIZE};
use std::time::Instant;

const PROBE_ITERS: u64 = 200_000;

/// `rack-sim.host_ns_per_*`: wall ns of one cached line hit, one line
/// miss (invalidate + refill) and one fabric atomic.
pub fn rack_sim(v: &mut LayerValues) {
    let rack = Rack::new(RackConfig::small_test());
    let node = rack.node(0);
    let addr = rack
        .global()
        .alloc(LINE_SIZE, LINE_SIZE)
        .expect("probe line fits a 1 MiB pool");
    node.write_u64(addr, 1).expect("probe write");

    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        std::hint::black_box(node.read_u64(addr).expect("hit"));
    }
    v.set(
        "rack-sim.host_ns_per_line_hit",
        t.elapsed().as_nanos() as f64 / PROBE_ITERS as f64,
    );

    node.flush(addr, LINE_SIZE);
    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        node.invalidate(addr, LINE_SIZE);
        std::hint::black_box(node.read_u64(addr).expect("miss"));
    }
    v.set(
        "rack-sim.host_ns_per_line_miss",
        t.elapsed().as_nanos() as f64 / PROBE_ITERS as f64,
    );

    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        std::hint::black_box(node.fetch_add_u64(addr, 1).expect("atomic"));
    }
    v.set(
        "rack-sim.host_ns_per_atomic",
        t.elapsed().as_nanos() as f64 / PROBE_ITERS as f64,
    );
}
