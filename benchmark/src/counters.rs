//! Deltas of the rack's public counters over a measured phase:
//! operation counts, cache behaviour, per-cost-class charged ns, and
//! the subsystem counters (`ipc/*`, `sync/*`, `page_cache/*`,
//! `fault_box/*`) layers register.

use crate::metrics::{ratio, LayerValues};
use rack_sim::{CostClass, Rack, StatsSnapshot};
use std::collections::BTreeMap;

/// Rack-wide merged snapshot.
pub fn snapshot(rack: &Rack) -> StatsSnapshot {
    rack.metrics_report().merged
}

/// What the rack did between two snapshots (or over several phases,
/// via [`Delta::add`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    pub global_reads: u64,
    pub global_writes: u64,
    pub global_atomics: u64,
    pub messages_sent: u64,
    pub global_bytes: u64,
    pub message_bytes: u64,
    pub bytes_copied: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_allocs: u64,
    pub cache_writebacks: u64,
    pub cache_invalidations: u64,
    pub cache_coalesced_fills: u64,
    /// Charged simulated ns per cost class, indexed by [`CostClass::index`].
    pub class_ns: [u64; CostClass::ALL.len()],
    /// Δ`total_charged_ns()`, taken from the snapshots' own totals (not
    /// re-derived from `class_ns`) so the cost-class identity is a check.
    pub charged_ns: u64,
    subsystems: BTreeMap<(String, String), u64>,
}

impl Delta {
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> Delta {
        let mut class_ns = [0u64; CostClass::ALL.len()];
        for class in CostClass::ALL {
            class_ns[class.index()] =
                after.histogram(class).total_ns - before.histogram(class).total_ns;
        }
        let mut subsystems = BTreeMap::new();
        for c in &after.subsystems {
            subsystems.insert((c.subsystem.clone(), c.name.clone()), c.value);
        }
        for c in &before.subsystems {
            if let Some(v) = subsystems.get_mut(&(c.subsystem.clone(), c.name.clone())) {
                *v -= c.value;
            }
        }
        Delta {
            global_reads: after.global_reads - before.global_reads,
            global_writes: after.global_writes - before.global_writes,
            global_atomics: after.global_atomics - before.global_atomics,
            messages_sent: after.messages_sent - before.messages_sent,
            global_bytes: after.global_bytes - before.global_bytes,
            message_bytes: after.message_bytes - before.message_bytes,
            bytes_copied: after.bytes_copied - before.bytes_copied,
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            cache_allocs: after.cache_allocs - before.cache_allocs,
            cache_writebacks: after.cache_writebacks - before.cache_writebacks,
            cache_invalidations: after.cache_invalidations - before.cache_invalidations,
            cache_coalesced_fills: after.cache_coalesced_fills - before.cache_coalesced_fills,
            class_ns,
            charged_ns: after.total_charged_ns() - before.total_charged_ns(),
            subsystems,
        }
    }

    /// Fold another phase's delta into this one.
    pub fn add(&mut self, o: &Delta) {
        self.global_reads += o.global_reads;
        self.global_writes += o.global_writes;
        self.global_atomics += o.global_atomics;
        self.messages_sent += o.messages_sent;
        self.global_bytes += o.global_bytes;
        self.message_bytes += o.message_bytes;
        self.bytes_copied += o.bytes_copied;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_allocs += o.cache_allocs;
        self.cache_writebacks += o.cache_writebacks;
        self.cache_invalidations += o.cache_invalidations;
        self.cache_coalesced_fills += o.cache_coalesced_fills;
        for (a, b) in self.class_ns.iter_mut().zip(o.class_ns) {
            *a += b;
        }
        self.charged_ns += o.charged_ns;
        for (k, v) in &o.subsystems {
            *self.subsystems.entry(k.clone()).or_default() += v;
        }
    }

    /// The paper's own currency: interconnect operations of any kind.
    pub fn fabric_ops(&self) -> u64 {
        self.global_reads + self.global_writes + self.global_atomics + self.messages_sent
    }

    /// Bytes that crossed the interconnect.
    pub fn bytes_moved(&self) -> u64 {
        self.global_bytes + self.message_bytes
    }

    /// A subsystem counter's delta (0 if never registered).
    pub fn counter(&self, subsystem: &str, name: &str) -> u64 {
        self.subsystems
            .get(&(subsystem.to_string(), name.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Whether the eight cost classes sum exactly to the charged total.
    pub fn cost_classes_sum_to_charged(&self) -> bool {
        self.class_ns.iter().sum::<u64>() == self.charged_ns
    }

    /// Order-sensitive digest for `sim_fingerprint`.
    pub fn fold_into(&self, f: &mut crate::stats::Fold) {
        for v in [
            self.global_reads,
            self.global_writes,
            self.global_atomics,
            self.messages_sent,
            self.global_bytes,
            self.message_bytes,
            self.bytes_copied,
            self.cache_hits,
            self.cache_misses,
            self.cache_writebacks,
            self.cache_invalidations,
            self.charged_ns,
        ] {
            f.push(v);
        }
        for v in self.class_ns {
            f.push(v);
        }
    }

    /// The `rack-sim.*` counter metrics and the `flacdk.*` counters every
    /// workload reports, per `ops` operations.
    pub fn fill_layers(&self, ops: u64, out: &mut LayerValues) {
        let per_op = |v: u64| ratio(v as f64, ops as f64);
        for class in CostClass::ALL {
            let name = match class {
                CostClass::Local => "rack-sim.sim_ns_local_per_op",
                CostClass::GlobalRead => "rack-sim.sim_ns_global_read_per_op",
                CostClass::GlobalWrite => "rack-sim.sim_ns_global_write_per_op",
                CostClass::Uncached => "rack-sim.sim_ns_uncached_per_op",
                CostClass::Atomic => "rack-sim.sim_ns_atomic_per_op",
                CostClass::CacheMaint => "rack-sim.sim_ns_cache_maint_per_op",
                CostClass::Message => "rack-sim.sim_ns_message_per_op",
                CostClass::Compute => "rack-sim.sim_ns_compute_per_op",
            };
            out.set(name, per_op(self.class_ns[class.index()]));
        }
        out.set("bench.charged_sim_ns_per_op", per_op(self.charged_ns));
        out.set("rack-sim.atomics_per_op", per_op(self.global_atomics));
        out.set("rack-sim.global_reads_per_op", per_op(self.global_reads));
        out.set("rack-sim.global_writes_per_op", per_op(self.global_writes));
        out.set("rack-sim.messages_per_op", per_op(self.messages_sent));
        out.set("rack-sim.bytes_copied_per_op", per_op(self.bytes_copied));
        out.set(
            "rack-sim.cache_hit_ratio",
            ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses + self.cache_allocs) as f64,
            ),
        );
        out.set("rack-sim.cache_misses_per_op", per_op(self.cache_misses));
        out.set(
            "rack-sim.cache_writebacks_per_op",
            per_op(self.cache_writebacks),
        );
        out.set(
            "rack-sim.cache_invalidations_per_op",
            per_op(self.cache_invalidations),
        );
        out.set(
            "rack-sim.cache_coalesced_fills",
            self.cache_coalesced_fills as f64,
        );
        out.set(
            "flacdk.nr_remote_claims",
            self.counter("sync", "nr_combiner_remote_claims") as f64,
        );
        out.set(
            "flacdk.policy_switches",
            self.counter("sync", "policy_switch") as f64,
        );
        out.set(
            "flacdk.reelections",
            self.counter("sync", "reelections") as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::RackConfig;

    #[test]
    fn delta_counts_only_the_phase_and_classes_sum_to_charged() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let addr = rack.global().alloc(64, 64).unwrap();
        n0.fetch_add_u64(addr, 1).unwrap(); // before the phase
        let before = snapshot(&rack);
        n0.fetch_add_u64(addr, 1).unwrap();
        n0.fetch_add_u64(addr, 1).unwrap();
        n0.charge(50);
        n0.stats().registry().add("sync", "reelections", 3);
        let d = Delta::between(&before, &snapshot(&rack));
        assert_eq!(d.global_atomics, 2);
        assert_eq!(d.fabric_ops(), 2);
        assert_eq!(d.counter("sync", "reelections"), 3);
        assert_eq!(d.counter("sync", "absent"), 0);
        assert_eq!(
            d.class_ns[CostClass::Atomic.index()],
            2 * n0.latency().global_atomic_ns
        );
        assert_eq!(d.class_ns[CostClass::Compute.index()], 50);
        assert!(d.cost_classes_sum_to_charged());
        let mut twice = d.clone();
        twice.add(&d);
        assert_eq!(twice.global_atomics, 4);
        assert_eq!(twice.counter("sync", "reelections"), 6);
    }
}
