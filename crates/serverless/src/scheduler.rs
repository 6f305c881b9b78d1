//! Density-aware function placement with an interference model.
//!
//! The paper's second serverless pain point (§4.1): *"performance
//! interference under high container density"*. The scheduler places
//! function instances across nodes under a per-node capacity, and models
//! the slowdown co-located instances inflict on each other, so
//! experiments can trade density against latency.

use rack_sim::{NodeId, SimError};
use std::collections::HashMap;

/// Interference model: each co-located instance beyond the first adds
/// this fraction of slowdown (cache/membw contention).
pub const INTERFERENCE_PER_NEIGHBOR: f64 = 0.06;

/// Placement and density state.
#[derive(Debug)]
pub struct DensityScheduler {
    capacity_per_node: usize,
    nodes: usize,
    placements: HashMap<u64, NodeId>,
    load: Vec<usize>,
}

impl DensityScheduler {
    /// A scheduler over `nodes` nodes of `capacity_per_node` instances.
    ///
    /// # Panics
    ///
    /// Panics on zero nodes or zero capacity.
    pub fn new(nodes: usize, capacity_per_node: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(capacity_per_node > 0, "capacity must be positive");
        DensityScheduler {
            capacity_per_node,
            nodes,
            placements: HashMap::new(),
            load: vec![0; nodes],
        }
    }

    /// Place instance `id` on the least-loaded node with spare capacity.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when the rack is full or the id is taken.
    pub fn place(&mut self, id: u64) -> Result<NodeId, SimError> {
        if self.placements.contains_key(&id) {
            return Err(SimError::Protocol(format!("instance {id} already placed")));
        }
        let (node_idx, load) = self
            .load
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(i, l)| (*l, *i))
            .expect("nodes > 0");
        if load >= self.capacity_per_node {
            return Err(SimError::Protocol("rack at capacity".into()));
        }
        self.load[node_idx] += 1;
        self.placements.insert(id, NodeId(node_idx));
        Ok(NodeId(node_idx))
    }

    /// Tier-aware placement: like [`DensityScheduler::place`], but only
    /// nodes reporting at least `min_free_bytes` of local-DRAM tier
    /// headroom via `free_local` are eligible (a tier-exhausted node
    /// would serve the new instance's hot pages from the ~5× slower
    /// global pool). When every node with spare capacity is
    /// tier-exhausted, falls back to capacity-only placement. The
    /// closure decouples this crate from the tier ledger: callers pass
    /// `|n| budget.free_bytes(ctx, n).unwrap_or(0)` or a model.
    ///
    /// Test probe: the serverless runtime places with
    /// [`DensityScheduler::place`], so only
    /// `budgeted_placement_skips_tier_exhausted_nodes` calls it.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when the rack is full or the id is taken.
    pub fn place_with_budget(
        &mut self,
        id: u64,
        free_local: impl Fn(NodeId) -> u64,
        min_free_bytes: u64,
    ) -> Result<NodeId, SimError> {
        if self.placements.contains_key(&id) {
            return Err(SimError::Protocol(format!("instance {id} already placed")));
        }
        let pick = self
            .load
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, l)| l < self.capacity_per_node && free_local(NodeId(i)) >= min_free_bytes)
            .min_by_key(|&(i, l)| (l, i));
        match pick {
            Some((node_idx, _)) => {
                self.load[node_idx] += 1;
                self.placements.insert(id, NodeId(node_idx));
                Ok(NodeId(node_idx))
            }
            None => self.place(id),
        }
    }

    /// Warm-start-aware placement: like [`DensityScheduler::place`],
    /// but nodes in `warm` (e.g. nodes whose runtime already started
    /// this instance's image — they'd take the hot path, skipping even
    /// the manifest pull) win ties and are preferred as long as they
    /// have spare capacity, even over less-loaded cold nodes. Falls
    /// back to capacity-only placement when no warm node has room.
    /// Image *data* needs no such affinity — the chunk store makes it
    /// resident rack-wide — so this only chases per-node runtime state.
    ///
    /// Test probe: only `warm_placement_prefers_warm_nodes_until_full`
    /// calls it.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when the rack is full or the id is taken.
    pub fn place_preferring(&mut self, id: u64, warm: &[NodeId]) -> Result<NodeId, SimError> {
        if self.placements.contains_key(&id) {
            return Err(SimError::Protocol(format!("instance {id} already placed")));
        }
        let pick = self
            .load
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, l)| l < self.capacity_per_node && warm.contains(&NodeId(i)))
            .min_by_key(|&(i, l)| (l, i));
        match pick {
            Some((node_idx, _)) => {
                self.load[node_idx] += 1;
                self.placements.insert(id, NodeId(node_idx));
                Ok(NodeId(node_idx))
            }
            None => self.place(id),
        }
    }

    /// Remove instance `id`.
    pub fn evict(&mut self, id: u64) -> Option<NodeId> {
        let node = self.placements.remove(&id)?;
        self.load[node.0] -= 1;
        Some(node)
    }

    /// Instances on `node`.
    pub fn density(&self, node: NodeId) -> usize {
        self.load[node.0]
    }

    /// Total placed instances.
    pub fn total(&self) -> usize {
        self.placements.len()
    }

    /// Utilization of the whole rack in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.total() as f64 / (self.nodes * self.capacity_per_node) as f64
    }

    /// Latency multiplier an instance on `node` suffers from co-located
    /// neighbours (1.0 = no interference).
    pub fn interference_factor(&self, node: NodeId) -> f64 {
        let neighbors = self.load[node.0].saturating_sub(1);
        1.0 + neighbors as f64 * INTERFERENCE_PER_NEIGHBOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_spreads_round_robin_by_load() {
        let mut s = DensityScheduler::new(3, 2);
        let homes: Vec<NodeId> = (0..6).map(|i| s.place(i).unwrap()).collect();
        for n in 0..3 {
            assert_eq!(homes.iter().filter(|h| h.0 == n).count(), 2);
            assert_eq!(s.density(NodeId(n)), 2);
        }
        assert_eq!(s.utilization(), 1.0);
        assert!(s.place(99).is_err(), "rack full");
    }

    #[test]
    fn evict_frees_capacity() {
        let mut s = DensityScheduler::new(1, 1);
        s.place(1).unwrap();
        assert!(s.place(2).is_err());
        assert_eq!(s.evict(1), Some(NodeId(0)));
        assert_eq!(s.evict(1), None);
        assert_eq!(s.place(2).unwrap(), NodeId(0));
        assert_eq!(s.total(), 1);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut s = DensityScheduler::new(2, 4);
        s.place(7).unwrap();
        assert!(s.place(7).is_err());
    }

    #[test]
    fn budgeted_placement_skips_tier_exhausted_nodes() {
        let mut s = DensityScheduler::new(3, 2);
        // Node 0 has no fast-tier headroom; 1 and 2 are fine.
        let free = |n: NodeId| if n.0 == 0 { 0 } else { 1 << 20 };
        assert_eq!(s.place_with_budget(1, free, 4096).unwrap(), NodeId(1));
        assert_eq!(s.place_with_budget(2, free, 4096).unwrap(), NodeId(2));
        assert_eq!(s.place_with_budget(3, free, 4096).unwrap(), NodeId(1));
        assert_eq!(s.density(NodeId(0)), 0);
        // Every node exhausted → fall back to capacity-only placement.
        assert_eq!(s.place_with_budget(4, |_| 0, 4096).unwrap(), NodeId(0));
        // Duplicate ids still rejected on the budgeted path.
        assert!(s.place_with_budget(4, free, 4096).is_err());
    }

    #[test]
    fn warm_placement_prefers_warm_nodes_until_full() {
        let mut s = DensityScheduler::new(3, 2);
        let warm = [NodeId(2)];
        // Warm node wins even while colder nodes are emptier.
        assert_eq!(s.place_preferring(1, &warm).unwrap(), NodeId(2));
        assert_eq!(s.place_preferring(2, &warm).unwrap(), NodeId(2));
        // Warm node full → fall back to least-loaded placement.
        assert_eq!(s.place_preferring(3, &warm).unwrap(), NodeId(0));
        // No warm nodes at all behaves exactly like place().
        assert_eq!(s.place_preferring(4, &[]).unwrap(), NodeId(1));
        assert!(s.place_preferring(4, &warm).is_err(), "duplicate id");
    }

    #[test]
    fn interference_grows_with_density() {
        let mut s = DensityScheduler::new(1, 10);
        s.place(1).unwrap();
        assert_eq!(
            s.interference_factor(NodeId(0)),
            1.0,
            "alone: no interference"
        );
        for i in 2..=5 {
            s.place(i).unwrap();
        }
        let f = s.interference_factor(NodeId(0));
        assert!((f - (1.0 + 4.0 * INTERFERENCE_PER_NEIGHBOR)).abs() < 1e-9);
    }
}
