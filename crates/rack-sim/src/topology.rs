//! Rack topology: a tree of enclosures (socket → node → rack → pod)
//! from which hop counts, distance classes, and link bandwidth are all
//! *derived* — no materialized O(n²) hop matrix.
//!
//! Leaves of the tree are the simulator's [`NodeId`]s (the unit that
//! runs a [`crate::NodeCtx`] — a socket in the paper's terms). Levels
//! above group leaves into enclosures: sockets into nodes, nodes into
//! racks, racks into a multi-rack pod. The number of interconnect hops
//! between two leaves is twice the height of their lowest common
//! ancestor (up through each switch, then back down), so the historical
//! single-switch rack — every distinct pair 2 hops apart — is exactly a
//! depth-1 tree.

use std::fmt;

/// Identifier of a node (a general-purpose server) in the rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// One enclosure level of the topology tree, leaf-most first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoLevel {
    /// Human label for the enclosure ("node", "rack", "pod").
    pub label: &'static str,
    /// How many children one enclosure at this level spans: leaves for
    /// the first level, groups of the level below otherwise.
    pub fanout: usize,
    /// Bandwidth divisor for links crossing this level's switch relative
    /// to a leaf link (1 = full bandwidth). Transfers between leaves pay
    /// the *narrowest* link on their path.
    pub bw_divisor: u32,
}

/// Where global-memory addresses are homed, for distance-classed
/// memory-cost charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomePolicy {
    /// Flat: every global access is one interconnect crossing away from
    /// its home, regardless of requester — the historical model. All
    /// presets use this, which keeps their charged costs byte-identical.
    Uniform,
    /// Global addresses interleave across all leaves at `granularity`
    /// bytes: the home of address `a` is leaf `(a / granularity) % n`.
    /// Accesses then charge by the requester→home distance class.
    Interleaved {
        /// Interleaving stripe in bytes (a page or larger).
        granularity: u64,
    },
}

/// Static description of the rack's compute topology.
///
/// Mirrors the paper's testbed shape: the physical platform is two Kunpeng
/// 920 nodes of 4×80 cores each (640 cores total), joined by an HCCS
/// memory interconnect through a switch — a depth-1 tree. Deeper trees
/// ([`RackTopology::pod`]) add rack and pod switch levels above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RackTopology {
    nodes: usize,
    cores_per_node: usize,
    /// Enclosure levels, leaf-most first. The top level always spans all
    /// leaves (its cumulative span is >= `nodes`).
    levels: Vec<TopoLevel>,
    home: HomePolicy,
}

impl RackTopology {
    /// A rack of `nodes` nodes joined by one interconnect switch — a
    /// depth-1 tree.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `cores_per_node == 0`.
    pub fn switched(nodes: usize, cores_per_node: usize) -> Self {
        Self::tree(
            nodes,
            cores_per_node,
            vec![TopoLevel {
                label: "rack",
                fanout: nodes,
                bw_divisor: 1,
            }],
        )
    }

    /// A rack built from explicit enclosure levels (leaf-most first).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, `cores_per_node == 0`, `levels` is empty
    /// or contains a zero fanout, or the levels do not span all nodes.
    pub fn tree(nodes: usize, cores_per_node: usize, levels: Vec<TopoLevel>) -> Self {
        assert!(nodes > 0, "rack must contain at least one node");
        assert!(cores_per_node > 0, "nodes must have at least one core");
        assert!(!levels.is_empty(), "topology tree needs at least one level");
        let mut span = 1usize;
        for level in &levels {
            assert!(level.fanout > 0, "level {:?} has zero fanout", level.label);
            assert!(
                level.bw_divisor > 0,
                "level {:?} has zero bandwidth",
                level.label
            );
            span = span.saturating_mul(level.fanout);
        }
        assert!(
            span >= nodes,
            "topology levels span {span} leaves but the rack has {nodes}"
        );
        RackTopology {
            nodes,
            cores_per_node,
            levels,
            home: HomePolicy::Uniform,
        }
    }

    /// A three-level socket→node→rack→pod tree: `sockets_per_node`
    /// leaves per node enclosure, `nodes_per_rack` nodes per rack,
    /// `racks` racks under the pod switch. Rack links run at half leaf
    /// bandwidth, the pod spine at a quarter.
    pub fn pod(
        sockets_per_node: usize,
        nodes_per_rack: usize,
        racks: usize,
        cores_per_node: usize,
    ) -> Self {
        Self::tree(
            sockets_per_node * nodes_per_rack * racks,
            cores_per_node,
            vec![
                TopoLevel {
                    label: "node",
                    fanout: sockets_per_node,
                    bw_divisor: 1,
                },
                TopoLevel {
                    label: "rack",
                    fanout: nodes_per_rack,
                    bw_divisor: 2,
                },
                TopoLevel {
                    label: "pod",
                    fanout: racks,
                    bw_divisor: 4,
                },
            ],
        )
    }

    /// The paper's physical testbed: 2 nodes × 320 cores = 640 cores.
    pub fn kunpeng_two_node() -> Self {
        Self::switched(2, 320)
    }

    /// This topology with global addresses homed round-robin across the
    /// leaves at `granularity` bytes (builder-style). Memory costs then
    /// charge by requester→home distance class instead of flat.
    #[must_use]
    pub fn with_home_interleaved(mut self, granularity: u64) -> Self {
        assert!(granularity > 0, "interleave granularity must be positive");
        self.home = HomePolicy::Interleaved { granularity };
        self
    }

    /// Number of nodes in the rack.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Cores on each node.
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Total cores across the rack.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// The enclosure levels, leaf-most first.
    pub fn levels(&self) -> &[TopoLevel] {
        &self.levels
    }

    /// Tree depth (number of enclosure levels).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Height of the lowest common ancestor of two leaves: 0 for a leaf
    /// to itself, 1 when one switch separates them, up to `depth()`.
    /// This is the distance *class* of the pair (intra-node < intra-rack
    /// < cross-rack on a [`RackTopology::pod`] tree).
    pub fn lca_level(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(a.0 < self.nodes && b.0 < self.nodes, "node id out of range");
        if a == b {
            return 0;
        }
        let mut span = 1usize;
        for (height, level) in self.levels.iter().enumerate() {
            span = span.saturating_mul(level.fanout);
            if a.0 / span == b.0 / span {
                return height as u32 + 1;
            }
        }
        self.levels.len() as u32
    }

    /// Interconnect hops between two nodes (0 for a node to itself),
    /// derived from the tree: up through each switch on the path to the
    /// lowest common ancestor and back down — `2 * lca_level`.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        2 * self.lca_level(from, to)
    }

    /// Bandwidth divisor of the narrowest link on the path between two
    /// leaves (1 when they are the same leaf or only full-bandwidth
    /// links are crossed).
    pub fn link_bw_divisor(&self, from: NodeId, to: NodeId) -> u32 {
        let lca = self.lca_level(from, to) as usize;
        self.levels[..lca]
            .iter()
            .map(|l| l.bw_divisor)
            .max()
            .unwrap_or(1)
    }

    /// The leaf homing global address `addr`, or `None` under the
    /// uniform policy (no home concept; flat charging).
    pub fn home_of(&self, addr: u64) -> Option<NodeId> {
        match self.home {
            HomePolicy::Uniform => None,
            HomePolicy::Interleaved { granularity } => {
                Some(NodeId(((addr / granularity) as usize) % self.nodes))
            }
        }
    }

    /// The memory path class from `requester` to the home of `addr`:
    /// `(lca_level, bw_divisor)`. `None` under the uniform policy — the
    /// caller charges the flat (depth-1-equivalent) cost, byte-identical
    /// to the historical model.
    pub fn mem_path(&self, requester: NodeId, addr: u64) -> Option<(u32, u32)> {
        let home = self.home_of(addr)?;
        Some((
            self.lca_level(requester, home),
            self.link_bw_divisor(requester, home),
        ))
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes).map(NodeId)
    }
}

impl Default for RackTopology {
    fn default() -> Self {
        Self::kunpeng_two_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kunpeng_shape_matches_paper() {
        let t = RackTopology::kunpeng_two_node();
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.total_cores(), 640);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn switched_hops_symmetric() {
        let t = RackTopology::switched(4, 8);
        for i in t.node_ids() {
            for j in t.node_ids() {
                assert_eq!(t.hops(i, j), t.hops(j, i));
                if i == j {
                    assert_eq!(t.hops(i, j), 0);
                } else {
                    assert_eq!(t.hops(i, j), 2);
                }
            }
        }
    }

    #[test]
    fn pod_tree_distances_are_hierarchical() {
        // 2 sockets/node, 2 nodes/rack, 2 racks = 8 leaves.
        let t = RackTopology::pod(2, 2, 2, 4);
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.depth(), 3);
        // Same node enclosure: one switch.
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 2);
        // Same rack, different node: two switches up.
        assert_eq!(t.hops(NodeId(0), NodeId(2)), 4);
        // Cross-rack: through the pod spine.
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 6);
        assert_eq!(t.hops(NodeId(3), NodeId(3)), 0);
        // Narrowest link on the path governs bandwidth.
        assert_eq!(t.link_bw_divisor(NodeId(0), NodeId(1)), 1);
        assert_eq!(t.link_bw_divisor(NodeId(0), NodeId(2)), 2);
        assert_eq!(t.link_bw_divisor(NodeId(0), NodeId(4)), 4);
        // Symmetry holds across every pair.
        for i in t.node_ids() {
            for j in t.node_ids() {
                assert_eq!(t.hops(i, j), t.hops(j, i));
                assert_eq!(t.link_bw_divisor(i, j), t.link_bw_divisor(j, i));
            }
        }
    }

    #[test]
    fn no_dense_matrix_at_scale() {
        // A 256-leaf pod is cheap to build and query: hop counts come
        // from an LCA walk, not a 64k-entry matrix.
        let t = RackTopology::pod(4, 8, 8, 16);
        assert_eq!(t.nodes(), 256);
        assert_eq!(t.hops(NodeId(0), NodeId(255)), 6);
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 2);
        assert_eq!(t.hops(NodeId(0), NodeId(31)), 4);
    }

    #[test]
    fn uniform_home_has_no_distance() {
        let t = RackTopology::switched(4, 8);
        assert_eq!(t.home_of(0x1234), None);
        assert_eq!(t.mem_path(NodeId(0), 0x1234), None);
    }

    #[test]
    fn interleaved_home_classes() {
        let t = RackTopology::pod(2, 2, 2, 4).with_home_interleaved(4096);
        // Addresses stripe round-robin across the 8 leaves.
        assert_eq!(t.home_of(0), Some(NodeId(0)));
        assert_eq!(t.home_of(4096), Some(NodeId(1)));
        assert_eq!(t.home_of(8 * 4096), Some(NodeId(0)));
        // Requester 0: page 0 is home (distance 0), page 1 is one switch
        // away, page 4 is cross-rack.
        assert_eq!(t.mem_path(NodeId(0), 0), Some((0, 1)));
        assert_eq!(t.mem_path(NodeId(0), 4096), Some((1, 1)));
        assert_eq!(t.mem_path(NodeId(0), 4 * 4096), Some((3, 4)));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        RackTopology::switched(0, 1);
    }

    #[test]
    #[should_panic(expected = "span")]
    fn undersized_tree_panics() {
        RackTopology::tree(
            8,
            1,
            vec![TopoLevel {
                label: "rack",
                fanout: 4,
                bw_divisor: 1,
            }],
        );
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(NodeId::from(7), NodeId(7));
    }
}
