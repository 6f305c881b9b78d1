//! Hotness tracking and layout packing (paper §3.2 "Memory management",
//! item 2: *"Optimization algorithms for object layout and allocation
//! packing based on object hotness or liveness"*).
//!
//! The tracker keeps an exponentially decayed access counter per object.
//! [`HotnessTracker::pack_order`] produces a hot-first layout ordering so
//! that frequently co-accessed objects can be packed into few pages /
//! cache lines, and [`HotnessTracker::tier_split`] partitions objects
//! into "keep local" and "demote to global" sets for the relocator.

use std::collections::HashMap;

/// Object identifier used by the tracker (opaque to this module).
pub type ObjectId = u64;

/// Exponentially decayed per-object access statistics.
#[derive(Debug, Clone)]
pub struct HotnessTracker {
    half_life_accesses: f64,
    scores: HashMap<ObjectId, f64>,
    sizes: HashMap<ObjectId, usize>,
    total_accesses: u64,
}

impl HotnessTracker {
    /// A tracker whose scores decay by half every `half_life_accesses`
    /// recorded accesses (across all objects).
    ///
    /// # Panics
    ///
    /// Panics if `half_life_accesses` is not positive.
    pub fn new(half_life_accesses: u64) -> Self {
        assert!(half_life_accesses > 0, "half life must be positive");
        HotnessTracker {
            half_life_accesses: half_life_accesses as f64,
            scores: HashMap::new(),
            sizes: HashMap::new(),
            total_accesses: 0,
        }
    }

    /// Register an object and its size (idempotent; re-registering
    /// updates the size).
    pub fn register(&mut self, id: ObjectId, size: usize) {
        self.scores.entry(id).or_insert(0.0);
        self.sizes.insert(id, size);
    }

    /// Record one access to `id` (auto-registers unknown objects with
    /// size 0).
    pub fn touch(&mut self, id: ObjectId) {
        self.total_accesses += 1;
        // Decay everyone a little, then bump the touched object. To keep
        // this O(1) we fold the decay into the increment instead:
        // score is stored in "inflated" units that grow over time.
        let inflation = (self.total_accesses as f64 / self.half_life_accesses).exp2();
        *self.scores.entry(id).or_insert(0.0) += inflation;
        self.sizes.entry(id).or_insert(0);
    }

    /// Current (normalized) hotness score of `id`.
    pub fn score(&self, id: ObjectId) -> f64 {
        let inflation = (self.total_accesses as f64 / self.half_life_accesses).exp2();
        self.scores.get(&id).copied().unwrap_or(0.0) / inflation
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether no objects are tracked.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Objects ordered hottest-first — the packing order for relocation
    /// or allocation placement. Score ties break by ascending
    /// [`ObjectId`] (`total_cmp`, so NaN cannot scramble the order),
    /// making pack/tier decisions byte-identical across runs.
    pub fn pack_order(&self) -> Vec<ObjectId> {
        let mut v: Vec<(ObjectId, f64)> = self.scores.iter().map(|(id, s)| (*id, *s)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(id, _)| id).collect()
    }

    /// Split objects into (hot, cold) where the hot set is the hottest
    /// prefix whose sizes fit within `local_budget_bytes`.
    pub fn tier_split(&self, local_budget_bytes: usize) -> (Vec<ObjectId>, Vec<ObjectId>) {
        let mut hot = Vec::new();
        let mut cold = Vec::new();
        let mut used = 0usize;
        for id in self.pack_order() {
            let size = self.sizes.get(&id).copied().unwrap_or(0);
            if used + size <= local_budget_bytes {
                used += size;
                hot.push(id);
            } else {
                cold.push(id);
            }
        }
        (hot, cold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotter_objects_sort_first() {
        let mut t = HotnessTracker::new(1000);
        for _ in 0..10 {
            t.touch(1);
        }
        for _ in 0..3 {
            t.touch(2);
        }
        t.touch(3);
        assert_eq!(t.pack_order(), vec![1, 2, 3]);
        assert!(t.score(1) > t.score(2));
    }

    #[test]
    fn decay_lets_new_hot_overtake_old_hot() {
        let mut t = HotnessTracker::new(8);
        for _ in 0..20 {
            t.touch(1);
        }
        // Object 2 becomes the recent favourite.
        for _ in 0..20 {
            t.touch(2);
        }
        assert_eq!(t.pack_order()[0], 2);
    }

    #[test]
    fn tier_split_respects_budget() {
        let mut t = HotnessTracker::new(100);
        t.register(1, 100);
        t.register(2, 100);
        t.register(3, 100);
        for _ in 0..5 {
            t.touch(1);
        }
        for _ in 0..3 {
            t.touch(2);
        }
        t.touch(3);
        let (hot, cold) = t.tier_split(200);
        assert_eq!(hot, vec![1, 2]);
        assert_eq!(cold, vec![3]);
    }

    #[test]
    fn score_ties_break_by_object_id() {
        // Register-only objects all score exactly 0.0 — a genuine tie.
        // The order must be ascending id regardless of insertion order,
        // so tier decisions replay byte-identically across runs.
        let mut t = HotnessTracker::new(100);
        for id in [9, 2, 7, 4] {
            t.register(id, 10);
        }
        assert_eq!(t.pack_order(), vec![2, 4, 7, 9]);
        let (hot, cold) = t.tier_split(20);
        assert_eq!(hot, vec![2, 4]);
        assert_eq!(cold, vec![7, 9]);
    }

    #[test]
    fn untouched_registered_objects_are_cold() {
        let mut t = HotnessTracker::new(100);
        t.register(5, 10);
        t.touch(6);
        let order = t.pack_order();
        assert_eq!(order.last(), Some(&5));
    }
}
