//! The tiering daemon: observation → policy → safe mutation.
//!
//! On each sim-time tick the daemon (1) drains its sampled access ring
//! into the exponential-decay hotness tracker (reused from
//! `flacdk::alloc::hotness`), (2) splits pages into the hottest set that
//! fits the node's local-DRAM budget versus everything else, and (3)
//! executes the delta as staged migrations ([`crate::Migration`]): cold
//! local pages demote back to the global pool first (freeing budget),
//! then hot global pages promote into local DRAM — each with the
//! `Migrating` guard, a coherent copy, and a rack-wide TLB shootdown.
//!
//! Dedup interaction: a page whose global frame is rack-shared
//! (refcount ≥ 2) is *vetoed* when at least
//! [`TierConfig::dedup_hot_node_threshold`] nodes are hot on it (one
//! node's fast tier must not steal a page everyone reads); otherwise the
//! promotion breaks sharing copy-on-promote style — the local copy is
//! private and the shared frame's refcount drops by one.

use crate::budget::TierBudget;
use crate::migrate::{split_region, LocalFramePool, Migration};
use flacdk::alloc::hotness::HotnessTracker;
use flacos_mem::addr::VirtAddr;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::telemetry::AccessRing;
use flacos_mem::{
    huge_base, AddressSpace, PageDeduper, PageSize, PhysFrame, HUGE_PAGE_SIZE, PAGES_PER_HUGE,
    PAGE_SIZE,
};
use rack_sim::metrics::Counter;
use rack_sim::{GAddr, NodeCtx, NodeId, SimError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Tiering policy knobs.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Local-DRAM bytes this node may fill with promoted pages.
    pub local_budget_bytes: u64,
    /// Hotness half-life (in recorded accesses) for the decay tracker.
    pub half_life_accesses: u64,
    /// Migration cap per tick (promotion + demotion combined).
    pub max_migrations_per_tick: usize,
    /// Minimum normalized hotness score a page needs to be promoted.
    pub min_promote_score: f64,
    /// Veto promotion of a rack-shared deduped page when at least this
    /// many nodes have touched it.
    pub dedup_hot_node_threshold: usize,
    /// Coalesce a 2 MiB region into one huge local mapping when at
    /// least this many of its 512 base pages are in the desired hot set
    /// (one region migration, one ranged shootdown — instead of 512
    /// page migrations with 512 shootdowns). `0` disables region
    /// coalescing, which is the default.
    pub huge_region_min_hot_pages: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            local_budget_bytes: 16 * PAGE_SIZE as u64,
            half_life_accesses: 4096,
            max_migrations_per_tick: 8,
            min_promote_score: 0.0,
            dedup_hot_node_threshold: 2,
            huge_region_min_hot_pages: 0,
        }
    }
}

/// What one tick did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierTickReport {
    /// Pages promoted global → local this tick.
    pub promoted: u64,
    /// Pages demoted local → global this tick.
    pub demoted: u64,
    /// Promotions vetoed by the dedup multi-node-hot rule.
    pub vetoed: u64,
    /// Page bytes copied between tiers this tick.
    pub bytes_migrated: u64,
    /// Rack-wide TLB shootdowns issued this tick. A region promotion or
    /// split counts once: its 512 pages share one ranged round.
    pub shootdowns: u64,
    /// 2 MiB regions coalesced into huge local mappings this tick.
    pub region_promotions: u64,
    /// Huge local mappings split back into 512 base pages this tick.
    pub region_splits: u64,
}

struct TierCounters {
    promotions: Counter,
    demotions: Counter,
    vetoed_dedup: Counter,
    shootdowns: Counter,
    bytes_migrated: Counter,
    region_promotions: Counter,
    region_splits: Counter,
}

impl TierCounters {
    fn new(ctx: &NodeCtx) -> Self {
        let stats = ctx.stats();
        TierCounters {
            promotions: stats.counter("tier", "promotions"),
            demotions: stats.counter("tier", "demotions"),
            vetoed_dedup: stats.counter("tier", "vetoed_dedup"),
            shootdowns: stats.counter("tier", "shootdowns"),
            bytes_migrated: stats.counter("tier", "bytes_migrated"),
            region_promotions: stats.counter("tier", "region_promotions"),
            region_splits: stats.counter("tier", "region_splits"),
        }
    }
}

/// Per-node page tiering daemon.
pub struct TierDaemon {
    node: Arc<NodeCtx>,
    config: TierConfig,
    ring: Arc<AccessRing>,
    tracker: HotnessTracker,
    /// vpn → (node → touch count), for dominant-node and veto decisions.
    node_touches: BTreeMap<u64, BTreeMap<usize, u64>>,
    pool: LocalFramePool,
    /// Pages this daemon promoted: vpn → local frame.
    local_pages: BTreeMap<u64, rack_sim::LAddr>,
    /// 2 MiB regions this daemon coalesced: head vpn → local span base.
    huge_regions: BTreeMap<u64, rack_sim::LAddr>,
    budget: Option<Arc<TierBudget>>,
    dedup: Option<Arc<PageDeduper>>,
    counters: TierCounters,
}

impl std::fmt::Debug for TierDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierDaemon")
            .field("node", &self.node.id())
            .field("config", &self.config)
            .field("local_pages", &self.local_pages.len())
            .finish_non_exhaustive()
    }
}

impl TierDaemon {
    /// A daemon for `node` with a fresh unsampled ring (period 1, 4096
    /// entries). Attach [`TierDaemon::ring`] to an address space via
    /// `AddressSpace::attach_sampler` or feed it directly with
    /// [`TierDaemon::note_access`].
    pub fn new(node: Arc<NodeCtx>, config: TierConfig) -> Self {
        let counters = TierCounters::new(&node);
        TierDaemon {
            tracker: HotnessTracker::new(config.half_life_accesses),
            ring: AccessRing::new(4096, 1),
            node,
            config,
            node_touches: BTreeMap::new(),
            pool: LocalFramePool::new(),
            local_pages: BTreeMap::new(),
            huge_regions: BTreeMap::new(),
            budget: None,
            dedup: None,
            counters,
        }
    }

    /// Enforce promotions against the rack-shared per-node budget ledger
    /// (in addition to the daemon's own `local_budget_bytes`).
    pub fn with_budget(mut self, budget: Arc<TierBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Consult `dedup` refcounts for the copy-on-promote / veto rule.
    pub fn with_dedup(mut self, dedup: Arc<PageDeduper>) -> Self {
        self.dedup = Some(dedup);
        self
    }

    /// The daemon's access ring, for wiring into `attach_sampler`.
    pub fn ring(&self) -> Arc<AccessRing> {
        self.ring.clone()
    }

    /// The policy in effect.
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// Pages currently promoted into this node's local DRAM (a test
    /// probe: only the daemon's tests read it).
    pub fn local_page_count(&self) -> usize {
        self.local_pages.len()
    }

    /// Whether `vpn` is currently held in the local tier by this daemon
    /// (as a 4 KiB page or inside a coalesced 2 MiB region).
    pub fn is_local(&self, vpn: u64) -> bool {
        self.local_pages.contains_key(&vpn) || self.huge_regions.contains_key(&huge_base(vpn))
    }

    /// Regions currently coalesced into huge local mappings (a test
    /// probe: only the daemon's tests read it).
    pub fn huge_region_count(&self) -> usize {
        self.huge_regions.len()
    }

    /// Record one page access directly (bypassing the sampler gate is
    /// the caller's choice of `sample_period` on its own ring).
    pub fn note_access(&self, node: NodeId, asid: u64, vpn: u64) {
        self.ring.record(node, asid, vpn);
    }

    /// Normalized hotness score of `vpn` as the daemon currently sees it.
    pub fn score(&self, vpn: u64) -> f64 {
        self.tracker.score(vpn)
    }

    fn ingest(&mut self) {
        for access in self.ring.drain() {
            self.tracker.register(access.vpn, PAGE_SIZE);
            self.tracker.touch(access.vpn);
            *self
                .node_touches
                .entry(access.vpn)
                .or_default()
                .entry(access.node.0)
                .or_insert(0) += 1;
        }
    }

    /// The node with the most touches on `vpn` (ties → lowest node id).
    fn dominant_node(&self, vpn: u64) -> Option<NodeId> {
        let touches = self.node_touches.get(&vpn)?;
        touches
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&node, _)| NodeId(node))
    }

    fn hot_node_count(&self, vpn: u64) -> usize {
        self.node_touches.get(&vpn).map_or(0, BTreeMap::len)
    }

    /// Dispose of a displaced global frame: rack-shared deduped frames
    /// drop one reference; private frames return to the allocator.
    fn dispose_global_frame(&self, frames: &FrameAllocator, g: GAddr) -> Result<(), SimError> {
        if let Some(dedup) = &self.dedup {
            if dedup.refcount(g) > 0 {
                return dedup.release(&self.node, g);
            }
        }
        frames.free(&self.node, g);
        Ok(())
    }

    /// One sim-time tick: ingest telemetry, recompute the desired hot
    /// set, then demote and promote under the migration cap. `shoot` is
    /// invoked as `shoot(asid, vpn, span)` after each remap to drive the
    /// rack-wide TLB shootdown — span is 1 for page migrations and
    /// [`PAGES_PER_HUGE`] for the single ranged round of a region
    /// promotion or split.
    ///
    /// # Errors
    ///
    /// Fabric errors propagate; pages that merely cannot migrate right
    /// now (unmapped, foreign frame, budget exhausted) are skipped.
    pub fn tick(
        &mut self,
        space: &AddressSpace,
        frames: &FrameAllocator,
        shoot: &mut dyn FnMut(u64, u64, u64) -> Result<(), SimError>,
    ) -> Result<TierTickReport, SimError> {
        self.ingest();
        let mut report = TierTickReport::default();
        let (hot, _cold) = self
            .tracker
            .tier_split(self.config.local_budget_bytes as usize);
        let desired: BTreeSet<u64> = hot.iter().copied().collect();
        let mut migrations_left = self.config.max_migrations_per_tick;

        // Hot-page population of each 2 MiB region, for coalesce and
        // split decisions.
        let mut region_hot: BTreeMap<u64, usize> = BTreeMap::new();
        if self.config.huge_region_min_hot_pages > 0 {
            for &vpn in &desired {
                *region_hot.entry(huge_base(vpn)).or_insert(0) += 1;
            }
        }

        // --- Split cooled regions first: a huge mapping whose hot
        // population fell below the threshold returns to 512 base pages
        // (one ranged shootdown, no copy); the regular demote path then
        // drains the cold ones page by page.
        let to_split: Vec<u64> = self
            .huge_regions
            .keys()
            .copied()
            .filter(|head| {
                region_hot.get(head).copied().unwrap_or(0) < self.config.huge_region_min_hot_pages
            })
            .collect();
        for head in to_split {
            if migrations_left == 0 {
                break;
            }
            if self.split_huge(space, head, shoot)? {
                migrations_left -= 1;
                report.region_splits += 1;
                report.shootdowns += 1;
            }
        }

        // --- Demote: cold local pages free budget for promotions.
        let to_demote: Vec<u64> = self
            .local_pages
            .keys()
            .copied()
            .filter(|vpn| !desired.contains(vpn))
            .collect();
        for vpn in to_demote {
            if migrations_left == 0 {
                break;
            }
            if self.demote(space, frames, vpn, shoot)? {
                migrations_left -= 1;
                report.demoted += 1;
                report.shootdowns += 1;
                report.bytes_migrated += PAGE_SIZE as u64;
            }
        }

        // --- Coalesce hot regions: 512 pages, one migration, one
        // ranged shootdown.
        for (&head, &hot_pages) in &region_hot {
            if migrations_left == 0 {
                break;
            }
            if hot_pages < self.config.huge_region_min_hot_pages
                || self.huge_regions.contains_key(&head)
            {
                continue;
            }
            match self.promote(space, frames, head, PageSize::Huge, shoot)? {
                PromoteOutcome::Promoted => {
                    migrations_left -= 1;
                    report.region_promotions += 1;
                    report.shootdowns += 1;
                    report.bytes_migrated += HUGE_PAGE_SIZE as u64;
                }
                PromoteOutcome::Vetoed => report.vetoed += 1,
                PromoteOutcome::Skipped => {}
            }
        }

        // --- Promote hottest-first into the freed/available budget.
        for vpn in hot {
            if migrations_left == 0 {
                break;
            }
            if self.is_local(vpn) {
                continue;
            }
            if self.tracker.score(vpn) < self.config.min_promote_score {
                continue;
            }
            // Promote only pages this node dominates: a page another
            // node is hotter on belongs in *its* local tier (or in the
            // shared pool), not ours.
            if self.dominant_node(vpn) != Some(self.node.id()) {
                continue;
            }
            match self.promote(space, frames, vpn, PageSize::Base, shoot)? {
                PromoteOutcome::Promoted => {
                    migrations_left -= 1;
                    report.promoted += 1;
                    report.shootdowns += 1;
                    report.bytes_migrated += PAGE_SIZE as u64;
                }
                PromoteOutcome::Vetoed => report.vetoed += 1,
                PromoteOutcome::Skipped => {}
            }
        }

        self.counters.promotions.add(report.promoted);
        self.counters.demotions.add(report.demoted);
        self.counters.vetoed_dedup.add(report.vetoed);
        self.counters.shootdowns.add(report.shootdowns);
        self.counters.bytes_migrated.add(report.bytes_migrated);
        self.counters
            .region_promotions
            .add(report.region_promotions);
        self.counters.region_splits.add(report.region_splits);
        Ok(report)
    }

    /// Split the coalesced region at `head` back into 512 individually
    /// tracked 4 KiB local pages (same bytes, one ranged shootdown); the
    /// regular demote path then returns the cold ones to the pool.
    fn split_huge(
        &mut self,
        space: &AddressSpace,
        head: u64,
        shoot: &mut dyn FnMut(u64, u64, u64) -> Result<(), SimError>,
    ) -> Result<bool, SimError> {
        let Some(base) = self.huge_regions.get(&head).copied() else {
            return Ok(false);
        };
        match split_region(&self.node, space, head, shoot) {
            Ok(_) => {}
            Err(SimError::Protocol(_)) => return Ok(false),
            Err(e) => return Err(e),
        }
        self.huge_regions.remove(&head);
        for i in 0..PAGES_PER_HUGE {
            self.local_pages
                .insert(head + i, rack_sim::LAddr(base.0 + i as usize * PAGE_SIZE));
        }
        Ok(true)
    }

    /// Promote the `size` run at `head` into this node's local tier: one
    /// page, or a 2 MiB region coalesced into one huge local mapping.
    /// Every base page must be global-framed, non-migrating, mapped as a
    /// base page and not individually promoted here already.
    fn promote(
        &mut self,
        space: &AddressSpace,
        frames: &FrameAllocator,
        head: u64,
        size: PageSize,
        shoot: &mut dyn FnMut(u64, u64, u64) -> Result<(), SimError>,
    ) -> Result<PromoteOutcome, SimError> {
        let mut old_globals = Vec::with_capacity(size.pages() as usize);
        for vpn in head..head + size.pages() {
            if self.local_pages.contains_key(&vpn) {
                // A page of this region already sits in our 4 KiB local
                // tier; let it cool and demote before coalescing.
                return Ok(PromoteOutcome::Skipped);
            }
            let Some(pte) = space.translate(&self.node, VirtAddr::from_vpn(vpn))? else {
                return Ok(PromoteOutcome::Skipped);
            };
            if pte.migrating || pte.page_size != PageSize::Base {
                return Ok(PromoteOutcome::Skipped);
            }
            let PhysFrame::Global(g) = pte.frame else {
                // Already in someone's local tier.
                return Ok(PromoteOutcome::Skipped);
            };
            // Dedup rule: rack-shared pages hot on several nodes stay
            // shared, and one such page keeps its whole region in the pool.
            if let Some(dedup) = &self.dedup {
                if dedup.refcount(g) >= 2
                    && self.hot_node_count(vpn) >= self.config.dedup_hot_node_threshold
                {
                    return Ok(PromoteOutcome::Vetoed);
                }
            }
            old_globals.push(g);
        }
        // Reserve rack-visible budget before touching anything.
        if let Some(budget) = &self.budget {
            if !budget.charge(&self.node, self.node.id(), size.bytes() as u64)? {
                return Ok(PromoteOutcome::Skipped);
            }
        }
        let Ok(base) = self.pool.alloc(&self.node, size) else {
            // Local memory exhausted: not an error, just no headroom.
            self.credit(size)?;
            return Ok(PromoteOutcome::Skipped);
        };
        let dst = PhysFrame::Local(self.node.id(), base);
        if !self.migrate(space, frames, head, size, dst, shoot)? {
            return Ok(PromoteOutcome::Skipped);
        }
        for g in old_globals {
            self.dispose_global_frame(frames, g)?;
        }
        match size {
            PageSize::Base => self.local_pages.insert(head, base),
            PageSize::Huge => self.huge_regions.insert(head, base),
        };
        Ok(PromoteOutcome::Promoted)
    }

    fn demote(
        &mut self,
        space: &AddressSpace,
        frames: &FrameAllocator,
        vpn: u64,
        shoot: &mut dyn FnMut(u64, u64, u64) -> Result<(), SimError>,
    ) -> Result<bool, SimError> {
        let Some(laddr) = self.local_pages.get(&vpn).copied() else {
            return Ok(false);
        };
        let local = PhysFrame::Local(self.node.id(), laddr);
        let Some(pte) = space.translate(&self.node, VirtAddr::from_vpn(vpn))? else {
            // Unmapped since promotion: reclaim our bookkeeping.
            self.local_pages.remove(&vpn);
            self.release(frames, local, PageSize::Base)?;
            return Ok(false);
        };
        if pte.migrating || pte.frame != local {
            return Ok(false);
        }
        let dst = PhysFrame::Global(frames.alloc(&self.node)?);
        if !self.migrate(space, frames, vpn, PageSize::Base, dst, shoot)? {
            return Ok(false);
        }
        self.local_pages.remove(&vpn);
        self.release(frames, local, PageSize::Base)?;
        Ok(true)
    }

    /// The staged sequence shared by promotion and demotion: guard the
    /// run at `head`, copy it into `dst`, then commit with one shootdown
    /// — or abort when the copy fails. Returns `false` when the run
    /// cannot migrate right now. `dst` is released on every path but a
    /// commit.
    fn migrate(
        &mut self,
        space: &AddressSpace,
        frames: &FrameAllocator,
        head: u64,
        size: PageSize,
        dst: PhysFrame,
        shoot: &mut dyn FnMut(u64, u64, u64) -> Result<(), SimError>,
    ) -> Result<bool, SimError> {
        let mut m = match Migration::begin(&self.node, space, head, size, dst) {
            Ok(m) => m,
            Err(e) => {
                self.release(frames, dst, size)?;
                return match e {
                    SimError::Protocol(_) => Ok(false),
                    e => Err(e),
                };
            }
        };
        if let Err(e) = m.copy(&self.node, space) {
            m.abort(&self.node, space)?;
            self.release(frames, dst, size)?;
            return Err(e);
        }
        m.commit(&self.node, space, shoot)?;
        Ok(true)
    }

    /// Give back a frame this daemon holds: a local span returns to the
    /// pool and its budget to the ledger; a global frame returns to the
    /// allocator.
    fn release(
        &mut self,
        frames: &FrameAllocator,
        frame: PhysFrame,
        size: PageSize,
    ) -> Result<(), SimError> {
        match frame {
            PhysFrame::Local(_, l) => {
                self.pool.free(l, size);
                self.credit(size)
            }
            PhysFrame::Global(g) => {
                frames.free(&self.node, g);
                Ok(())
            }
        }
    }

    /// Return `size` bytes of local-tier room to the rack ledger.
    fn credit(&self, size: PageSize) -> Result<(), SimError> {
        match &self.budget {
            Some(budget) => budget.credit(&self.node, self.node.id(), size.bytes() as u64),
            None => Ok(()),
        }
    }
}

enum PromoteOutcome {
    Promoted,
    Vetoed,
    Skipped,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flacdk::alloc::GlobalAllocator;
    use flacdk::sync::rcu::EpochManager;
    use flacdk::sync::reclaim::RetireList;
    use flacos_mem::Pte;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, AddressSpace, FrameAllocator) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let space =
            AddressSpace::alloc(1, rack.global(), alloc, epochs, RetireList::new()).unwrap();
        let frames = FrameAllocator::new(rack.global().clone());
        (rack, space, frames)
    }

    fn map_pages(
        rack: &Rack,
        space: &AddressSpace,
        frames: &FrameAllocator,
        vpns: std::ops::Range<u64>,
    ) {
        let n0 = rack.node(0);
        for vpn in vpns {
            let f = frames.alloc(&n0).unwrap();
            space
                .map(&n0, vpn, Pte::new(PhysFrame::Global(f), true))
                .unwrap();
            space
                .write(&n0, VirtAddr::from_vpn(vpn), &[vpn as u8; 64])
                .unwrap();
        }
    }

    #[test]
    fn hot_pages_promote_and_content_survives() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        map_pages(&rack, &space, &frames, 0..8);
        let cfg = TierConfig {
            local_budget_bytes: 2 * PAGE_SIZE as u64,
            ..TierConfig::default()
        };
        let mut daemon = TierDaemon::new(n0.clone(), cfg);
        for _ in 0..10 {
            daemon.note_access(n0.id(), 1, 3);
            daemon.note_access(n0.id(), 1, 5);
        }
        daemon.note_access(n0.id(), 1, 0);
        let report = daemon.tick(&space, &frames, &mut |_, _, _| Ok(())).unwrap();
        assert_eq!(report.promoted, 2);
        assert!(daemon.is_local(3) && daemon.is_local(5));
        assert!(!daemon.is_local(0), "budget holds only the two hottest");
        for vpn in [3u64, 5] {
            let pte = space
                .translate(&n0, VirtAddr::from_vpn(vpn))
                .unwrap()
                .unwrap();
            assert_eq!(pte.frame.home_node(), Some(n0.id()));
            let mut buf = [0u8; 64];
            space.read(&n0, VirtAddr::from_vpn(vpn), &mut buf).unwrap();
            assert_eq!(buf, [vpn as u8; 64]);
        }
    }

    #[test]
    fn cooling_pages_demote_to_make_room() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        map_pages(&rack, &space, &frames, 0..4);
        let cfg = TierConfig {
            local_budget_bytes: PAGE_SIZE as u64,
            half_life_accesses: 4,
            ..TierConfig::default()
        };
        let mut daemon = TierDaemon::new(n0.clone(), cfg);
        for _ in 0..8 {
            daemon.note_access(n0.id(), 1, 1);
        }
        daemon.tick(&space, &frames, &mut |_, _, _| Ok(())).unwrap();
        assert!(daemon.is_local(1));
        // Page 2 becomes the new favourite; the short half-life decays 1.
        for _ in 0..64 {
            daemon.note_access(n0.id(), 1, 2);
        }
        let report = daemon.tick(&space, &frames, &mut |_, _, _| Ok(())).unwrap();
        assert_eq!(report.demoted, 1);
        assert_eq!(report.promoted, 1);
        assert!(!daemon.is_local(1) && daemon.is_local(2));
        let pte = space
            .translate(&n0, VirtAddr::from_vpn(1))
            .unwrap()
            .unwrap();
        assert!(
            matches!(pte.frame, PhysFrame::Global(_)),
            "demoted back to the pool"
        );
        let mut buf = [0u8; 64];
        space.read(&n0, VirtAddr::from_vpn(1), &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64], "content survives the round trip");
    }

    #[test]
    fn foreign_dominated_pages_are_not_promoted() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        map_pages(&rack, &space, &frames, 0..2);
        let mut daemon = TierDaemon::new(n0.clone(), TierConfig::default());
        // Node 1 is the dominant toucher of page 0.
        for _ in 0..10 {
            daemon.note_access(NodeId(1), 1, 0);
        }
        daemon.note_access(n0.id(), 1, 0);
        let report = daemon.tick(&space, &frames, &mut |_, _, _| Ok(())).unwrap();
        assert_eq!(report.promoted, 0);
        assert!(!daemon.is_local(0));
    }

    #[test]
    fn budget_ledger_gates_promotions() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        map_pages(&rack, &space, &frames, 0..4);
        let ledger = TierBudget::alloc(rack.global(), 2, PAGE_SIZE as u64).unwrap();
        let mut daemon =
            TierDaemon::new(n0.clone(), TierConfig::default()).with_budget(ledger.clone());
        for vpn in 0..4 {
            for _ in 0..5 {
                daemon.note_access(n0.id(), 1, vpn);
            }
        }
        let report = daemon.tick(&space, &frames, &mut |_, _, _| Ok(())).unwrap();
        assert_eq!(report.promoted, 1, "one page of rack budget");
        assert_eq!(ledger.free_bytes(&n0, n0.id()).unwrap(), 0);
    }

    #[test]
    fn counters_flow_into_node_stats() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        map_pages(&rack, &space, &frames, 0..2);
        let mut daemon = TierDaemon::new(n0.clone(), TierConfig::default());
        let mut shootdowns = 0u64;
        for _ in 0..4 {
            daemon.note_access(n0.id(), 1, 0);
        }
        daemon
            .tick(&space, &frames, &mut |_, _, _| {
                shootdowns += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(shootdowns, 1);
        let snap = n0.stats().snapshot();
        let get = |name: &str| {
            snap.subsystems
                .iter()
                .find(|c| c.subsystem == "tier" && c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(get("promotions"), Some(1));
        assert_eq!(get("shootdowns"), Some(1));
        assert_eq!(get("bytes_migrated"), Some(PAGE_SIZE as u64));
        assert_eq!(get("demotions"), Some(0));
        assert_eq!(get("vetoed_dedup"), Some(0));
    }

    /// A rack whose nodes have enough local DRAM to hold a 2 MiB region.
    fn setup_region() -> (Rack, AddressSpace, FrameAllocator) {
        let mut cfg = RackConfig::small_test().with_global_mem(32 << 20);
        cfg.local_mem_bytes = 8 << 20;
        let rack = Rack::new(cfg);
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let space =
            AddressSpace::alloc(1, rack.global(), alloc, epochs, RetireList::new()).unwrap();
        let frames = FrameAllocator::new(rack.global().clone());
        (rack, space, frames)
    }

    #[test]
    fn hot_region_coalesces_with_one_ranged_shootdown() {
        let (rack, space, frames) = setup_region();
        let n0 = rack.node(0);
        map_pages(&rack, &space, &frames, 0..PAGES_PER_HUGE);
        let cfg = TierConfig {
            local_budget_bytes: HUGE_PAGE_SIZE as u64,
            huge_region_min_hot_pages: 4,
            ..TierConfig::default()
        };
        let mut daemon = TierDaemon::new(n0.clone(), cfg);
        for vpn in 0..8 {
            for _ in 0..4 {
                daemon.note_access(n0.id(), 1, vpn);
            }
        }
        let mut rounds = Vec::new();
        let report = daemon
            .tick(&space, &frames, &mut |asid, vpn, span| {
                rounds.push((asid, vpn, span));
                Ok(())
            })
            .unwrap();
        assert_eq!(report.region_promotions, 1);
        assert_eq!(report.shootdowns, 1, "512 pages moved, one ranged round");
        assert_eq!(report.bytes_migrated, HUGE_PAGE_SIZE as u64);
        assert_eq!(rounds, vec![(1, 0, PAGES_PER_HUGE)]);
        assert_eq!(daemon.huge_region_count(), 1);
        assert!(daemon.is_local(0) && daemon.is_local(PAGES_PER_HUGE - 1));
        let head = space
            .translate(&n0, VirtAddr::from_vpn(0))
            .unwrap()
            .unwrap();
        assert_eq!(head.page_size, PageSize::Huge);
        assert_eq!(head.frame.home_node(), Some(n0.id()));
        // Interior pages resolve through the huge mapping, bytes intact.
        let mut buf = [0u8; 64];
        space.read(&n0, VirtAddr::from_vpn(300), &mut buf).unwrap();
        assert_eq!(buf, [300u64 as u8; 64]);
    }

    #[test]
    fn cooled_region_splits_back_to_base_pages() {
        let (rack, space, frames) = setup_region();
        let n0 = rack.node(0);
        map_pages(&rack, &space, &frames, 0..PAGES_PER_HUGE);
        let cfg = TierConfig {
            local_budget_bytes: HUGE_PAGE_SIZE as u64,
            half_life_accesses: 4,
            huge_region_min_hot_pages: 4,
            ..TierConfig::default()
        };
        let mut daemon = TierDaemon::new(n0.clone(), cfg);
        for vpn in 0..8 {
            for _ in 0..4 {
                daemon.note_access(n0.id(), 1, vpn);
            }
        }
        let report = daemon.tick(&space, &frames, &mut |_, _, _| Ok(())).unwrap();
        assert_eq!(report.region_promotions, 1);

        // A fresh working set in another region decays the old one below
        // the coalesce threshold; the next tick splits it back.
        map_pages(
            &rack,
            &space,
            &frames,
            2 * PAGES_PER_HUGE..2 * PAGES_PER_HUGE + 512,
        );
        for vpn in 2 * PAGES_PER_HUGE..2 * PAGES_PER_HUGE + 512 {
            for _ in 0..4 {
                daemon.note_access(n0.id(), 1, vpn);
            }
        }
        let mut rounds = Vec::new();
        let report = daemon
            .tick(&space, &frames, &mut |asid, vpn, span| {
                rounds.push((asid, vpn, span));
                Ok(())
            })
            .unwrap();
        assert_eq!(report.region_splits, 1);
        assert_eq!(daemon.huge_region_count(), 0);
        assert_eq!(
            rounds[0],
            (1, 0, PAGES_PER_HUGE),
            "split is one ranged round"
        );
        // The head is a base PTE again and every byte survived in place.
        let head = space
            .translate(&n0, VirtAddr::from_vpn(0))
            .unwrap()
            .unwrap();
        assert_eq!(head.page_size, PageSize::Base);
        let mut buf = [0u8; 64];
        space.read(&n0, VirtAddr::from_vpn(5), &mut buf).unwrap();
        assert_eq!(buf, [5u8; 64]);
        // The split pages now sit in the 4 KiB ledger, demotable later.
        assert!(daemon.local_page_count() >= PAGES_PER_HUGE as usize - 8);
    }

    #[test]
    fn tick_skips_pages_inside_a_global_huge_mapping() {
        let (rack, space, _) = setup_region();
        let n0 = rack.node(0);
        let frames = FrameAllocator::new(rack.global().clone());
        let region = rack.global().alloc(HUGE_PAGE_SIZE, PAGE_SIZE).unwrap();
        let huge = Pte::new(PhysFrame::Global(region), true).huge();
        space.map(&n0, PAGES_PER_HUGE, huge).unwrap();
        let mut daemon = TierDaemon::new(n0.clone(), TierConfig::default());
        // The head and an interior page are both hot and node 0's alone.
        for vpn in [PAGES_PER_HUGE, PAGES_PER_HUGE + 188] {
            for _ in 0..10 {
                daemon.note_access(n0.id(), 1, vpn);
            }
        }
        let report = daemon.tick(&space, &frames, &mut |_, _, _| Ok(())).unwrap();
        assert_eq!(report, TierTickReport::default(), "nothing moved");
        assert_eq!(daemon.local_page_count(), 0);
        assert_eq!(space.mapped_pages(), PAGES_PER_HUGE);
        let head = space
            .translate(&n0, VirtAddr::from_vpn(PAGES_PER_HUGE))
            .unwrap()
            .unwrap();
        assert_eq!(head, huge, "the huge mapping is untouched");
    }

    #[test]
    fn deduped_page_hot_on_two_nodes_is_vetoed() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        let dedup = Arc::new(PageDeduper::new(frames.clone()));
        // Intern one shared page from two "files" → refcount 2.
        let content = [0x5Au8; PAGE_SIZE];
        let shared = dedup.intern(&n0, &content).unwrap();
        assert_eq!(dedup.intern(&n0, &content).unwrap(), shared);
        assert_eq!(dedup.refcount(shared), 2);
        space
            .map(&n0, 7, Pte::new(PhysFrame::Global(shared), false))
            .unwrap();

        let mut daemon =
            TierDaemon::new(n0.clone(), TierConfig::default()).with_dedup(dedup.clone());
        // Hot on both node 0 (dominant) and node 1 → veto.
        for _ in 0..10 {
            daemon.note_access(n0.id(), 1, 7);
        }
        for _ in 0..3 {
            daemon.note_access(NodeId(1), 1, 7);
        }
        let report = daemon.tick(&space, &frames, &mut |_, _, _| Ok(())).unwrap();
        assert_eq!(report.vetoed, 1);
        assert_eq!(report.promoted, 0);
        assert_eq!(dedup.refcount(shared), 2, "sharing intact");
    }

    #[test]
    fn deduped_page_hot_on_one_node_breaks_sharing_on_promote() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        let dedup = Arc::new(PageDeduper::new(frames.clone()));
        let content = [0x5Au8; PAGE_SIZE];
        let shared = dedup.intern(&n0, &content).unwrap();
        assert_eq!(dedup.intern(&n0, &content).unwrap(), shared);
        space
            .map(&n0, 7, Pte::new(PhysFrame::Global(shared), false))
            .unwrap();

        let mut daemon =
            TierDaemon::new(n0.clone(), TierConfig::default()).with_dedup(dedup.clone());
        for _ in 0..10 {
            daemon.note_access(n0.id(), 1, 7);
        }
        let report = daemon.tick(&space, &frames, &mut |_, _, _| Ok(())).unwrap();
        assert_eq!(report.promoted, 1, "single-node-hot page promotes");
        assert_eq!(
            dedup.refcount(shared),
            1,
            "copy-on-promote dropped one reference"
        );
        let mut buf = [0u8; 64];
        space.read(&n0, VirtAddr::from_vpn(7), &mut buf).unwrap();
        assert_eq!(buf, [0x5Au8; 64]);
    }
}
