//! Per-node software cache over global memory — the *non-coherence* model.
//!
//! The memory interconnects the paper targets (§2.1) do not guarantee
//! hardware cache coherence across nodes: a node's cached view of global
//! memory goes stale when another node writes, and a node's own cached
//! writes stay invisible to the rack until explicitly written back. This
//! module models exactly that contract:
//!
//! * [`NodeCache::read`] serves cached lines **without revalidation** —
//!   stale data is returned until the node invalidates.
//! * [`NodeCache::write`] dirties cached lines locally; global memory is
//!   only updated on [`NodeCache::writeback`]/[`NodeCache::flush`] or
//!   capacity eviction.
//! * Atomics (in [`crate::NodeCtx`]) bypass the cache entirely, matching
//!   fabric-level atomics (CXL/libfam-atomic style).
//!
//! Cost accounting: every method returns the simulated nanoseconds the
//! operation cost; the owning [`crate::NodeCtx`] charges its clock.
//!
//! # Internals: banks, single-flight fills, seqlock read hits
//!
//! The cache is **sharded**: a line id maps to one of
//! [`CacheConfig::banks`] banks (`line_id & (banks - 1)`), each bank
//! owning its share of the lines behind its own lock. Three rules keep
//! the banks actually parallel where the first sharded design still
//! serialized:
//!
//! 1. **No bank lock is ever held across a fabric operation.** A miss
//!    installs a per-line in-flight guard (slot state *Filling*: present
//!    in the bank's line directory with `SlotMeta::filling` set, not on
//!    the LRU list),
//!    releases the bank mutex, performs the `GlobalMemory` read with no
//!    node-local lock held, then re-acquires the mutex to publish the
//!    line. Dirty eviction victims and explicit writebacks move their
//!    fabric writes out from under the lock the same way. Debug builds
//!    enforce the rule with a thread-local lock-depth assertion in the
//!    [`fabric_read`]/[`fabric_write`] helpers — the only fabric call
//!    sites in this module, for single lines and whole runs alike.
//! 2. **Fills are single-flight.** A second thread missing on a line
//!    that is already *Filling* does not issue a duplicate fabric read;
//!    it waits on the bank's condvar and completes as a cost-shared hit
//!    (`cache_hit_ns`, counted in both `hits` and `coalesced_fills`).
//!    This is the request-coalescing idea flat-combining/OpLog designs
//!    use for fabric-latency operations.
//! 3. **Read hits take no lock at all.** Line payloads live in
//!    [`SlotCell`]s — per-slot seqlock sequence counters
//!    ([`crate::sync::SeqCount`]) over atomic words — outside the bank
//!    mutex, found via a lock-free direct-mapped [`LineIndex`]. A reader
//!    samples the sequence, copies the words, and revalidates; a torn
//!    read retries and then falls back to the locked path, so the fast
//!    path is purely an optimization and never a correctness dependency.
//!    LRU recency for lock-free hits is maintained best-effort via
//!    `try_lock` (exact when uncontended, so single-threaded runs keep
//!    exact-LRU determinism).
//!
//! Within a bank, a line is found through a **line directory**
//! ([`LineDir`]) indexed by address, not by hash: the bank-local line
//! number `line_id >> log2(banks)` picks a `u32` entry of `dir` per 64
//! lines, naming a leaf of 64 slot numbers. A lookup is two dependent
//! array loads, and a 4 KiB span's lines fall in one leaf per bank, so a
//! page's bookkeeping walks memory sequentially. Leaves come from a
//! per-bank arena of fixed-size chunks and return to a free list when
//! their last line leaves, so leaf memory is bounded by the most lines
//! the bank held at once (one leaf per resident line at worst, ~one per
//! 64 for page-shaped access); `dir` adds 4 B per 64 bank-local lines up
//! to the highest address the bank installed. Lookups past its end miss
//! and never grow it. The lock-free [`LineIndex`] hint of rule 3 stays a
//! separate fixed-size table: a directory readable without the lock
//! could never free a leaf, and its memory would follow the address
//! range the node ever touched instead of the lines it holds.
//!
//! Resident lines are threaded onto an **intrusive doubly-linked LRU
//! list** by slab index: a hit is one directory lookup plus four pointer
//! swaps, and the eviction victim is always the list tail — exact LRU in
//! O(1). Behaviour counters are **per-bank relaxed atomics**
//! shared with [`crate::NodeStats`] through an [`Arc`], so readers
//! snapshot them without taking any bank lock; the locked paths add to
//! them once per lock hold, not once per line.
//!
//! # The span path
//!
//! The unit of work of `read`, `write`, `writeback`, `invalidate` and
//! `flush` is the byte span, not the 64 B line: a 4 KiB page is one
//! operation that visits each bank once, not 64 that each take a lock.
//!
//! * **Passes.** A span is cut, in address order, into passes of at most
//!   [`PASS_LINES`] lines (one page), whose staging buffers live on the
//!   stack. A single-line access is a pass of one and stages nothing.
//! * **One visit per bank.** Within a pass, the bank of line `first + k`
//!   (`k < banks`) owns lines `first + k, first + k + banks, …`; they are
//!   processed in ascending order under one hold of that bank's lock.
//!   Banks share no state, so each bank sees exactly the sequence of
//!   hits, fills, publishes and evictions that walking the span front to
//!   back would show it, and ends in the same state.
//! * **Costs are sums.** A span's simulated cost is a sum over per-line
//!   outcomes: `cache_hit_ns` per hit or allocation, `global_read_ns` for
//!   the span's first miss and the bandwidth tail for each further one,
//!   `writeback_line_ns` per dirty eviction, and likewise first/tail for
//!   lines written back or dropped. Which miss is "first" does not change
//!   the sum, so the cost is independent of the order banks are visited
//!   in — bit for bit what the line-at-a-time walk charged.
//! * **One fabric copy.** A read's first miss in a pass claims its line
//!   *Filling* as any miss does, and with the lock dropped fetches the
//!   whole pass's lines in one fabric read; later misses of the pass
//!   install from that image under the lock, with no window at all,
//!   where the image rule below allows. `writeback`/`flush` snapshot
//!   dirty lines bank by bank, then write each contiguous run of them
//!   with one fabric write, then revisit the banks that staged any:
//!   `writeback` clears `dirty` where the slot's sequence count shows no
//!   writer ran in between; `flush` drops the staged lines — only now,
//!   with their bytes in the pool, so that no reader of this node can
//!   miss on a flushed line and refill it from a not-yet-updated pool.
//!   A write can only miss on a partial first or last line, so its fills
//!   stay per line.
//! * **The image rule.** Only the first miss is claimed before the image
//!   is read. Any other line of the pass may, before its bank is visited,
//!   be written back by another thread of this node *after* the image
//!   was read, and then dropped — installing the image's copy would have
//!   the node read bytes older than its own flushed write. Each bank
//!   therefore counts the ready lines that ever left it
//!   (`BankShard::drops`); the fetch samples every touched bank's count
//!   before the fabric read, and a miss installs from the image only if
//!   its bank's count still equals the sample plus the visit's own
//!   evictions. Otherwise the line fills on its own, claimed *Filling*
//!   like a first miss.
//! * **Own evictions.** A bank visit that installs more lines than the
//!   bank holds evicts lines as it goes, possibly dirty, possibly lines
//!   the same span is about to touch. The image says nothing about a
//!   line this visit evicted (it predates the victim's bytes), so such a
//!   line is never installed from it; queued victims reach the fabric
//!   before every fabric read of the visit, so the per-line fill finds
//!   the victim's bytes in the pool.
//! * **Read hits.** A read walks its lines through the lock-free hit
//!   path (rule 3) for as long as they hit — at any length — and
//!   accounts those hits once per bank; it takes locks from the first
//!   line that does not hit.
//! * **A span of one.** Single-line reads and writes call the bank visit
//!   directly; a single-line maintenance op runs the same sweep / write /
//!   settle steps over one local snapshot (`maintain_line`). Neither
//!   stages anything nor loops over passes or banks.
//!
//! # Partial-span effects on error
//!
//! A fill fails when its line holds poison or runs past the end of the
//! pool. A multi-line read or write first asks whether that can happen
//! anywhere in its lines; if so it gives up bank order and walks the span
//! **one line per pass, front to back**. The error then propagates after
//! the lines before the failing one, in address order, already took
//! effect: prefix bytes of the caller's buffer are filled (reads) or
//! cached dirty (writes), and their counters are recorded. The *failing*
//! line contributes nothing — no counter increment, no buffer mutation,
//! no resident line — so the identity `hits + misses + allocs ==
//! successfully accessed line segments` holds on every path, success or
//! error. (Poison injected *while* a span runs can fail a fill in bank
//! order; the identity still holds, but the lines that took effect are
//! then those already visited, not an address prefix.) Callers needing
//! all-or-nothing semantics should pre-validate with
//! [`GlobalMemory::is_poisoned`].

use crate::error::SimError;
use crate::latency::LatencyModel;
use crate::memory::{GAddr, GlobalMemory};
use crate::sync::{Condvar, Mutex, SeqCount};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, OnceLock};

/// Cache line size in bytes, matching common ARM/x86 line sizes.
pub const LINE_SIZE: usize = 64;

/// 64-bit words per cache line.
const LINE_WORDS: usize = LINE_SIZE / 8;

/// Slab-index sentinel terminating the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// `SlotCell::line_id` value for a cell that holds no published line.
const NO_LINE: u64 = u64::MAX;

/// Extra slab slots beyond a bank's capacity, so concurrent in-flight
/// fills never have to wait for slots in practice (a bank would need
/// this many *simultaneous* fills before the grant loop evicts or waits).
const FILL_HEADROOM: usize = 256;

/// Slots per lazily-allocated slab chunk.
const CHUNK: usize = 64;

/// Bank-local lines one [`LineDir`] leaf maps.
const LEAF_LINES: usize = 64;

/// Leaves per [`LineDir`] arena chunk (~4 KiB).
const LEAF_CHUNK: usize = 16;

/// `LineDir::dir` entry of a 64-line run with no leaf.
const NO_LEAF: u32 = u32::MAX;

/// Bank-local lines a [`LineDir`] may map: a `u32` worth of directory
/// entries, 16 TiB of pool per bank. Reads and writes insert only lines
/// inside the pool (`check_span`), far below it; lookups of any line,
/// however high, just miss.
const DIR_LINE_LIMIT: u64 = (u32::MAX as u64) * LEAF_LINES as u64;

/// Optimistic-read attempts before the hit path falls back to the lock.
const HIT_RETRIES: usize = 4;

/// Lines one pass over a span covers (one 4 KiB page): the pass's fabric
/// image is staged on the stack and its staged-line set fits a `u64`
/// mask. Longer spans are cut into passes in address order, which keeps
/// every bank's line sequence ascending, so the cut is invisible to the
/// simulated cost.
const PASS_LINES: usize = 64;

/// Debug-only lock-ordering watchdog: counts bank guards held by the
/// current thread so the fabric helpers can assert the "no bank lock
/// across fabric ops" rule structurally, on every test run.
#[cfg(debug_assertions)]
mod lockdep {
    use std::cell::Cell;

    thread_local! {
        static BANK_GUARDS: Cell<u32> = const { Cell::new(0) };
    }

    pub(super) fn enter() {
        BANK_GUARDS.with(|d| d.set(d.get() + 1));
    }

    pub(super) fn exit() {
        BANK_GUARDS.with(|d| d.set(d.get() - 1));
    }

    pub(super) fn assert_unlocked(op: &str) {
        BANK_GUARDS.with(|d| {
            assert_eq!(d.get(), 0, "{op} attempted while holding a cache bank lock");
        });
    }
}

/// The only fabric-read call site in this module: fills `data` — one line
/// or a whole run of them — from the pool, starting at `first_line`. Free
/// function outside any lock scope by construction; debug builds
/// additionally assert the calling thread holds no bank guard.
fn fabric_read(global: &GlobalMemory, first_line: u64, data: &mut [u8]) -> Result<(), SimError> {
    #[cfg(debug_assertions)]
    lockdep::assert_unlocked("fabric fill");
    global.read_bytes(GAddr(first_line * LINE_SIZE as u64), data)
}

/// The only fabric-write call site in this module (see [`fabric_read`]).
fn fabric_write(global: &GlobalMemory, first_line: u64, data: &[u8]) -> Result<(), SimError> {
    #[cfg(debug_assertions)]
    lockdep::assert_unlocked("fabric writeback");
    global.write_bytes(GAddr(first_line * LINE_SIZE as u64), data)
}

/// Configuration of a node's cache over global memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of resident lines before LRU eviction. Capacity is
    /// enforced per bank (`max(1, max_lines / banks)` lines each), so the
    /// total never exceeds `max_lines` when it divides evenly.
    pub max_lines: usize,
    /// Number of banks the cache is sharded into. Must be a power of two;
    /// line `id` lives in bank `id & (banks - 1)`.
    pub banks: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 8 MiB of cached global memory per node by default.
        CacheConfig {
            max_lines: 8 * 1024 * 1024 / LINE_SIZE,
            banks: 16,
        }
    }
}

/// Counters describing cache behaviour, used by experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line accesses served from the cache.
    pub hits: u64,
    /// Line accesses that had to fetch from global memory.
    pub misses: u64,
    /// Full-line write allocations that skipped the fill (neither a hit
    /// nor a miss; `hits + misses + allocs` equals total line accesses).
    pub allocs: u64,
    /// Dirty lines written back (explicitly or by eviction).
    pub writebacks: u64,
    /// Lines dropped by invalidation.
    pub invalidations: u64,
    /// Lines evicted for capacity.
    pub evictions: u64,
    /// Hits that waited on another thread's in-flight fill of the same
    /// line instead of issuing a duplicate fabric read (a subset of
    /// `hits`; the coalesced access is charged `cache_hit_ns`).
    pub coalesced_fills: u64,
}

/// One bank's behaviour counters: relaxed atomics so the hot path updates
/// them without any cross-bank contention — and, for the lock-free hit
/// path, without holding the bank lock at all — while snapshot readers
/// sum them without taking locks.
#[derive(Debug, Default)]
struct BankStats {
    hits: AtomicU64,
    misses: AtomicU64,
    allocs: AtomicU64,
    writebacks: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    coalesced_fills: AtomicU64,
}

/// The shared handle to a cache's per-bank counters. The owning
/// [`crate::NodeCtx`] hands a clone of the [`Arc`] to its
/// [`crate::NodeStats`] so snapshots read cache behaviour directly,
/// with no publish/copy step on the access path.
#[derive(Debug, Default)]
pub(crate) struct CacheStatsCells {
    banks: Box<[BankStats]>,
}

impl CacheStatsCells {
    fn new(banks: usize) -> Self {
        CacheStatsCells {
            banks: (0..banks).map(|_| BankStats::default()).collect(),
        }
    }

    /// Sum every bank's counters into one [`CacheStats`].
    pub(crate) fn total(&self) -> CacheStats {
        let mut t = CacheStats::default();
        for b in &self.banks {
            t.hits += b.hits.load(Ordering::Relaxed);
            t.misses += b.misses.load(Ordering::Relaxed);
            t.allocs += b.allocs.load(Ordering::Relaxed);
            t.writebacks += b.writebacks.load(Ordering::Relaxed);
            t.invalidations += b.invalidations.load(Ordering::Relaxed);
            t.evictions += b.evictions.load(Ordering::Relaxed);
            t.coalesced_fills += b.coalesced_fills.load(Ordering::Relaxed);
        }
        t
    }
}

/// One slot's payload, readable without the bank lock: a seqlock sequence
/// counter over the line id and the line's eight data words. Writers are
/// serialized by the bank mutex and bracket every mutation with
/// `seq.write_begin()`/`write_end()`; lock-free readers validate that the
/// id matched and no writer ran during their copy.
#[derive(Debug)]
struct SlotCell {
    seq: SeqCount,
    line_id: AtomicU64,
    words: [AtomicU64; LINE_WORDS],
}

impl SlotCell {
    fn new() -> Self {
        SlotCell {
            seq: SeqCount::new(),
            line_id: AtomicU64::new(NO_LINE),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Copy the whole line out of the atomic words. Safe in any context;
    /// consistency against concurrent writers is the seqlock's job.
    fn load_data(&self) -> [u8; LINE_SIZE] {
        let mut out = [0u8; LINE_SIZE];
        self.load_into(&mut out);
        out
    }

    /// [`SlotCell::load_data`] straight into a staging buffer.
    fn load_into(&self, out: &mut [u8; LINE_SIZE]) {
        for (w, chunk) in self.words.iter().zip(out.chunks_exact_mut(8)) {
            chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
        }
    }

    /// Store a whole line into the atomic words. Callers must hold the
    /// bank lock and bracket the call with the seq counter.
    fn store_data(&self, data: &[u8; LINE_SIZE]) {
        for (w, chunk) in self.words.iter().zip(data.chunks_exact(8)) {
            w.store(
                u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
                Ordering::Relaxed,
            );
        }
    }

    /// Overwrite the resident line's payload (bank lock held).
    fn update(&self, data: &[u8; LINE_SIZE]) {
        self.seq.write_begin();
        self.store_data(data);
        self.seq.write_end();
    }

    /// Overwrite bytes `in_line..in_line + src.len()` of the resident
    /// line (bank lock held), touching only the words they fall in.
    fn merge(&self, in_line: usize, mut src: &[u8]) {
        self.seq.write_begin();
        let mut at = in_line;
        while !src.is_empty() {
            let (word, off) = (&self.words[at / 8], at % 8);
            let take = (8 - off).min(src.len());
            let mut bytes = match take {
                8 => [0u8; 8],
                _ => word.load(Ordering::Relaxed).to_le_bytes(),
            };
            bytes[off..off + take].copy_from_slice(&src[..take]);
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
            at += take;
            src = &src[take..];
        }
        self.seq.write_end();
    }

    /// Make the cell hold `line_id` with payload `data` (bank lock held).
    fn publish(&self, line_id: u64, data: &[u8; LINE_SIZE]) {
        self.seq.write_begin();
        self.store_data(data);
        self.line_id.store(line_id, Ordering::Relaxed);
        self.seq.write_end();
    }

    /// Make the cell hold no line, so a lock-free reader racing the
    /// eviction or invalidation fails validation (bank lock held).
    fn retire(&self) {
        self.seq.write_begin();
        self.line_id.store(NO_LINE, Ordering::Relaxed);
        self.seq.write_end();
    }
}

/// A bank's slot payloads, outside the bank mutex so readers reach them
/// lock-free. Chunks are allocated lazily (under the bank lock, via
/// `ensure`) so idle banks cost nothing; `get` is wait-free.
#[derive(Debug)]
struct CellSlab {
    chunks: Box<[OnceLock<Box<[SlotCell; CHUNK]>>]>,
}

impl CellSlab {
    fn new(max_slots: usize) -> Self {
        CellSlab {
            chunks: (0..max_slots.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// The cell for `slot`, or `None` if its chunk was never allocated.
    fn get(&self, slot: u32) -> Option<&SlotCell> {
        let chunk = self.chunks.get(slot as usize / CHUNK)?.get()?;
        Some(&chunk[slot as usize % CHUNK])
    }

    /// The cell for `slot`, allocating its chunk on first use.
    fn ensure(&self, slot: u32) -> &SlotCell {
        let chunk = self.chunks[slot as usize / CHUNK]
            .get_or_init(|| Box::new(std::array::from_fn(|_| SlotCell::new())));
        &chunk[slot as usize % CHUNK]
    }
}

/// A lock-free, direct-mapped hint from line id to slot index (+1; 0 is
/// empty). Published/retracted only under the bank lock; probed without
/// it. Purely a cache of the directory: a stale or colliding entry sends
/// the reader to the locked slow path, whose [`LineDir`] is authoritative.
///
/// It is kept apart from the directory on purpose: a lock-free directory
/// could never free a leaf (a reader might still be in it), so its memory
/// would follow the address range the node ever touched; this table is a
/// fixed few KiB per bank.
#[derive(Debug)]
struct LineIndex {
    entries: Box<[AtomicU32]>,
    shift: u32,
}

impl LineIndex {
    fn new(cap: usize) -> Self {
        let len = (cap * 2).next_power_of_two().clamp(64, 4096);
        LineIndex {
            entries: (0..len).map(|_| AtomicU32::new(0)).collect(),
            shift: 64 - len.trailing_zeros(),
        }
    }

    #[inline]
    fn bucket(&self, line_id: u64) -> usize {
        // Fibonacci hashing spreads consecutive line ids across buckets.
        (line_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    #[inline]
    fn slot_hint(&self, line_id: u64) -> Option<u32> {
        let e = self.entries[self.bucket(line_id)].load(Ordering::Relaxed);
        (e != 0).then(|| e - 1)
    }

    fn publish(&self, line_id: u64, slot: u32) {
        self.entries[self.bucket(line_id)].store(slot + 1, Ordering::Relaxed);
    }

    /// Clear the hint if it still points at `slot` (any entry aimed at a
    /// freed slot is stale regardless of which line published it).
    fn retract(&self, line_id: u64, slot: u32) {
        let e = &self.entries[self.bucket(line_id)];
        if e.load(Ordering::Relaxed) == slot + 1 {
            e.store(0, Ordering::Relaxed);
        }
    }
}

/// One directory leaf: the slots of 64 consecutive bank-local lines
/// (`NIL` = not resident) and how many of them are set.
#[derive(Debug)]
struct Leaf {
    slots: [u32; LEAF_LINES],
    count: u32,
}

/// The bank's authoritative line → slot map, indexed by address: `dir`
/// holds, per run of 64 bank-local lines, the index of the leaf that maps
/// them (`NO_LEAF` = none resident). A lookup is two dependent array
/// loads; a page span's lines share one leaf per bank.
///
/// Leaves live in an arena of fixed-size chunks that is never shrunk; a
/// leaf whose last line leaves goes back on `free` and is reused before
/// the arena grows. Leaf memory therefore follows the most lines the bank
/// held at once, never the address range it touched: `dir` itself costs
/// 4 B per 64 bank-local lines up to the highest one ever inserted.
#[derive(Debug, Default)]
struct LineDir {
    dir: Vec<u32>,
    chunks: Vec<Box<[Leaf; LEAF_CHUNK]>>,
    /// Leaves handed out so far (live or on `free`): the arena's length.
    leaves: u32,
    free: Vec<u32>,
}

impl LineDir {
    #[inline]
    fn leaf(&self, l: u32) -> &Leaf {
        &self.chunks[l as usize / LEAF_CHUNK][l as usize % LEAF_CHUNK]
    }

    #[inline]
    fn leaf_mut(&mut self, l: u32) -> &mut Leaf {
        &mut self.chunks[l as usize / LEAF_CHUNK][l as usize % LEAF_CHUNK]
    }

    /// The slot of bank-local line `local`, if mapped.
    #[inline]
    fn get(&self, local: u64) -> Option<u32> {
        let l = *self
            .dir
            .get(usize::try_from(local / LEAF_LINES as u64).ok()?)?;
        if l == NO_LEAF {
            return None;
        }
        let s = self.leaf(l).slots[local as usize % LEAF_LINES];
        (s != NIL).then_some(s)
    }

    /// Map bank-local line `local` to `slot`, replacing any mapping.
    fn insert(&mut self, local: u64, slot: u32) {
        debug_assert!(
            local < DIR_LINE_LIMIT,
            "bank-local line {local} is outside the directory"
        );
        let d = (local / LEAF_LINES as u64) as usize;
        if d >= self.dir.len() {
            self.dir.resize(d + 1, NO_LEAF);
        }
        let l = match self.dir[d] {
            NO_LEAF => {
                let l = self.new_leaf();
                self.dir[d] = l;
                l
            }
            l => l,
        };
        let leaf = self.leaf_mut(l);
        let old = std::mem::replace(&mut leaf.slots[local as usize % LEAF_LINES], slot);
        if old == NIL {
            leaf.count += 1;
        }
    }

    /// Unmap bank-local line `local`, returning its slot; a leaf left
    /// empty goes back on the free list.
    fn remove(&mut self, local: u64) -> Option<u32> {
        let d = usize::try_from(local / LEAF_LINES as u64).ok()?;
        let l = *self.dir.get(d)?;
        if l == NO_LEAF {
            return None;
        }
        let leaf = self.leaf_mut(l);
        let s = std::mem::replace(&mut leaf.slots[local as usize % LEAF_LINES], NIL);
        if s == NIL {
            return None;
        }
        leaf.count -= 1;
        if leaf.count == 0 {
            self.dir[d] = NO_LEAF;
            self.free.push(l);
        }
        Some(s)
    }

    /// An empty leaf: a freed one, or the arena's next, growing it by a
    /// chunk when the last one is full.
    fn new_leaf(&mut self) -> u32 {
        if let Some(l) = self.free.pop() {
            return l;
        }
        let l = self.leaves;
        if (l as usize).is_multiple_of(LEAF_CHUNK) {
            self.chunks.push(Box::new(std::array::from_fn(|_| Leaf {
                slots: [NIL; LEAF_LINES],
                count: 0,
            })));
        }
        // No overflow: a live leaf holds a slot, and slots are `u32`s.
        self.leaves += 1;
        l
    }

    /// Mapped lines.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.dir
            .iter()
            .filter(|&&l| l != NO_LEAF)
            .map(|&l| self.leaf(l).count as usize)
            .sum()
    }

    /// Every `(bank-local line, slot)` mapping, ascending by line.
    fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.dir
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l != NO_LEAF)
            .flat_map(move |(d, &l)| {
                let base = (d * LEAF_LINES) as u64;
                self.leaf(l)
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s != NIL)
                    .map(move |(k, &s)| (base + k as u64, s))
            })
    }
}

/// Per-slot bookkeeping guarded by the bank mutex: the intrusive LRU
/// links plus the dirty and in-flight-fill flags. Payload bytes live in
/// the matching [`SlotCell`], not here.
#[derive(Debug, Clone)]
struct SlotMeta {
    line_id: u64,
    prev: u32,
    next: u32,
    dirty: bool,
    filling: bool,
}

/// One bank's locked state: the line directory, the slot metadata slab,
/// and the intrusive LRU list (head = MRU, tail = LRU victim) threaded
/// through *ready* slots only — a slot mid-fill is in `dir` (so misses
/// coalesce onto it) but not on the list (so it cannot be evicted).
#[derive(Debug)]
struct Bank {
    /// Keyed by bank-local line number, `line_id >> shift`.
    dir: LineDir,
    /// `log2(banks)`.
    shift: u32,
    meta: Vec<SlotMeta>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    cap: usize,
    max_slots: usize,
    /// Published (ready) resident lines; the directory's other lines are
    /// fills in flight. Capacity is enforced against this count.
    ready: usize,
}

impl Bank {
    fn new(cap: usize, max_slots: usize, shift: u32) -> Self {
        Bank {
            dir: LineDir::default(),
            shift,
            meta: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
            max_slots,
            ready: 0,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.meta[i as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.meta[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.meta[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = &mut self.meta[i as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.meta[h as usize].prev = i,
        }
        self.head = i;
    }

    /// `line_id`'s slot, ready or mid-fill.
    #[inline]
    fn slot_of(&self, line_id: u64) -> Option<u32> {
        self.dir.get(line_id >> self.shift)
    }

    /// `line_id`'s slot if the line is resident and ready. Lines mid-fill
    /// are not maintained (they publish after the op returns — a legal
    /// outcome of racing a fetch).
    #[inline]
    fn ready_slot(&self, line_id: u64) -> Option<u32> {
        self.slot_of(line_id)
            .filter(|&i| !self.meta[i as usize].filling)
    }

    fn map(&mut self, line_id: u64, i: u32) {
        self.dir.insert(line_id >> self.shift, i);
    }

    fn unmap(&mut self, line_id: u64) {
        self.dir.remove(line_id >> self.shift);
    }

    /// Move slot `i` to the MRU position.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Hand out a free slot index, growing the slab up to `max_slots`.
    fn grant_slot(&mut self) -> Option<u32> {
        if let Some(i) = self.free.pop() {
            return Some(i);
        }
        if self.meta.len() < self.max_slots {
            let i = u32::try_from(self.meta.len()).expect("bank slab exceeds u32 slots");
            self.meta.push(SlotMeta {
                line_id: NO_LINE,
                prev: NIL,
                next: NIL,
                dirty: false,
                filling: false,
            });
            return Some(i);
        }
        None
    }

    /// Claim `line_id` for an in-flight fill in slot `i`: visible in the
    /// directory (later misses coalesce) but not on the LRU list.
    fn begin_fill(&mut self, i: u32, line_id: u64) {
        self.meta[i as usize] = SlotMeta {
            line_id,
            prev: NIL,
            next: NIL,
            dirty: false,
            filling: true,
        };
        self.map(line_id, i);
    }

    /// Abandon an in-flight fill (the fabric read failed).
    fn abort_fill(&mut self, i: u32) {
        let line_id = self.meta[i as usize].line_id;
        self.unmap(line_id);
        self.meta[i as usize].filling = false;
        self.free.push(i);
    }

    /// Flip an in-flight fill to ready at the MRU position. The directory
    /// entry already exists from [`Bank::begin_fill`].
    fn publish_fill(&mut self, i: u32, dirty: bool) {
        let m = &mut self.meta[i as usize];
        debug_assert!(m.filling, "publish_fill on a slot not mid-fill");
        m.filling = false;
        m.dirty = dirty;
        self.push_front(i);
        self.ready += 1;
    }

    /// Publish slot `i` as the ready, MRU line for `line_id` (completes
    /// full-line write allocations, which skip `begin_fill`).
    fn install_ready(&mut self, i: u32, line_id: u64, dirty: bool) {
        self.meta[i as usize] = SlotMeta {
            line_id,
            prev: NIL,
            next: NIL,
            dirty,
            filling: false,
        };
        self.map(line_id, i);
        self.push_front(i);
        self.ready += 1;
    }

    /// Drop the ready slot `i` from the directory, list, and ready count.
    fn remove_ready(&mut self, i: u32) {
        let line_id = self.meta[i as usize].line_id;
        self.unmap(line_id);
        self.unlink(i);
        self.free.push(i);
        self.ready -= 1;
    }

    /// Evict the exact LRU line (list tail), returning (slot, id, dirty).
    /// Only ready lines are on the list, so in-flight fills are immune.
    fn pop_lru(&mut self) -> Option<(u32, u64, bool)> {
        let i = self.tail;
        if i == NIL {
            return None;
        }
        let (line_id, dirty) = {
            let s = &self.meta[i as usize];
            (s.line_id, s.dirty)
        };
        self.unmap(line_id);
        self.unlink(i);
        self.free.push(i);
        self.ready -= 1;
        Some((i, line_id, dirty))
    }
}

/// RAII wrapper over the bank mutex guard that keeps the debug
/// thread-local lock-depth (see [`lockdep`]) in sync with reality.
struct BankGuard<'a> {
    inner: Option<MutexGuard<'a, Bank>>,
}

impl Deref for BankGuard<'_> {
    type Target = Bank;

    fn deref(&self) -> &Bank {
        self.inner.as_ref().expect("bank guard active")
    }
}

impl DerefMut for BankGuard<'_> {
    fn deref_mut(&mut self) -> &mut Bank {
        self.inner.as_mut().expect("bank guard active")
    }
}

impl Drop for BankGuard<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if self.inner.is_some() {
            lockdep::exit();
        }
    }
}

/// One shard: the locked [`Bank`], a condvar for fill waiters, and the
/// lock-free structures ([`CellSlab`], [`LineIndex`]) readers use
/// without the mutex.
#[derive(Debug)]
struct BankShard {
    state: Mutex<Bank>,
    fill_cv: Condvar,
    fill_waiters: AtomicU32,
    /// Ready lines that ever left this bank (evicted, invalidated or
    /// flushed); bumped under the bank lock, sampled without it. A page
    /// image fetched after sampling `drops` can only have gone stale for
    /// a line this node wrote back in the meantime if that line was also
    /// dropped since — which moves the count (see `SpanAccess::fetch`).
    drops: AtomicU64,
    slab: CellSlab,
    index: LineIndex,
}

impl BankShard {
    fn new(cap: usize, shift: u32) -> Self {
        let max_slots = cap.saturating_add(FILL_HEADROOM);
        BankShard {
            state: Mutex::new(Bank::new(cap, max_slots, shift)),
            fill_cv: Condvar::new(),
            fill_waiters: AtomicU32::new(0),
            drops: AtomicU64::new(0),
            slab: CellSlab::new(max_slots),
            index: LineIndex::new(cap),
        }
    }

    fn lock(&self) -> BankGuard<'_> {
        let g = self.state.lock();
        #[cfg(debug_assertions)]
        lockdep::enter();
        BankGuard { inner: Some(g) }
    }

    fn try_lock(&self) -> Option<BankGuard<'_>> {
        let g = self.state.try_lock()?;
        #[cfg(debug_assertions)]
        lockdep::enter();
        Some(BankGuard { inner: Some(g) })
    }

    /// Block on the fill condvar, releasing and reacquiring the bank
    /// lock. Spurious wakeups are possible; callers loop on the directory.
    fn wait_for_fill<'a>(&self, mut g: BankGuard<'a>) -> BankGuard<'a> {
        // Registered before the lock is released, so a publisher that
        // later acquires the lock is guaranteed to observe the waiter.
        self.fill_waiters.fetch_add(1, Ordering::Relaxed);
        let inner = g.inner.take().expect("bank guard active");
        g.inner = Some(self.fill_cv.wait(inner));
        self.fill_waiters.fetch_sub(1, Ordering::Relaxed);
        g
    }

    /// Wake fill waiters — cheap (one relaxed load, no syscall) when
    /// nobody waits, which is the overwhelmingly common case.
    fn notify_fill_waiters(&self) {
        if self.fill_waiters.load(Ordering::Relaxed) > 0 {
            self.fill_cv.notify_all();
        }
    }

    /// Count `n` ready lines leaving the bank. Bank lock held, so a plain
    /// read-modify-write; `Release` pairs with the lock-free sampler's
    /// `Acquire`, ordering the dropper's earlier fabric writes before
    /// the sampler's later fabric read.
    fn note_drops(&self, n: u64) {
        let now = self.drops.load(Ordering::Relaxed);
        self.drops.store(now.wrapping_add(n), Ordering::Release);
    }
}

/// Drop the ready line `line_id` in slot `i` (bank lock held): out of
/// the bank, its cell retired so racing lock-free readers fail
/// validation. The caller reports the drop via `note_drops`.
#[inline]
fn drop_line(shard: &BankShard, bank: &mut Bank, i: u32, line_id: u64) {
    bank.remove_ready(i);
    shard.slab.get(i).expect("ready slot has a cell").retire();
    shard.index.retract(line_id, i);
}

/// Mark `line_id` clean after its snapshot `(slot, seq)` landed in the
/// pool — unless the line was replaced or written since the snapshot,
/// which the slot's sequence count reveals (bank lock held).
#[inline]
fn mark_clean_if_unchanged(shard: &BankShard, bank: &mut Bank, line_id: u64, tag: (u32, u64)) {
    let (i, seq0) = tag;
    if bank.ready_slot(line_id) == Some(i)
        && shard.slab.get(i).is_some_and(|c| c.seq.current() == seq0)
    {
        bank.meta[i as usize].dirty = false;
    }
}

/// Counter increments accumulated under one bank-lock hold and added to
/// the bank's atomics once, when the hold ends. (`writebacks` is counted
/// where the fabric write lands, outside any hold.)
#[derive(Debug, Default)]
struct StatDelta {
    hits: u64,
    misses: u64,
    allocs: u64,
    invalidations: u64,
    evictions: u64,
    coalesced_fills: u64,
}

impl StatDelta {
    fn commit(&self, stats: &BankStats) {
        for (cell, n) in [
            (&stats.hits, self.hits),
            (&stats.misses, self.misses),
            (&stats.allocs, self.allocs),
            (&stats.invalidations, self.invalidations),
            (&stats.evictions, self.evictions),
            (&stats.coalesced_fills, self.coalesced_fills),
        ] {
            if n != 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// A dirty eviction victim carried out of the lock scope for its
/// fabric write: (line id, payload snapshot).
type Victim = (u64, [u8; LINE_SIZE]);

/// What one bank visit of a span access accumulates under the lock.
#[derive(Default)]
struct Visit {
    delta: StatDelta,
    /// Dirty victims awaiting their fabric write once the lock drops.
    victims: Vec<Victim>,
    /// Pass-relative lines this visit evicted (bit `k`: line `pass.0 +
    /// k`). The pass's image says nothing about them: it predates the
    /// victim's write, or whatever write the evicted copy already held.
    evicted: u64,
}

/// Pop the LRU victim, charge its cost, and queue its dirty payload for
/// a fabric write after the lock drops. Returns `None` if nothing is
/// evictable (every slot is mid-fill).
fn evict_one(
    shard: &BankShard,
    visit: &mut Visit,
    guard: &mut BankGuard<'_>,
    lat: &LatencyModel,
    pass_first: u64,
) -> Option<u64> {
    let (i, line_id, dirty) = guard.pop_lru()?;
    visit.delta.evictions += 1;
    shard.note_drops(1);
    if let Some(k) = line_id.checked_sub(pass_first).filter(|&k| k < 64) {
        visit.evicted |= 1 << k;
    }
    let cell = shard.slab.get(i).expect("resident slot has a cell");
    let mut cost = 0;
    if dirty {
        visit.victims.push((line_id, cell.load_data()));
        cost += lat.writeback_line_ns;
    }
    cell.retire();
    shard.index.retract(line_id, i);
    Some(cost)
}

/// Evict exact-LRU lines until the bank is back under its capacity.
fn enforce_capacity(
    shard: &BankShard,
    visit: &mut Visit,
    guard: &mut BankGuard<'_>,
    lat: &LatencyModel,
    pass_first: u64,
) -> u64 {
    let mut cost = 0;
    while guard.ready > guard.cap {
        match evict_one(shard, visit, guard, lat, pass_first) {
            Some(c) => cost += c,
            None => break,
        }
    }
    cost
}

/// Write queued eviction victims to the fabric, outside any bank lock,
/// and empty the queue. Best-effort: poisoned destinations drop the
/// line, mirroring hardware discarding a line it cannot store (cost was
/// already charged).
fn flush_victims(global: &GlobalMemory, stats: &BankStats, victims: &mut Vec<Victim>) {
    if victims.is_empty() {
        return;
    }
    let landed = victims
        .drain(..)
        .filter(|(line_id, data)| fabric_write(global, *line_id, data).is_ok())
        .count();
    if landed != 0 {
        stats.writebacks.fetch_add(landed as u64, Ordering::Relaxed);
    }
}

/// The lines a byte span `[addr, addr + len)` touches. The span, not the
/// line, is the unit every data-path entry point works in.
#[derive(Debug, Clone, Copy)]
struct Span {
    addr: u64,
    len: usize,
    first: u64,
    last: u64,
}

impl Span {
    /// `len` must be non-zero. A span ending past `u64::MAX` saturates
    /// instead of wrapping: lines that high can never be resident, so
    /// clamping is lossless for the maintenance ops (reads and writes
    /// reject such spans up front, see `check_span`).
    fn new(addr: GAddr, len: usize) -> Span {
        Span {
            addr: addr.0,
            len,
            first: addr.0 / LINE_SIZE as u64,
            last: addr.0.saturating_add(len as u64 - 1) / LINE_SIZE as u64,
        }
    }

    fn is_single_line(&self) -> bool {
        self.first == self.last
    }

    /// Line `line_id`'s share of the span: its offset within the line and
    /// the matching range of the caller's buffer.
    fn segment(&self, line_id: u64) -> (usize, std::ops::Range<usize>) {
        let line_start = line_id * LINE_SIZE as u64;
        let lo = line_start.max(self.addr);
        let hi = (line_start + LINE_SIZE as u64).min(self.addr + self.len as u64);
        (
            (lo - line_start) as usize,
            (lo - self.addr) as usize..(hi - self.addr) as usize,
        )
    }

    /// The span cut into passes of at most `max_lines` lines, in address
    /// order: the pass starting at line `lo`, as inclusive line ids.
    fn pass_from(&self, lo: u64, max_lines: usize) -> (u64, u64) {
        (lo, (lo + max_lines as u64 - 1).min(self.last))
    }
}

/// The bytes of pass-relative line `k` in a staging buffer.
fn staged(buf: &[u8], k: usize) -> &[u8; LINE_SIZE] {
    buf[k * LINE_SIZE..(k + 1) * LINE_SIZE]
        .try_into()
        .expect("line-sized slice")
}

/// [`staged`], mutably.
fn staged_mut(buf: &mut [u8], k: usize) -> &mut [u8; LINE_SIZE] {
    (&mut buf[k * LINE_SIZE..(k + 1) * LINE_SIZE])
        .try_into()
        .expect("line-sized slice")
}

/// What a span access does with each line's bytes.
enum SpanIo<'a> {
    /// Copy the span out to `out`. The first miss of a pass reads all of
    /// the pass's lines from the fabric into `image` with one call
    /// (`fetched`), having sampled into `gens[k]` the `drops` count of
    /// the bank of pass-relative line `k < banks`; the pass's later
    /// misses install from the image where it is provably still good.
    Read {
        out: &'a mut [u8],
        image: &'a mut [u8],
        gens: &'a mut [u64],
        fetched: bool,
    },
    /// Merge `src` into the cache. Only a partial first or last line can
    /// miss (full lines allocate without a fill), so fills stay per line.
    Write { src: &'a [u8] },
}

/// One cached read or write of a span, threaded through its bank visits.
struct SpanAccess<'a> {
    global: &'a GlobalMemory,
    lat: &'a LatencyModel,
    span: Span,
    io: SpanIo<'a>,
    /// Burst model: a line of this span already paid the full fabric
    /// latency, so further misses pay the bandwidth-limited tail.
    missed: bool,
    /// The current pass, as inclusive line ids; `image` starts at `pass.0`.
    pass: (u64, u64),
}

impl SpanAccess<'_> {
    /// The `drops` count the bank of pass-relative line `k` had just
    /// before the pass's image was fetched; `None` while there is no
    /// image.
    fn image_gen(&self, k: usize) -> Option<u64> {
        match &self.io {
            SpanIo::Read {
                gens,
                fetched: true,
                ..
            } => Some(gens[k]),
            _ => None,
        }
    }

    /// Line `line_id` of the pass's image.
    fn image_line(&self, line_id: u64) -> &[u8; LINE_SIZE] {
        match &self.io {
            SpanIo::Read { image, .. } => staged(image, (line_id - self.pass.0) as usize),
            SpanIo::Write { .. } => unreachable!("writes fetch no image"),
        }
    }

    /// The fabric read behind a miss on `line_id`, into `data`; call with
    /// no bank lock held and `line_id` claimed *Filling*. In a multi-line
    /// pass of a read that has no image yet it fetches the whole pass and
    /// returns `true`.
    ///
    /// Only `line_id` is claimed, so a thread of this node may write any
    /// other line of the pass back to the pool after the image was read
    /// and drop it before this access reaches it; installing the image's
    /// copy would then leave the node reading bytes older than its own
    /// flushed write. Each touched bank's `drops` count is therefore
    /// sampled *before* the read: a writeback that completed before a
    /// drop the sample saw is in the image, and a drop the sample did
    /// not see still shows when the bank is visited, under its lock.
    fn fetch(
        &mut self,
        shards: &[BankShard],
        line_id: u64,
        data: &mut [u8; LINE_SIZE],
    ) -> Result<bool, SimError> {
        let (first, last) = self.pass;
        if let SpanIo::Read {
            image,
            gens,
            fetched: fetched @ false,
            ..
        } = &mut self.io
        {
            if first != last {
                let lines = (last - first + 1) as usize;
                for (k, gen) in gens.iter_mut().enumerate().take(lines.min(shards.len())) {
                    let b = (first as usize + k) & (shards.len() - 1);
                    *gen = shards[b].drops.load(Ordering::Acquire);
                }
                fabric_read(self.global, first, &mut image[..lines * LINE_SIZE])?;
                *fetched = true;
                *data = *staged(image, (line_id - first) as usize);
                return Ok(true);
            }
        }
        fabric_read(self.global, line_id, data).map(|()| false)
    }
}

/// Dirty lines of one maintenance pass staged for their fabric writes.
struct Stage<'a> {
    /// Pass-relative line images (see [`staged`]).
    data: &'a mut [u8],
    /// Per staged line: its slot and the slot's sequence count at the
    /// snapshot, so `dirty` is only cleared if no writer ran since.
    tags: &'a mut [(u32, u64)],
    /// Bit `k` set: pass-relative line `k` is staged.
    mask: u64,
}

/// Running cost of one maintenance span under the burst model: the first
/// line written back (dropped) pays the full latency, later ones the
/// bandwidth-limited (bookkeeping) tail.
#[derive(Debug, Default)]
struct MaintCost {
    ns: u64,
    wrote: bool,
    dropped: bool,
}

impl MaintCost {
    /// Charge one line's writeback. Out of line (as is
    /// [`MaintCost::charge_drop`]) so a sweep that finds nothing to do
    /// never computes a cost.
    #[inline(never)]
    fn charge_writeback(&mut self, lat: &LatencyModel) {
        self.ns += if self.wrote {
            lat.transfer_ns(LINE_SIZE).max(1)
        } else {
            lat.writeback_line_ns
        };
        self.wrote = true;
    }

    /// Charge one line's invalidation: local bookkeeping, one
    /// instruction's latency up front, then a small per-line tail cost.
    #[inline(never)]
    fn charge_drop(&mut self, lat: &LatencyModel) {
        self.ns += if self.dropped {
            lat.invalidate_extra_line_ns
        } else {
            lat.invalidate_line_ns
        };
        self.dropped = true;
    }
}

/// Write each contiguous run of staged lines with one fabric call, no
/// bank lock held, and return the mask of lines that landed. A run the
/// pool rejects (a poisoned destination) is retried line by line, so a
/// bad line costs only itself — the line is then dropped best-effort,
/// as for eviction victims.
fn write_runs(global: &GlobalMemory, pass_first: u64, stage: &Stage<'_>) -> u64 {
    let mut written = 0u64;
    let mut left = stage.mask;
    while left != 0 {
        let s = left.trailing_zeros() as usize;
        let n = (left >> s).trailing_ones() as usize;
        let run = (u64::MAX >> (64 - n)) << s;
        let bytes = &stage.data[s * LINE_SIZE..(s + n) * LINE_SIZE];
        if fabric_write(global, pass_first + s as u64, bytes).is_ok() {
            written |= run;
        } else if n > 1 {
            for k in s..s + n {
                if fabric_write(global, pass_first + k as u64, staged(stage.data, k)).is_ok() {
                    written |= 1 << k;
                }
            }
        }
        left &= !run;
    }
    written
}

/// A single node's software-managed, non-coherent cache of global memory.
///
/// All methods take `&self`: locking is internal and per-bank, read hits
/// are lock-free, and no bank lock is ever held across a fabric access.
#[derive(Debug)]
pub struct NodeCache {
    shards: Box<[BankShard]>,
    cells: Arc<CacheStatsCells>,
    bank_mask: u64,
    /// `log2(banks)`.
    bank_shift: u32,
    /// Bits `0, banks, 2·banks, …` below 64: shifted left by `k`, the
    /// pass-relative lines that share a bank with pass-relative line `k`.
    stride_bits: u64,
}

impl NodeCache {
    /// An empty cache with the given capacity configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.banks` is zero or not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.banks.is_power_of_two(),
            "cache banks must be a power of two, got {}",
            config.banks
        );
        let per_bank = (config.max_lines / config.banks).max(1);
        NodeCache {
            shards: (0..config.banks)
                .map(|_| BankShard::new(per_bank, config.banks.trailing_zeros()))
                .collect(),
            cells: Arc::new(CacheStatsCells::new(config.banks)),
            bank_mask: config.banks as u64 - 1,
            bank_shift: config.banks.trailing_zeros(),
            stride_bits: (0..PASS_LINES)
                .step_by(config.banks)
                .fold(0, |bits, k| bits | 1 << k),
        }
    }

    /// The shared per-bank counter cells (for [`crate::NodeStats`]).
    pub(crate) fn stats_cells(&self) -> Arc<CacheStatsCells> {
        self.cells.clone()
    }

    /// Snapshot of the cache's behaviour counters.
    pub fn stats(&self) -> CacheStats {
        self.cells.total()
    }

    /// Number of banks the cache is sharded into.
    pub fn banks(&self) -> usize {
        self.shards.len()
    }

    /// Number of currently resident (published) lines. Fills still in
    /// flight are not counted until they publish.
    pub fn resident_lines(&self) -> usize {
        self.shards.iter().map(|s| s.lock().ready).sum()
    }

    /// Ids of the currently resident (published) lines, ascending — the
    /// cache's observable state, for tests and diagnostics.
    pub fn resident_line_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for (b, shard) in self.shards.iter().enumerate() {
            let bank = shard.lock();
            ids.extend(
                bank.dir
                    .iter()
                    .filter(|&(_, i)| !bank.meta[i as usize].filling)
                    .map(|(local, _)| local << self.bank_shift | b as u64),
            );
        }
        ids.sort_unstable();
        ids
    }

    #[inline]
    fn bank_of(&self, line_id: u64) -> usize {
        (line_id & self.bank_mask) as usize
    }

    /// The seqlock read-hit fast path: probe the lock-free index, copy
    /// the cell's words, and validate that no writer ran concurrently.
    /// `false` means "not provably a hit" — the caller falls back to the
    /// locked path, which is always authoritative.
    fn try_seqlock_hit(
        &self,
        shard: &BankShard,
        line_id: u64,
        in_line: usize,
        out: &mut [u8],
    ) -> bool {
        let Some(slot) = shard.index.slot_hint(line_id) else {
            return false;
        };
        let Some(cell) = shard.slab.get(slot) else {
            return false;
        };
        for _ in 0..HIT_RETRIES {
            let Some(begin) = cell.seq.read_begin() else {
                // A writer is mid-update; brief retry then fall back.
                std::hint::spin_loop();
                continue;
            };
            if cell.line_id.load(Ordering::Relaxed) != line_id {
                return false;
            }
            let data = cell.load_data();
            if cell.seq.read_validate(begin) {
                out.copy_from_slice(&data[in_line..in_line + out.len()]);
                return true;
            }
        }
        false
    }

    /// Account lock-free hits on lines `lo..=hi`, one visit per bank:
    /// count them, and touch them for LRU recency in ascending order,
    /// best-effort — exact whenever the bank lock is uncontended (always,
    /// single-threaded — preserving exact-LRU determinism), skipped under
    /// contention so the hit path never blocks.
    fn record_lock_free_hits(&self, lo: u64, hi: u64) {
        let banks = self.shards.len() as u64;
        let mut start = lo;
        while start <= hi && start - lo < banks {
            let b = self.bank_of(start);
            let shard = &self.shards[b];
            self.cells.banks[b]
                .hits
                .fetch_add(((hi - start) >> self.bank_shift) + 1, Ordering::Relaxed);
            if let Some(mut guard) = shard.try_lock() {
                let mut line_id = start;
                while line_id <= hi {
                    if let Some(i) = guard.slot_of(line_id) {
                        if !guard.meta[i as usize].filling {
                            guard.touch(i);
                        }
                    }
                    line_id += banks;
                }
            }
            start += 1;
        }
    }

    /// Whether the span's lines lie wholly inside the pool and hold no
    /// poison, i.e. no fill of the span can fail (short of a poison
    /// injected while the access runs).
    fn fills_cannot_fail(global: &GlobalMemory, span: &Span) -> bool {
        let start = span.first * LINE_SIZE as u64;
        let len = (span.last - span.first + 1) as usize * LINE_SIZE;
        start + len as u64 <= global.capacity() as u64 && !global.is_poisoned(GAddr(start), len)
    }

    /// Run a cached read or write: cut the span into passes of at most
    /// `pass_lines` lines and visit each bank a pass touches once.
    ///
    /// A multi-line span some fill of which could fail is instead walked
    /// one line per pass, i.e. strictly in address order, which is what
    /// the partial-effects contract is stated in (see the module docs).
    #[inline(always)]
    fn access_span(
        &self,
        acc: &mut SpanAccess<'_>,
        mut pass_lines: usize,
    ) -> Result<u64, SimError> {
        let span = acc.span;
        if span.is_single_line() {
            // A span of one: one bank, one line, no loop around it (worth
            // ~2 ns on the commonest access there is).
            acc.pass = (span.first, span.first);
            return self.access_bank(acc, span.first);
        }
        if !Self::fills_cannot_fail(acc.global, &span) {
            pass_lines = 1;
        }
        let banks = self.shards.len() as u64;
        let mut cost = 0;
        let mut lo = span.first;
        loop {
            acc.pass = span.pass_from(lo, pass_lines);
            if let SpanIo::Read { fetched, .. } = &mut acc.io {
                *fetched = false;
            }
            for k in 0..banks.min(acc.pass.1 - lo + 1) {
                cost += self.access_bank(acc, lo + k)?;
            }
            if acc.pass.1 == span.last {
                return Ok(cost);
            }
            lo = acc.pass.1 + 1;
        }
    }

    /// One bank's share of a pass — lines `start, start + banks, …` —
    /// under one lock hold, in ascending order, so the bank sees exactly
    /// the hit/fill/publish/evict sequence an address-order walk of the
    /// span would show it. Per line: hit, coalesced wait on another
    /// thread's in-flight fill, full-line write allocation, or miss.
    ///
    /// The lock is dropped across the fabric read of a miss, with the
    /// line claimed *Filling* (single-flight). A read's later misses in
    /// the pass install from the image that read fetched, with no window
    /// at all — as long as no line left the bank since the image's
    /// sample other than by this visit's own evictions, and the line is
    /// not one of those; otherwise they fill one by one like a first
    /// miss (eviction victims reach the pool before any such read).
    #[inline(always)]
    fn access_bank(&self, acc: &mut SpanAccess<'_>, start: u64) -> Result<u64, SimError> {
        let b = self.bank_of(start);
        let shard = &self.shards[b];
        let stats = &self.cells.banks[b];
        let (global, lat, span, (first, last)) = (acc.global, acc.lat, acc.span, acc.pass);
        let mut visit = Visit::default();
        let mut cost = 0u64;
        let mut published = false;
        // The bank's `drops` count at which the image is still good,
        // less this visit's own evictions so far.
        let mut image_base = acc.image_gen((start - first) as usize);
        let mut guard = shard.lock();
        let mut line_id = start;
        while line_id <= last {
            let (in_line, seg) = span.segment(line_id);
            let mut waited = false;
            loop {
                match guard.slot_of(line_id) {
                    Some(i) if !guard.meta[i as usize].filling => {
                        visit.delta.hits += 1;
                        if waited {
                            visit.delta.coalesced_fills += 1;
                        }
                        guard.touch(i);
                        let cell = shard.slab.get(i).expect("ready slot has a cell");
                        match &mut acc.io {
                            SpanIo::Read { out, .. } => {
                                let data = cell.load_data();
                                let take = seg.len();
                                out[seg].copy_from_slice(&data[in_line..in_line + take]);
                            }
                            SpanIo::Write { src } => {
                                let src = &src[seg];
                                match <&[u8; LINE_SIZE]>::try_from(src) {
                                    Ok(line) => cell.update(line),
                                    Err(_) => cell.merge(in_line, src),
                                }
                                guard.meta[i as usize].dirty = true;
                            }
                        }
                        cost += lat.cache_hit_ns;
                        break;
                    }
                    Some(_) => {
                        // Another thread's fill is in flight: single-flight
                        // means we wait and cost-share instead of issuing a
                        // duplicate fabric read.
                        waited = true;
                        guard = shard.wait_for_fill(guard);
                    }
                    None => {
                        let Some(slot) = guard.grant_slot() else {
                            if guard.ready > 0 {
                                cost += evict_one(shard, &mut visit, &mut guard, lat, first)
                                    .unwrap_or(0);
                            } else {
                                // Every slot is mid-fill; wait for a publish
                                // or abort, then re-dispatch from the directory.
                                guard = shard.wait_for_fill(guard);
                            }
                            continue;
                        };
                        let cell = shard.slab.ensure(slot);
                        if let SpanIo::Write { src } = &acc.io {
                            if let Ok(line) = <&[u8; LINE_SIZE]>::try_from(&src[seg.clone()]) {
                                // Full-line write: allocate without fetching.
                                visit.delta.allocs += 1;
                                cell.publish(line_id, line);
                                guard.install_ready(slot, line_id, true);
                                shard.index.publish(line_id, slot);
                                cost += lat.cache_hit_ns;
                                cost += enforce_capacity(shard, &mut visit, &mut guard, lat, first);
                                published = true;
                                break;
                            }
                        }
                        let mut data = [0u8; LINE_SIZE];
                        let in_image = visit.evicted >> (line_id - first) & 1 == 0
                            && image_base.is_some_and(|base| {
                                shard.drops.load(Ordering::Relaxed)
                                    == base.wrapping_add(visit.delta.evictions)
                            });
                        if in_image {
                            data = *acc.image_line(line_id);
                        } else {
                            // Single-flight miss fill: claim the line, drop
                            // the bank lock for the fabric read, re-acquire
                            // to publish.
                            guard.begin_fill(slot, line_id);
                            drop(guard);
                            if published {
                                shard.notify_fill_waiters();
                            }
                            flush_victims(global, stats, &mut visit.victims);
                            let fetched = acc.fetch(&self.shards, line_id, &mut data);
                            guard = shard.lock();
                            match fetched {
                                Ok(true) => {
                                    let sampled = acc.image_gen((start - first) as usize);
                                    image_base =
                                        sampled.map(|g| g.wrapping_sub(visit.delta.evictions));
                                }
                                Ok(false) => {}
                                Err(e) => {
                                    // Failing line leaves no trace: no counters,
                                    // no buffer bytes, no resident line (see
                                    // module docs on partial-span effects).
                                    guard.abort_fill(slot);
                                    drop(guard);
                                    visit.delta.commit(stats);
                                    shard.notify_fill_waiters();
                                    return Err(e);
                                }
                            }
                        }
                        visit.delta.misses += 1;
                        // Burst model: full fabric latency for the first
                        // missed line of the span, bandwidth-limited
                        // continuation after.
                        cost += if acc.missed {
                            lat.transfer_ns(LINE_SIZE).max(1)
                        } else {
                            lat.global_read_ns
                        };
                        acc.missed = true;
                        let dirty = match &mut acc.io {
                            SpanIo::Read { out, .. } => {
                                let take = seg.len();
                                out[seg].copy_from_slice(&data[in_line..in_line + take]);
                                false
                            }
                            SpanIo::Write { src } => {
                                let src = &src[seg];
                                data[in_line..in_line + src.len()].copy_from_slice(src);
                                true
                            }
                        };
                        cell.publish(line_id, &data);
                        if in_image {
                            guard.install_ready(slot, line_id, dirty);
                        } else {
                            guard.publish_fill(slot, dirty);
                        }
                        shard.index.publish(line_id, slot);
                        cost += enforce_capacity(shard, &mut visit, &mut guard, lat, first);
                        published = true;
                        break;
                    }
                }
            }
            line_id += self.shards.len() as u64;
        }
        drop(guard);
        visit.delta.commit(stats);
        if published {
            shard.notify_fill_waiters();
        }
        flush_victims(global, stats, &mut visit.victims);
        Ok(cost)
    }

    /// Read `buf.len()` bytes at `addr` through the cache.
    ///
    /// Cached lines are served as-is — **possibly stale** relative to
    /// global memory. Returns the simulated cost in nanoseconds.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds/poison errors from line fills. A mid-span
    /// failure leaves the effects of earlier lines in place (prefix of
    /// `buf` filled, counters recorded); the failing line contributes
    /// nothing — see the module docs on partial-span effects.
    pub fn read(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &mut [u8],
    ) -> Result<u64, SimError> {
        if buf.is_empty() {
            return Ok(0);
        }
        Self::check_span(global, addr, buf.len())?;
        // Rule 3: lines are served lock-free for as long as they hit; the
        // locks are taken from the first line that does not.
        let len = buf.len();
        let first = addr.0 / LINE_SIZE as u64;
        let mut next = first;
        let mut in_line = (addr.0 % LINE_SIZE as u64) as usize;
        let mut pos = 0;
        while pos < len {
            let take = (LINE_SIZE - in_line).min(len - pos);
            let shard = &self.shards[self.bank_of(next)];
            if !self.try_seqlock_hit(shard, next, in_line, &mut buf[pos..pos + take]) {
                break;
            }
            pos += take;
            next += 1;
            in_line = 0;
        }
        let mut cost = 0;
        if next > first {
            self.record_lock_free_hits(first, next - 1);
            cost = (next - first) * lat.cache_hit_ns;
            if pos == len {
                return Ok(cost);
            }
        }
        let rest = Span::new(GAddr(addr.0 + pos as u64), len - pos);
        let out = &mut buf[pos..];
        Ok(cost
            + if rest.is_single_line() {
                self.read_staged::<0>(global, lat, rest, out)
            } else {
                self.read_staged::<PASS_LINES>(global, lat, rest, out)
            }?)
    }

    /// A locked-path read in passes of `N` lines, the pass's fabric image
    /// in this frame (`N = 0`: a single line, which fills straight from
    /// the fabric and needs no image). Out of line, so the single-line
    /// path does not pay for the frame (or the zeroing) a page-sized pass
    /// needs.
    #[inline(never)]
    fn read_staged<const N: usize>(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        span: Span,
        out: &mut [u8],
    ) -> Result<u64, SimError> {
        let mut image = [[0u8; LINE_SIZE]; N];
        let mut gens = [0u64; N];
        let mut acc = SpanAccess {
            global,
            lat,
            span,
            io: SpanIo::Read {
                out,
                image: image.as_flattened_mut(),
                gens: &mut gens,
                fetched: false,
            },
            missed: false,
            pass: (span.first, span.first),
        };
        self.access_span(&mut acc, N.max(1))
    }

    /// Write `buf` at `addr` into the cache (write-allocate, write-back).
    ///
    /// The update is **not visible** to other nodes until written back.
    /// Returns the simulated cost in nanoseconds.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds/poison errors from line fills, with the
    /// same partial-span effects contract as [`NodeCache::read`].
    pub fn write(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &[u8],
    ) -> Result<u64, SimError> {
        if buf.is_empty() {
            return Ok(0);
        }
        Self::check_span(global, addr, buf.len())?;
        let span = Span::new(addr, buf.len());
        let mut acc = SpanAccess {
            global,
            lat,
            span,
            io: SpanIo::Write { src: buf },
            missed: false,
            pass: (span.first, span.first),
        };
        self.access_span(&mut acc, PASS_LINES)
    }

    /// Reject spans whose end overflows `u64` or exceeds the pool, before
    /// any per-line work touches the cache. Addresses near `u64::MAX`
    /// previously wrapped silently in release builds.
    fn check_span(global: &GlobalMemory, addr: GAddr, len: usize) -> Result<(), SimError> {
        let oob = SimError::OutOfBounds {
            addr,
            len,
            capacity: global.capacity(),
        };
        let end = addr.0.checked_add(len as u64).ok_or(oob.clone())?;
        if end > global.capacity() as u64 {
            return Err(oob);
        }
        Ok(())
    }

    /// Write back (but keep cached) any dirty lines covering `[addr, addr+len)`.
    /// Returns the simulated cost.
    ///
    /// The fabric writes happen with no bank lock held; `dirty` is only
    /// cleared afterwards if no writer touched the line in the interim
    /// (checked via the slot's sequence counter), so a racing write can
    /// never be silently marked clean.
    pub fn writeback(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        len: usize,
    ) -> u64 {
        self.maintain(lat, addr, len, Some(global), false)
    }

    /// Drop cached lines covering `[addr, addr+len)`. Dirty data that was
    /// not written back first is **discarded**, as with a hardware
    /// invalidate instruction. Returns the simulated cost.
    ///
    /// An in-flight fill of a covered line is *not* chased: it publishes
    /// after this invalidate returns, which is a legal outcome of racing
    /// an invalidate against a concurrent fetch of the same line.
    pub fn invalidate(&self, lat: &LatencyModel, addr: GAddr, len: usize) -> u64 {
        self.maintain(lat, addr, len, None, true)
    }

    /// Write back then invalidate `[addr, addr+len)` (clean+invalidate),
    /// in one pass: each covered line is snapshotted if dirty and dropped
    /// under the same lock hold. Costs what [`NodeCache::writeback`]
    /// followed by [`NodeCache::invalidate`] costs.
    pub fn flush(&self, global: &GlobalMemory, lat: &LatencyModel, addr: GAddr, len: usize) -> u64 {
        self.maintain(lat, addr, len, Some(global), true)
    }

    /// The maintenance ops: write the span's dirty lines back to
    /// `writeback_to` (if any) and/or drop its lines.
    #[inline]
    fn maintain(
        &self,
        lat: &LatencyModel,
        addr: GAddr,
        len: usize,
        writeback_to: Option<&GlobalMemory>,
        drop_lines: bool,
    ) -> u64 {
        if len == 0 {
            return 0;
        }
        let span = Span::new(addr, len);
        if span.is_single_line() {
            return self.maintain_line(lat, span.first, writeback_to, drop_lines);
        }
        match writeback_to {
            None => self.maintain_staged::<0>(lat, span, None, drop_lines),
            // Zeroing the page-sized staging frame costs ~40 ns a call —
            // as much again as a two-line writeback's cache work.
            Some(_) if span.last - span.first < 8 => {
                self.maintain_staged::<8>(lat, span, writeback_to, drop_lines)
            }
            Some(_) => self.maintain_staged::<PASS_LINES>(lat, span, writeback_to, drop_lines),
        }
    }

    /// [`NodeCache::maintain`] of a span of one: one bank, one line, the
    /// snapshot in a local — no pass, no bank loop, no staging. The same
    /// steps in the same order as a bank's share of a longer span
    /// ([`NodeCache::sweep_bank`], the fabric write, [`NodeCache::settle`]).
    fn maintain_line(
        &self,
        lat: &LatencyModel,
        line_id: u64,
        writeback_to: Option<&GlobalMemory>,
        drop_lines: bool,
    ) -> u64 {
        let b = self.bank_of(line_id);
        let shard = &self.shards[b];
        let stats = &self.cells.banks[b];
        let mut guard = shard.lock();
        let Some(mut i) = guard.ready_slot(line_id) else {
            return 0;
        };
        let mut cost = 0;
        if let Some(global) = writeback_to.filter(|_| guard.meta[i as usize].dirty) {
            let cell = shard.slab.get(i).expect("ready slot has a cell");
            let (tag, data) = ((i, cell.seq.current()), cell.load_data());
            drop(guard);
            cost += lat.writeback_line_ns;
            let landed = fabric_write(global, line_id, &data).is_ok();
            if landed {
                stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            guard = shard.lock();
            if !drop_lines {
                if landed {
                    mark_clean_if_unchanged(shard, &mut guard, line_id, tag);
                }
                return cost;
            }
            // A flush drops the line only now that its bytes are in the
            // pool (see `sweep_bank`) — whatever slot it is in by now.
            match guard.ready_slot(line_id) {
                Some(now) => i = now,
                None => return cost,
            }
        } else if !drop_lines {
            return cost;
        }
        drop_line(shard, &mut guard, i, line_id);
        shard.note_drops(1);
        drop(guard);
        stats.invalidations.fetch_add(1, Ordering::Relaxed);
        cost + lat.invalidate_line_ns
    }

    /// [`NodeCache::maintain`] of a multi-line span, pass by pass, with
    /// room to stage `N` dirty lines per pass in this frame (`N = 0`:
    /// nothing is written back).
    fn maintain_staged<const N: usize>(
        &self,
        lat: &LatencyModel,
        span: Span,
        writeback_to: Option<&GlobalMemory>,
        drop_lines: bool,
    ) -> u64 {
        let mut data = [[0u8; LINE_SIZE]; N];
        let mut tags = [(0u32, 0u64); N];
        let stage = Stage {
            data: data.as_flattened_mut(),
            tags: &mut tags,
            mask: 0,
        };
        self.maintain_passes(lat, span, writeback_to, drop_lines, stage)
    }

    /// The passes of a maintenance span, in address order.
    #[inline(always)]
    fn maintain_passes(
        &self,
        lat: &LatencyModel,
        span: Span,
        writeback_to: Option<&GlobalMemory>,
        drop_lines: bool,
        mut stage: Stage<'_>,
    ) -> u64 {
        let pass_lines = match writeback_to {
            Some(_) => stage.tags.len(),
            None => PASS_LINES,
        };
        let mut cost = MaintCost::default();
        let mut pass = span.pass_from(span.first, pass_lines);
        loop {
            self.maintain_pass(lat, pass, writeback_to, drop_lines, &mut stage, &mut cost);
            if pass.1 == span.last {
                return cost.ns;
            }
            pass = span.pass_from(pass.1 + 1, pass_lines);
        }
    }

    /// One maintenance pass: visit each bank the pass touches once, then
    /// (with no lock held) write the staged dirty lines out, then revisit
    /// the banks that had any to account for them.
    #[inline(always)]
    fn maintain_pass(
        &self,
        lat: &LatencyModel,
        pass: (u64, u64),
        writeback_to: Option<&GlobalMemory>,
        drop_lines: bool,
        stage: &mut Stage<'_>,
        cost: &mut MaintCost,
    ) {
        stage.mask = 0;
        let banks = self.shards.len() as u64;
        let writeback = writeback_to.is_some();
        for k in 0..banks.min(pass.1 - pass.0 + 1) {
            self.sweep_bank(lat, pass, pass.0 + k, writeback, drop_lines, stage, cost);
        }
        if let (Some(global), true) = (writeback_to, stage.mask != 0) {
            let written = write_runs(global, pass.0, stage);
            self.settle(lat, pass.0, stage, written, drop_lines, cost);
        }
    }

    /// One bank's share of a maintenance pass, under one lock hold:
    /// snapshot each dirty line into `stage` (`writeback`) and/or drop
    /// each resident line (`drop_lines`). Lines mid-fill are skipped. A
    /// line staged by a flush stays resident until [`NodeCache::settle`]
    /// drops it, *after* its bytes reached the pool — dropped first, a
    /// reader on this node could miss on it in between, fill from the
    /// not-yet-updated pool and keep a copy older than the flush.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn sweep_bank(
        &self,
        lat: &LatencyModel,
        pass: (u64, u64),
        start: u64,
        writeback: bool,
        drop_lines: bool,
        stage: &mut Stage<'_>,
        cost: &mut MaintCost,
    ) {
        let b = self.bank_of(start);
        let shard = &self.shards[b];
        let mut dropped = 0u64;
        let mut guard = shard.lock();
        let mut line_id = start;
        while line_id <= pass.1 {
            let Some(i) = guard.ready_slot(line_id) else {
                line_id += self.shards.len() as u64;
                continue;
            };
            if writeback && guard.meta[i as usize].dirty {
                let cell = shard.slab.get(i).expect("ready slot has a cell");
                let k = (line_id - pass.0) as usize;
                cell.load_into(staged_mut(stage.data, k));
                stage.tags[k] = (i, cell.seq.current());
                stage.mask |= 1 << k;
                cost.charge_writeback(lat);
            } else if drop_lines {
                drop_line(shard, &mut guard, i, line_id);
                dropped += 1;
                cost.charge_drop(lat);
            }
            line_id += self.shards.len() as u64;
        }
        if dropped != 0 {
            shard.note_drops(dropped);
        }
        drop(guard);
        if dropped != 0 {
            self.cells.banks[b]
                .invalidations
                .fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Revisit, once each, the banks that staged lines, now that the
    /// fabric writes are done: count those that landed (`written`), then
    /// either drop every staged line (`drop_lines`: a flush — landed or
    /// not, as the invalidate half of the flush would) or mark the landed
    /// ones clean — unless the line was replaced or written since its
    /// snapshot, which the slot's sequence count reveals.
    fn settle(
        &self,
        lat: &LatencyModel,
        pass_first: u64,
        stage: &Stage<'_>,
        written: u64,
        drop_lines: bool,
        cost: &mut MaintCost,
    ) {
        let mut left = stage.mask;
        while left != 0 {
            // The lowest line left and every later one sharing its bank.
            let k = left.trailing_zeros();
            let mut bits = left & (self.stride_bits << k);
            left &= !bits;
            let b = self.bank_of(pass_first + u64::from(k));
            let shard = &self.shards[b];
            let landed = u64::from((bits & written).count_ones());
            if landed != 0 {
                self.cells.banks[b]
                    .writebacks
                    .fetch_add(landed, Ordering::Relaxed);
            }
            let mut dropped = 0u64;
            let mut guard = shard.lock();
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let line_id = pass_first + k as u64;
                if !drop_lines {
                    if written >> k & 1 != 0 {
                        mark_clean_if_unchanged(shard, &mut guard, line_id, stage.tags[k]);
                    }
                } else if let Some(i) = guard.ready_slot(line_id) {
                    drop_line(shard, &mut guard, i, line_id);
                    dropped += 1;
                    cost.charge_drop(lat);
                }
            }
            if dropped != 0 {
                shard.note_drops(dropped);
            }
            drop(guard);
            if dropped != 0 {
                self.cells.banks[b]
                    .invalidations
                    .fetch_add(dropped, Ordering::Relaxed);
            }
        }
    }

    /// Write back every dirty line and drop the whole cache. Lines whose
    /// fills are still in flight on other threads are left to publish.
    pub fn flush_all(&self, global: &GlobalMemory, lat: &LatencyModel) -> u64 {
        let mut cost = 0;
        for (b, shard) in self.shards.iter().enumerate() {
            let stats = &self.cells.banks[b];
            let mut victims: Vec<Victim> = Vec::new();
            let mut dropped = 0u64;
            let mut guard = shard.lock();
            while let Some((i, line_id, dirty)) = guard.pop_lru() {
                let cell = shard.slab.get(i).expect("resident slot has a cell");
                if dirty {
                    victims.push((line_id, cell.load_data()));
                    cost += lat.writeback_line_ns;
                }
                cell.retire();
                shard.index.retract(line_id, i);
                dropped += 1;
                cost += lat.invalidate_line_ns;
            }
            shard.note_drops(dropped);
            drop(guard);
            stats.invalidations.fetch_add(dropped, Ordering::Relaxed);
            flush_victims(global, stats, &mut victims);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GlobalMemory, NodeCache, NodeCache, LatencyModel) {
        let g = GlobalMemory::new(4096);
        let lat = LatencyModel::hccs();
        (
            g,
            NodeCache::new(CacheConfig::default()),
            NodeCache::new(CacheConfig::default()),
            lat,
        )
    }

    #[test]
    fn cached_write_invisible_until_writeback() {
        let (g, c0, c1, lat) = setup();
        let a = g.alloc(8, 8).unwrap();
        c0.write(&g, &lat, a, &[1; 8]).unwrap();
        // Node 1 reads directly: still zero.
        let mut buf = [9u8; 8];
        c1.read(&g, &lat, a, &mut buf).unwrap();
        assert_eq!(buf, [0; 8], "write must be invisible before writeback");
        c0.writeback(&g, &lat, a, 8);
        // Node 1 has the line cached and stale; invalidate then read.
        c1.invalidate(&lat, a, 8);
        c1.read(&g, &lat, a, &mut buf).unwrap();
        assert_eq!(buf, [1; 8]);
    }

    #[test]
    fn stale_reads_until_invalidate() {
        let (g, c0, c1, lat) = setup();
        let a = g.alloc(8, 8).unwrap();
        let mut buf = [0u8; 8];
        c1.read(&g, &lat, a, &mut buf).unwrap(); // c1 caches the zero line
        c0.write(&g, &lat, a, &[7; 8]).unwrap();
        c0.flush(&g, &lat, a, 8);
        c1.read(&g, &lat, a, &mut buf).unwrap();
        assert_eq!(buf, [0; 8], "stale cached value served before invalidate");
        c1.invalidate(&lat, a, 8);
        c1.read(&g, &lat, a, &mut buf).unwrap();
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn own_writes_read_back() {
        let (g, c0, _, lat) = setup();
        let a = g.alloc(128, 64).unwrap();
        let data: Vec<u8> = (0..100).collect();
        c0.write(&g, &lat, a, &data).unwrap();
        let mut out = vec![0u8; 100];
        c0.read(&g, &lat, a, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn invalidate_discards_dirty_data() {
        let (g, c0, _, lat) = setup();
        let a = g.alloc(8, 8).unwrap();
        c0.write(&g, &lat, a, &[5; 8]).unwrap();
        c0.invalidate(&lat, a, 8);
        let mut buf = [0u8; 8];
        c0.read(&g, &lat, a, &mut buf).unwrap();
        assert_eq!(buf, [0; 8], "dirty data dropped by invalidate");
    }

    #[test]
    fn costs_distinguish_hit_and_miss() {
        let (g, c0, _, lat) = setup();
        let a = g.alloc(8, 8).unwrap();
        let mut buf = [0u8; 8];
        let miss = c0.read(&g, &lat, a, &mut buf).unwrap();
        let hit = c0.read(&g, &lat, a, &mut buf).unwrap();
        assert_eq!(miss, lat.global_read_ns);
        assert_eq!(hit, lat.cache_hit_ns);
        assert_eq!(c0.stats().misses, 1);
        assert_eq!(c0.stats().hits, 1);
    }

    #[test]
    fn capacity_eviction_writes_back_dirty_victims() {
        let g = GlobalMemory::new(LINE_SIZE * 16);
        let lat = LatencyModel::hccs();
        let c = NodeCache::new(CacheConfig {
            max_lines: 2,
            banks: 1,
        });
        // Dirty three distinct lines; first should be evicted + written back.
        for i in 0..3u64 {
            c.write(
                &g,
                &lat,
                GAddr(i * LINE_SIZE as u64),
                &[i as u8 + 1; LINE_SIZE],
            )
            .unwrap();
        }
        assert_eq!(c.resident_lines(), 2);
        assert!(c.stats().evictions >= 1);
        let mut buf = [0u8; 1];
        g.read_bytes(GAddr(0), &mut buf).unwrap();
        assert_eq!(buf[0], 1, "evicted dirty line landed in global memory");
    }

    #[test]
    fn flush_all_empties_cache() {
        let (g, c0, _, lat) = setup();
        c0.write(&g, &lat, GAddr(0), &[1; 256]).unwrap();
        assert!(c0.resident_lines() > 0);
        c0.flush_all(&g, &lat);
        assert_eq!(c0.resident_lines(), 0);
        let mut buf = [0u8; 256];
        g.read_bytes(GAddr(0), &mut buf).unwrap();
        assert_eq!(buf, [1; 256]);
    }

    #[test]
    fn full_line_write_skips_fetch() {
        let (g, c0, _, lat) = setup();
        let before = c0.stats().misses;
        c0.write(&g, &lat, GAddr(0), &[2; LINE_SIZE]).unwrap();
        assert_eq!(
            c0.stats().misses,
            before,
            "aligned full-line write allocates without fill"
        );
        assert_eq!(c0.stats().allocs, 1, "write-allocate counted as alloc");
    }

    #[test]
    fn stats_identity_hits_misses_allocs() {
        // hits + misses + allocs must equal total line accesses across a
        // mixed workload: partial reads, partial writes, full-line writes.
        let (g, c, _, lat) = setup();
        let mut accesses = 0u64;
        let count_lines = |addr: u64, len: usize| {
            (addr + len as u64 - 1) / LINE_SIZE as u64 - addr / LINE_SIZE as u64 + 1
        };
        for (addr, len, write) in [
            (0u64, 8usize, false),
            (0, LINE_SIZE, true),
            (64, 200, true),
            (32, 96, false),
            (128, LINE_SIZE, true),
            (0, 256, false),
        ] {
            if write {
                c.write(&g, &lat, GAddr(addr), &vec![1u8; len]).unwrap();
            } else {
                c.read(&g, &lat, GAddr(addr), &mut vec![0u8; len]).unwrap();
            }
            accesses += count_lines(addr, len);
        }
        let s = c.stats();
        assert_eq!(
            s.hits + s.misses + s.allocs,
            accesses,
            "line-access accounting identity"
        );
    }

    #[test]
    fn lines_distribute_across_banks() {
        let (g, c, _, lat) = setup();
        // Lines 0..16 with the default 16 banks: one line per bank.
        let mut buf = [0u8; LINE_SIZE];
        for i in 0..16u64 {
            c.read(&g, &lat, GAddr(i * LINE_SIZE as u64), &mut buf)
                .unwrap();
        }
        assert_eq!(c.banks(), 16);
        assert_eq!(c.resident_lines(), 16);
        for (b, shard) in c.shards.iter().enumerate() {
            assert_eq!(
                shard.lock().dir.len(),
                1,
                "line {b} should land alone in bank {b}"
            );
        }
    }

    #[test]
    fn eviction_is_exact_lru_deterministically() {
        // With one bank of capacity 3, the victim is always the exact LRU
        // line — the intrusive list tail — on every run.
        let run = || {
            let g = GlobalMemory::new(LINE_SIZE * 64);
            let lat = LatencyModel::hccs();
            let c = NodeCache::new(CacheConfig {
                max_lines: 3,
                banks: 1,
            });
            let mut buf = [0u8; LINE_SIZE];
            for i in [0u64, 1, 2] {
                c.read(&g, &lat, GAddr(i * LINE_SIZE as u64), &mut buf)
                    .unwrap();
            }
            // Touch 0 so 1 becomes the LRU, then insert 3: must evict 1.
            c.read(&g, &lat, GAddr(0), &mut buf).unwrap();
            c.read(&g, &lat, GAddr(3 * LINE_SIZE as u64), &mut buf)
                .unwrap();
            (c.resident_line_ids(), c.stats().evictions)
        };
        let (resident, evictions) = run();
        assert_eq!(resident, vec![0, 2, 3], "LRU line 1 evicted");
        assert_eq!(evictions, 1);
        for _ in 0..8 {
            assert_eq!(run(), (resident.clone(), evictions), "exact LRU replays");
        }
    }

    #[test]
    fn slab_slots_are_reused_after_invalidate() {
        let g = GlobalMemory::new(LINE_SIZE * 64);
        let lat = LatencyModel::hccs();
        let c = NodeCache::new(CacheConfig {
            max_lines: 8,
            banks: 1,
        });
        let mut buf = [0u8; 8];
        for round in 0..10 {
            for i in 0..4u64 {
                c.read(&g, &lat, GAddr(i * LINE_SIZE as u64), &mut buf)
                    .unwrap();
            }
            c.invalidate(&lat, GAddr(0), LINE_SIZE * 4);
            let bank = c.shards[0].lock();
            assert!(
                bank.meta.len() <= 4,
                "round {round}: slab grew past the working set ({} slots)",
                bank.meta.len()
            );
        }
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn near_max_addresses_error_instead_of_wrapping() {
        let (g, c, _, lat) = setup();
        let mut buf = [0u8; 16];
        let top = GAddr(u64::MAX - 7);
        assert!(matches!(
            c.read(&g, &lat, top, &mut buf),
            Err(SimError::OutOfBounds { .. })
        ));
        assert!(matches!(
            c.write(&g, &lat, top, &buf),
            Err(SimError::OutOfBounds { .. })
        ));
        // Maintenance ops on absurd ranges are no-ops, not panics/wraps.
        assert_eq!(c.writeback(&g, &lat, top, 16), 0);
        assert_eq!(c.invalidate(&lat, top, 16), 0);
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn maintenance_past_the_pool_end_is_a_no_op() {
        // Lookups never grow the directory: maintenance over lines no read
        // or write could have installed costs nothing and allocates nothing.
        let lat = LatencyModel::hccs();
        let g = GlobalMemory::new(LINE_SIZE * 256);
        let c = NodeCache::new(CacheConfig::default());
        c.write(&g, &lat, GAddr(0), &[3u8; 4096]).unwrap();
        let dir_lens = || -> Vec<(usize, usize)> {
            c.shards
                .iter()
                .map(|s| {
                    let bank = s.lock();
                    (bank.dir.dir.len(), bank.dir.len())
                })
                .collect()
        };
        let (before, stats) = (dir_lens(), c.stats());
        let end = g.capacity() as u64;
        for addr in [end, end + 4096, u64::MAX - 63] {
            for len in [1, LINE_SIZE, 4096, 1 << 20] {
                let a = GAddr(addr);
                assert_eq!(c.invalidate(&lat, a, len), 0, "invalidate {addr:#x}+{len}");
                assert_eq!(
                    c.writeback(&g, &lat, a, len),
                    0,
                    "writeback {addr:#x}+{len}"
                );
                assert_eq!(c.flush(&g, &lat, a, len), 0, "flush {addr:#x}+{len}");
            }
        }
        assert_eq!(dir_lens(), before);
        assert_eq!(c.stats(), stats);
        assert_eq!(c.resident_lines(), 64);
    }

    #[test]
    fn line_dir_matches_a_hash_map_model() {
        use crate::rng::SplitMix64;
        use std::collections::{BTreeMap, HashMap};
        for seed in 0..16 {
            let mut rng = SplitMix64::new(seed);
            let mut dir = LineDir::default();
            let mut model: HashMap<u64, u32> = HashMap::new();
            // Mapped lines per 64-line run: the leaves that must be live.
            let mut runs: BTreeMap<u64, u32> = BTreeMap::new();
            let mut inserted: Vec<u64> = Vec::new();
            let mut peak_leaves = 0;
            for step in 0..3_000u64 {
                let key = match rng.next_below(8) {
                    // Dense page streams: whole 64-line runs, in order.
                    0..=2 => rng.next_below(8) * 64 + step % 64,
                    // Sparse scatter over a wide range.
                    3 => rng.next_below(1 << 22),
                    // Far past the directory's end, up to `u64::MAX`:
                    // lookups only, which must miss and not grow it.
                    4 => {
                        let far = u64::MAX - rng.next_below(1 << 12) * 64 - rng.next_below(64);
                        let (dir_len, leaves) = (dir.dir.len(), dir.leaves);
                        assert_eq!(dir.get(far), None);
                        assert_eq!(dir.remove(far), None);
                        assert_eq!(dir.get(dir_len as u64 * 64), None);
                        assert_eq!((dir.dir.len(), dir.leaves), (dir_len, leaves));
                        continue;
                    }
                    // A key inserted before, so removals find something.
                    _ if !inserted.is_empty() => inserted[rng.gen_index(inserted.len())],
                    _ => continue,
                };
                if rng.next_below(3) == 0 {
                    let got = dir.remove(key);
                    assert_eq!(got, model.remove(&key), "seed {seed} remove {key}");
                    if got.is_some() {
                        let run = runs.get_mut(&(key / 64)).expect("run of a mapped key");
                        *run -= 1;
                        if *run == 0 {
                            runs.remove(&(key / 64));
                        }
                    }
                } else {
                    let slot = rng.next_below(NIL as u64) as u32;
                    dir.insert(key, slot);
                    if model.insert(key, slot).is_none() {
                        *runs.entry(key / 64).or_default() += 1;
                    }
                    inserted.push(key);
                }
                assert_eq!(dir.get(key), model.get(&key).copied());
                peak_leaves = peak_leaves.max(runs.len());
                // Empty every leaf now and then, so freed leaves recycle.
                if step % 1_000 == 999 {
                    for k in model.drain().map(|(k, _)| k) {
                        assert!(dir.remove(k).is_some());
                    }
                    runs.clear();
                    assert_eq!(dir.free.len(), dir.leaves as usize, "every leaf freed");
                }
                assert_eq!(dir.leaves as usize - dir.free.len(), runs.len());
                if step % 100 == 0 {
                    assert_eq!(dir.len(), model.len());
                }
            }
            assert!(
                dir.leaves as usize <= peak_leaves,
                "seed {seed}: arena grew to {} leaves, never more than {peak_leaves} live",
                dir.leaves
            );
            let mut want: Vec<(u64, u32)> = model.into_iter().collect();
            want.sort_unstable();
            assert_eq!(
                dir.iter().collect::<Vec<_>>(),
                want,
                "seed {seed}: iteration"
            );
        }
    }

    #[test]
    fn directory_memory_follows_resident_lines_not_touched_range() {
        // Stream 8× capacity through one bank, then invalidate it all.
        let lat = LatencyModel::hccs();
        let cap = 256u64;
        // (line stride, bytes per read, most leaves the arena may hold).
        // A sequential stream keeps at most cap + 1 lines (the ready ones
        // plus the one being installed before its eviction) in
        // cap / 64 + 2 leaves; a stride-64 scatter gives each line a leaf.
        for (stride, len, bound) in [(1, 4096, cap / 64 + 2), (64, 8, cap + 1)] {
            let lines = 8 * cap * stride;
            let g = GlobalMemory::new(LINE_SIZE * lines as usize);
            let c = NodeCache::new(CacheConfig {
                max_lines: cap as usize,
                banks: 1,
            });
            let mut buf = vec![0u8; len];
            let step = (len as u64).max(stride * LINE_SIZE as u64);
            for addr in (0..lines * LINE_SIZE as u64).step_by(step as usize) {
                c.read(&g, &lat, GAddr(addr), &mut buf).unwrap();
            }
            assert_eq!(c.resident_lines(), cap as usize);
            c.invalidate(&lat, GAddr(0), g.capacity());
            assert_eq!(c.resident_lines(), 0);
            let bank = c.shards[0].lock();
            let leaves = u64::from(bank.dir.leaves);
            assert!(
                leaves <= bound,
                "stride {stride}: {leaves} leaves for {cap} resident lines (bound {bound})"
            );
            assert_eq!(
                bank.dir.free.len() as u64,
                leaves,
                "all leaves back on the free list"
            );
            assert_eq!(
                bank.dir.chunks.len() as u64,
                leaves.div_ceil(LEAF_CHUNK as u64)
            );
        }
    }

    #[test]
    fn partial_span_error_preserves_stats_identity() {
        // The documented partial-effects contract: a mid-span failure
        // keeps the effects of earlier lines and leaves no trace of the
        // failing one, so `hits + misses + allocs` still equals the
        // number of successfully accessed line segments.
        let g = GlobalMemory::new(LINE_SIZE * 8);
        let lat = LatencyModel::hccs();
        let c = NodeCache::new(CacheConfig::default());
        g.poison(GAddr(LINE_SIZE as u64), 8); // middle line of a 3-line span

        let mut buf = [0xAAu8; 3 * LINE_SIZE];
        assert!(matches!(
            c.read(&g, &lat, GAddr(0), &mut buf),
            Err(SimError::PoisonedMemory { .. })
        ));
        let s = c.stats();
        assert_eq!(
            (s.hits, s.misses, s.allocs),
            (0, 1, 0),
            "line 0 filled; the poisoned line 1 left no counters"
        );
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(&buf[..LINE_SIZE], &[0u8; LINE_SIZE][..], "prefix was read");
        assert_eq!(
            &buf[LINE_SIZE..],
            &[0xAAu8; 2 * LINE_SIZE][..],
            "failed tail untouched"
        );

        // Writes follow the same contract: the line-0 segment hits the
        // now-resident line (and dirties it); the poisoned line-1 fill
        // fails without counters or residency.
        assert!(c.write(&g, &lat, GAddr(32), &[1u8; LINE_SIZE]).is_err());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.allocs), (1, 1, 0));
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(
            s.hits + s.misses + s.allocs,
            2,
            "identity holds across both error paths"
        );
    }

    #[test]
    fn failing_span_takes_effect_in_address_order() {
        // With two banks a four-line span visits lines 0, 2 (bank 0) and
        // then 1, 3 (bank 1). When a fill can fail the span must instead
        // walk in address order, so that exactly the lines before the
        // failing one take effect — here line 0 alone, not line 2.
        let lat = LatencyModel::hccs();
        let config = CacheConfig {
            max_lines: 64,
            banks: 2,
        };
        let g = GlobalMemory::new(LINE_SIZE * 8);
        g.poison(GAddr(LINE_SIZE as u64), 8);
        let c = NodeCache::new(config.clone());
        let mut buf = [0xAAu8; 4 * LINE_SIZE];
        assert!(matches!(
            c.read(&g, &lat, GAddr(0), &mut buf),
            Err(SimError::PoisonedMemory { .. })
        ));
        assert_eq!(c.resident_line_ids(), vec![0]);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(buf[..LINE_SIZE], [0u8; LINE_SIZE]);
        assert_eq!(buf[LINE_SIZE..], [0xAAu8; 3 * LINE_SIZE]);

        // The same for a line that runs off the end of the pool: the
        // last line of a 104-byte pool can never be filled.
        let g = GlobalMemory::new(100);
        let c = NodeCache::new(config);
        let mut buf = [0xAAu8; 20];
        assert!(matches!(
            c.read(&g, &lat, GAddr(60), &mut buf),
            Err(SimError::OutOfBounds { .. })
        ));
        assert_eq!(c.resident_line_ids(), vec![0]);
        assert_eq!(
            buf,
            [
                0, 0, 0, 0, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA,
                0xAA, 0xAA, 0xAA, 0xAA
            ]
        );
    }

    #[test]
    fn writeback_run_with_a_poisoned_line_lands_the_rest() {
        // One poisoned destination fails the whole run's fabric write;
        // the retry line by line must land every other line, count only
        // those, and leave only the dropped line dirty.
        let lat = LatencyModel::hccs();
        let g = GlobalMemory::new(LINE_SIZE * 8);
        let c = NodeCache::new(CacheConfig::default());
        c.write(&g, &lat, GAddr(0), &[7u8; 4 * LINE_SIZE]).unwrap();
        g.poison(GAddr(2 * LINE_SIZE as u64), 8);
        let tail = lat.transfer_ns(LINE_SIZE).max(1);
        assert_eq!(
            c.writeback(&g, &lat, GAddr(0), 4 * LINE_SIZE),
            lat.writeback_line_ns + 3 * tail,
            "all four dirty lines are charged"
        );
        assert_eq!(c.stats().writebacks, 3);
        g.scrub(GAddr(2 * LINE_SIZE as u64), 8);
        let mut pool = [0u8; 4 * LINE_SIZE];
        g.read_bytes(GAddr(0), &mut pool).unwrap();
        assert_eq!(pool[..2 * LINE_SIZE], [7u8; 2 * LINE_SIZE]);
        assert_eq!(pool[2 * LINE_SIZE..3 * LINE_SIZE], [0u8; LINE_SIZE]);
        assert_eq!(pool[3 * LINE_SIZE..], [7u8; LINE_SIZE]);
        // Only line 2 is still dirty.
        assert_eq!(
            c.writeback(&g, &lat, GAddr(0), 4 * LINE_SIZE),
            lat.writeback_line_ns
        );
        assert_eq!(c.stats().writebacks, 4);
    }

    #[test]
    fn coalesced_fills_counter_defaults_to_zero() {
        // Single-threaded workloads never wait on a fill, so the
        // coalesced counter must stay zero through a mixed workload.
        let (g, c, _, lat) = setup();
        let mut buf = [0u8; 256];
        c.read(&g, &lat, GAddr(0), &mut buf).unwrap();
        c.write(&g, &lat, GAddr(32), &[3u8; 128]).unwrap();
        c.read(&g, &lat, GAddr(0), &mut buf).unwrap();
        assert!(c.stats().hits > 0);
        assert_eq!(c.stats().coalesced_fills, 0);
    }

    #[test]
    fn seqlock_fast_path_serves_hits_without_bank_lock() {
        // Holding a bank's lock from another context must not block a
        // read hit on a published line of that bank.
        let g = GlobalMemory::new(LINE_SIZE * 4);
        let lat = LatencyModel::hccs();
        let c = NodeCache::new(CacheConfig {
            max_lines: 8,
            banks: 1,
        });
        let mut buf = [0u8; 8];
        c.read(&g, &lat, GAddr(0), &mut buf).unwrap(); // publish line 0
        let shard = &c.shards[0];
        let mut out = [0xFFu8; 8];
        {
            let _guard = shard.state.lock(); // raw inner lock: simulate contention
            assert!(
                c.try_seqlock_hit(shard, 0, 0, &mut out),
                "fast path must succeed while the bank mutex is held elsewhere"
            );
        }
        assert_eq!(out, [0u8; 8]);
    }
}
