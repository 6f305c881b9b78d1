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
//! # Internals: one lock, banks for capacity
//!
//! All of a cache's state sits behind **one** [`crate::sync::Mutex`],
//! taken once per operation and held for the whole span, fabric reads
//! and writes included. The lock rule: it is taken with no other
//! node-local lock held, and nothing under it calls out except
//! [`GlobalMemory::read_bytes`]/[`GlobalMemory::write_bytes`] (in
//! `fabric_read`/`fabric_write`, the module's only fabric call
//! sites). So it cannot deadlock, and every operation is atomic with
//! respect to every other operation on the same node: no reader of this
//! node can see a line between its flush's write and its drop, or
//! install bytes older than the node's own writeback.
//!
//! Lines are still spread over [`CacheConfig::banks`] banks (`line_id &
//! (banks - 1)`), but only to partition capacity: each bank holds at most
//! `max(1, max_lines / banks)` lines under its own exact LRU, so eviction
//! — and with it every simulated cost — is bit for bit what it was when
//! each bank had a lock of its own. The per-bank locks, single-flight
//! fills and lock-free read hits that let threads of one node overlap are
//! gone: every workload and driver runs one measuring thread, and on a
//! 2-vCPU host two threads sharing one node cache completed 10.8–11.2 M
//! ops/s at 95 % hits (8.6–11.4 M at 50 %) where one thread alone
//! completed 14.3–22.1 M (16.3–17.8 M). No fill is ever waited on, so
//! [`CacheStats::coalesced_fills`] is always 0.
//!
//! Within a bank, a line is found through a **line directory**
//! (`LineDir`) indexed by address, not by hash: the bank-local line
//! number `line_id >> log2(banks)` picks a `u32` entry of `dir` per 64
//! lines, naming a leaf of 64 slot numbers. A lookup is two dependent
//! array loads, and a 4 KiB span's lines fall in one leaf per bank, so a
//! page's bookkeeping walks memory sequentially. Leaves come from a
//! per-bank arena of fixed-size chunks and return to a free list when
//! their last line leaves, so leaf memory is bounded by the most lines
//! the bank held at once (one leaf per resident line at worst, ~one per
//! 64 for page-shaped access); `dir` adds 4 B per 64 bank-local lines up
//! to the highest address the bank installed. Lookups past its end miss
//! and never grow it.
//!
//! Resident lines live in a per-bank **slab** of plain slots (payload,
//! dirty bit, links), grown in fixed-size chunks, threaded onto an
//! **intrusive doubly-linked LRU
//! list** by slab index: a hit is one directory lookup plus four pointer
//! swaps, and the eviction victim is always the list tail — exact LRU in
//! O(1).
//!
//! Each operation also records itself, under the same lock hold, in the
//! cache's ledger: its behaviour counters, its latency-class histogram
//! and its read or write count and bytes. Every writer of those cells
//! holds the lock, so they are written with plain loads and stores, not
//! read-modify-writes; they stay relaxed atomics shared with
//! [`crate::NodeStats`] through an [`Arc`], so readers snapshot them
//! without the lock.
//!
//! # The span path
//!
//! The unit of work of `read`, `write`, `writeback`, `invalidate` and
//! `flush` is the byte span, not the 64 B line: a 4 KiB page is one
//! operation under one lock hold, not 64.
//!
//! * **Passes.** A span is cut, in address order, into passes of at most
//!   `PASS_LINES` lines (one page), whose staging buffers live on the
//!   stack, and each pass is walked in address order. Every bank
//!   therefore sees its lines in ascending order — the hits, fills,
//!   installs and evictions a line-at-a-time walk would show it.
//! * **Costs are sums.** A span's simulated cost is a sum over per-line
//!   outcomes: `cache_hit_ns` per hit or allocation, `global_read_ns` for
//!   the span's first miss and the bandwidth tail for each further one,
//!   `writeback_line_ns` per dirty eviction, and likewise first/tail for
//!   lines written back or dropped — bit for bit what the line-at-a-time
//!   walk charged.
//! * **One fabric copy.** A read's first miss in a pass fetches all of
//!   the pass's lines with one fabric read; its later misses install from
//!   that image. A line installed into a full bank evicts the LRU line
//!   (install, then evict), writing it back at once if dirty; a victim
//!   inside the pass is copied into the image too, so a span that evicts
//!   a dirty line and then misses on it again takes the victim's bytes.
//!   `writeback`/`flush` copy the pass's dirty lines out, then write each
//!   contiguous run of them with one fabric write. A write can only miss
//!   on a partial first or last line, so its fills stay per line.
//!
//! # Partial-span effects on error
//!
//! A fill fails when its line holds poison or runs past the end of the
//! pool. A multi-line read first asks whether that can happen anywhere in
//! its lines; if so it reads one line per pass instead of one image per
//! page. The error then propagates after the lines before the failing
//! one, in address order, already took effect: prefix bytes of the
//! caller's buffer are filled (reads) or cached dirty (writes), and their
//! counters are recorded. The *failing* line contributes nothing — no
//! counter increment, no buffer mutation, no resident line — so the
//! identity `hits + misses + allocs == successfully accessed line
//! segments` holds on every path, success or error. (Poison injected
//! *while* a read runs can fail a pass's image read at its first miss;
//! the lines that took effect are then the prefix before that miss.)
//! Callers needing all-or-nothing semantics should pre-validate with
//! [`GlobalMemory::is_poisoned`].

use crate::error::SimError;
use crate::latency::LatencyModel;
use crate::memory::{GAddr, GlobalMemory};
use crate::metrics::{bump, CostClass, LatencyHistogram};
use crate::sync::Mutex;
use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache line size in bytes, matching common ARM/x86 line sizes.
pub const LINE_SIZE: usize = 64;

/// Slab-index sentinel terminating the intrusive LRU list.
const NIL: u32 = u32::MAX;

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

/// Slots per [`Slab`] chunk (~5.5 KiB).
const SLAB_CHUNK: usize = 64;

/// Lines one pass over a span covers (one 4 KiB page): the pass's fabric
/// image is staged on the stack and its staged-line set fits a `u64`
/// mask. Longer spans are cut into passes in address order, which keeps
/// every bank's line sequence ascending, so the cut is invisible to the
/// simulated cost.
const PASS_LINES: usize = 64;

/// The only fabric-read call site in this module: fills `data` — one line
/// or a whole run of them — from the pool, starting at `first_line`.
fn fabric_read(global: &GlobalMemory, first_line: u64, data: &mut [u8]) -> Result<(), SimError> {
    global.read_bytes(GAddr(first_line * LINE_SIZE as u64), data)
}

/// The only fabric-write call site in this module (see [`fabric_read`]).
fn fabric_write(global: &GlobalMemory, first_line: u64, data: &[u8]) -> Result<(), SimError> {
    global.write_bytes(GAddr(first_line * LINE_SIZE as u64), data)
}

/// Configuration of a node's cache over global memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of resident lines before LRU eviction. Capacity is
    /// enforced per bank (`max(1, max_lines / banks)` lines each), so the
    /// total never exceeds `max_lines` when it divides evenly.
    pub max_lines: usize,
    /// Number of banks the cache's capacity is partitioned into. Must be
    /// a power of two; line `id` lives in bank `id & (banks - 1)`.
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
    /// Hits that waited on another thread's in-flight fill. Always 0: a
    /// fill completes under the cache lock, so no access ever waits on
    /// one. Kept because reports export it.
    pub coalesced_fills: u64,
}

impl CacheStats {
    /// The counters [`CacheLedger`] holds, in its order.
    fn counted(&self) -> [u64; 6] {
        [
            self.hits,
            self.misses,
            self.allocs,
            self.writebacks,
            self.invalidations,
            self.evictions,
        ]
    }
}

/// Which ledger row an operation of the cache completes in: its cost
/// class's histogram and, for reads and writes, the access counters.
#[derive(Debug, Clone, Copy)]
enum OpClass {
    Read,
    Write,
    Maint,
}

/// Everything the node cache's operations record: the behaviour
/// counters, the `GlobalRead`, `GlobalWrite` and `CacheMaint` latency
/// histograms, and the cached reads and writes with their bytes. Only
/// cache operations record these classes, and every one of them holds
/// the cache lock while it does, so each cell has one writer at a time
/// and is written with a plain load and store ([`bump`]), not a locked
/// read-modify-write. The cells stay atomics so that
/// [`crate::NodeStats`] snapshots read them without the lock, through a
/// clone of the [`Arc`] the owning [`crate::NodeCtx`] attaches.
#[derive(Debug, Default)]
pub(crate) struct CacheLedger {
    /// The [`CacheStats`] counters, in [`CacheStats::counted`] order.
    stats: [AtomicU64; 6],
    /// Indexed by [`OpClass`].
    histograms: [LatencyHistogram; 3],
    reads: AtomicU64,
    writes: AtomicU64,
    /// Payload bytes of the reads and writes.
    bytes: AtomicU64,
}

impl CacheLedger {
    /// Record one operation: the counter increments of the lines that
    /// took effect and, if it completed (`done` holds its cost and
    /// payload bytes), its histogram sample and access count. Borrowing
    /// the locked banks proves the cache lock is held.
    #[inline]
    fn record(
        &self,
        _held: &mut [Bank],
        delta: &CacheStats,
        op: OpClass,
        done: Option<(u64, usize)>,
    ) {
        for (cell, n) in self.stats.iter().zip(delta.counted()) {
            if n != 0 {
                bump(cell, n);
            }
        }
        let Some((cost, bytes)) = done else { return };
        self.histograms[op as usize].record_exclusive(cost);
        let count = match op {
            OpClass::Read => &self.reads,
            OpClass::Write => &self.writes,
            OpClass::Maint => return,
        };
        bump(count, 1);
        bump(&self.bytes, bytes as u64);
    }

    /// The counters as one [`CacheStats`].
    pub(crate) fn total(&self) -> CacheStats {
        let [hits, misses, allocs, writebacks, invalidations, evictions] =
            self.stats.each_ref().map(|c| c.load(Ordering::Relaxed));
        CacheStats {
            hits,
            misses,
            allocs,
            writebacks,
            invalidations,
            evictions,
            coalesced_fills: 0,
        }
    }

    /// Completed cached reads, cached writes, and their payload bytes.
    pub(crate) fn accesses(&self) -> [u64; 3] {
        [&self.reads, &self.writes, &self.bytes].map(|c| c.load(Ordering::Relaxed))
    }

    /// The histogram of `class`, if the cache records that class.
    pub(crate) fn histogram(&self, class: CostClass) -> Option<&LatencyHistogram> {
        let op = match class {
            CostClass::GlobalRead => OpClass::Read,
            CostClass::GlobalWrite => OpClass::Write,
            CostClass::CacheMaint => OpClass::Maint,
            _ => return None,
        };
        Some(&self.histograms[op as usize])
    }

    /// Zero the histograms (see [`crate::NodeStats::reset_histograms`]).
    pub(crate) fn reset_histograms(&self) {
        for h in &self.histograms {
            h.reset();
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

/// The bank's line → slot map, indexed by address: `dir` holds, per run
/// of 64 bank-local lines, the index of the leaf that maps them
/// (`NO_LEAF` = none resident). A lookup is two dependent array loads; a
/// page span's lines share one leaf per bank.
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

/// One slot of a bank's slab: a resident line's bytes, its dirty bit and
/// its links in the bank's LRU list.
#[derive(Debug, Clone)]
struct Slot {
    line_id: u64,
    prev: u32,
    next: u32,
    dirty: bool,
    data: [u8; LINE_SIZE],
}

/// A bank's slots, in fixed-size chunks allocated as the bank first needs
/// them. A slot never moves, so growing the slab leaves no outgrown copy
/// behind, and its memory follows the most lines the bank held at once.
#[derive(Debug, Default)]
struct Slab {
    chunks: Vec<Box<[Slot; SLAB_CHUNK]>>,
    /// Slots handed out so far.
    len: u32,
}

impl Slab {
    /// A new slot holding `slot`.
    fn push(&mut self, slot: Slot) -> u32 {
        let i = self.len;
        if (i as usize).is_multiple_of(SLAB_CHUNK) {
            self.chunks
                .push(Box::new(std::array::from_fn(|_| slot.clone())));
        }
        self.len = i.checked_add(1).expect("bank slab exceeds u32 slots");
        self[i] = slot;
        i
    }
}

impl Index<u32> for Slab {
    type Output = Slot;

    #[inline]
    fn index(&self, i: u32) -> &Slot {
        &self.chunks[i as usize / SLAB_CHUNK][i as usize % SLAB_CHUNK]
    }
}

impl IndexMut<u32> for Slab {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut Slot {
        &mut self.chunks[i as usize / SLAB_CHUNK][i as usize % SLAB_CHUNK]
    }
}

/// One bank's share of the lines: the line directory, the slot slab, and
/// the intrusive LRU list through it (head = MRU, tail = LRU victim).
#[derive(Debug)]
struct Bank {
    /// Keyed by bank-local line number, `line_id >> shift`.
    dir: LineDir,
    /// `log2(banks)`.
    shift: u32,
    /// At most `cap + 1` slots: a line is installed before its bank's
    /// LRU victim is evicted.
    slots: Slab,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    cap: usize,
    resident: usize,
}

impl Bank {
    fn new(cap: usize, shift: u32) -> Self {
        Bank {
            dir: LineDir::default(),
            shift,
            slots: Slab::default(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
            resident: 0,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[i];
            s.prev = NIL;
            s.next = old_head;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// `line_id`'s slot, if resident.
    #[inline]
    fn slot_of(&self, line_id: u64) -> Option<u32> {
        self.dir.get(line_id >> self.shift)
    }

    /// Move slot `i` to the MRU position.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Make `line_id` resident, holding `data`, at the MRU position.
    fn install(&mut self, line_id: u64, data: [u8; LINE_SIZE], dirty: bool) {
        let slot = Slot {
            line_id,
            prev: NIL,
            next: NIL,
            dirty,
            data,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => self.slots.push(slot),
        };
        self.dir.insert(line_id >> self.shift, i);
        self.push_front(i);
        self.resident += 1;
    }

    /// Drop resident slot `i` from the directory and the list. Its bytes
    /// stay readable until the slot is reused.
    fn remove(&mut self, i: u32) {
        self.dir.remove(self.slots[i].line_id >> self.shift);
        self.unlink(i);
        self.free.push(i);
        self.resident -= 1;
    }

    /// Remove the exact LRU line (the list tail), returning its slot.
    fn pop_lru(&mut self) -> Option<u32> {
        let i = self.tail;
        if i == NIL {
            return None;
        }
        self.remove(i);
        Some(i)
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
    /// (`fetched`); the pass's later misses install from the image.
    Read {
        out: &'a mut [u8],
        image: &'a mut [u8],
        fetched: bool,
    },
    /// Merge `src` into the cache. Only a partial first or last line can
    /// miss (full lines allocate without a fill), so fills stay per line.
    Write { src: &'a [u8] },
}

/// One cached read or write of a span, run with the cache lock held.
struct SpanAccess<'a> {
    global: &'a GlobalMemory,
    lat: &'a LatencyModel,
    span: Span,
    io: SpanIo<'a>,
    /// The current pass, as inclusive line ids; `image` starts at `pass.0`.
    pass: (u64, u64),
    /// Burst model: a line of this span already paid the full fabric
    /// latency, so further misses pay the bandwidth-limited tail.
    missed: bool,
    /// Counter increments, added to the shared counters when done.
    delta: CacheStats,
}

impl<'a> SpanAccess<'a> {
    fn new(global: &'a GlobalMemory, lat: &'a LatencyModel, span: Span, io: SpanIo<'a>) -> Self {
        SpanAccess {
            global,
            lat,
            span,
            io,
            pass: (span.first, span.first),
            missed: false,
            delta: CacheStats::default(),
        }
    }

    /// Walk the span in passes of `pass_lines` lines, each in address
    /// order, over `banks`; returns the simulated cost.
    fn run(&mut self, banks: &mut [Bank], pass_lines: usize) -> Result<u64, SimError> {
        let mask = banks.len() as u64 - 1;
        let mut cost = 0;
        let mut lo = self.span.first;
        loop {
            self.pass = self.span.pass_from(lo, pass_lines);
            if let SpanIo::Read { fetched, .. } = &mut self.io {
                *fetched = false;
            }
            for line_id in self.pass.0..=self.pass.1 {
                cost += self.line(&mut banks[(line_id & mask) as usize], line_id)?;
            }
            if self.pass.1 == self.span.last {
                return Ok(cost);
            }
            lo = self.pass.1 + 1;
        }
    }

    /// One line of the span: a hit, a full-line write allocation, or a
    /// miss, which installs the line and then evicts down to capacity.
    #[inline(always)]
    fn line(&mut self, bank: &mut Bank, line_id: u64) -> Result<u64, SimError> {
        let (in_line, seg) = self.span.segment(line_id);
        let lat = self.lat;
        if let Some(i) = bank.slot_of(line_id) {
            self.delta.hits += 1;
            bank.touch(i);
            let slot = &mut bank.slots[i];
            let bytes = in_line..in_line + seg.len();
            match &mut self.io {
                SpanIo::Read { out, .. } => out[seg].copy_from_slice(&slot.data[bytes]),
                SpanIo::Write { src } => {
                    slot.data[bytes].copy_from_slice(&src[seg]);
                    slot.dirty = true;
                }
            }
            return Ok(lat.cache_hit_ns);
        }
        let (data, cost) = match &self.io {
            SpanIo::Write { src } if seg.len() == LINE_SIZE => {
                // Full-line write: allocate without fetching.
                self.delta.allocs += 1;
                let line: [u8; LINE_SIZE] = src[seg].try_into().expect("a whole line");
                (line, lat.cache_hit_ns)
            }
            _ => {
                let mut data = self.fill(line_id)?;
                self.delta.misses += 1;
                // Burst model: full fabric latency for the first missed
                // line of the span, bandwidth-limited continuation after.
                let cost = if self.missed {
                    lat.transfer_ns(LINE_SIZE).max(1)
                } else {
                    lat.global_read_ns
                };
                self.missed = true;
                let bytes = in_line..in_line + seg.len();
                match &mut self.io {
                    SpanIo::Read { out, .. } => out[seg].copy_from_slice(&data[bytes]),
                    SpanIo::Write { src } => data[bytes].copy_from_slice(&src[seg]),
                }
                (data, cost)
            }
        };
        bank.install(line_id, data, matches!(self.io, SpanIo::Write { .. }));
        Ok(cost + self.evict_to_capacity(bank))
    }

    /// The pool's bytes of missing line `line_id`: from the pass's image,
    /// which the first call of a read's pass fetches, or (writes) from a
    /// fabric read of the line alone.
    fn fill(&mut self, line_id: u64) -> Result<[u8; LINE_SIZE], SimError> {
        let (first, last) = self.pass;
        match &mut self.io {
            SpanIo::Read { image, fetched, .. } => {
                if !*fetched {
                    let lines = (last - first + 1) as usize;
                    fabric_read(self.global, first, &mut image[..lines * LINE_SIZE])?;
                    *fetched = true;
                }
                Ok(*staged(image, (line_id - first) as usize))
            }
            SpanIo::Write { .. } => {
                let mut data = [0u8; LINE_SIZE];
                fabric_read(self.global, line_id, &mut data)?;
                Ok(data)
            }
        }
    }

    /// Evict exact-LRU lines until `bank` is back within capacity,
    /// writing dirty victims back; returns their cost. A dirty victim
    /// inside the pass also overwrites its line of the image, which
    /// predates the victim's bytes. Poisoned destinations drop the line,
    /// mirroring hardware discarding a line it cannot store (the cost is
    /// charged all the same).
    fn evict_to_capacity(&mut self, bank: &mut Bank) -> u64 {
        let mut cost = 0;
        while bank.resident > bank.cap {
            let Some(i) = bank.pop_lru() else { break };
            self.delta.evictions += 1;
            let victim = &bank.slots[i];
            if !victim.dirty {
                continue;
            }
            cost += self.lat.writeback_line_ns;
            if fabric_write(self.global, victim.line_id, &victim.data).is_ok() {
                self.delta.writebacks += 1;
            }
            let (first, last) = self.pass;
            if let SpanIo::Read { image, .. } = &mut self.io {
                if (first..=last).contains(&victim.line_id) {
                    *staged_mut(image, (victim.line_id - first) as usize) = victim.data;
                }
            }
        }
        cost
    }
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

/// Write each contiguous run of the lines `mask` selects from `stage`
/// with one fabric call, and return the mask of lines that landed. A run
/// the pool rejects (a poisoned destination) is retried line by line, so
/// a bad line costs only itself.
fn write_runs(global: &GlobalMemory, pass_first: u64, stage: &[u8], mask: u64) -> u64 {
    let mut written = 0u64;
    let mut left = mask;
    while left != 0 {
        let s = left.trailing_zeros() as usize;
        let n = (left >> s).trailing_ones() as usize;
        let run = (u64::MAX >> (64 - n)) << s;
        let bytes = &stage[s * LINE_SIZE..(s + n) * LINE_SIZE];
        if fabric_write(global, pass_first + s as u64, bytes).is_ok() {
            written |= run;
        } else if n > 1 {
            for k in s..s + n {
                if fabric_write(global, pass_first + k as u64, staged(stage, k)).is_ok() {
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
/// All methods take `&self`: every operation runs under the one internal
/// lock, fabric accesses included (see the module docs).
#[derive(Debug)]
pub struct NodeCache {
    banks: Mutex<Box<[Bank]>>,
    ledger: Arc<CacheLedger>,
    bank_mask: u64,
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
        let shift = config.banks.trailing_zeros();
        NodeCache {
            banks: Mutex::new(
                (0..config.banks)
                    .map(|_| Bank::new(per_bank, shift))
                    .collect(),
            ),
            ledger: Arc::default(),
            bank_mask: config.banks as u64 - 1,
        }
    }

    /// The shared ledger (for [`crate::NodeStats`]).
    pub(crate) fn ledger(&self) -> Arc<CacheLedger> {
        self.ledger.clone()
    }

    /// Snapshot of the cache's behaviour counters.
    pub fn stats(&self) -> CacheStats {
        self.ledger.total()
    }

    /// Number of banks the cache's capacity is partitioned into.
    pub fn banks(&self) -> usize {
        self.bank_mask as usize + 1
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        self.banks.lock().iter().map(|b| b.resident).sum()
    }

    /// Ids of the currently resident lines, ascending — the cache's
    /// observable state, for tests and diagnostics.
    pub fn resident_line_ids(&self) -> Vec<u64> {
        let banks = self.banks.lock();
        let mut ids: Vec<u64> = banks
            .iter()
            .enumerate()
            .flat_map(|(b, bank)| {
                bank.dir
                    .iter()
                    .map(move |(local, _)| local << bank.shift | b as u64)
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    #[inline]
    fn bank_of(&self, line_id: u64) -> usize {
        (line_id & self.bank_mask) as usize
    }

    /// Whether the span's lines lie wholly inside the pool and hold no
    /// poison, i.e. no fill of the span can fail (short of a poison
    /// injected while the access runs).
    fn fills_cannot_fail(global: &GlobalMemory, span: &Span) -> bool {
        let start = span.first * LINE_SIZE as u64;
        let len = (span.last - span.first + 1) as usize * LINE_SIZE;
        start + len as u64 <= global.capacity() as u64 && !global.is_poisoned(GAddr(start), len)
    }

    /// Run a cached read or write under the cache lock and record it
    /// there: the counters of the lines that took effect, on error too,
    /// and the op itself only if it completed.
    fn access(&self, mut acc: SpanAccess<'_>, pass_lines: usize) -> Result<u64, SimError> {
        let op = match acc.io {
            SpanIo::Read { .. } => OpClass::Read,
            SpanIo::Write { .. } => OpClass::Write,
        };
        let mut banks = self.banks.lock();
        let cost = acc.run(&mut banks, pass_lines);
        let done = cost.as_ref().ok().map(|&ns| (ns, acc.span.len));
        self.ledger.record(&mut banks, &acc.delta, op, done);
        cost
    }

    /// Record a zero-length span: an op that touches no line and costs
    /// nothing, but counts all the same.
    #[cold]
    fn record_empty(&self, op: OpClass) -> u64 {
        let none = CacheStats::default();
        self.ledger
            .record(&mut self.banks.lock(), &none, op, Some((0, 0)));
        0
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
            return Ok(self.record_empty(OpClass::Read));
        }
        Self::check_span(global, addr, buf.len())?;
        let span = Span::new(addr, buf.len());
        if span.is_single_line() {
            self.read_staged::<1>(global, lat, span, buf)
        } else {
            self.read_staged::<PASS_LINES>(global, lat, span, buf)
        }
    }

    /// A read in passes of `N` lines, the pass's fabric image in this
    /// frame. Out of line, so the single-line path does not pay for the
    /// frame (or the zeroing) a page-sized pass needs. A span some fill of
    /// which could fail reads one line per pass instead, so that the lines
    /// before a failing one still take effect.
    #[inline(never)]
    fn read_staged<const N: usize>(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        span: Span,
        out: &mut [u8],
    ) -> Result<u64, SimError> {
        let mut image = [[0u8; LINE_SIZE]; N];
        let pass_lines = if N == 1 || Self::fills_cannot_fail(global, &span) {
            N
        } else {
            1
        };
        let io = SpanIo::Read {
            out,
            image: image.as_flattened_mut(),
            fetched: false,
        };
        self.access(SpanAccess::new(global, lat, span, io), pass_lines)
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
            return Ok(self.record_empty(OpClass::Write));
        }
        Self::check_span(global, addr, buf.len())?;
        let span = Span::new(addr, buf.len());
        let io = SpanIo::Write { src: buf };
        self.access(SpanAccess::new(global, lat, span, io), PASS_LINES)
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
    /// Returns the simulated cost. A line whose write the pool rejects (a
    /// poisoned destination) stays dirty.
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
    pub fn invalidate(&self, lat: &LatencyModel, addr: GAddr, len: usize) -> u64 {
        self.maintain(lat, addr, len, None, true)
    }

    /// Write back then invalidate `[addr, addr+len)` (clean+invalidate),
    /// in one pass under one lock hold. Costs what
    /// [`NodeCache::writeback`] followed by [`NodeCache::invalidate`]
    /// costs; a line whose write fails is dropped all the same.
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
            return self.record_empty(OpClass::Maint);
        }
        let span = Span::new(addr, len);
        match writeback_to {
            None => self.maintain_staged::<0>(lat, span, None, drop_lines),
            Some(_) if span.is_single_line() => {
                self.maintain_staged::<1>(lat, span, writeback_to, drop_lines)
            }
            // Zeroing the page-sized staging frame costs ~40 ns a call —
            // as much again as a two-line writeback's cache work.
            Some(_) if span.last - span.first < 8 => {
                self.maintain_staged::<8>(lat, span, writeback_to, drop_lines)
            }
            Some(_) => self.maintain_staged::<PASS_LINES>(lat, span, writeback_to, drop_lines),
        }
    }

    /// [`NodeCache::maintain`] pass by pass, in address order, with room
    /// to stage `N` dirty lines per pass in this frame (`N = 0`: nothing
    /// is written back). Each pass copies its dirty lines out (marking
    /// them clean) and drops lines as asked, then writes the staged runs
    /// and re-dirties, unless dropped, any line whose write failed.
    fn maintain_staged<const N: usize>(
        &self,
        lat: &LatencyModel,
        span: Span,
        writeback_to: Option<&GlobalMemory>,
        drop_lines: bool,
    ) -> u64 {
        let mut stage = [[0u8; LINE_SIZE]; N];
        let pass_lines = if writeback_to.is_some() {
            N
        } else {
            PASS_LINES
        };
        let mut cost = MaintCost::default();
        let mut delta = CacheStats::default();
        let mut banks = self.banks.lock();
        let mut pass = span.pass_from(span.first, pass_lines);
        loop {
            let mut mask = 0u64;
            for line_id in pass.0..=pass.1 {
                let bank = &mut banks[self.bank_of(line_id)];
                let Some(i) = bank.slot_of(line_id) else {
                    continue;
                };
                let slot = &mut bank.slots[i];
                if writeback_to.is_some() && slot.dirty {
                    let k = (line_id - pass.0) as usize;
                    stage[k] = slot.data;
                    slot.dirty = false;
                    mask |= 1 << k;
                    cost.charge_writeback(lat);
                }
                if drop_lines {
                    bank.remove(i);
                    delta.invalidations += 1;
                    cost.charge_drop(lat);
                }
            }
            if let (Some(global), true) = (writeback_to, mask != 0) {
                let written = write_runs(global, pass.0, stage.as_flattened(), mask);
                delta.writebacks += u64::from(written.count_ones());
                let mut failed = if drop_lines { 0 } else { mask & !written };
                while failed != 0 {
                    let line_id = pass.0 + u64::from(failed.trailing_zeros());
                    failed &= failed - 1;
                    let bank = &mut banks[self.bank_of(line_id)];
                    if let Some(i) = bank.slot_of(line_id) {
                        bank.slots[i].dirty = true;
                    }
                }
            }
            if pass.1 == span.last {
                break;
            }
            pass = span.pass_from(pass.1 + 1, pass_lines);
        }
        self.ledger
            .record(&mut banks, &delta, OpClass::Maint, Some((cost.ns, 0)));
        cost.ns
    }

    /// Write back every dirty line and drop the whole cache.
    pub fn flush_all(&self, global: &GlobalMemory, lat: &LatencyModel) -> u64 {
        let mut cost = 0;
        let mut delta = CacheStats::default();
        let mut banks = self.banks.lock();
        for bank in banks.iter_mut() {
            while let Some(i) = bank.pop_lru() {
                let slot = &bank.slots[i];
                if slot.dirty {
                    cost += lat.writeback_line_ns;
                    if fabric_write(global, slot.line_id, &slot.data).is_ok() {
                        delta.writebacks += 1;
                    }
                }
                delta.invalidations += 1;
                cost += lat.invalidate_line_ns;
            }
        }
        self.ledger
            .record(&mut banks, &delta, OpClass::Maint, Some((cost, 0)));
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
        for (b, bank) in c.banks.lock().iter().enumerate() {
            assert_eq!(bank.dir.len(), 1, "line {b} should land alone in bank {b}");
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
            let slots = c.banks.lock()[0].slots.len;
            assert!(
                slots <= 4,
                "round {round}: slab grew past the working set ({slots} slots)"
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
            c.banks
                .lock()
                .iter()
                .map(|bank| (bank.dir.dir.len(), bank.dir.len()))
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
        // A sequential stream keeps at most cap + 1 lines (the resident
        // ones plus the one being installed before its eviction) in
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
            let banks = c.banks.lock();
            let dir = &banks[0].dir;
            let leaves = u64::from(dir.leaves);
            assert!(
                leaves <= bound,
                "stride {stride}: {leaves} leaves for {cap} resident lines (bound {bound})"
            );
            assert_eq!(
                dir.free.len() as u64,
                leaves,
                "all leaves back on the free list"
            );
            assert_eq!(dir.chunks.len() as u64, leaves.div_ceil(LEAF_CHUNK as u64));
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
        // With two banks a four-line span touches lines 0, 2 (bank 0) and
        // 1, 3 (bank 1). Exactly the lines before the failing one take
        // effect — here line 0 alone, not line 2.
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
        // No access ever waits on a fill, so the coalesced counter stays
        // zero through a mixed workload.
        let (g, c, _, lat) = setup();
        let mut buf = [0u8; 256];
        c.read(&g, &lat, GAddr(0), &mut buf).unwrap();
        c.write(&g, &lat, GAddr(32), &[3u8; 128]).unwrap();
        c.read(&g, &lat, GAddr(0), &mut buf).unwrap();
        assert!(c.stats().hits > 0);
        assert_eq!(c.stats().coalesced_fills, 0);
    }
}
