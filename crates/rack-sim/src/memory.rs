//! Global (rack-shared) and node-local memory.
//!
//! Global memory is the load/store-accessible pool the memory interconnect
//! exposes to every node. It is word-addressable through atomics so that it
//! can be safely shared between host threads, models *poisoned* words for
//! fault injection, and provides a simple bump allocator on which higher
//! layers (the FlacDK object allocator) build real allocation policies.
//!
//! Byte-granular accesses are implemented as read-modify-write of the
//! containing 64-bit words. Two host threads concurrently writing
//! *different bytes of the same word* outside of the cache layer can race;
//! all layers above either use word-aligned fields or partition buffers at
//! word granularity, mirroring how real fabrics serialize at the home node.

use crate::error::SimError;
use crate::sync::RwLock;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Byte address in the rack's global memory pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GAddr(pub u64);

impl GAddr {
    /// Address `bytes` past this one.
    ///
    /// # Panics
    ///
    /// Panics if the result overflows the 64-bit address space — in *both*
    /// build profiles. The previous unchecked add wrapped silently in
    /// release builds, turning a bad pointer into a valid-looking one.
    /// Fallible callers should use [`GAddr::checked_offset`].
    #[must_use]
    pub fn offset(self, bytes: u64) -> GAddr {
        GAddr(
            self.0
                .checked_add(bytes)
                .expect("GAddr::offset overflowed the u64 address space"),
        )
    }

    /// Address `bytes` past this one, or [`SimError::OutOfBounds`] if the
    /// result overflows the 64-bit address space.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfBounds`] on overflow.
    pub fn checked_offset(self, bytes: u64) -> Result<GAddr, SimError> {
        self.0
            .checked_add(bytes)
            .map(GAddr)
            .ok_or(SimError::OutOfBounds {
                addr: self,
                len: usize::try_from(bytes).unwrap_or(usize::MAX),
                capacity: 0,
            })
    }

    /// Round up to the next multiple of `align` (which must be a power of two).
    #[must_use]
    pub fn align_up(self, align: u64) -> GAddr {
        debug_assert!(align.is_power_of_two());
        GAddr((self.0 + align - 1) & !(align - 1))
    }

    /// Whether this address is a multiple of `align`.
    pub fn is_aligned(self, align: u64) -> bool {
        self.0.is_multiple_of(align)
    }

    /// Index of the 64-bit word containing this address.
    pub(crate) fn word_index(self) -> usize {
        (self.0 / 8) as usize
    }
}

impl fmt::Display for GAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g:{:#x}", self.0)
    }
}

/// The rack-wide shared memory pool.
///
/// All state is interiorly mutable and `Sync`: the pool is shared by every
/// node (and by every host thread in multi-threaded tests).
pub struct GlobalMemory {
    words: Vec<AtomicU64>,
    capacity: usize,
    next: AtomicUsize,
    /// Exact number of currently poisoned words, maintained alongside the
    /// locked set. Every access path checks this relaxed atomic first, so
    /// the common no-poison case never touches the `poisoned_words` lock —
    /// line fills from every node's cache funnel through here, and taking
    /// a shared `RwLock` per fill would put every node's fills behind one
    /// lock. (A poison racing an access may land either before or after
    /// it, as on real hardware.)
    poison_count: AtomicUsize,
    poisoned_words: RwLock<HashSet<usize>>,
    /// Debug-only proof that the fast path works: every acquisition of
    /// `poisoned_words` (reader or writer) is counted, so tests can
    /// assert the clean case takes the lock exactly zero times.
    #[cfg(debug_assertions)]
    poison_lock_acquires: AtomicU64,
}

impl fmt::Debug for GlobalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalMemory")
            .field("capacity", &self.capacity)
            .field("allocated", &self.allocated())
            // Read the atomic count, not the set: Debug-printing a pool
            // must not take the poison lock the fast path avoids.
            .field("poisoned", &self.poison_count.load(Ordering::Relaxed))
            .finish()
    }
}

impl GlobalMemory {
    /// Create a pool of `capacity` bytes (rounded up to a whole word),
    /// zero-initialized.
    pub fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(8);
        GlobalMemory {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            capacity: words * 8,
            next: AtomicUsize::new(0),
            poison_count: AtomicUsize::new(0),
            poisoned_words: RwLock::new(HashSet::new()),
            #[cfg(debug_assertions)]
            poison_lock_acquires: AtomicU64::new(0),
        }
    }

    /// Count one acquisition of the poison-set lock (debug builds only;
    /// compiles to nothing in release).
    #[inline]
    fn note_poison_lock(&self) {
        #[cfg(debug_assertions)]
        self.poison_lock_acquires.fetch_add(1, Ordering::Relaxed);
    }

    /// Debug-only: how many times the poison set's `RwLock` has been
    /// acquired. Lets tests assert the clean case is lock-free.
    #[cfg(debug_assertions)]
    pub fn poison_lock_acquisitions(&self) -> u64 {
        self.poison_lock_acquires.load(Ordering::Relaxed)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes handed out by [`GlobalMemory::alloc`] so far.
    pub fn allocated(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }

    /// Bump-allocate `len` bytes aligned to `align`.
    ///
    /// This is the *hardware carve-out* primitive; rich allocation policy
    /// (reuse, reclamation) lives in FlacDK's object allocator.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfMemory`] when the pool is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&self, len: usize, align: usize) -> Result<GAddr, SimError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            let base = (cur + align - 1) & !(align - 1);
            let end = base.checked_add(len).ok_or(SimError::OutOfMemory {
                requested: len,
                remaining: self.capacity - cur,
            })?;
            if end > self.capacity {
                return Err(SimError::OutOfMemory {
                    requested: len,
                    remaining: self.capacity - cur,
                });
            }
            match self
                .next
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Ok(GAddr(base as u64)),
                Err(actual) => cur = actual,
            }
        }
    }

    fn check_range(&self, addr: GAddr, len: usize) -> Result<(), SimError> {
        let oob = SimError::OutOfBounds {
            addr,
            len,
            capacity: self.capacity,
        };
        // Checked in u64 space: `addr.0 as usize + len` wrapped for
        // addresses near the top of the address space.
        let end = addr.0.checked_add(len as u64).ok_or(oob.clone())?;
        if end > self.capacity as u64 {
            return Err(oob);
        }
        Ok(())
    }

    fn check_poison(&self, first_word: usize, last_word: usize) -> Result<(), SimError> {
        // Lock-free emptiness fast path: with zero poisoned words (the
        // overwhelmingly common case) no access ever takes the set lock.
        if self.poison_count.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        self.note_poison_lock();
        let set = self.poisoned_words.read();
        for w in first_word..=last_word {
            if set.contains(&w) {
                return Err(SimError::PoisonedMemory {
                    addr: GAddr((w * 8) as u64),
                });
            }
        }
        Ok(())
    }

    /// Load the aligned 64-bit word at `addr` directly from the pool
    /// (no cache, no latency charge — the [`crate::NodeCtx`] layer charges).
    ///
    /// # Errors
    ///
    /// Out-of-bounds, misaligned, or poisoned accesses fail.
    pub fn load_u64(&self, addr: GAddr) -> Result<u64, SimError> {
        if !addr.is_aligned(8) {
            return Err(SimError::Misaligned { addr, required: 8 });
        }
        self.check_range(addr, 8)?;
        self.check_poison(addr.word_index(), addr.word_index())?;
        Ok(self.words[addr.word_index()].load(Ordering::SeqCst))
    }

    /// Store the aligned 64-bit word at `addr`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds, misaligned, or poisoned accesses fail.
    pub fn store_u64(&self, addr: GAddr, value: u64) -> Result<(), SimError> {
        if !addr.is_aligned(8) {
            return Err(SimError::Misaligned { addr, required: 8 });
        }
        self.check_range(addr, 8)?;
        self.check_poison(addr.word_index(), addr.word_index())?;
        self.words[addr.word_index()].store(value, Ordering::SeqCst);
        Ok(())
    }

    /// Atomic compare-exchange on the word at `addr`. Returns the previous
    /// value; the exchange succeeded iff the returned value equals `current`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds, misaligned, or poisoned accesses fail.
    pub fn compare_exchange_u64(
        &self,
        addr: GAddr,
        current: u64,
        new: u64,
    ) -> Result<u64, SimError> {
        if !addr.is_aligned(8) {
            return Err(SimError::Misaligned { addr, required: 8 });
        }
        self.check_range(addr, 8)?;
        self.check_poison(addr.word_index(), addr.word_index())?;
        Ok(
            match self.words[addr.word_index()].compare_exchange(
                current,
                new,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(prev) => prev,
                Err(prev) => prev,
            },
        )
    }

    /// Atomic fetch-add on the word at `addr`; returns the previous value.
    ///
    /// # Errors
    ///
    /// Out-of-bounds, misaligned, or poisoned accesses fail.
    pub fn fetch_add_u64(&self, addr: GAddr, delta: u64) -> Result<u64, SimError> {
        if !addr.is_aligned(8) {
            return Err(SimError::Misaligned { addr, required: 8 });
        }
        self.check_range(addr, 8)?;
        self.check_poison(addr.word_index(), addr.word_index())?;
        Ok(self.words[addr.word_index()].fetch_add(delta, Ordering::SeqCst))
    }

    /// Copy `buf.len()` bytes starting at `addr` into `buf`, bypassing caches.
    ///
    /// # Errors
    ///
    /// Out-of-bounds or poisoned accesses fail.
    pub fn read_bytes(&self, addr: GAddr, buf: &mut [u8]) -> Result<(), SimError> {
        self.check_range(addr, buf.len())?;
        if buf.is_empty() {
            return Ok(());
        }
        let first = addr.word_index();
        let last = GAddr(addr.0 + buf.len() as u64 - 1).word_index();
        self.check_poison(first, last)?;
        // Partial head word, whole words, partial tail word: an
        // 8-byte-aligned span (every line fill) is whole words only.
        let mut w = first;
        let mut rest = buf;
        let in_word = (addr.0 % 8) as usize;
        if in_word != 0 {
            let (head, tail) = rest.split_at_mut((8 - in_word).min(rest.len()));
            let word = self.words[w].load(Ordering::SeqCst).to_le_bytes();
            head.copy_from_slice(&word[in_word..in_word + head.len()]);
            rest = tail;
            w += 1;
        }
        let mut chunks = rest.chunks_exact_mut(8);
        for (chunk, word) in (&mut chunks).zip(&self.words[w..]) {
            chunk.copy_from_slice(&word.load(Ordering::SeqCst).to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let word = self.words[last].load(Ordering::SeqCst).to_le_bytes();
            tail.copy_from_slice(&word[..tail.len()]);
        }
        Ok(())
    }

    /// Read-modify-write `bytes` into word `w` at byte offset `in_word`.
    fn merge_word(&self, w: usize, in_word: usize, bytes: &[u8]) {
        let mut word = self.words[w].load(Ordering::SeqCst).to_le_bytes();
        word[in_word..in_word + bytes.len()].copy_from_slice(bytes);
        self.words[w].store(u64::from_le_bytes(word), Ordering::SeqCst);
    }

    /// Copy `buf` into global memory starting at `addr`, bypassing caches.
    ///
    /// # Errors
    ///
    /// Out-of-bounds or poisoned accesses fail.
    pub fn write_bytes(&self, addr: GAddr, buf: &[u8]) -> Result<(), SimError> {
        self.check_range(addr, buf.len())?;
        if buf.is_empty() {
            return Ok(());
        }
        let first = addr.word_index();
        let last = GAddr(addr.0 + buf.len() as u64 - 1).word_index();
        self.check_poison(first, last)?;
        // Same head/whole-words/tail split as `read_bytes`; only the
        // partial words at the ends need a read-modify-write.
        let mut w = first;
        let mut rest = buf;
        let in_word = (addr.0 % 8) as usize;
        if in_word != 0 {
            let (head, tail) = rest.split_at((8 - in_word).min(rest.len()));
            self.merge_word(w, in_word, head);
            rest = tail;
            w += 1;
        }
        let chunks = rest.chunks_exact(8);
        let tail = chunks.remainder();
        for (chunk, word) in chunks.zip(&self.words[w..]) {
            let value = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            word.store(value, Ordering::SeqCst);
        }
        if !tail.is_empty() {
            self.merge_word(last, 0, tail);
        }
        Ok(())
    }

    /// Poison the words covering `[addr, addr+len)`, simulating an
    /// uncorrectable memory error. Subsequent accesses fail with
    /// [`SimError::PoisonedMemory`].
    pub fn poison(&self, addr: GAddr, len: usize) {
        if len == 0 {
            return;
        }
        let first = addr.word_index();
        let last = GAddr(addr.0 + len as u64 - 1).word_index();
        self.note_poison_lock();
        let mut set = self.poisoned_words.write();
        let mut added = 0usize;
        for w in first..=last {
            if set.insert(w) {
                added += 1;
            }
        }
        if added > 0 {
            // Published while the write lock is held, so the count can
            // never exceed the set and the zero fast path stays sound.
            self.poison_count.fetch_add(added, Ordering::Relaxed);
        }
    }

    /// Repair poisoned words in `[addr, addr+len)` (e.g. after a scrubber
    /// rewrote them from redundancy), zeroing their contents. A pool with
    /// nothing poisoned returns at once, without the set's write lock.
    pub fn scrub(&self, addr: GAddr, len: usize) {
        if len == 0 || self.poison_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let first = addr.word_index();
        let last = GAddr(addr.0 + len as u64 - 1).word_index();
        self.note_poison_lock();
        let mut set = self.poisoned_words.write();
        let mut removed = 0usize;
        for w in first..=last {
            if set.remove(&w) {
                self.words[w].store(0, Ordering::SeqCst);
                removed += 1;
            }
        }
        if removed > 0 {
            self.poison_count.fetch_sub(removed, Ordering::Relaxed);
        }
    }

    /// Whether any word in `[addr, addr+len)` is currently poisoned.
    pub fn is_poisoned(&self, addr: GAddr, len: usize) -> bool {
        if len == 0 || self.poison_count.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let first = addr.word_index();
        let last = GAddr(addr.0 + len as u64 - 1).word_index();
        self.note_poison_lock();
        let set = self.poisoned_words.read();
        (first..=last).any(|w| set.contains(&w))
    }
}

/// Byte address in a node's local memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LAddr(pub usize);

/// A node's private local memory arena.
///
/// Local memory is always coherent from the owning node's perspective
/// (it is only accessible from that node), so it is a plain byte arena
/// with a bump allocator. The [`crate::NodeCtx`] charges local DRAM
/// latency when accessing it.
#[derive(Debug)]
pub struct LocalMemory {
    bytes: RwLock<Vec<u8>>,
    capacity: usize,
    next: AtomicUsize,
}

impl LocalMemory {
    /// A zeroed local arena of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        LocalMemory {
            bytes: RwLock::new(vec![0; capacity]),
            capacity,
            next: AtomicUsize::new(0),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes allocated so far.
    pub fn allocated(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }

    /// Bump-allocate `len` bytes, 8-byte aligned.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfMemory`] when the arena is exhausted.
    pub fn alloc(&self, len: usize) -> Result<LAddr, SimError> {
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            let base = (cur + 7) & !7;
            let end = base + len;
            if end > self.capacity {
                return Err(SimError::OutOfMemory {
                    requested: len,
                    remaining: self.capacity - cur,
                });
            }
            match self
                .next
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Ok(LAddr(base)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Read `buf.len()` bytes at `addr` into `buf`.
    ///
    /// # Errors
    ///
    /// Fails when the range exceeds the arena.
    pub fn read(&self, addr: LAddr, buf: &mut [u8]) -> Result<(), SimError> {
        let end = addr.0 + buf.len();
        if end > self.capacity {
            return Err(SimError::OutOfBounds {
                addr: GAddr(addr.0 as u64),
                len: buf.len(),
                capacity: self.capacity,
            });
        }
        buf.copy_from_slice(&self.bytes.read()[addr.0..end]);
        Ok(())
    }

    /// Write `buf` at `addr`.
    ///
    /// # Errors
    ///
    /// Fails when the range exceeds the arena.
    pub fn write(&self, addr: LAddr, buf: &[u8]) -> Result<(), SimError> {
        let end = addr.0 + buf.len();
        if end > self.capacity {
            return Err(SimError::OutOfBounds {
                addr: GAddr(addr.0 as u64),
                len: buf.len(),
                capacity: self.capacity,
            });
        }
        self.bytes.write()[addr.0..end].copy_from_slice(buf);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_capacity() {
        let m = GlobalMemory::new(128);
        let a = m.alloc(10, 8).unwrap();
        assert!(a.is_aligned(8));
        let b = m.alloc(8, 64).unwrap();
        assert!(b.is_aligned(64));
        assert!(b.0 >= a.0 + 10);
        assert!(m.alloc(1024, 8).is_err());
    }

    #[test]
    fn word_load_store_roundtrip() {
        let m = GlobalMemory::new(64);
        let a = m.alloc(8, 8).unwrap();
        m.store_u64(a, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.load_u64(a).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn misaligned_word_access_fails() {
        let m = GlobalMemory::new(64);
        assert!(matches!(
            m.load_u64(GAddr(3)),
            Err(SimError::Misaligned { .. })
        ));
        assert!(matches!(
            m.store_u64(GAddr(4), 1),
            Err(SimError::Misaligned { .. })
        ));
    }

    #[test]
    fn out_of_bounds_fails() {
        let m = GlobalMemory::new(16);
        assert!(matches!(
            m.load_u64(GAddr(16)),
            Err(SimError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 4];
        assert!(m.read_bytes(GAddr(14), &mut buf).is_err());
    }

    #[test]
    fn byte_rw_roundtrip_unaligned() {
        let m = GlobalMemory::new(64);
        let data: Vec<u8> = (0..23).collect();
        m.write_bytes(GAddr(3), &data).unwrap();
        let mut out = vec![0u8; 23];
        m.read_bytes(GAddr(3), &mut out).unwrap();
        assert_eq!(out, data);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 3];
        m.read_bytes(GAddr(0), &mut edge).unwrap();
        assert_eq!(edge, [0, 0, 0]);
    }

    #[test]
    fn byte_rw_matches_a_byte_array_at_every_alignment() {
        // Head word, whole words, tail word: every (offset, length)
        // combination up to three words, against a plain byte array.
        let m = GlobalMemory::new(64);
        let mut model = [0u8; 64];
        let mut next = 1u8;
        for offset in 0..16usize {
            for len in 0..=24usize {
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        next = next.wrapping_mul(31).wrapping_add(7);
                        next
                    })
                    .collect();
                m.write_bytes(GAddr(offset as u64), &data).unwrap();
                model[offset..offset + len].copy_from_slice(&data);
                let mut all = [0u8; 64];
                m.read_bytes(GAddr(0), &mut all).unwrap();
                assert_eq!(all, model, "write of {len} at {offset}");
                let mut out = vec![0u8; len];
                m.read_bytes(GAddr(offset as u64), &mut out).unwrap();
                assert_eq!(out, data, "read of {len} at {offset}");
            }
        }
    }

    #[test]
    fn cas_and_fetch_add() {
        let m = GlobalMemory::new(64);
        let a = m.alloc(8, 8).unwrap();
        m.store_u64(a, 5).unwrap();
        assert_eq!(m.compare_exchange_u64(a, 5, 9).unwrap(), 5);
        assert_eq!(m.load_u64(a).unwrap(), 9);
        assert_eq!(
            m.compare_exchange_u64(a, 5, 11).unwrap(),
            9,
            "failed CAS returns actual"
        );
        assert_eq!(m.load_u64(a).unwrap(), 9);
        assert_eq!(m.fetch_add_u64(a, 3).unwrap(), 9);
        assert_eq!(m.load_u64(a).unwrap(), 12);
    }

    #[test]
    fn poison_blocks_access_until_scrubbed() {
        let m = GlobalMemory::new(128);
        let a = m.alloc(32, 8).unwrap();
        m.store_u64(a, 7).unwrap();
        m.poison(a, 16);
        assert!(m.is_poisoned(a, 1));
        assert!(matches!(
            m.load_u64(a),
            Err(SimError::PoisonedMemory { .. })
        ));
        assert!(matches!(
            m.store_u64(a, 1),
            Err(SimError::PoisonedMemory { .. })
        ));
        let mut buf = [0u8; 8];
        assert!(m.read_bytes(a, &mut buf).is_err());
        // The word after the poisoned range still works.
        assert_eq!(m.load_u64(a.offset(16)).unwrap(), 0);
        m.scrub(a, 16);
        assert!(!m.is_poisoned(a, 16));
        assert_eq!(m.load_u64(a).unwrap(), 0, "scrub zeroes repaired words");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn clean_case_never_takes_poison_lock() {
        let m = GlobalMemory::new(256);
        let a = m.alloc(64, 8).unwrap();
        m.store_u64(a, 1).unwrap();
        m.load_u64(a).unwrap();
        m.fetch_add_u64(a, 1).unwrap();
        m.compare_exchange_u64(a, 2, 3).unwrap();
        let mut buf = [0u8; 64];
        m.read_bytes(a, &mut buf).unwrap();
        m.write_bytes(a, &buf).unwrap();
        assert!(!m.is_poisoned(a, 64));
        // Scrubbing a clean pool (what every checkpoint restore does) is
        // a no-op that must not take the write lock either.
        m.scrub(a, 64);
        assert_eq!(m.load_u64(a).unwrap(), 3, "a clean scrub zeroes nothing");
        assert_eq!(
            m.poison_lock_acquisitions(),
            0,
            "no poison ever injected: every access must stay lock-free"
        );

        // Injecting poison arms the slow path...
        m.poison(a, 8);
        assert!(m.load_u64(a).is_err());
        let armed = m.poison_lock_acquisitions();
        assert!(armed > 0, "poisoned accesses take the set lock");

        // ...and scrubbing the last word restores the lock-free fast
        // path (the count is exact, not a sticky flag).
        m.scrub(a, 8);
        let after_scrub = m.poison_lock_acquisitions();
        m.load_u64(a).unwrap();
        m.read_bytes(a, &mut buf).unwrap();
        assert_eq!(
            m.poison_lock_acquisitions(),
            after_scrub,
            "fully scrubbed pool is lock-free again"
        );
    }

    #[test]
    fn overlapping_poison_and_scrub_keep_exact_count() {
        let m = GlobalMemory::new(256);
        let a = m.alloc(64, 8).unwrap();
        // Poison the same words twice: the count must not double.
        m.poison(a, 16);
        m.poison(a, 16);
        m.scrub(a, 16);
        assert!(!m.is_poisoned(a, 64));
        assert_eq!(m.load_u64(a).unwrap(), 0, "scrubbed and readable");
        // A disjoint poison still blocks after the overlapping scrub.
        m.poison(a.offset(32), 8);
        assert!(m.load_u64(a.offset(32)).is_err());
        assert_eq!(m.load_u64(a).unwrap(), 0);
    }

    #[test]
    fn local_memory_roundtrip() {
        let lm = LocalMemory::new(64);
        let a = lm.alloc(16).unwrap();
        lm.write(a, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        lm.read(a, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        assert!(lm.alloc(128).is_err());
    }

    #[test]
    fn global_memory_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<GlobalMemory>();
        assert_sync::<LocalMemory>();
    }

    #[test]
    fn gaddr_helpers() {
        assert_eq!(GAddr(5).align_up(8), GAddr(8));
        assert_eq!(GAddr(8).align_up(8), GAddr(8));
        assert_eq!(GAddr(10).offset(6), GAddr(16));
        assert_eq!(GAddr(64).to_string(), "g:0x40");
    }

    #[test]
    fn checked_offset_surfaces_overflow() {
        assert_eq!(GAddr(10).checked_offset(6).unwrap(), GAddr(16));
        assert_eq!(GAddr(u64::MAX).checked_offset(0).unwrap(), GAddr(u64::MAX));
        assert!(matches!(
            GAddr(u64::MAX).checked_offset(1),
            Err(SimError::OutOfBounds { .. })
        ));
        assert!(matches!(
            GAddr(u64::MAX - 3).checked_offset(8),
            Err(SimError::OutOfBounds { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn unchecked_offset_panics_on_overflow() {
        let _ = GAddr(u64::MAX).offset(1);
    }

    #[test]
    fn range_checks_near_u64_max_do_not_wrap() {
        let m = GlobalMemory::new(64);
        // These ends wrap past u64::MAX; a wrapping add would make them
        // look in-bounds.
        assert!(matches!(
            m.load_u64(GAddr(u64::MAX - 7)),
            Err(SimError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 16];
        assert!(matches!(
            m.read_bytes(GAddr(u64::MAX - 8), &mut buf),
            Err(SimError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.write_bytes(GAddr(u64::MAX - 8), &buf),
            Err(SimError::OutOfBounds { .. })
        ));
    }
}
