//! The per-node file-system facade.
//!
//! [`FsShared`] is the rack-shared half (metadata sync cell, whose log
//! is the journal; shared page cache; backing device); [`MemFs`] is one
//! node's mount: handles onto the shared structures, through which every
//! metadata access is one `read` or `update_map` on the metadata cell.
//! All nodes mounting the same [`FsShared`] see one file system with one
//! page cache copy.

use crate::block::BlockDevice;
use crate::meta::{op_create, op_rename, op_set_size, op_unlink, FileKind, InodeAttr, MetaReplica};
use crate::page_cache::SharedPageCache;
use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy};
use flacos_mem::PAGE_SIZE;
use rack_sim::{GlobalMemory, NodeCtx, SimError};
use std::sync::Arc;

/// The rack-shared parts of one file system instance.
#[derive(Debug)]
pub struct FsShared {
    meta: Arc<SyncCell<MetaReplica>>,
    cache: Arc<SharedPageCache>,
    device: Arc<BlockDevice>,
}

impl FsShared {
    /// Allocate the shared structures for `nodes` mounting nodes.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc(
        global: &GlobalMemory,
        nodes: usize,
        alloc: GlobalAllocator,
        epochs: Arc<EpochManager>,
        retired: RetireList,
        device: Arc<BlockDevice>,
    ) -> Result<Arc<Self>, SimError> {
        // Metadata ops are small; 4096 entries × 256 B covers busy tests
        // and experiments between journal truncations.
        let meta = SyncCell::alloc(
            global,
            "fs_meta",
            SyncCellConfig::new(nodes, SyncPolicy::Replicated).with_log(4096, 256),
            MetaReplica::default(),
        )?;
        let cache = SharedPageCache::alloc(global, alloc, epochs, retired)?;
        Ok(Arc::new(FsShared {
            meta,
            cache,
            device,
        }))
    }

    /// The metadata cell; its committed-op log is the journal.
    pub fn meta(&self) -> &Arc<SyncCell<MetaReplica>> {
        &self.meta
    }

    /// The shared page cache.
    pub fn cache(&self) -> &Arc<SharedPageCache> {
        &self.cache
    }

    /// The backing block device.
    pub fn device(&self) -> &Arc<BlockDevice> {
        &self.device
    }
}

/// One node's mount of a FlacOS file system.
#[derive(Debug)]
pub struct MemFs {
    shared: Arc<FsShared>,
    node: Arc<NodeCtx>,
}

impl MemFs {
    /// Mount `shared` on `node`.
    pub fn mount(shared: Arc<FsShared>, node: Arc<NodeCtx>) -> Self {
        MemFs { shared, node }
    }

    /// The node this mount runs on.
    pub fn node(&self) -> &Arc<NodeCtx> {
        &self.node
    }

    /// Check a restarted node's view of the metadata: replay the journal
    /// from scratch and compare the result with the live metadata.
    /// Returns the number of journal entries replayed.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if the replayed metadata differs from the
    /// live metadata; memory errors from journal replay are propagated.
    pub fn recover(&mut self) -> Result<u64, SimError> {
        let (replayed, entries) = crate::journal::recover_meta(&self.node, &self.shared)?;
        if !self.shared.meta.peek(|live| *live == replayed) {
            return Err(SimError::Protocol(format!(
                "journal replay of {entries} entries differs from the live metadata"
            )));
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "cold path: journal replay runs once per crash/restart, not per op"
        )]
        {
            let reg = self.node.stats().registry();
            reg.add("fs", "journal_replays", 1);
            reg.add("fs", "journal_entries_replayed", entries);
        }
        Ok(entries)
    }

    /// The shared half of this file system.
    pub fn shared(&self) -> &Arc<FsShared> {
        &self.shared
    }

    /// Run `f` on the metadata through the cell's replicated read path.
    fn read_meta<T>(&self, f: impl FnOnce(&MetaReplica) -> T) -> Result<T, SimError> {
        self.shared.meta.read(&self.node, f)
    }

    /// Commit one metadata op to the journal and fold it in.
    fn update_meta(&self, op: &[u8]) -> Result<(), SimError> {
        self.shared.meta.update(&self.node, op).map(drop)
    }

    /// Split `path` into its parent directory path and final component.
    fn split_parent(path: &str) -> Result<(&str, &str), SimError> {
        let path = path.trim_end_matches('/');
        let idx = path
            .rfind('/')
            .ok_or_else(|| SimError::Protocol(format!("path {path:?} is not absolute")))?;
        let name = &path[idx + 1..];
        if name.is_empty() {
            return Err(SimError::Protocol(format!(
                "path {path:?} has no final component"
            )));
        }
        Ok((&path[..idx], name))
    }

    /// Resolve the parent directory of `path`, returning its inode and
    /// the final component.
    fn parent_of<'p>(&self, path: &'p str) -> Result<(u64, &'p str), SimError> {
        let (parent_path, name) = Self::split_parent(path)?;
        let parent = self
            .read_meta(|m| m.resolve(parent_path))?
            .ok_or_else(|| SimError::Protocol(format!("parent of {path:?} not found")))?;
        Ok((parent, name))
    }

    fn create_kind(&mut self, path: &str, kind: FileKind) -> Result<u64, SimError> {
        let (parent, name) = self.parent_of(path)?;
        let (_, ino) =
            self.shared
                .meta
                .update_map(&self.node, &op_create(parent, name, kind), |m| {
                    m.lookup(parent, name)
                })?;
        ino.ok_or_else(|| SimError::Protocol(format!("create of {path:?} did not take effect")))
    }

    /// Create a regular file, returning its inode number. Idempotent.
    ///
    /// # Errors
    ///
    /// Fails on missing parents or malformed paths.
    pub fn create(&mut self, path: &str) -> Result<u64, SimError> {
        self.create_kind(path, FileKind::File)
    }

    /// Create a directory, returning its inode number. Idempotent.
    ///
    /// # Errors
    ///
    /// Fails on missing parents or malformed paths.
    pub fn mkdir(&mut self, path: &str) -> Result<u64, SimError> {
        self.create_kind(path, FileKind::Dir)
    }

    /// Remove the directory entry at `path`.
    ///
    /// # Errors
    ///
    /// Fails on malformed paths or missing parents.
    pub fn unlink(&mut self, path: &str) -> Result<(), SimError> {
        let (parent, name) = self.parent_of(path)?;
        self.update_meta(&op_unlink(parent, name))
    }

    /// Rename/move `src` to `dst` (replacing an existing destination,
    /// as POSIX `rename(2)` does). Both parents must exist.
    ///
    /// # Errors
    ///
    /// Fails on malformed paths or missing sources/parents.
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<(), SimError> {
        let (src_parent_path, src_name) = Self::split_parent(src)?;
        let (dst_parent_path, dst_name) = Self::split_parent(dst)?;
        let (src_parent, dst_parent) = self.read_meta(|m| {
            let src_parent = m
                .resolve(src_parent_path)
                .ok_or_else(|| SimError::Protocol(format!("parent of {src:?} not found")))?;
            let dst_parent = m
                .resolve(dst_parent_path)
                .ok_or_else(|| SimError::Protocol(format!("parent of {dst:?} not found")))?;
            match m.lookup(src_parent, src_name) {
                Some(_) => Ok((src_parent, dst_parent)),
                None => Err(SimError::Protocol(format!("rename of missing {src:?}"))),
            }
        })??;
        self.update_meta(&op_rename(src_parent, src_name, dst_parent, dst_name))
    }

    /// Resolve `path` to an inode number.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn resolve(&mut self, path: &str) -> Result<Option<u64>, SimError> {
        self.read_meta(|m| m.resolve(path))
    }

    /// Attributes of the object at `path`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn stat(&mut self, path: &str) -> Result<Option<InodeAttr>, SimError> {
        self.read_meta(|m| m.resolve(path).and_then(|ino| m.attr(ino)))
    }

    /// Sorted directory listing at `path`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if `path` does not resolve.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, SimError> {
        self.read_meta(|m| m.resolve(path).map(|ino| m.readdir(ino)))?
            .ok_or_else(|| SimError::Protocol(format!("readdir of missing {path:?}")))
    }

    /// Size of file `ino`.
    fn size_of(&self, ino: u64, what: &str) -> Result<u64, SimError> {
        self.read_meta(|m| m.attr(ino).map(|a| a.size))?
            .ok_or_else(|| SimError::Protocol(format!("{what} unknown inode {ino}")))
    }

    /// Write `data` at byte `offset` of file `ino`, growing it as needed.
    ///
    /// # Errors
    ///
    /// Propagates page-cache and log errors.
    pub fn write_at(&mut self, ino: u64, offset: u64, data: &[u8]) -> Result<(), SimError> {
        let cache = self.shared.cache.clone();
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let page_idx = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - in_page).min(data.len() - done);
            let key = SharedPageCache::key(ino, page_idx);
            cache.write_in_page(&self.node, key, in_page, &data[done..done + take])?;
            done += take;
        }
        // Large writes churn page versions and index nodes; recycle what
        // the grace period allows so sustained writes run in bounded
        // memory.
        cache.reclaim(&self.node)?;
        // Grow the file size if we extended it.
        let cur = self.size_of(ino, "write to")?;
        let end = offset + data.len() as u64;
        if end > cur {
            self.update_meta(&op_set_size(ino, end))?;
        }
        Ok(())
    }

    /// Read up to `buf.len()` bytes at `offset` of file `ino`; returns
    /// bytes read (short at end of file). Cache misses fall back to the
    /// backing device and fill the shared cache.
    ///
    /// # Errors
    ///
    /// Propagates page-cache errors.
    pub fn read_at(&mut self, ino: u64, offset: u64, buf: &mut [u8]) -> Result<usize, SimError> {
        let size = self.size_of(ino, "read of")?;
        if offset >= size {
            return Ok(0);
        }
        let want = buf.len().min((size - offset) as usize);
        let cache = self.shared.cache.clone();
        let mut done = 0usize;
        let mut page = vec![0u8; PAGE_SIZE];
        while done < want {
            let pos = offset + done as u64;
            let page_idx = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - in_page).min(want - done);
            let key = SharedPageCache::key(ino, page_idx);
            if cache.read_page(&self.node, key, &mut page)? {
                // served from the shared cache
            } else if let Some(stored) = self.shared.device.read_page(&self.node, key) {
                page.copy_from_slice(&stored);
                cache.insert_page(&self.node, key, &page, true)?;
            } else {
                page.fill(0); // sparse hole
            }
            buf[done..done + take].copy_from_slice(&page[in_page..in_page + take]);
            done += take;
        }
        Ok(want)
    }

    /// Convenience: read a whole file.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if `path` is missing.
    pub fn read_file(&mut self, path: &str) -> Result<Vec<u8>, SimError> {
        let attr = self
            .stat(path)?
            .ok_or_else(|| SimError::Protocol(format!("read of missing {path:?}")))?;
        let mut buf = vec![0u8; attr.size as usize];
        let n = self.read_at(attr.ino, 0, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Convenience: create (if needed) and write a whole file.
    ///
    /// # Errors
    ///
    /// Propagates create/write errors.
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> Result<u64, SimError> {
        let ino = self.create(path)?;
        self.write_at(ino, 0, data)?;
        Ok(ino)
    }

    /// Run `f` on the metadata through the replicated read path
    /// (diagnostics and helpers such as [`crate::FileHandle::append`]).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn with_meta<T>(&mut self, f: impl FnOnce(&MetaReplica) -> T) -> Result<T, SimError> {
        self.read_meta(f)
    }

    /// Map the file at `path` **read-only** into `space` starting at
    /// virtual page `base_vpn`, returning the number of pages mapped.
    ///
    /// This is the mechanism behind rack-wide rootfs/image sharing: the
    /// PTEs point straight at the shared page cache's frames, so every
    /// address space on every node maps the *same single copy*. Pages
    /// not yet resident are faulted in from the backing device first.
    ///
    /// The mapping is a snapshot of the current page versions: a later
    /// `write_at` publishes fresh frames into the cache, and mapped
    /// spaces keep reading the (retired-but-pinned-by-mapping) old
    /// version until remapped — callers that need write visibility must
    /// re-`mmap` and shoot down TLBs, exactly as on real hardware.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if `path` is missing or is a directory.
    pub fn mmap(
        &mut self,
        space: &flacos_mem::AddressSpace,
        path: &str,
        base_vpn: u64,
    ) -> Result<u64, SimError> {
        let attr = self
            .stat(path)?
            .ok_or_else(|| SimError::Protocol(format!("mmap of missing {path:?}")))?;
        if attr.kind != crate::meta::FileKind::File {
            return Err(SimError::Protocol(format!("mmap of non-file {path:?}")));
        }
        let pages = attr.size.div_ceil(PAGE_SIZE as u64);
        let cache = self.shared.cache.clone();
        let mut scratch = vec![0u8; 1];
        for p in 0..pages {
            let key = SharedPageCache::key(attr.ino, p);
            // Fault the page into the shared cache if absent (device or
            // sparse-zero fill), then map its frame.
            if cache.lookup(&self.node, key)?.is_none() {
                self.read_at(attr.ino, p * PAGE_SIZE as u64, &mut scratch)?;
            }
            let frame = match cache.lookup(&self.node, key)? {
                Some(f) => f,
                None => {
                    // Sparse hole: materialize a shared zero page.
                    cache.insert_page(&self.node, key, &[0u8; PAGE_SIZE], true)?
                }
            };
            space.map(
                &self.node,
                base_vpn + p,
                flacos_mem::page_table::Pte::new(flacos_mem::PhysFrame::Global(frame), false),
            )?;
        }
        Ok(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, Arc<FsShared>) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(64 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let shared = FsShared::alloc(
            rack.global(),
            rack.node_count(),
            alloc,
            epochs,
            RetireList::new(),
            Arc::new(BlockDevice::nvme(rack.global(), rack.node_count()).unwrap()),
        )
        .unwrap();
        (rack, shared)
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared, rack.node(0));
        fs.mkdir("/data").unwrap();
        let ino = fs.write_file("/data/hello.txt", b"hello flacos").unwrap();
        assert_eq!(fs.stat("/data/hello.txt").unwrap().unwrap().size, 12);
        assert_eq!(fs.read_file("/data/hello.txt").unwrap(), b"hello flacos");
        assert_eq!(fs.stat("/data/hello.txt").unwrap().unwrap().ino, ino);
    }

    #[test]
    fn file_written_on_one_node_read_on_another() {
        let (rack, shared) = setup();
        let mut fs0 = MemFs::mount(shared.clone(), rack.node(0));
        let mut fs1 = MemFs::mount(shared.clone(), rack.node(1));
        fs0.write_file("/shared.bin", &vec![42u8; 10_000]).unwrap();

        let data = fs1.read_file("/shared.bin").unwrap();
        assert_eq!(data.len(), 10_000);
        assert!(data.iter().all(|&b| b == 42));
        // The page content exists once: node 1's reads hit the same
        // shared frames, not copies.
        assert_eq!(shared.cache().resident_pages(), 3, "ceil(10000/4096) pages");
    }

    #[test]
    fn cold_read_falls_back_to_device() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared.clone(), rack.node(0));
        let ino = fs
            .write_file("/cold.bin", &vec![7u8; PAGE_SIZE * 2])
            .unwrap();
        // Persist and drop from cache.
        let wb = crate::writeback::WritebackDaemon::new(
            rack.global(),
            rack.node_count(),
            shared.cache().clone(),
            shared.device().clone(),
        )
        .unwrap();
        wb.flush_all(&rack.node(0)).unwrap();
        for i in 0..2 {
            shared
                .cache()
                .evict(&rack.node(0), SharedPageCache::key(ino, i))
                .unwrap();
        }
        assert_eq!(shared.cache().resident_pages(), 0);

        let data = fs.read_file("/cold.bin").unwrap();
        assert_eq!(data.len(), PAGE_SIZE * 2);
        assert!(data.iter().all(|&b| b == 7));
        assert_eq!(shared.cache().resident_pages(), 2, "refilled from device");
    }

    #[test]
    fn sparse_files_read_zeros() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared, rack.node(0));
        let ino = fs.create("/sparse").unwrap();
        fs.write_at(ino, PAGE_SIZE as u64 * 3, b"tail").unwrap();
        let mut buf = vec![9u8; 8];
        assert_eq!(fs.read_at(ino, 0, &mut buf).unwrap(), 8);
        assert_eq!(buf, vec![0u8; 8]);
        assert_eq!(
            fs.stat("/sparse").unwrap().unwrap().size,
            PAGE_SIZE as u64 * 3 + 4
        );
    }

    #[test]
    fn unlink_and_readdir() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared, rack.node(0));
        fs.write_file("/a", b"1").unwrap();
        fs.write_file("/b", b"2").unwrap();
        assert_eq!(fs.readdir("/").unwrap(), vec!["a", "b"]);
        fs.unlink("/a").unwrap();
        assert_eq!(fs.readdir("/").unwrap(), vec!["b"]);
        assert!(fs.stat("/a").unwrap().is_none());
    }

    #[test]
    fn metadata_converges_across_mounts() {
        let (rack, shared) = setup();
        let mut fs0 = MemFs::mount(shared.clone(), rack.node(0));
        let mut fs1 = MemFs::mount(shared, rack.node(1));
        fs0.mkdir("/from0").unwrap();
        fs1.mkdir("/from1").unwrap();
        assert_eq!(fs0.readdir("/").unwrap(), vec!["from0", "from1"]);
        assert_eq!(fs1.readdir("/").unwrap(), vec!["from0", "from1"]);
        // Both resolve the same inode numbers (deterministic replay).
        assert_eq!(
            fs0.resolve("/from1").unwrap(),
            fs1.resolve("/from1").unwrap()
        );
    }

    #[test]
    fn bad_paths_rejected() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared, rack.node(0));
        assert!(fs.create("relative").is_err());
        assert!(fs.create("/missing/parent/file").is_err());
        assert!(fs.readdir("/nope").is_err());
        assert!(fs.read_file("/nope").is_err());
    }

    #[test]
    fn mmap_shares_page_cache_frames_across_spaces() {
        use flacdk::sync::reclaim::RetireList;
        use flacos_mem::{AddressSpace, VirtAddr, PAGE_SIZE};

        let (rack, shared) = setup();
        let mut fs0 = MemFs::mount(shared.clone(), rack.node(0));
        let mut fs1 = MemFs::mount(shared.clone(), rack.node(1));
        let content: Vec<u8> = (0..PAGE_SIZE * 2 + 100).map(|i| (i % 251) as u8).collect();
        fs0.write_file("/lib.so", &content).unwrap();

        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let space0 = AddressSpace::alloc(
            1,
            rack.global(),
            alloc.clone(),
            epochs.clone(),
            RetireList::new(),
        )
        .unwrap();
        let space1 =
            AddressSpace::alloc(2, rack.global(), alloc, epochs, RetireList::new()).unwrap();

        let pages = fs0.mmap(&space0, "/lib.so", 100).unwrap();
        assert_eq!(pages, 3);
        let pages = fs1.mmap(&space1, "/lib.so", 200).unwrap();
        assert_eq!(pages, 3);

        // Both spaces on both nodes read the file content through memory.
        let mut buf = vec![0u8; 300];
        space0
            .read(
                &rack.node(0),
                VirtAddr::from_vpn(100).offset(4000),
                &mut buf,
            )
            .unwrap();
        assert_eq!(buf, content[4000..4300]);
        space1
            .read(
                &rack.node(1),
                VirtAddr::from_vpn(200).offset(4000),
                &mut buf,
            )
            .unwrap();
        assert_eq!(buf, content[4000..4300]);

        // And they map the very same frames — one copy rack-wide.
        let pte0 = space0
            .translate(&rack.node(0), VirtAddr::from_vpn(101))
            .unwrap()
            .unwrap();
        let pte1 = space1
            .translate(&rack.node(1), VirtAddr::from_vpn(201))
            .unwrap()
            .unwrap();
        assert_eq!(pte0.frame, pte1.frame);
        assert!(!pte0.writable, "mappings are read-only");
        assert!(space0
            .write(&rack.node(0), VirtAddr::from_vpn(100), b"x")
            .is_err());
    }

    #[test]
    fn mmap_rejects_directories_and_missing_paths() {
        use flacdk::sync::reclaim::RetireList;
        use flacos_mem::AddressSpace;

        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared, rack.node(0));
        fs.mkdir("/dir").unwrap();
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let space =
            AddressSpace::alloc(1, rack.global(), alloc, epochs, RetireList::new()).unwrap();
        assert!(fs.mmap(&space, "/dir", 0).is_err());
        assert!(fs.mmap(&space, "/missing", 0).is_err());
    }

    #[test]
    fn rename_is_visible_on_every_mount_and_keeps_data() {
        let (rack, shared) = setup();
        let mut fs0 = MemFs::mount(shared.clone(), rack.node(0));
        let mut fs1 = MemFs::mount(shared, rack.node(1));
        fs0.mkdir("/new").unwrap();
        fs0.write_file("/old-name", b"same bytes").unwrap();

        fs0.rename("/old-name", "/new/better-name").unwrap();
        assert!(fs1.stat("/old-name").unwrap().is_none());
        assert_eq!(fs1.read_file("/new/better-name").unwrap(), b"same bytes");
        assert!(fs1.rename("/ghost", "/x").is_err());
    }

    #[test]
    fn journal_replay_on_restart_recovers_committed_files() {
        let (rack, shared) = setup();
        let mut fs0 = MemFs::mount(shared.clone(), rack.node(0));
        fs0.mkdir("/srv").unwrap();
        fs0.write_file("/srv/ledger", b"balance=42").unwrap();
        fs0.write_file("/srv/log", b"boot ok").unwrap();

        // Node 0 crashes, then restarts. The fresh mount replays the
        // journal and finds it equal to the live metadata.
        rack.faults().crash_node(rack.node(0).id(), 1_000);
        rack.faults().restart_node(rack.node(0).id(), 2_000);
        let mut fs0b = MemFs::mount(shared.clone(), rack.node(0));
        let replayed = fs0b.recover().unwrap();
        assert!(replayed >= 5, "mkdir + 2×(create+set_size) = 5 entries");

        assert_eq!(fs0b.read_file("/srv/ledger").unwrap(), b"balance=42");
        assert_eq!(fs0b.read_file("/srv/log").unwrap(), b"boot ok");
        assert_eq!(fs0b.readdir("/srv").unwrap(), vec!["ledger", "log"]);

        // The recovered mount keeps working: new writes land and are
        // visible to other mounts without double-applying old entries.
        fs0b.write_file("/srv/after", b"post-restart").unwrap();
        let mut fs1 = MemFs::mount(shared, rack.node(1));
        assert_eq!(fs1.read_file("/srv/after").unwrap(), b"post-restart");
        assert_eq!(fs1.readdir("/srv").unwrap(), vec!["after", "ledger", "log"]);
    }

    #[test]
    fn recover_rejects_a_journal_that_disagrees_with_the_live_metadata() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared.clone(), rack.node(0));
        fs.mkdir("/srv").unwrap();
        // An entry committed behind the cell's back (zeroed frame, then
        // the op) is in the journal but not yet in the live metadata.
        let mut entry = vec![0u8; flacdk::sync::FRAME_BYTES];
        entry.extend(op_create(crate::meta::ROOT_INO, "ghost", FileKind::File));
        let log = shared.meta().op_log();
        log.append_batch(&rack.node(1), &[entry]).unwrap();
        assert!(matches!(fs.recover(), Err(SimError::Protocol(_))));
    }

    #[test]
    fn longest_name_fits_one_journal_slot() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared.clone(), rack.node(0));
        // A 256-byte slot holds 240 payload bytes: the cell's 8-byte
        // frame plus a create op of 14 bytes and the name.
        let longest = format!("/{}", "n".repeat(218));
        let ino = fs.create(&longest).unwrap();
        assert_eq!(fs.resolve(&longest).unwrap(), Some(ino));
        let before = shared.meta().peek(MetaReplica::clone);
        let too_long = format!("/{}", "m".repeat(219));
        assert!(matches!(fs.create(&too_long), Err(SimError::Protocol(_))));
        assert_eq!(shared.meta().peek(MetaReplica::clone), before);
    }

    #[test]
    fn overwrite_within_file_keeps_size() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared, rack.node(0));
        let ino = fs.write_file("/f", b"0123456789").unwrap();
        fs.write_at(ino, 2, b"XX").unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"01XX456789");
        assert_eq!(fs.stat("/f").unwrap().unwrap().size, 10);
    }
}
