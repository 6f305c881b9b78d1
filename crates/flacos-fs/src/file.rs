//! Cursor-style file handles over [`crate::memfs::MemFs`].

use crate::memfs::MemFs;
use rack_sim::SimError;

/// An open file with a position cursor. Handles are plain values: they
/// hold no locks and become stale only if the file is unlinked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHandle {
    ino: u64,
    pos: u64,
}

impl FileHandle {
    /// Open the file at `path` (must exist).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if the path does not resolve to a file.
    pub fn open(fs: &mut MemFs, path: &str) -> Result<Self, SimError> {
        let attr = fs
            .stat(path)?
            .ok_or_else(|| SimError::Protocol(format!("open of missing {path:?}")))?;
        Ok(FileHandle {
            ino: attr.ino,
            pos: 0,
        })
    }

    /// Open, creating the file if absent.
    ///
    /// # Errors
    ///
    /// Propagates create errors.
    pub fn create(fs: &mut MemFs, path: &str) -> Result<Self, SimError> {
        let ino = fs.create(path)?;
        Ok(FileHandle { ino, pos: 0 })
    }

    /// The file's inode number.
    pub fn ino(&self) -> u64 {
        self.ino
    }

    /// Current cursor position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Read at the cursor, advancing it. Returns bytes read.
    ///
    /// # Errors
    ///
    /// Propagates read errors.
    pub fn read(&mut self, fs: &mut MemFs, buf: &mut [u8]) -> Result<usize, SimError> {
        let n = fs.read_at(self.ino, self.pos, buf)?;
        self.pos += n as u64;
        Ok(n)
    }

    /// Write at the cursor, advancing it.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write(&mut self, fs: &mut MemFs, data: &[u8]) -> Result<(), SimError> {
        fs.write_at(self.ino, self.pos, data)?;
        self.pos += data.len() as u64;
        Ok(())
    }

    /// Append at end of file (cursor moves to the new end).
    ///
    /// # Errors
    ///
    /// Propagates stat/write errors.
    pub fn append(&mut self, fs: &mut MemFs, data: &[u8]) -> Result<(), SimError> {
        let size = fs
            .with_meta(|m| m.attr(self.ino).map(|a| a.size))?
            .ok_or_else(|| SimError::Protocol(format!("append to unknown inode {}", self.ino)))?;
        self.pos = size;
        self.write(fs, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockDevice;
    use crate::memfs::FsShared;
    use flacdk::alloc::GlobalAllocator;
    use flacdk::sync::rcu::EpochManager;
    use flacdk::sync::reclaim::RetireList;
    use rack_sim::{Rack, RackConfig};
    use std::sync::Arc;

    fn fs() -> (Rack, MemFs) {
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
        let memfs = MemFs::mount(shared, rack.node(0));
        (rack, memfs)
    }

    #[test]
    fn sequential_write_then_read() {
        let (_rack, mut fs) = fs();
        let mut h = FileHandle::create(&mut fs, "/log").unwrap();
        h.write(&mut fs, b"line one\n").unwrap();
        h.write(&mut fs, b"line two\n").unwrap();
        assert_eq!(h.position(), 18);

        let mut h = FileHandle::open(&mut fs, "/log").unwrap();
        let mut buf = [0u8; 64];
        let n = h.read(&mut fs, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"line one\nline two\n");
        assert_eq!(h.read(&mut fs, &mut buf).unwrap(), 0, "EOF");
    }

    #[test]
    fn append_goes_to_end_regardless_of_cursor() {
        let (_rack, mut fs) = fs();
        let mut h = FileHandle::create(&mut fs, "/f").unwrap();
        h.write(&mut fs, b"0123456789").unwrap();
        let mut h = FileHandle::open(&mut fs, "/f").unwrap();
        h.read(&mut fs, &mut [0u8; 2]).unwrap();
        assert_eq!(h.position(), 2);
        h.append(&mut fs, b"END").unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"0123456789END");
        assert_eq!(h.position(), 13);
    }

    #[test]
    fn open_missing_fails_open_existing_works() {
        let (_rack, mut fs) = fs();
        assert!(FileHandle::open(&mut fs, "/nope").is_err());
        fs.write_file("/yes", b"data").unwrap();
        let h = FileHandle::open(&mut fs, "/yes").unwrap();
        assert_eq!(h.position(), 0);
        assert!(h.ino() > 0);
    }
}
