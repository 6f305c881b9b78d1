//! File-system metadata, bulk-synchronized across nodes.
//!
//! Paper §3.4: *"metadata contains a large number of complex data
//! structures (e.g., tree), while access patterns contain a large number
//! of small random memory accesses. FlacOS keeps it locally to improve
//! access efficiency, and uses bulk synchronization to reduce the
//! overhead of cache consistency assurance."*
//!
//! Concretely: [`MetaReplica`] (inode table + directory tree) is the
//! state of one `SyncPolicy::Replicated` [`flacdk::sync::SyncCell`] held
//! in ordinary local memory; mutations are appended to the cell's shared
//! operation log, and the replicated policy charges each node the replay
//! of the entries it has not yet caught up with at its next access. The
//! same log is the write-ahead journal ([`crate::journal`]).

use flacdk::sync::SyncState;
use flacdk::wire::{Decoder, Encoder};
use std::collections::HashMap;

/// Kind of a file-system object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// Inode attributes surfaced by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeAttr {
    /// Inode number.
    pub ino: u64,
    /// Object kind.
    pub kind: FileKind,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// Link count.
    pub nlink: u32,
}

/// The root directory's inode number.
pub const ROOT_INO: u64 = 1;

/// Metadata operation opcodes (logged + journaled).
pub(crate) const OP_CREATE: u8 = 1;
pub(crate) const OP_UNLINK: u8 = 2;
pub(crate) const OP_SET_SIZE: u8 = 3;
pub(crate) const OP_RENAME: u8 = 4;

/// Encode a create op.
pub(crate) fn op_create(parent: u64, name: &str, kind: FileKind) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(OP_CREATE)
        .put_u64(parent)
        .put_str(name)
        .put_u8(match kind {
            FileKind::File => 0,
            FileKind::Dir => 1,
        });
    e.into_vec()
}

/// Encode an unlink op.
pub(crate) fn op_unlink(parent: u64, name: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(OP_UNLINK).put_u64(parent).put_str(name);
    e.into_vec()
}

/// Encode a set-size op.
pub(crate) fn op_set_size(ino: u64, size: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(OP_SET_SIZE).put_u64(ino).put_u64(size);
    e.into_vec()
}

/// Encode a rename op.
pub(crate) fn op_rename(
    src_parent: u64,
    src_name: &str,
    dst_parent: u64,
    dst_name: &str,
) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(OP_RENAME)
        .put_u64(src_parent)
        .put_str(src_name)
        .put_u64(dst_parent)
        .put_str(dst_name);
    e.into_vec()
}

/// The metadata state machine: inode table + directory entries.
///
/// Deterministic by construction: inode numbers are assigned from a
/// counter driven purely by the op sequence, so replaying the journal
/// reproduces the live state exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaReplica {
    inodes: HashMap<u64, InodeAttr>,
    // (parent ino, name) -> child ino
    dentries: HashMap<(u64, String), u64>,
    // parent ino -> child names (for readdir)
    children: HashMap<u64, Vec<String>>,
    next_ino: u64,
}

impl Default for MetaReplica {
    fn default() -> Self {
        let mut inodes = HashMap::new();
        inodes.insert(
            ROOT_INO,
            InodeAttr {
                ino: ROOT_INO,
                kind: FileKind::Dir,
                size: 0,
                nlink: 1,
            },
        );
        MetaReplica {
            inodes,
            dentries: HashMap::new(),
            children: HashMap::new(),
            next_ino: ROOT_INO + 1,
        }
    }
}

impl MetaReplica {
    /// Attributes of inode `ino`.
    pub fn attr(&self, ino: u64) -> Option<InodeAttr> {
        self.inodes.get(&ino).copied()
    }

    /// Child of `parent` named `name`.
    pub fn lookup(&self, parent: u64, name: &str) -> Option<u64> {
        self.dentries.get(&(parent, name.to_string())).copied()
    }

    /// Resolve an absolute `/a/b/c` path to an inode.
    pub fn resolve(&self, path: &str) -> Option<u64> {
        let mut cur = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup(cur, comp)?;
        }
        Some(cur)
    }

    /// Names in directory `parent`, sorted.
    pub fn readdir(&self, parent: u64) -> Vec<String> {
        let mut v = self.children.get(&parent).cloned().unwrap_or_default();
        v.sort();
        v
    }

    /// Number of live inodes (including the root).
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    fn apply_create(&mut self, parent: u64, name: &str, kind: FileKind) {
        if !matches!(
            self.inodes.get(&parent).map(|a| a.kind),
            Some(FileKind::Dir)
        ) {
            return; // parent missing or not a directory: no-op
        }
        if self.dentries.contains_key(&(parent, name.to_string())) {
            return; // already exists: no-op (idempotent create)
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(
            ino,
            InodeAttr {
                ino,
                kind,
                size: 0,
                nlink: 1,
            },
        );
        self.dentries.insert((parent, name.to_string()), ino);
        self.children
            .entry(parent)
            .or_default()
            .push(name.to_string());
    }

    fn apply_unlink(&mut self, parent: u64, name: &str) {
        if let Some(ino) = self.dentries.remove(&(parent, name.to_string())) {
            self.inodes.remove(&ino);
            if let Some(kids) = self.children.get_mut(&parent) {
                kids.retain(|n| n != name);
            }
        }
    }

    fn apply_set_size(&mut self, ino: u64, size: u64) {
        if let Some(attr) = self.inodes.get_mut(&ino) {
            attr.size = size;
        }
    }

    fn apply_rename(&mut self, src_parent: u64, src_name: &str, dst_parent: u64, dst_name: &str) {
        // Destination parent must be an existing directory.
        if !matches!(
            self.inodes.get(&dst_parent).map(|a| a.kind),
            Some(FileKind::Dir)
        ) {
            return;
        }
        let Some(ino) = self.dentries.remove(&(src_parent, src_name.to_string())) else {
            return; // source vanished: no-op (idempotent replay)
        };
        if let Some(kids) = self.children.get_mut(&src_parent) {
            kids.retain(|n| n != src_name);
        }
        // POSIX rename semantics: an existing destination is replaced.
        if let Some(old) = self.dentries.remove(&(dst_parent, dst_name.to_string())) {
            self.inodes.remove(&old);
            if let Some(kids) = self.children.get_mut(&dst_parent) {
                kids.retain(|n| n != dst_name);
            }
        }
        self.dentries
            .insert((dst_parent, dst_name.to_string()), ino);
        self.children
            .entry(dst_parent)
            .or_default()
            .push(dst_name.to_string());
    }
}

impl SyncState for MetaReplica {
    fn apply(&mut self, op: &[u8]) {
        let mut d = Decoder::new(op);
        match d.u8() {
            Ok(OP_CREATE) => {
                let (Ok(parent), Ok(name), Ok(kind)) = (d.u64(), d.bytes(), d.u8()) else {
                    return;
                };
                let Ok(name) = std::str::from_utf8(name) else {
                    return;
                };
                let kind = if kind == 1 {
                    FileKind::Dir
                } else {
                    FileKind::File
                };
                self.apply_create(parent, name, kind);
            }
            Ok(OP_UNLINK) => {
                let (Ok(parent), Ok(name)) = (d.u64(), d.bytes()) else {
                    return;
                };
                if let Ok(name) = std::str::from_utf8(name) {
                    self.apply_unlink(parent, name);
                }
            }
            Ok(OP_SET_SIZE) => {
                if let (Ok(ino), Ok(size)) = (d.u64(), d.u64()) {
                    self.apply_set_size(ino, size);
                }
            }
            Ok(OP_RENAME) => {
                let (Ok(sp), Ok(sn), Ok(dp), Ok(dn)) = (d.u64(), d.bytes(), d.u64(), d.bytes())
                else {
                    return;
                };
                if let (Ok(sn), Ok(dn)) = (std::str::from_utf8(sn), std::str::from_utf8(dn)) {
                    let (sn, dn) = (sn.to_string(), dn.to_string());
                    self.apply_rename(sp, &sn, dp, &dn);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(r: &mut MetaReplica, op: Vec<u8>) {
        r.apply(&op);
    }

    #[test]
    fn create_lookup_resolve() {
        let mut r = MetaReplica::default();
        apply(&mut r, op_create(ROOT_INO, "etc", FileKind::Dir));
        let etc = r.lookup(ROOT_INO, "etc").unwrap();
        apply(&mut r, op_create(etc, "hosts", FileKind::File));
        let hosts = r.resolve("/etc/hosts").unwrap();
        assert_eq!(r.attr(hosts).unwrap().kind, FileKind::File);
        assert_eq!(r.resolve("/etc"), Some(etc));
        assert_eq!(r.resolve("/"), Some(ROOT_INO));
        assert_eq!(r.resolve("/missing"), None);
    }

    #[test]
    fn duplicate_create_is_idempotent() {
        let mut r = MetaReplica::default();
        apply(&mut r, op_create(ROOT_INO, "f", FileKind::File));
        let ino = r.resolve("/f").unwrap();
        apply(&mut r, op_create(ROOT_INO, "f", FileKind::File));
        assert_eq!(r.resolve("/f"), Some(ino));
        assert_eq!(r.inode_count(), 2);
    }

    #[test]
    fn create_under_file_is_noop() {
        let mut r = MetaReplica::default();
        apply(&mut r, op_create(ROOT_INO, "f", FileKind::File));
        let f = r.resolve("/f").unwrap();
        apply(&mut r, op_create(f, "child", FileKind::File));
        assert_eq!(r.resolve("/f/child"), None);
    }

    #[test]
    fn unlink_removes_entry_and_inode() {
        let mut r = MetaReplica::default();
        apply(&mut r, op_create(ROOT_INO, "f", FileKind::File));
        let ino = r.resolve("/f").unwrap();
        apply(&mut r, op_unlink(ROOT_INO, "f"));
        assert_eq!(r.resolve("/f"), None);
        assert_eq!(r.attr(ino), None);
        assert!(r.readdir(ROOT_INO).is_empty());
    }

    #[test]
    fn set_size_updates_attr() {
        let mut r = MetaReplica::default();
        apply(&mut r, op_create(ROOT_INO, "f", FileKind::File));
        let ino = r.resolve("/f").unwrap();
        apply(&mut r, op_set_size(ino, 12345));
        assert_eq!(r.attr(ino).unwrap().size, 12345);
        apply(&mut r, op_set_size(999, 1)); // unknown ino: no-op
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut r = MetaReplica::default();
        r.apply(&op_create(ROOT_INO, "dir", FileKind::Dir));
        let dir = r.resolve("/dir").unwrap();
        r.apply(&op_create(ROOT_INO, "a", FileKind::File));
        let a = r.resolve("/a").unwrap();
        r.apply(&op_set_size(a, 55));

        // Move + rename into the directory.
        r.apply(&op_rename(ROOT_INO, "a", dir, "b"));
        assert_eq!(r.resolve("/a"), None);
        assert_eq!(r.resolve("/dir/b"), Some(a));
        assert_eq!(r.attr(a).unwrap().size, 55, "inode unchanged");

        // Rename over an existing destination replaces it.
        r.apply(&op_create(dir, "c", FileKind::File));
        let c = r.resolve("/dir/c").unwrap();
        r.apply(&op_rename(dir, "b", dir, "c"));
        assert_eq!(r.resolve("/dir/c"), Some(a));
        assert_eq!(r.attr(c), None, "replaced inode dropped");
        assert_eq!(r.readdir(dir), vec!["c"]);

        // Renaming a missing source or into a missing dir is a no-op.
        r.apply(&op_rename(dir, "ghost", dir, "x"));
        r.apply(&op_rename(dir, "c", 9999, "x"));
        assert_eq!(r.resolve("/dir/c"), Some(a));
    }

    #[test]
    fn readdir_sorted() {
        let mut r = MetaReplica::default();
        for name in ["zeta", "alpha", "mid"] {
            apply(&mut r, op_create(ROOT_INO, name, FileKind::File));
        }
        assert_eq!(r.readdir(ROOT_INO), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn two_replicas_converge_on_same_op_sequence() {
        let ops = vec![
            op_create(ROOT_INO, "a", FileKind::Dir),
            op_create(ROOT_INO, "b", FileKind::File),
            op_create(2, "x", FileKind::File),
            op_set_size(3, 77),
            op_unlink(ROOT_INO, "b"),
        ];
        let mut r1 = MetaReplica::default();
        let mut r2 = MetaReplica::default();
        for op in &ops {
            r1.apply(op);
        }
        for op in &ops {
            r2.apply(op);
        }
        assert_eq!(r1.inode_count(), r2.inode_count());
        assert_eq!(r1.resolve("/a/x"), r2.resolve("/a/x"));
        assert_eq!(r1.readdir(ROOT_INO), r2.readdir(ROOT_INO));
    }
}
