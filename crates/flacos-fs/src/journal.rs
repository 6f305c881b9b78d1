//! Journaling integrated with the synchronization mechanism.
//!
//! Paper §3.4: *"we expect to enhance journaling in FlacOS to
//! simultaneously improve reliability and scalability by integrating it
//! with synchronization mechanism."* In this implementation the
//! integration is total: the committed-op **log** of the metadata
//! [`flacdk::sync::SyncCell`] *is* the write-ahead journal. Every
//! metadata mutation is durable in global memory (committed log slot)
//! before it is folded into the metadata, so recovering a node — or
//! checking a fresh one — is simply replaying the log.

use crate::memfs::FsShared;
use crate::meta::MetaReplica;
use rack_sim::{NodeCtx, SimError};

/// Rebuild file-system metadata by replaying the journal from its head
/// ([`flacdk::sync::SyncCell::replay`]).
///
/// A slot claimed by a node that crashed before committing it is a hole:
/// its op was never acknowledged to anyone, so replay skips it and goes
/// on with the committed entries after it, exactly as the live metadata
/// did. Returns the recovered metadata and the number of committed
/// entries replayed (holes not counted).
///
/// The caller must ensure the journal has not been truncated past state
/// it needs (FlacOS only advances the journal head after a metadata
/// checkpoint, which this prototype does not take — so the journal
/// retains the full history and recovery is always total).
///
/// # Errors
///
/// Propagates memory errors.
pub fn recover_meta(ctx: &NodeCtx, shared: &FsShared) -> Result<(MetaReplica, u64), SimError> {
    shared.meta().replay(ctx, MetaReplica::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockDevice;
    use crate::memfs::MemFs;
    use flacdk::alloc::GlobalAllocator;
    use flacdk::sync::rcu::EpochManager;
    use flacdk::sync::reclaim::RetireList;
    use rack_sim::{Rack, RackConfig};
    use std::sync::Arc;

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
    fn journal_replay_recovers_metadata() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared.clone(), rack.node(0));
        fs.mkdir("/srv").unwrap();
        fs.write_file("/srv/app.conf", b"threads=8").unwrap();
        fs.write_file("/srv/data.bin", &vec![1u8; 5000]).unwrap();
        fs.unlink("/srv/app.conf").unwrap();

        // Node 0 "crashes": rebuild purely from the journal on node 1.
        let (recovered, replayed) = recover_meta(&rack.node(1), &shared).unwrap();
        assert!(replayed >= 4);
        assert_eq!(recovered.resolve("/srv/app.conf"), None);
        let data_ino = recovered.resolve("/srv/data.bin").unwrap();
        assert_eq!(recovered.attr(data_ino).unwrap().size, 5000);
        assert_eq!(
            recovered.readdir(recovered.resolve("/srv").unwrap()),
            vec!["data.bin"]
        );
    }

    #[test]
    fn recovered_replica_matches_live_replica() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared.clone(), rack.node(0));
        for i in 0..20 {
            fs.write_file(&format!("/f{i}"), &[i as u8]).unwrap();
        }
        let live = fs
            .with_meta(|m| (m.inode_count(), m.readdir(crate::meta::ROOT_INO)))
            .unwrap();
        let (recovered, _) = recover_meta(&rack.node(1), &shared).unwrap();
        assert_eq!(
            (
                recovered.inode_count(),
                recovered.readdir(crate::meta::ROOT_INO)
            ),
            live
        );
    }

    #[test]
    fn a_crashed_appenders_hole_wedges_no_mount_and_replay_skips_it() {
        let (rack, shared) = setup();
        let mut fs0 = MemFs::mount(shared.clone(), rack.node(0));
        let mut fs1 = MemFs::mount(shared.clone(), rack.node(1));
        fs0.mkdir("/a").unwrap();
        // Node 1 claims the next journal slot and dies before committing
        // it: the slot's flag word (first word of a 256-byte slot) stays
        // clear.
        let log = shared.meta().op_log();
        let idx = log
            .append_batch(&rack.node(1), &[b"never-committed"])
            .unwrap();
        let slot = log.base().offset(idx % log.capacity() * 256);
        rack.global().store_u64(slot, 0).unwrap();

        fs0.write_file("/a/x", b"x").unwrap();
        fs0.write_file("/a/y", b"y").unwrap();
        let (recovered, replayed) = recover_meta(&rack.node(1), &shared).unwrap();
        assert_eq!(replayed, 5, "mkdir + 2×(create+set_size); the hole skipped");
        assert!(recovered.resolve("/a/y").is_some());
        assert_eq!(fs1.stat("/a/y").unwrap().map(|a| a.size), Some(1));
        fs1.mkdir("/b").unwrap();
        assert!(fs0.resolve("/b").unwrap().is_some());
    }

    #[test]
    fn journal_info_reports_depth() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared.clone(), rack.node(0));
        let (n0, journal) = (rack.node(0), shared.meta().op_log());
        let before = journal.tail(&n0).unwrap();
        fs.mkdir("/x").unwrap();
        fs.write_file("/x/y", b"z").unwrap();
        // mkdir + create + set_size = 3 entries, none trimmed.
        assert_eq!(journal.tail(&n0).unwrap() - before, 3);
        assert_eq!(journal.head(&n0).unwrap(), 0);
    }
}
