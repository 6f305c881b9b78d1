//! # flacos-fs — the FlacOS memory file system (paper §3.4)
//!
//! A file system built directly on rack-shared memory, with the paper's
//! shared/local partitioning:
//!
//! * **Shared page cache** ([`page_cache`]) — file pages live *once* in
//!   global memory, indexed by an RCU radix tree, so every node serves
//!   file reads from the same single copy (no per-node duplicate caching
//!   of e.g. identical container images). Updates are multi-version:
//!   a write publishes a fresh page version and retires the old one,
//!   which both sidesteps incoherence and gives writeback a stable
//!   snapshot — the "asynchronous handling and multi-version updates"
//!   mechanism the paper adopts.
//! * **Local metadata** ([`meta`]) — inodes and directories are complex
//!   pointer-heavy structures with small random accesses, so they live
//!   in local memory as the state of one `SyncPolicy::Replicated`
//!   [`flacdk::sync::SyncCell`]: reads are node-local, and each node
//!   pays in bulk for replaying the log entries it missed (the bulk
//!   metadata synchronization the paper describes). The cell's log
//!   doubles as the write-ahead journal, §3.4's "integrating journaling
//!   with the synchronization mechanism" — see [`journal`].
//! * **Local block layer** ([`block`]) — a conventional storage device
//!   stays node-local for compatibility; the async [`writeback`] daemon
//!   flushes dirty shared pages to it.
//!
//! [`memfs::MemFs`] is the per-node mount facade tying these together.

pub mod block;
pub mod file;
pub mod journal;
pub mod memfs;
pub mod meta;
pub mod page_cache;
pub mod writeback;

pub use block::BlockDevice;
pub use file::FileHandle;
pub use memfs::{FsShared, MemFs};
pub use meta::{FileKind, InodeAttr};
pub use page_cache::SharedPageCache;
pub use writeback::WritebackDaemon;
