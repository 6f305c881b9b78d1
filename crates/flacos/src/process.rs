//! Processes: applications wrapped in fault boxes.
//!
//! A FlacOS process couples an application's execution with its
//! vertically consolidated state ([`flacos_fault::FaultBox`]) and its
//! redundancy protection. Because every byte the process owns is in
//! global memory behind the box, the process can run on — and migrate
//! between — any node of the rack.

use flacos_fault::fault_box::FaultBox;
use flacos_fault::redundancy::Protection;
use rack_sim::{NodeCtx, NodeId, SimError};
use std::sync::Arc;

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Eligible to run.
    Ready,
    /// Currently executing.
    Running,
    /// Its state was found faulty; awaiting recovery.
    Failed,
    /// Finished.
    Exited,
}

/// A running application and its consolidated state.
#[derive(Debug)]
pub struct Process {
    pid: u64,
    fbox: FaultBox,
    protection: Protection,
    state: ProcessState,
}

impl Process {
    /// Wrap a built fault box and its protection into a process.
    pub fn new(pid: u64, fbox: FaultBox, protection: Protection) -> Self {
        Process {
            pid,
            fbox,
            protection,
            state: ProcessState::Ready,
        }
    }

    /// Process identifier.
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ProcessState {
        self.state
    }

    /// Node currently hosting the process.
    pub fn home(&self) -> NodeId {
        self.fbox.home()
    }

    /// The process's fault box.
    pub fn fault_box(&self) -> &FaultBox {
        &self.fbox
    }

    /// The redundancy protection guarding this process.
    pub fn protection(&self) -> &Protection {
        &self.protection
    }

    /// Execute `work` against the process's address space on `ctx`,
    /// transitioning Ready → Running → Ready.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if the process is not `Ready` or runs on a
    /// node other than its home; `work` errors mark it `Failed`.
    pub fn run<T>(
        &mut self,
        ctx: &Arc<NodeCtx>,
        work: impl FnOnce(&Arc<NodeCtx>, &FaultBox) -> Result<T, SimError>,
    ) -> Result<T, SimError> {
        if self.state != ProcessState::Ready {
            return Err(SimError::Protocol(format!(
                "process {} not runnable in state {:?}",
                self.pid, self.state
            )));
        }
        if ctx.id() != self.fbox.home() {
            return Err(SimError::Protocol(format!(
                "process {} lives on {}, not {}",
                self.pid,
                self.fbox.home(),
                ctx.id()
            )));
        }
        self.state = ProcessState::Running;
        match work(ctx, &self.fbox) {
            Ok(v) => {
                self.state = ProcessState::Ready;
                Ok(v)
            }
            Err(e) => {
                self.state = ProcessState::Failed;
                Err(e)
            }
        }
    }

    /// Capture protection state now (checkpoint / replica refresh),
    /// regardless of the periodic schedule — call this at consistency
    /// points after committing important state.
    ///
    /// # Errors
    ///
    /// Propagates capture errors.
    pub fn protect_now(&mut self, ctx: &Arc<NodeCtx>) -> Result<bool, SimError> {
        self.protection.force_capture(ctx, &self.fbox)?;
        Ok(true)
    }

    /// Restore the process's full state from its protection and return
    /// it to `Ready`.
    ///
    /// # Errors
    ///
    /// Propagates restore errors.
    pub fn recover(&mut self, ctx: &Arc<NodeCtx>) -> Result<usize, SimError> {
        let restored = self.protection.restore_all(ctx, &self.fbox)?;
        self.state = ProcessState::Ready;
        Ok(restored)
    }

    /// Migrate the process to another node (state stays in place; only
    /// ownership moves).
    ///
    /// # Errors
    ///
    /// Propagates migration errors.
    pub fn migrate(&mut self, from: &NodeCtx, to: &NodeCtx) -> Result<(), SimError> {
        self.fbox.migrate(from, to)
    }

    /// Mark the process finished.
    pub fn exit(&mut self) {
        self.state = ProcessState::Exited;
    }
}
