//! The one redo applier behind crash, media and point-in-time recovery
//! and the stand-by's managed recovery.
//!
//! A [`RedoApplier`] keeps what replay must remember: the undo of
//! unresolved transactions, the SCN and transaction marks, the counts and
//! the last commit SCN. Every block change, redo and undo alike, passes
//! the one idempotence rule in [`apply_change`], and replay never writes
//! redo. The changes land through a [`BlockSink`]: the foreground buffer
//! cache on the shared clock, or the stand-by's disks in the background.
//!
//! Crash recovery rolls its losers back without redo, and the reopened
//! instance writes new redo after them, so a later replay over the same
//! history still sees them live. It must undo them where crash recovery
//! did — at the address the instance reopened at, which the control file
//! records — and not at the end, where the undo would overwrite rows
//! committed since. The applier rolls its live set back whenever it
//! crosses such an address.

use std::collections::{BTreeMap, VecDeque};

use recobench_sim::SimTime;
use recobench_vfs::{FileId, IoKind};

use crate::error::{DbError, DbResult, RecoveryError};
use crate::page::BlockImage;
use crate::redo::{RedoOp, RedoRecord};
use crate::row::Row;
use crate::server::{BlockKey, DbServer};
use crate::txn::UndoOp;
use crate::types::{FileNo, RedoAddr, Scn, TxnId};

/// Where the applier's block changes land, and who pays for them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockSink {
    /// The instance's own recovery: blocks go through the buffer cache and
    /// every record advances the shared clock by its CPU cost.
    Foreground,
    /// The stand-by's apply: another machine does the work, so reads and
    /// evictions keep the stand-by's disks busy at `at` and the shared
    /// clock never moves. Undo marks blocks dirty at `undo_addr`.
    Background { at: SimTime, undo_addr: RedoAddr },
}

impl BlockSink {
    /// Runs `change` on block `key` and marks the block dirty at `addr` if
    /// it reports a write. A block whose datafile replayed DDL dropped is
    /// gone with its rows and is skipped.
    fn change_block(
        self,
        srv: &mut DbServer,
        key: BlockKey,
        addr: RedoAddr,
        change: impl FnOnce(&mut BlockImage) -> bool,
    ) -> DbResult<()> {
        let inst = srv.inst.as_ref().ok_or(DbError::InstanceDown)?;
        let Some(vfs_id) = inst.catalog.datafiles.get(&key.0).map(|df| df.vfs_id) else {
            return Ok(());
        };
        let at = match self {
            BlockSink::Foreground => {
                srv.ensure_resident_raw(key)?;
                srv.clock.now()
            }
            BlockSink::Background { at, .. } => {
                load_in_background(srv, key, vfs_id, at)?;
                at
            }
        };
        let inst = srv.inst.as_mut().ok_or(DbError::InstanceDown)?;
        let img = inst
            .cache
            .get_mut(key)
            .ok_or(RecoveryError::BlockNotResident { file: key.0, block: key.1 })?;
        if change(img) {
            inst.cache.mark_dirty(key, addr, at);
        }
        Ok(())
    }

    /// Charges one applied record or undo step, or one skipped record.
    fn charge(self, srv: &DbServer, applied: bool) {
        if let BlockSink::Foreground = self {
            let costs = &srv.config.costs;
            srv.clock.advance(if applied { costs.cpu_apply_record } else { costs.cpu_skip_record });
        }
    }

    fn undo_addr(self, srv: &DbServer) -> DbResult<RedoAddr> {
        match self {
            BlockSink::Foreground => Ok(srv.inst.as_ref().ok_or(DbError::InstanceDown)?.redo.tail()),
            BlockSink::Background { undo_addr, .. } => Ok(undo_addr),
        }
    }
}

/// Makes `key` resident on a stand-by: the read and any dirty eviction
/// charge its disks at `at` without moving the shared clock.
fn load_in_background(srv: &mut DbServer, key: BlockKey, vfs_id: FileId, at: SimTime) -> DbResult<()> {
    if srv.inst.as_ref().ok_or(DbError::InstanceDown)?.cache.contains(key) {
        return Ok(());
    }
    let img = {
        let mut fs = srv.fs.lock();
        let bytes = fs.peek_block(vfs_id, key.1 as u64)?;
        let disk = fs.meta(vfs_id)?.disk;
        fs.charge_io(disk, IoKind::Read, bytes.len() as u64, at)?;
        BlockImage::decode(bytes).map_err(|_| DbError::Unrecoverable("stand-by block corrupt".into()))?
    };
    let inst = srv.inst.as_mut().ok_or(DbError::InstanceDown)?;
    if let Some(ev) = inst.cache.insert(key, img).filter(|ev| ev.dirty.is_some()) {
        if let Some(df) = inst.catalog.datafiles.get(&ev.key.0) {
            let mut fs = srv.fs.lock();
            // tidy-allow(write-site-coverage): standby redo-apply eviction targets the standby's own fs; the crash sweep drives the primary only
            fs.write_block(df.vfs_id, ev.key.1 as u64, ev.img.encode(), at)?;
        }
    }
    Ok(())
}

/// Writes `row` into `slot` (or, for `None`, empties it) unless the image
/// already holds a change at or after `scn`. Returns whether it wrote.
fn apply_change(img: &mut BlockImage, slot: u16, row: Option<Row>, scn: Scn) -> bool {
    if img.last_scn < scn {
        match row {
            Some(row) => img.put(slot, row, scn),
            None => img.remove(slot, scn),
        };
        true
    } else {
        false
    }
}

/// Replay state shared by every recovery path; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct RedoApplier {
    /// Undo of each transaction with no commit or rollback record yet.
    live: BTreeMap<TxnId, Vec<UndoOp>>,
    /// Crash-recovery open addresses not crossed yet, ascending.
    crash_opens: VecDeque<RedoAddr>,
    /// Highest SCN seen or stamped by rollback.
    pub(crate) max_scn: Scn,
    /// Highest transaction id seen.
    pub(crate) max_txn: u64,
    /// Highest commit SCN seen.
    pub(crate) last_commit_scn: Scn,
    /// Records applied to storage or the dictionary.
    pub(crate) applied: u64,
    /// Records scanned but not applied.
    pub(crate) skipped: u64,
    /// Transactions rolled back.
    pub(crate) rolled_back: u64,
}

impl RedoApplier {
    /// An applier whose SCN marks start at `scn` (its base image's SCN).
    pub(crate) fn from_scn(scn: Scn) -> RedoApplier {
        RedoApplier { max_scn: scn, last_commit_scn: scn, ..RedoApplier::default() }
    }

    /// Queues crash-recovery open addresses, in ascending order and after
    /// every address already queued.
    pub(crate) fn note_crash_opens(&mut self, opens: impl IntoIterator<Item = RedoAddr>) {
        self.crash_opens.extend(opens);
    }

    /// Whether the `only_file` filter lets `rec` through: its row change
    /// lands in that file, or it is a marker or dictionary change.
    pub(crate) fn wants(rec: &RedoRecord, only_file: Option<FileNo>) -> bool {
        match (only_file, rec.target_file()) {
            (Some(f), Some(target)) => f == target,
            _ => true,
        }
    }

    /// Applies the record at `addr`. With `only_file` set, row changes to
    /// other datafiles are skipped and dictionary changes are not applied.
    pub(crate) fn apply(
        &mut self,
        srv: &mut DbServer,
        sink: BlockSink,
        rec: &RedoRecord,
        addr: RedoAddr,
        only_file: Option<FileNo>,
    ) -> DbResult<()> {
        if !Self::wants(rec, only_file) {
            return self.skip(srv, sink, rec, addr);
        }
        self.cross_crash_opens(srv, sink, addr)?;
        self.observe(rec);
        let (rid, row, undo) = match (&rec.op, rec.txn) {
            (RedoOp::Commit | RedoOp::Rollback, txn) => {
                if let Some(t) = txn {
                    self.live.remove(&t);
                }
                return self.applied_one(srv, sink);
            }
            (RedoOp::Catalog(change), _) => {
                if only_file.is_none() {
                    srv.inst.as_mut().ok_or(DbError::InstanceDown)?.catalog.apply(change);
                }
                return self.applied_one(srv, sink);
            }
            (RedoOp::Insert { obj, rid, row }, _) => {
                (*rid, Some(row.clone()), UndoOp::UndoInsert { obj: *obj, rid: *rid })
            }
            (RedoOp::Update { obj, rid, before, after }, _) => {
                let undo = UndoOp::UndoUpdate { obj: *obj, rid: *rid, before: before.clone() };
                (*rid, Some(after.clone()), undo)
            }
            (RedoOp::Delete { obj, rid, before }, _) => {
                (*rid, None, UndoOp::UndoDelete { obj: *obj, rid: *rid, before: before.clone() })
            }
        };
        let scn = rec.scn;
        sink.change_block(srv, (rid.file, rid.block), addr, |img| apply_change(img, rid.slot, row, scn))?;
        if let Some(t) = rec.txn {
            self.live.entry(t).or_default().push(undo);
        }
        self.applied_one(srv, sink)
    }

    /// Counts the record at `addr` as skipped. It still moves the SCN and
    /// transaction marks, and crosses any crash boundary before it.
    pub(crate) fn skip(
        &mut self,
        srv: &mut DbServer,
        sink: BlockSink,
        rec: &RedoRecord,
        addr: RedoAddr,
    ) -> DbResult<()> {
        self.cross_crash_opens(srv, sink, addr)?;
        self.observe(rec);
        self.skipped += 1;
        sink.charge(srv, false);
        Ok(())
    }

    /// Rolls back every live transaction, newest first and each one's
    /// changes in reverse. Each undo step is stamped with the next SCN
    /// past everything replayed and passes the same idempotence rule as
    /// redo, so a block image already newer than this point keeps its
    /// content. Returns how many transactions were rolled back.
    pub(crate) fn rollback_live(&mut self, srv: &mut DbServer, sink: BlockSink) -> DbResult<u64> {
        let live = std::mem::take(&mut self.live);
        if live.is_empty() {
            return Ok(0);
        }
        let addr = sink.undo_addr(srv)?;
        for op in live.values().rev().flat_map(|ops| ops.iter().rev()) {
            self.max_scn = self.max_scn.next();
            let scn = self.max_scn;
            let (rid, row) = match op {
                UndoOp::UndoInsert { rid, .. } => (*rid, None),
                UndoOp::UndoUpdate { rid, before, .. } | UndoOp::UndoDelete { rid, before, .. } => {
                    (*rid, Some(before.clone()))
                }
            };
            sink.change_block(srv, (rid.file, rid.block), addr, |img| apply_change(img, rid.slot, row, scn))?;
            sink.charge(srv, true);
        }
        self.rolled_back += live.len() as u64;
        Ok(live.len() as u64)
    }

    fn cross_crash_opens(&mut self, srv: &mut DbServer, sink: BlockSink, addr: RedoAddr) -> DbResult<()> {
        while self.crash_opens.front().is_some_and(|&open| open <= addr) {
            self.crash_opens.pop_front();
            self.rollback_live(srv, sink)?;
        }
        Ok(())
    }

    fn observe(&mut self, rec: &RedoRecord) {
        self.max_scn = self.max_scn.max(rec.scn);
        if let Some(t) = rec.txn {
            self.max_txn = self.max_txn.max(t.0);
        }
        if matches!(rec.op, RedoOp::Commit) {
            self.last_commit_scn = self.last_commit_scn.max(rec.scn);
        }
    }

    fn applied_one(&mut self, srv: &DbServer, sink: BlockSink) -> DbResult<()> {
        self.applied += 1;
        sink.charge(srv, true);
        Ok(())
    }
}
