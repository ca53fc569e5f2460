#ifndef LIOD_UPDATES_BUFFERED_INDEX_H_
#define LIOD_UPDATES_BUFFERED_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/index.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/durable_store.h"
#include "recovery/wal_writer.h"
#include "updates/merge_scheduler.h"
#include "updates/update_buffer.h"

namespace liod {

/// Out-of-place update decorator over any DiskIndex.
///
/// The paper's base indexes apply every update in place: an insert pays the
/// full search + node-write (+ SMO) block cost immediately. This decorator
/// instead absorbs Insert/Delete into an UpdateBuffer (sorted in-memory
/// staging, spilled to append-only sorted runs through a PagedFile) and
/// merges the buffer back into the base structure either synchronously at a
/// fill threshold or on a background thread -- the buffered out-of-place
/// write path that Lan et al. 2023 and Wongkham et al. (VLDB 2022) identify
/// as the lever that makes updatable learned indexes competitive on disk.
/// Lookups and scans transparently merge buffer + base results, newest wins.
///
/// MakeIndex applies the decorator to every factory index when
/// IndexOptions::update_buffer_blocks > 0; the default (0) keeps the paper's
/// in-place path with bit-exact I/O (no decorator is constructed at all).
///
/// Deletes and search-only bases: no base index implements an in-place
/// delete (the paper's open direction), so tombstones that survive a merge
/// stay in an in-memory resident overlay that shadows the base forever.
/// Upserts whose base Insert returns kUnimplemented (the search-only hybrid
/// indexes, Section 6.1.2) are retained the same way, which makes the
/// hybrids updatable out-of-place -- the paper's P5 direction. The overlay
/// is unbounded, proportional to deleted keys (and, for hybrids, inserted
/// keys); DESIGN.md documents the trade.
///
/// Accounting: the spill file is created through the base index's
/// MakeAuxFile, so every spill write and probe read is a counted block I/O
/// in the base's IoStats and flows through the base's BufferManager budget
/// like any other file. io_stats()/breakdown() forward to the base, so
/// runners and benches see one unified counter set.
///
/// Durability (IndexOptions::durability != kNone, src/recovery/): every
/// Insert/Delete appends a CRC'd record to a write-ahead log BEFORE staging
/// (counted FileClass::kWal I/O; the policy decides when the tail block is
/// forced), a CheckpointManager snapshots the cumulative update set after
/// every merge / every checkpoint_every_ops operations / at FlushUpdates and
/// truncates the log, and a write-ahead hook on the base's buffer manager
/// forces the WAL ahead of any deferred dirty-frame write-back
/// (WAL-before-data). RecoveryManager rebuilds the committed prefix from the
/// DurableSlot after a crash. kNone (the default) constructs none of this
/// and keeps every existing I/O count bit-exact.
///
/// Background-merge errors: a failed background drain is remembered and
/// fails the NEXT Insert/Delete (and FlushUpdates) with the drain's Status,
/// instead of being observable only at the end-of-window flush. Merges are
/// idempotent, so the failure is surfaced once and the retry starts clean.
///
/// Thread-safety: operations coordinate on an internal reader/writer
/// latch. Writers (Insert/Delete/FlushUpdates/ApplyRecovered and the
/// background drain) hold it exclusively, which is what lets a background
/// MergeScheduler drain while the owning shard keeps serving (merges block
/// only their own shard's operations, not other shards'). Read-only
/// operations (Lookup/Scan/GetIndexStats/introspection) hold it shared and
/// may run in parallel with each other -- the const-safe read path the
/// engine's shared shard-lock mode relies on: a lookup mutates
/// nothing (staging map, spilled-run probes, and overlay are all read-only;
/// spill-file block reads are latched inside the buffer manager).
class UpdateBufferedIndex : public DiskIndex {
 public:
  /// Wraps `base` (must be non-null). `options` must have
  /// update_buffer_blocks > 0.
  UpdateBufferedIndex(const IndexOptions& options, std::unique_ptr<DiskIndex> base);
  ~UpdateBufferedIndex() override;

  std::string name() const override { return base_->name(); }

  Status Bulkload(std::span<const Record> records) override;
  Status Lookup(Key key, Payload* payload, bool* found) override;
  Status Insert(Key key, Payload payload) override;
  Status Delete(Key key) override;
  Status Scan(Key start_key, std::size_t count, std::vector<Record>* out) override;
  IndexStats GetIndexStats() const override;

  /// Full drain: waits out any background merge, then merges everything
  /// still buffered. The runners call this at the end of each measured
  /// window so merge I/O is paid inside the window that staged it.
  Status FlushUpdates() override;

  Status DropCaches() override { return base_->DropCaches(); }
  /// WAL-before-data: forces the WAL, then writes back the base's dirty
  /// frames (plain base flush when durability is off).
  Status FlushBuffers() override;
  IoStats& io_stats() override { return base_->io_stats(); }
  const IoStats& io_stats() const override { return base_->io_stats(); }
  OpBreakdown& breakdown() override { return base_->breakdown(); }
  BufferManager& buffer_manager() override { return base_->buffer_manager(); }

  /// Recovery entry point (RecoveryManager): resumes LSN assignment after
  /// `max_lsn`, seeds the checkpoint's cumulative set, re-applies the
  /// recovered updates through the normal staging path WITHOUT re-logging
  /// them (they are already durable), and finishes with a checkpoint so the
  /// replayed log is truncated. Requires durability != kNone.
  Status ApplyRecovered(std::uint64_t max_lsn, std::uint64_t checkpoint_seqno,
                        std::vector<StagedUpdate> updates);

  // --- introspection (tests, benches) -------------------------------------
  DiskIndex* base() { return base_.get(); }
  std::size_t staged_records() const;
  std::size_t spilled_run_count() const;
  std::uint64_t total_spills() const;
  /// Entries resident in the post-merge overlay (tombstones + upserts the
  /// base could not absorb).
  std::size_t overlay_records() const;
  /// Merges performed (sync and background), counting only non-empty drains.
  std::uint64_t merges_completed() const;
  /// Forced WAL tail-block writes (0 when durability is off). Group commit
  /// shows strictly fewer of these than sync-per-op for the same op stream.
  std::uint64_t wal_forced_writes() const;
  /// LSN of the last logged operation (0 when durability is off).
  std::uint64_t wal_last_lsn() const;
  /// Checkpoints written so far (0 when durability is off).
  std::uint64_t checkpoints_written() const;

 private:
  struct OverlayEntry {
    Payload payload = 0;
    bool tombstone = false;
  };

  /// Applies every buffered entry to the base (newest-wins), moves
  /// unmergeable entries to the overlay, and clears the buffer. Upserts are
  /// idempotent, so a failed merge may be retried without damage. Durable
  /// mode forces the WAL first (WAL-before-data for the base writes).
  Status MergeLocked();
  /// WAL append + cumulative-checkpoint bookkeeping for one logged op.
  /// No-op when durability is off.
  Status LogLocked(WalRecordType type, Key key, Payload payload);
  /// WAL sync, base dirty-frame flush, snapshot write, log truncation.
  /// No-op when durability is off.
  Status CheckpointLocked();
  /// CheckpointLocked when checkpoint_every_ops is due.
  Status MaybeCheckpointLocked();
  /// Surfaces (and clears) the sticky background-merge error, if any.
  Status TakeBackgroundErrorLocked();
  /// Post-staging policy: trigger the merge if due, then spill staging to a
  /// sorted run if it is still over capacity.
  Status AfterStageLocked();
  /// kInvalidArgument when update_buffer_merge_threshold <= 0 (surfaced on
  /// first Insert/Delete, like the buffer manager's zero-budget check).
  Status CheckThreshold() const;

  std::unique_ptr<DiskIndex> base_;
  std::unique_ptr<PagedFile> spill_file_;  // registered with base_ (MakeAuxFile)
  std::unique_ptr<UpdateBuffer> buffer_;
  /// Post-merge resident entries, shadowed by the buffer, shadowing the base.
  std::map<Key, OverlayEntry> overlay_;
  std::uint64_t merges_ = 0;

  // --- durability (null when IndexOptions::durability == kNone) -----------
  std::unique_ptr<DurableSlot> owned_slot_;  // when no external slot injected
  DurableSlot* slot_ = nullptr;
  /// WAL and checkpoint files run standalone (private write-through manager):
  /// a WAL force must hit the device when the policy says so, never sit as a
  /// dirty frame behind the data it is supposed to precede -- and the hook
  /// that forces the WAL from inside the data manager's latch must not
  /// re-enter that latch.
  std::unique_ptr<PagedFile> wal_file_;
  std::unique_ptr<PagedFile> checkpoint_file_;
  std::unique_ptr<GroupCommitWindow> owned_group_;  // when none injected
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<CheckpointManager> checkpoint_;
  std::uint64_t ops_since_checkpoint_ = 0;
  /// First failed background drain, failing the next write op fast.
  Status background_error_;

  std::unique_ptr<MergeScheduler> scheduler_;  // kBackground mode only
  mutable std::shared_mutex mu_;

  // --- telemetry (inactive when options.metrics / options.trace are null) --
  /// Gauges registered in the constructor (staging depth, overlay size,
  /// spill total), unregistered in the destructor; the registry must outlive
  /// the index (common/options.h contract).
  std::vector<std::string> gauge_names_;
  std::size_t merges_counter_id_ = 0;       ///< <prefix>updates.merges
  std::size_t checkpoints_counter_id_ = 0;  ///< <prefix>checkpoints
  /// Shard number parsed from metrics_prefix ("shard3." -> 3; -1 otherwise),
  /// tagging merge/checkpoint/WAL spans with their shard in the trace.
  int trace_shard_ = -1;
};

}  // namespace liod

#endif  // LIOD_UPDATES_BUFFERED_INDEX_H_
