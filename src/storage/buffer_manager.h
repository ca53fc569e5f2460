#ifndef LIOD_STORAGE_BUFFER_MANAGER_H_
#define LIOD_STORAGE_BUFFER_MANAGER_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "storage/block.h"
#include "storage/block_device.h"
#include "storage/io_stats.h"

namespace liod {

class BufferManager;

/// One registered file's view into the BufferManager: the block read/write
/// interface PagedFile forwards to. Instances are created by
/// BufferManager::RegisterFile and owned by the manager.
class FileHandle {
 public:
  /// Copies bytes [offset, offset + length) of block `id` into `out`. A miss
  /// reads (and counts) the whole block from the device straight into a new
  /// frame; a hit performs no device read. Either way only the requested
  /// bytes are copied out, and the probe counts exactly like ReadBlock's.
  /// offset + length beyond the block size fails with kInvalidArgument.
  Status ReadBlockRange(BlockId id, std::size_t offset, std::size_t length, std::byte* out);

  /// Copies block `id` into `out`: ReadBlockRange of the whole block.
  Status ReadBlock(BlockId id, std::byte* out) {
    return ReadBlockRange(id, 0, device_->block_size(), out);
  }

  /// Writes block `id` from `data`. Write-through: the device write happens
  /// immediately and is counted. Write-back: the frame is dirtied and the
  /// device write is paid (and counted) on eviction or Flush.
  Status WriteBlock(BlockId id, const std::byte* data);

  /// Copies the `count` contiguous blocks starting at `first` into `out`
  /// (count * block size bytes). ReadBlock's probe runs for each block in
  /// order, so counted I/O (hits, misses, reads, evictions) is that of one
  /// ReadBlock per block. The blocks not cached at the start are fetched
  /// first, in one ReadBatch straight into `out` and before any frame
  /// changes, so a failed fetch changes no frame.
  Status ReadBlocks(BlockId first, std::size_t count, std::byte* out);

  /// Writes the `count` contiguous blocks starting at `first` from `data`,
  /// counted as WriteBlock per block in order. Write-through submits the
  /// device writes as one WriteBatch first; if it fails, the run's cached
  /// frames are dropped, since the device may hold either version of any
  /// of its blocks. Write-back has no device writes to submit.
  Status WriteBlocks(BlockId first, std::size_t count, const std::byte* data);

  /// Writes back every dirty frame of this file; frames stay cached (clean).
  Status Flush();

  /// Flushes dirty frames, then discards all of this file's frames.
  Status DropCaches();

  /// Extends the device to at least `new_num_blocks` blocks, serialized with
  /// the manager's device accesses (a shared pool may write back this file's
  /// frames from another shard's thread).
  Status Grow(BlockId new_num_blocks);

  FileClass file_class() const { return klass_; }
  std::size_t cached_blocks() const;
  std::size_t dirty_blocks() const;

  /// Installs the WAL-before-data hook: invoked (under the manager latch)
  /// before any deferred write-back of this file's dirty frames -- eviction
  /// or flush -- so the durability layer can force its write-ahead log onto
  /// the device ahead of the data pages it covers. The hook must not re-enter
  /// this manager (the WAL file lives on its own private manager, so a WAL
  /// force takes a different latch). Install before the file sees concurrent
  /// traffic; a cross-shard eviction may run it on another shard's thread.
  void SetWriteAheadHook(std::function<Status()> hook) { write_ahead_ = std::move(hook); }

 private:
  friend class BufferManager;

  BufferManager* manager_ = nullptr;
  BlockDevice* device_ = nullptr;
  IoStats* stats_ = nullptr;
  FileClass klass_ = FileClass::kOther;
  bool count_io_ = true;
  std::size_t pool_ = 0;  ///< index into the manager's pool table
  std::unordered_map<BlockId, std::size_t> frames_;  ///< block -> slot
  std::function<Status()> write_ahead_;  ///< WAL-before-data hook, may be empty
};

/// Shared write-back buffer manager: one memory budget in frames spanning all
/// files registered with it, with pluggable eviction.
///
/// The seed reproduction hard-wired one write-through LRU BufferPool of
/// capacity `buffer_pool_blocks` per PagedFile -- the paper's Section 6.5
/// setting. Real disk-resident DBMSs instead manage one budgeted pool with an
/// eviction-policy knob and write-back, which is exactly the integration
/// point Abu-Libdeh et al. identify for learned indexes. This manager
/// expresses both:
///
///  - Per-file budgets (Options::shared_budget_frames == 0, the default):
///    every registered file gets its own pool of `file_budget_frames`. With
///    LRU + write-through this reproduces the seed's block I/O bit-exactly
///    (pinned by tests/buffer_regression_test.cc).
///  - Shared budget (shared_budget_frames > 0): all counted files draw from
///    one pool; a miss on any file can evict any other file's frame. Files
///    registered with count_io == false (the Section 6.2 memory-resident
///    inner mode) always get a private unbounded, uncounted pool.
///
/// Counting: device reads/writes plus frame hits/misses/evictions/writebacks
/// are folded into each file's IoStats, per file class.
///
/// Thread-safety: every operation takes the manager latch, so one manager
/// may be shared across ShardedEngine shards (each shard is single-threaded
/// under its own shard mutex; the latch serializes cross-shard frame traffic
/// and device access, including Grow). IoStats counters are relaxed atomics
/// for the same reason.
class BufferManager {
 public:
  /// Sentinel budget: never evict.
  static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  struct Options {
    BufferPolicy policy = BufferPolicy::kLru;
    bool write_back = false;
    /// 0 = per-file budgets (the paper's per-file setting); > 0 = one shared
    /// pool of this many frames for every counted file.
    std::size_t shared_budget_frames = 0;
  };

  explicit BufferManager(const Options& options);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Registers `device` (caller-owned, must outlive the handle). In per-file
  /// mode the file gets its own pool of `file_budget_frames`; in shared mode
  /// the budget argument is ignored and the file joins the shared pool.
  /// A budget of 0 frames is invalid: the handle is still returned, but every
  /// ReadBlock/WriteBlock on it fails with kInvalidArgument (a pool that can
  /// hold nothing would otherwise silently cache nothing).
  FileHandle* RegisterFile(BlockDevice* device, IoStats* stats, FileClass klass,
                           std::size_t file_budget_frames, bool count_io = true);

  /// Discards the file's frames WITHOUT flushing (the caller is deleting the
  /// file, e.g. PGM dropping a merged level) and destroys the handle.
  void UnregisterFile(FileHandle* file);

  /// Writes back every dirty frame of every registered file.
  Status FlushAll();

  const Options& options() const { return options_; }
  std::size_t cached_frames() const;

 private:
  friend class FileHandle;

  static constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

  struct Frame {
    FileHandle* file = nullptr;  ///< nullptr = free slot
    BlockId block = 0;
    bool dirty = false;
    /// LRU/FIFO: the neighbouring frames in the pool's recency list
    /// (kNoSlot past either end).
    std::size_t newer = kNoSlot;
    std::size_t older = kNoSlot;
    /// CLOCK: the frame's index in its pool's ring.
    std::size_t ring_pos = 0;
    std::unique_ptr<std::byte[]> data;
  };

  /// One CLOCK ring entry: a frame slot (kNoSlot = tombstone) and its
  /// reference bit.
  struct ClockEntry {
    std::size_t frame;
    bool ref;
  };

  /// A frame pool and its eviction order. LRU and FIFO link the pool's
  /// frames through Frame::newer/older, newest at `newest`; the victim is
  /// `oldest`, and only LRU moves a hit frame to the front. CLOCK sweeps
  /// `ring` with `hand`: a referenced frame loses its bit and is skipped,
  /// the first unreferenced one is the victim. Erased frames leave
  /// tombstones, compacted once they dominate.
  struct Pool {
    std::size_t budget = 0;
    std::size_t frames = 0;
    std::size_t newest = kNoSlot;
    std::size_t oldest = kNoSlot;
    std::vector<ClockEntry> ring;
    std::size_t hand = 0;
  };

  bool PoolIsPrivateLocked(const FileHandle* file) const;
  /// The one block probe: counts a hit or a miss, touches recency, and on a
  /// miss makes room and caches the block. `fetched`: `out` already holds
  /// the whole block as read from the device (a multi-block read's fetch),
  /// so a miss caches those bytes instead of reading the device.
  Status ReadBlockLocked(FileHandle* file, BlockId id, std::size_t offset,
                         std::size_t length, std::byte* out, bool fetched = false);
  /// `written`: the caller already wrote `data` to the device (a multi-block
  /// write-through's WriteBatch); only the count and the frame remain.
  Status WriteBlockLocked(FileHandle* file, BlockId id, const std::byte* data,
                          bool written = false);
  Status ReadBlocksLocked(FileHandle* file, BlockId first, std::size_t count, std::byte* out);
  Status WriteBlocksLocked(FileHandle* file, BlockId first, std::size_t count,
                           const std::byte* data);
  Status FlushLocked(FileHandle* file);
  /// Evicts until `pool` has room for one more frame. Dirty victims are
  /// written back (counted); a write-back failure aborts the operation and
  /// leaves the victim cached and dirty.
  Status MakeRoomLocked(Pool& pool);
  /// Writes the dirty frames `slots` of `file` to its device: the
  /// WAL-before-data hook once, then one Write, or one WriteBatch for
  /// several frames (in the given order). Counts and cleans them on success;
  /// on failure they stay dirty.
  Status WritebackLocked(FileHandle* file, std::span<const std::size_t> slots);
  /// Caches `data` (one block) as block `id` of `file` in a free slot; the
  /// pool must have room.
  std::size_t InsertFrameLocked(FileHandle* file, BlockId id, bool dirty,
                                std::unique_ptr<std::byte[]> data);
  void DropFrameLocked(std::size_t slot);
  /// Eviction-order bookkeeping of `pool` under options_.policy: `slot`
  /// entered the pool, was hit, or left it; Victim picks the next frame to
  /// evict (the pool must be non-empty).
  void LinkLocked(Pool& pool, std::size_t slot);
  void TouchLocked(Pool& pool, std::size_t slot);
  void UnlinkLocked(Pool& pool, std::size_t slot);
  std::size_t VictimLocked(Pool& pool);
  std::size_t NewPoolLocked(std::size_t budget);
  static Status CheckBudget(const Pool& pool);

  Options options_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<FileHandle>> files_;
  /// Pool 0 = shared pool (when enabled). Private pools are freed when their
  /// file unregisters and their slots recycled, so file churn (e.g. PGM level
  /// merges) does not grow the table.
  std::vector<std::unique_ptr<Pool>> pools_;
  std::vector<std::size_t> free_pools_;
  std::vector<Frame> slots_;
  std::vector<std::size_t> free_slots_;
};

/// Maps the buffer-related IndexOptions knobs onto manager options -- the one
/// place DiskIndex and ShardedEngine both construct managers from.
BufferManager::Options BufferManagerOptionsFrom(const IndexOptions& options);

}  // namespace liod

#endif  // LIOD_STORAGE_BUFFER_MANAGER_H_
