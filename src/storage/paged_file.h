#ifndef LIOD_STORAGE_PAGED_FILE_H_
#define LIOD_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/block.h"
#include "storage/block_device.h"
#include "storage/buffer_manager.h"
#include "storage/io_stats.h"

namespace liod {

/// Options controlling one paged file.
struct PagedFileOptions {
  /// Buffer budget of this file in frames when the manager runs per-file
  /// budgets; ignored when the manager has a shared budget. 0 is invalid and
  /// surfaces as kInvalidArgument on the first buffered access.
  std::size_t buffer_pool_blocks = 1;
  /// When false (paper behaviour, Section 6.3), freed blocks are only
  /// accounted as invalid space and never handed out again.
  bool reuse_freed_space = false;
  /// When false, I/O on this file is not counted and its frames are pinned
  /// unbounded (Section 6.2 hybrid case).
  bool count_io = true;
};

/// One on-disk file: block allocation over a BlockDevice, buffered through a
/// BufferManager. Every index file (inner, leaf, per-LSM-level, ...) is a
/// PagedFile. The file is a thin allocation façade: all block I/O forwards to
/// the FileHandle it registered with the manager, which owns budgets,
/// eviction, and write-back.
class PagedFile {
 public:
  /// Registers with `manager` (externally owned; must outlive this file).
  PagedFile(std::unique_ptr<BlockDevice> device, BufferManager* manager, IoStats* stats,
            FileClass klass, const PagedFileOptions& options);

  /// Standalone convenience (tests, single-file tools): the file owns a
  /// private write-through LRU manager with a per-file budget -- the seed's
  /// per-file BufferPool behaviour.
  PagedFile(std::unique_ptr<BlockDevice> device, IoStats* stats, FileClass klass,
            const PagedFileOptions& options);

  /// Best-effort flushes dirty frames (unless MarkDeleted was called), then
  /// unregisters from the manager.
  ~PagedFile();

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  std::size_t block_size() const { return device_->block_size(); }
  FileClass file_class() const { return klass_; }

  /// Allocates one block. Recycles freed blocks only if reuse is enabled.
  BlockId Allocate();

  /// Allocates `n` physically contiguous blocks and returns the first id.
  /// Contiguity is required because a multi-block node must be stored in
  /// adjacent space (Section 4.1).
  BlockId AllocateRun(std::uint32_t n);

  /// Marks `n` blocks starting at `id` as free. Under the paper's default
  /// they become unreclaimable "invalid space" counted in the footprint.
  void Free(BlockId id, std::uint32_t n = 1);

  Status ReadBlock(BlockId id, std::byte* out) { return buffer_->ReadBlock(id, out); }
  Status WriteBlock(BlockId id, const std::byte* data) {
    return buffer_->WriteBlock(id, data);
  }

  /// Convenience: read/write an arbitrary byte range that may span blocks.
  /// Each touched block costs one block I/O, exactly as the on-disk indexes
  /// pay it. Reads copy only the requested bytes out of the partial head and
  /// tail frames; writes to partial head/tail blocks are read-modify-write.
  Status ReadBytes(std::uint64_t byte_offset, std::uint64_t length, std::byte* out);
  Status WriteBytes(std::uint64_t byte_offset, std::uint64_t length, const std::byte* data);

  /// Writes back this file's dirty frames (no-op under write-through).
  Status Flush() { return buffer_->Flush(); }
  /// Flushes dirty frames, then empties this file's cache.
  Status DropCaches() { return buffer_->DropCaches(); }

  /// Marks the file as logically deleted (e.g. a merged PGM level): its
  /// destructor will discard dirty frames instead of flushing them, since
  /// write-back I/O to a deleted file would be pure waste.
  void MarkDeleted() { deleted_ = true; }

  /// Forwards to FileHandle::SetWriteAheadHook (WAL-before-data ordering for
  /// deferred write-backs of this file's dirty frames).
  void SetWriteAheadHook(std::function<Status()> hook) {
    buffer_->SetWriteAheadHook(std::move(hook));
  }

  FileHandle& buffer() { return *buffer_; }

  /// Total blocks ever allocated (the high-water mark = on-disk footprint;
  /// the paper measures files this way since freed space is not reclaimed).
  std::uint64_t allocated_blocks() const { return next_block_; }
  std::uint64_t freed_blocks() const { return freed_blocks_; }
  std::uint64_t live_blocks() const { return next_block_ - freed_blocks_; }
  std::uint64_t size_bytes() const { return allocated_blocks() * block_size(); }

 private:
  std::unique_ptr<BlockDevice> device_;
  std::unique_ptr<BufferManager> owned_manager_;  // standalone constructor only
  BufferManager* manager_;
  FileHandle* buffer_;  // owned by manager_
  FileClass klass_;
  bool reuse_freed_space_;
  bool deleted_ = false;

  /// Starts at the device's current size: 0 for the fresh devices every index
  /// creates, or the existing high-water mark when re-opening a surviving
  /// device (the recovery layer's WAL/checkpoint files), so new allocations
  /// never overwrite surviving blocks.
  BlockId next_block_ = 0;
  std::uint64_t freed_blocks_ = 0;
  std::vector<BlockId> free_list_;                 // single blocks (reuse mode)
  std::multimap<std::uint32_t, BlockId> free_runs_;  // run length -> start
};

}  // namespace liod

#endif  // LIOD_STORAGE_PAGED_FILE_H_
