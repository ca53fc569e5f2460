#include "storage/buffer_manager.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace liod {

// --- FileHandle: thin locking forwarders ------------------------------------

Status FileHandle::ReadBlockRange(BlockId id, std::size_t offset, std::size_t length,
                                  std::byte* out) {
  const std::size_t block_size = device_->block_size();
  if (offset > block_size || length > block_size - offset) {
    return Status::InvalidArgument("ranged read of " + std::to_string(length) +
                                   " bytes at offset " + std::to_string(offset) +
                                   " overruns a " + std::to_string(block_size) +
                                   "-byte block");
  }
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->ReadBlockLocked(this, id, offset, length, out);
}

Status FileHandle::WriteBlock(BlockId id, const std::byte* data) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->WriteBlockLocked(this, id, data);
}

Status FileHandle::ReadBlocks(std::span<const BlockId> ids,
                              std::span<std::byte* const> outs) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->ReadBlocksLocked(this, ids, outs);
}

Status FileHandle::WriteBlocks(std::span<const BlockId> ids,
                               std::span<const std::byte* const> datas) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->WriteBlocksLocked(this, ids, datas);
}

Status FileHandle::Flush() {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->FlushLocked(this);
}

Status FileHandle::DropCaches() {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  LIOD_RETURN_IF_ERROR(manager_->FlushLocked(this));
  // All frames are clean now; discard them.
  while (!frames_.empty()) manager_->DropFrameLocked(frames_.begin()->second);
  return Status::Ok();
}

Status FileHandle::Grow(BlockId new_num_blocks) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return device_->Grow(new_num_blocks);
}

std::size_t FileHandle::cached_blocks() const {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return frames_.size();
}

std::size_t FileHandle::dirty_blocks() const {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  std::size_t dirty = 0;
  for (const auto& [block, slot] : frames_) {
    if (manager_->slots_[slot].dirty) ++dirty;
  }
  return dirty;
}

// --- BufferManager ----------------------------------------------------------

BufferManager::BufferManager(const Options& options) : options_(options) {
  if (options_.shared_budget_frames > 0) {
    (void)NewPoolLocked(options_.shared_budget_frames);  // pool 0: the shared pool
  }
}

BufferManager::~BufferManager() = default;

std::size_t BufferManager::NewPoolLocked(std::size_t budget) {
  auto pool = std::make_unique<Pool>();
  pool->budget = budget;
  if (!free_pools_.empty()) {
    const std::size_t index = free_pools_.back();
    free_pools_.pop_back();
    pools_[index] = std::move(pool);
    return index;
  }
  pools_.push_back(std::move(pool));
  return pools_.size() - 1;
}

bool BufferManager::PoolIsPrivateLocked(const FileHandle* file) const {
  return !(options_.shared_budget_frames > 0 && file->pool_ == 0);
}

FileHandle* BufferManager::RegisterFile(BlockDevice* device, IoStats* stats,
                                        FileClass klass, std::size_t file_budget_frames,
                                        bool count_io) {
  std::lock_guard<std::mutex> lock(mu_);
  auto file = std::make_unique<FileHandle>();
  file->manager_ = this;
  file->device_ = device;
  file->stats_ = stats;
  file->klass_ = klass;
  file->count_io_ = count_io;
  if (!count_io) {
    // Memory-resident mode (Section 6.2): pinned, uncounted, unbounded --
    // never competes with counted files for the shared budget.
    file->pool_ = NewPoolLocked(kUnbounded);
  } else if (options_.shared_budget_frames > 0) {
    file->pool_ = 0;
  } else {
    file->pool_ = NewPoolLocked(file_budget_frames);
  }
  FileHandle* raw = file.get();
  files_.push_back(std::move(file));
  return raw;
}

void BufferManager::UnregisterFile(FileHandle* file) {
  std::lock_guard<std::mutex> lock(mu_);
  // The file is being deleted: its frames are discarded without write-back.
  // (PagedFile's destructor flushes first unless the file was marked deleted.)
  while (!file->frames_.empty()) DropFrameLocked(file->frames_.begin()->second);
  if (PoolIsPrivateLocked(file)) {
    // Recycle the private pool's slot so file churn cannot grow the table.
    pools_[file->pool_].reset();
    free_pools_.push_back(file->pool_);
  }
  std::erase_if(files_, [file](const std::unique_ptr<FileHandle>& f) {
    return f.get() == file;
  });
}

Status BufferManager::CheckBudget(const Pool& pool) {
  if (pool.budget == 0) {
    return Status::InvalidArgument(
        "buffer budget must be at least 1 frame (got 0); use "
        "BufferManager::kUnbounded for no limit");
  }
  return Status::Ok();
}

Status BufferManager::WritebackLocked(Frame& frame) {
  // WAL-before-data: a deferred data-page write must not reach the device
  // ahead of the log records covering it. The hook forces the owning index's
  // WAL (which lives on its own private manager, so this does not re-enter
  // our latch) and is a no-op when the WAL has nothing unforced.
  if (frame.file->write_ahead_) LIOD_RETURN_IF_ERROR(frame.file->write_ahead_());
  LIOD_RETURN_IF_ERROR(frame.file->device_->Write(frame.block, frame.data.get()));
  if (frame.file->count_io_ && frame.file->stats_ != nullptr) {
    frame.file->stats_->CountWrite(frame.file->klass_);
    frame.file->stats_->CountWriteback(frame.file->klass_);
  }
  frame.dirty = false;
  return Status::Ok();
}

Status BufferManager::MakeRoomLocked(Pool& pool) {
  while (pool.frames >= pool.budget) {
    const std::size_t victim = VictimLocked(pool);
    Frame& frame = slots_[victim];
    // A failed write-back aborts the triggering operation; the victim stays
    // cached and dirty so no data is lost.
    if (frame.dirty) LIOD_RETURN_IF_ERROR(WritebackLocked(frame));
    if (frame.file->count_io_ && frame.file->stats_ != nullptr) {
      frame.file->stats_->CountEviction(frame.file->klass_);
    }
    DropFrameLocked(victim);
  }
  return Status::Ok();
}

std::size_t BufferManager::InsertFrameLocked(FileHandle* file, BlockId id, bool dirty,
                                             std::unique_ptr<std::byte[]> data) {
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_.size();
    slots_.emplace_back();
  }
  Frame& frame = slots_[slot];
  frame.file = file;
  frame.block = id;
  frame.data = std::move(data);
  frame.dirty = dirty;
  file->frames_[id] = slot;
  Pool& pool = *pools_[file->pool_];
  ++pool.frames;
  LinkLocked(pool, slot);
  return slot;
}

void BufferManager::DropFrameLocked(std::size_t slot) {
  Frame& frame = slots_[slot];
  Pool& pool = *pools_[frame.file->pool_];
  --pool.frames;
  UnlinkLocked(pool, slot);
  frame.file->frames_.erase(frame.block);
  frame.file = nullptr;
  frame.data.reset();
  frame.dirty = false;
  free_slots_.push_back(slot);
}

void BufferManager::LinkLocked(Pool& pool, std::size_t slot) {
  Frame& frame = slots_[slot];
  if (options_.policy == BufferPolicy::kClock) {
    frame.ring_pos = pool.ring.size();
    pool.ring.push_back({slot, false});
    return;
  }
  frame.newer = kNoSlot;
  frame.older = pool.newest;
  if (pool.newest != kNoSlot) {
    slots_[pool.newest].newer = slot;
  } else {
    pool.oldest = slot;
  }
  pool.newest = slot;
}

void BufferManager::TouchLocked(Pool& pool, std::size_t slot) {
  switch (options_.policy) {
    case BufferPolicy::kLru:
      if (pool.newest != slot) {
        UnlinkLocked(pool, slot);
        LinkLocked(pool, slot);
      }
      return;
    case BufferPolicy::kClock: pool.ring[slots_[slot].ring_pos].ref = true; return;
    case BufferPolicy::kFifo: return;  // insertion order only
  }
}

void BufferManager::UnlinkLocked(Pool& pool, std::size_t slot) {
  const Frame& frame = slots_[slot];
  if (options_.policy == BufferPolicy::kClock) {
    pool.ring[frame.ring_pos].frame = kNoSlot;
    if (pool.ring.size() <= 2 * pool.frames + 8) return;
    // Compact in place, keeping the circular order as seen from the hand so
    // sweep progress carries over.
    std::rotate(pool.ring.begin(), pool.ring.begin() + pool.hand, pool.ring.end());
    std::erase_if(pool.ring, [](const ClockEntry& entry) { return entry.frame == kNoSlot; });
    pool.hand = 0;
    for (std::size_t i = 0; i < pool.ring.size(); ++i) slots_[pool.ring[i].frame].ring_pos = i;
    return;
  }
  if (frame.newer != kNoSlot) {
    slots_[frame.newer].older = frame.older;
  } else {
    pool.newest = frame.older;
  }
  if (frame.older != kNoSlot) {
    slots_[frame.older].newer = frame.newer;
  } else {
    pool.oldest = frame.newer;
  }
}

std::size_t BufferManager::VictimLocked(Pool& pool) {
  if (options_.policy != BufferPolicy::kClock) return pool.oldest;
  while (true) {
    if (pool.hand >= pool.ring.size()) pool.hand = 0;
    ClockEntry& entry = pool.ring[pool.hand];
    if (entry.frame == kNoSlot) {
      ++pool.hand;
    } else if (entry.ref) {
      entry.ref = false;  // second chance
      ++pool.hand;
    } else {
      return entry.frame;  // the hand stays: Unlink tombstones this entry
    }
  }
}

Status BufferManager::ReadBlockLocked(FileHandle* file, BlockId id, std::size_t offset,
                                      std::size_t length, std::byte* out) {
  Pool& pool = *pools_[file->pool_];
  LIOD_RETURN_IF_ERROR(CheckBudget(pool));
  const auto it = file->frames_.find(id);
  if (it != file->frames_.end()) {
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountHit(file->klass_);
    TouchLocked(pool, it->second);
    std::memcpy(out, slots_[it->second].data.get() + offset, length);
    return Status::Ok();
  }
  if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountMiss(file->klass_);
  // Fetch straight into the new frame's buffer BEFORE evicting: a failed read
  // must neither cache a stale frame nor cost another file's victim its slot
  // (under write-back an eager eviction would even pay a device write for a
  // read that never happens). The seed's BufferPool read-then-evicted too.
  auto data = std::make_unique_for_overwrite<std::byte[]>(file->device_->block_size());
  LIOD_RETURN_IF_ERROR(file->device_->Read(id, data.get()));
  if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountRead(file->klass_);
  LIOD_RETURN_IF_ERROR(MakeRoomLocked(pool));
  std::memcpy(out, data.get() + offset, length);
  (void)InsertFrameLocked(file, id, /*dirty=*/false, std::move(data));
  return Status::Ok();
}

Status BufferManager::WriteBlockLocked(FileHandle* file, BlockId id,
                                       const std::byte* data) {
  Pool& pool = *pools_[file->pool_];
  LIOD_RETURN_IF_ERROR(CheckBudget(pool));
  const std::size_t block_size = file->device_->block_size();
  if (!options_.write_back) {
    // Write-through: the device write always happens and is always counted.
    LIOD_RETURN_IF_ERROR(file->device_->Write(id, data));
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountWrite(file->klass_);
  }
  const bool dirty = options_.write_back;
  const auto it = file->frames_.find(id);
  if (it != file->frames_.end()) {
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountHit(file->klass_);
    TouchLocked(pool, it->second);
    Frame& frame = slots_[it->second];
    std::memcpy(frame.data.get(), data, block_size);
    frame.dirty = dirty;
    return Status::Ok();
  }
  if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountMiss(file->klass_);
  LIOD_RETURN_IF_ERROR(MakeRoomLocked(pool));
  // Write-allocate: a full-block write needs no device read to populate the
  // frame. In write-back mode the device write is deferred to eviction/flush.
  const std::size_t slot =
      InsertFrameLocked(file, id, dirty, std::make_unique_for_overwrite<std::byte[]>(block_size));
  std::memcpy(slots_[slot].data.get(), data, block_size);
  return Status::Ok();
}

namespace {

/// True when the id sequence is strictly increasing -- the shape the batch
/// paths are specified for (PagedFile only ever produces it). Anything else
/// takes the sequential per-id path so its semantics need no batch analysis.
bool StrictlyIncreasing(std::span<const BlockId> ids) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] <= ids[i - 1]) return false;
  }
  return true;
}

}  // namespace

Status BufferManager::ReadBlocksLocked(FileHandle* file, std::span<const BlockId> ids,
                                       std::span<std::byte* const> outs) {
  if (ids.size() < 2 || !file->device_->SupportsBatch() || !StrictlyIncreasing(ids)) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      LIOD_RETURN_IF_ERROR(
          ReadBlockLocked(file, ids[i], 0, file->device_->block_size(), outs[i]));
    }
    return Status::Ok();
  }
  Pool& pool = *pools_[file->pool_];
  LIOD_RETURN_IF_ERROR(CheckBudget(pool));
  const std::size_t block_size = file->device_->block_size();
  // In-order replay of the sequential hit/miss state machine -- every counter
  // increment and every policy Touch/evict/Insert happens at the same point
  // it would per-id, so counted I/O is bit-identical. Only the misses' device
  // reads are deferred into one batch submission at the end. A missed block's
  // frame is inserted "promised" (clean, unfilled); with a budget smaller
  // than the batch a later miss may evict it again, so the fill loop below
  // re-looks each miss up and only fills frames that survived.
  std::vector<BlockId> miss_ids;
  std::vector<std::byte*> miss_outs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const BlockId id = ids[i];
    const auto it = file->frames_.find(id);
    if (it != file->frames_.end()) {
      if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountHit(file->klass_);
      TouchLocked(pool, it->second);
      std::memcpy(outs[i], slots_[it->second].data.get(), block_size);
      continue;
    }
    if (file->count_io_ && file->stats_ != nullptr) {
      file->stats_->CountMiss(file->klass_);
      file->stats_->CountRead(file->klass_);
    }
    miss_ids.push_back(id);
    miss_outs.push_back(outs[i]);
    LIOD_RETURN_IF_ERROR(MakeRoomLocked(pool));
    (void)InsertFrameLocked(file, id, /*dirty=*/false,
                            std::make_unique_for_overwrite<std::byte[]>(block_size));
  }
  if (miss_ids.empty()) return Status::Ok();
  const Status status = file->device_->ReadBatch(miss_ids, miss_outs);
  if (!status.ok()) {
    // Drop the unfilled promised frames: caching garbage would be worse than
    // the (error-path-only) divergence from the sequential counts.
    for (const BlockId id : miss_ids) {
      const auto it = file->frames_.find(id);
      if (it != file->frames_.end()) DropFrameLocked(it->second);
    }
    return status;
  }
  for (std::size_t i = 0; i < miss_ids.size(); ++i) {
    const auto it = file->frames_.find(miss_ids[i]);
    if (it != file->frames_.end()) {
      std::memcpy(slots_[it->second].data.get(), miss_outs[i], block_size);
    }
  }
  return Status::Ok();
}

Status BufferManager::WriteBlocksLocked(FileHandle* file, std::span<const BlockId> ids,
                                        std::span<const std::byte* const> datas) {
  // Write-back defers all device writes to eviction/flush, so there is
  // nothing to batch here -- the per-id loop IS the batch path.
  if (ids.size() < 2 || !file->device_->SupportsBatch() || options_.write_back ||
      !StrictlyIncreasing(ids)) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      LIOD_RETURN_IF_ERROR(WriteBlockLocked(file, ids[i], datas[i]));
    }
    return Status::Ok();
  }
  Pool& pool = *pools_[file->pool_];
  LIOD_RETURN_IF_ERROR(CheckBudget(pool));
  const std::size_t block_size = file->device_->block_size();
  // Write-through: submit every device write as one batch up front. Under
  // write-through no frame is ever dirty, so the frame bookkeeping below
  // performs no device I/O and the device sees the same per-block write order
  // as the sequential loop.
  LIOD_RETURN_IF_ERROR(file->device_->WriteBatch(ids, datas));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const BlockId id = ids[i];
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountWrite(file->klass_);
    const auto it = file->frames_.find(id);
    if (it != file->frames_.end()) {
      if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountHit(file->klass_);
      TouchLocked(pool, it->second);
      std::memcpy(slots_[it->second].data.get(), datas[i], block_size);
      continue;
    }
    if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountMiss(file->klass_);
    LIOD_RETURN_IF_ERROR(MakeRoomLocked(pool));
    const std::size_t slot = InsertFrameLocked(
        file, id, /*dirty=*/false, std::make_unique_for_overwrite<std::byte[]>(block_size));
    std::memcpy(slots_[slot].data.get(), datas[i], block_size);
  }
  return Status::Ok();
}

Status BufferManager::FlushLocked(FileHandle* file) {
  // Deterministic write-back order (the map iterates in hash order).
  std::vector<std::size_t> dirty_slots;
  for (const auto& [block, slot] : file->frames_) {
    if (slots_[slot].dirty) dirty_slots.push_back(slot);
  }
  std::sort(dirty_slots.begin(), dirty_slots.end(),
            [this](std::size_t a, std::size_t b) {
              return slots_[a].block < slots_[b].block;
            });
  if (dirty_slots.size() >= 2 && file->device_->SupportsBatch()) {
    // WAL-before-data once for the whole drain: the hook forces everything
    // unforced, so the first call covers all N pages (per-page re-invocation
    // would be a no-op anyway).
    if (file->write_ahead_) LIOD_RETURN_IF_ERROR(file->write_ahead_());
    std::vector<BlockId> ids;
    std::vector<const std::byte*> datas;
    ids.reserve(dirty_slots.size());
    datas.reserve(dirty_slots.size());
    for (std::size_t slot : dirty_slots) {
      ids.push_back(slots_[slot].block);
      datas.push_back(slots_[slot].data.get());
    }
    // Frames stay dirty on failure; writes are block-granular and idempotent,
    // so the next flush simply redoes the batch.
    LIOD_RETURN_IF_ERROR(file->device_->WriteBatch(ids, datas));
    for (std::size_t slot : dirty_slots) {
      if (file->count_io_ && file->stats_ != nullptr) {
        file->stats_->CountWrite(file->klass_);
        file->stats_->CountWriteback(file->klass_);
      }
      slots_[slot].dirty = false;
    }
    return Status::Ok();
  }
  for (std::size_t slot : dirty_slots) {
    LIOD_RETURN_IF_ERROR(WritebackLocked(slots_[slot]));
  }
  return Status::Ok();
}

Status BufferManager::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& file : files_) {
    LIOD_RETURN_IF_ERROR(FlushLocked(file.get()));
  }
  return Status::Ok();
}

std::size_t BufferManager::cached_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size() - free_slots_.size();
}

BufferManager::Options BufferManagerOptionsFrom(const IndexOptions& options) {
  BufferManager::Options manager_options;
  manager_options.policy = options.buffer_policy;
  manager_options.write_back = options.buffer_write_back;
  manager_options.shared_budget_frames = options.shared_buffer_budget_blocks;
  return manager_options;
}

}  // namespace liod
