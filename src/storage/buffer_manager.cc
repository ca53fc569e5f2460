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

Status FileHandle::ReadBlocks(BlockId first, std::size_t count, std::byte* out) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->ReadBlocksLocked(this, first, count, out);
}

Status FileHandle::WriteBlocks(BlockId first, std::size_t count, const std::byte* data) {
  std::lock_guard<std::mutex> lock(manager_->mu_);
  return manager_->WriteBlocksLocked(this, first, count, data);
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

Status BufferManager::WritebackLocked(FileHandle* file, std::span<const std::size_t> slots) {
  // WAL-before-data: a deferred data-page write must not reach the device
  // ahead of the log records covering it. The hook forces the owning index's
  // WAL (which lives on its own private manager, so this does not re-enter
  // our latch) and is a no-op when the WAL has nothing unforced, so one call
  // covers every frame written here.
  if (file->write_ahead_) LIOD_RETURN_IF_ERROR(file->write_ahead_());
  if (slots.size() == 1) {
    const Frame& frame = slots_[slots.front()];
    LIOD_RETURN_IF_ERROR(file->device_->Write(frame.block, frame.data.get()));
  } else {
    std::vector<BlockId> ids;
    std::vector<const std::byte*> datas;
    ids.reserve(slots.size());
    datas.reserve(slots.size());
    for (const std::size_t slot : slots) {
      ids.push_back(slots_[slot].block);
      datas.push_back(slots_[slot].data.get());
    }
    // Block writes are idempotent, so a failed batch leaves every frame
    // dirty and the next write-back simply redoes it.
    LIOD_RETURN_IF_ERROR(file->device_->WriteBatch(ids, datas));
  }
  for (const std::size_t slot : slots) {
    if (file->count_io_ && file->stats_ != nullptr) {
      file->stats_->CountWrite(file->klass_);
      file->stats_->CountWriteback(file->klass_);
    }
    slots_[slot].dirty = false;
  }
  return Status::Ok();
}

Status BufferManager::MakeRoomLocked(Pool& pool) {
  while (pool.frames >= pool.budget) {
    const std::size_t victim = VictimLocked(pool);
    Frame& frame = slots_[victim];
    // A failed write-back aborts the triggering operation; the victim stays
    // cached and dirty so no data is lost.
    if (frame.dirty) LIOD_RETURN_IF_ERROR(WritebackLocked(frame.file, {&victim, 1}));
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
                                      std::size_t length, std::byte* out, bool fetched) {
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
  if (fetched) {
    std::memcpy(data.get(), out, file->device_->block_size());
  } else {
    LIOD_RETURN_IF_ERROR(file->device_->Read(id, data.get()));
  }
  if (file->count_io_ && file->stats_ != nullptr) file->stats_->CountRead(file->klass_);
  LIOD_RETURN_IF_ERROR(MakeRoomLocked(pool));
  if (!fetched) std::memcpy(out, data.get() + offset, length);
  (void)InsertFrameLocked(file, id, /*dirty=*/false, std::move(data));
  return Status::Ok();
}

Status BufferManager::WriteBlockLocked(FileHandle* file, BlockId id, const std::byte* data,
                                       bool written) {
  Pool& pool = *pools_[file->pool_];
  LIOD_RETURN_IF_ERROR(CheckBudget(pool));
  const std::size_t block_size = file->device_->block_size();
  if (!options_.write_back) {
    // Write-through: the device write always happens and is always counted.
    if (!written) LIOD_RETURN_IF_ERROR(file->device_->Write(id, data));
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

Status BufferManager::ReadBlocksLocked(FileHandle* file, BlockId first, std::size_t count,
                                       std::byte* out) {
  const std::size_t block_size = file->device_->block_size();
  if (count == 1) return ReadBlockLocked(file, first, 0, block_size, out);
  LIOD_RETURN_IF_ERROR(CheckBudget(*pools_[file->pool_]));
  // Fetch the blocks not cached at the start in one submission, before any
  // frame changes, so a failed fetch caches nothing and evicts nothing. The
  // probes below then go in order and cache only the run's own blocks, so a
  // fetched block is still a miss at its probe and caches the fetched bytes;
  // a block cached at the start but evicted by an earlier miss of the run is
  // read on its own, exactly as one ReadBlock per block would.
  std::vector<BlockId> ids;
  std::vector<std::byte*> outs;
  for (std::size_t i = 0; i < count; ++i) {
    const BlockId id = first + static_cast<BlockId>(i);
    if (file->frames_.contains(id)) continue;
    ids.push_back(id);
    outs.push_back(out + i * block_size);
  }
  if (!ids.empty()) LIOD_RETURN_IF_ERROR(file->device_->ReadBatch(ids, outs));
  std::size_t next = 0;  // the first fetched block not probed yet
  for (std::size_t i = 0; i < count; ++i) {
    const BlockId id = first + static_cast<BlockId>(i);
    const bool fetched = next < ids.size() && ids[next] == id;
    if (fetched) ++next;
    LIOD_RETURN_IF_ERROR(ReadBlockLocked(file, id, 0, block_size, out + i * block_size, fetched));
  }
  return Status::Ok();
}

Status BufferManager::WriteBlocksLocked(FileHandle* file, BlockId first, std::size_t count,
                                        const std::byte* data) {
  const std::size_t block_size = file->device_->block_size();
  // Write-back defers every device write to eviction or flush, so there is
  // nothing to submit here.
  const bool written = !options_.write_back && count > 1;
  if (written) {
    LIOD_RETURN_IF_ERROR(CheckBudget(*pools_[file->pool_]));
    std::vector<BlockId> ids(count);
    std::vector<const std::byte*> datas(count);
    for (std::size_t i = 0; i < count; ++i) {
      ids[i] = first + static_cast<BlockId>(i);
      datas[i] = data + i * block_size;
    }
    const Status status = file->device_->WriteBatch(ids, datas);
    if (!status.ok()) {
      // The device may now hold either version of any block of the run, so
      // no cached frame of it may be served again. Write-through frames are
      // never dirty: dropping them loses nothing.
      for (const BlockId id : ids) {
        const auto it = file->frames_.find(id);
        if (it != file->frames_.end()) DropFrameLocked(it->second);
      }
      return status;
    }
  }
  // Under write-through no frame is dirty, so the bookkeeping below does no
  // device I/O of its own after the batch.
  for (std::size_t i = 0; i < count; ++i) {
    LIOD_RETURN_IF_ERROR(WriteBlockLocked(file, first + static_cast<BlockId>(i),
                                          data + i * block_size, written));
  }
  return Status::Ok();
}

Status BufferManager::FlushLocked(FileHandle* file) {
  // Deterministic write-back order (the map iterates in hash order).
  std::vector<std::size_t> dirty_slots;
  for (const auto& [block, slot] : file->frames_) {
    if (slots_[slot].dirty) dirty_slots.push_back(slot);
  }
  if (dirty_slots.empty()) return Status::Ok();
  std::sort(dirty_slots.begin(), dirty_slots.end(),
            [this](std::size_t a, std::size_t b) {
              return slots_[a].block < slots_[b].block;
            });
  return WritebackLocked(file, dirty_slots);
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
