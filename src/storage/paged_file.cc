#include "storage/paged_file.h"

#include <algorithm>
#include <cstring>

namespace liod {

PagedFile::PagedFile(std::unique_ptr<BlockDevice> device, BufferManager* manager,
                     IoStats* stats, FileClass klass, const PagedFileOptions& options)
    : device_(std::move(device)),
      manager_(manager),
      klass_(klass),
      reuse_freed_space_(options.reuse_freed_space),
      next_block_(device_->num_blocks()) {
  buffer_ = manager_->RegisterFile(device_.get(), stats, klass,
                                   options.buffer_pool_blocks, options.count_io);
}

PagedFile::PagedFile(std::unique_ptr<BlockDevice> device, IoStats* stats, FileClass klass,
                     const PagedFileOptions& options)
    : device_(std::move(device)),
      owned_manager_(std::make_unique<BufferManager>(BufferManager::Options{})),
      manager_(owned_manager_.get()),
      klass_(klass),
      reuse_freed_space_(options.reuse_freed_space),
      next_block_(device_->num_blocks()) {
  buffer_ = manager_->RegisterFile(device_.get(), stats, klass,
                                   options.buffer_pool_blocks, options.count_io);
}

PagedFile::~PagedFile() {
  // Deferred writes must not be lost at teardown: flush unless the file is
  // logically deleted. Best effort -- a destructor cannot surface a Status;
  // callers that need the error use Flush()/FlushBuffers() explicitly.
  if (!deleted_) (void)buffer_->Flush();
  manager_->UnregisterFile(buffer_);
}

BlockId PagedFile::Allocate() {
  if (reuse_freed_space_ && !free_list_.empty()) {
    const BlockId id = free_list_.back();
    free_list_.pop_back();
    --freed_blocks_;
    return id;
  }
  return AllocateRun(1);
}

BlockId PagedFile::AllocateRun(std::uint32_t n) {
  if (reuse_freed_space_ && n > 1) {
    auto it = free_runs_.lower_bound(n);
    if (it != free_runs_.end()) {
      const BlockId start = it->second;
      const std::uint32_t run = it->first;
      free_runs_.erase(it);
      if (run > n) free_runs_.emplace(run - n, start + n);
      freed_blocks_ -= n;
      return start;
    }
  }
  const BlockId start = next_block_;
  next_block_ += n;
  // Grow through the handle: with a shared cross-shard budget another thread
  // may be writing back frames of this device concurrently.
  CheckOk(buffer_->Grow(next_block_), "PagedFile::AllocateRun grow");
  return start;
}

void PagedFile::Free(BlockId id, std::uint32_t n) {
  freed_blocks_ += n;
  if (!reuse_freed_space_) return;  // paper default: invalid space, never reused
  if (n == 1) {
    free_list_.push_back(id);
  } else {
    free_runs_.emplace(n, id);
  }
}

Status PagedFile::ReadBytes(std::uint64_t byte_offset, std::uint64_t length, std::byte* out) {
  const std::uint64_t bs = block_size();
  std::uint64_t done = 0;
  // Partial head block: only the requested bytes leave the frame.
  if (length > 0 && byte_offset % bs != 0) {
    const BlockId block = static_cast<BlockId>(byte_offset / bs);
    const std::uint64_t in_block = byte_offset % bs;
    const std::uint64_t chunk = std::min(length, bs - in_block);
    LIOD_RETURN_IF_ERROR(buffer_->ReadBlockRange(block, in_block, chunk, out));
    done += chunk;
  }
  // Block-aligned middle: one contiguous run straight into the caller's
  // buffer, so a batching device fetches its misses in one vectored read.
  const std::uint64_t full = (length - done) / bs;
  if (full > 0) {
    LIOD_RETURN_IF_ERROR(
        buffer_->ReadBlocks(static_cast<BlockId>((byte_offset + done) / bs), full, out + done));
    done += full * bs;
  }
  // Partial tail block.
  if (done < length) {
    const BlockId block = static_cast<BlockId>((byte_offset + done) / bs);
    LIOD_RETURN_IF_ERROR(buffer_->ReadBlockRange(block, 0, length - done, out + done));
  }
  return Status::Ok();
}

Status PagedFile::WriteBytes(std::uint64_t byte_offset, std::uint64_t length,
                             const std::byte* data) {
  const std::uint64_t bs = block_size();
  BlockBuffer scratch(bs);
  std::uint64_t done = 0;
  // Partial head block: read-modify-write through the scratch buffer.
  if (length > 0 && byte_offset % bs != 0) {
    const BlockId block = static_cast<BlockId>(byte_offset / bs);
    const std::uint64_t in_block = byte_offset % bs;
    const std::uint64_t chunk = std::min(length, bs - in_block);
    LIOD_RETURN_IF_ERROR(buffer_->ReadBlock(block, scratch.data()));
    std::memcpy(scratch.data() + in_block, data + done, chunk);
    LIOD_RETURN_IF_ERROR(buffer_->WriteBlock(block, scratch.data()));
    done += chunk;
  }
  // Block-aligned middle: full blocks need no read-modify-write, so they go
  // out as one contiguous run straight from the caller's buffer.
  const std::uint64_t full = (length - done) / bs;
  if (full > 0) {
    LIOD_RETURN_IF_ERROR(buffer_->WriteBlocks(static_cast<BlockId>((byte_offset + done) / bs),
                                              full, data + done));
    done += full * bs;
  }
  // Partial tail block: read-modify-write.
  if (done < length) {
    const BlockId block = static_cast<BlockId>((byte_offset + done) / bs);
    LIOD_RETURN_IF_ERROR(buffer_->ReadBlock(block, scratch.data()));
    std::memcpy(scratch.data(), data + done, length - done);
    LIOD_RETURN_IF_ERROR(buffer_->WriteBlock(block, scratch.data()));
  }
  return Status::Ok();
}

}  // namespace liod
