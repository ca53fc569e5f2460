#include "storage/block_device.h"

#include <fcntl.h>
#include <stdlib.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "telemetry/metric_registry.h"

namespace liod {

namespace {

/// Blocks per buffered run: UIO_MAXIOV is 1024 on Linux; stay at that bound
/// so one run never fails with EINVAL.
constexpr std::size_t kMaxIov = 1024;

/// Blocks per direct run: bounds the bounce arena (256 x 4 KiB = 1 MiB).
constexpr std::size_t kMaxArenaBlocks = 256;

/// O_DIRECT buffer alignment: one page satisfies every filesystem's sector
/// requirement (512 or 4096).
constexpr std::size_t kArenaAlign = 4096;

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(elapsed)
      .count();
}

Status ErrnoStatus(const char* op, const std::string& path, int err) {
  return Status::IoError(std::string(op) + " failed on " + path + ": " +
                         std::strerror(err));
}

}  // namespace

// --- DeviceTelemetry --------------------------------------------------------

DeviceTelemetry::DeviceTelemetry(MetricRegistry* registry) : registry_(registry) {
  if (registry_ != nullptr) {
    submissions_id_ = registry_->Counter("device.submissions");
    coalesced_id_ = registry_->Counter("device.coalesced_blocks");
    fallbacks_id_ = registry_->Counter("device.fallbacks");
    io_us_id_ = registry_->Histogram("device.io_us");
  }
}

void DeviceTelemetry::RecordSubmission(std::size_t blocks, double elapsed_us) {
  submissions_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t coalesced = blocks > 0 ? blocks - 1 : 0;
  if (coalesced > 0) coalesced_blocks_.fetch_add(coalesced, std::memory_order_relaxed);
  if (registry_ != nullptr) {
    registry_->Add(submissions_id_);
    if (coalesced > 0) registry_->Add(coalesced_id_, coalesced);
    registry_->Observe(io_us_id_, elapsed_us);
  }
}

void DeviceTelemetry::RecordFallback() {
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
  if (registry_ != nullptr) registry_->Add(fallbacks_id_);
}

// --- BlockDevice default batch ops ------------------------------------------

Status BlockDevice::ReadBatch(std::span<const BlockId> ids,
                              std::span<std::byte* const> outs) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    LIOD_RETURN_IF_ERROR(Read(ids[i], outs[i]));
  }
  return Status::Ok();
}

Status BlockDevice::WriteBatch(std::span<const BlockId> ids,
                               std::span<const std::byte* const> datas) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    LIOD_RETURN_IF_ERROR(Write(ids[i], datas[i]));
  }
  return Status::Ok();
}

// --- full-transfer loops ----------------------------------------------------

namespace {

/// Loops ::pread until `count` bytes at `offset` are transferred, retrying
/// EINTR and short reads. A zero-byte transfer (EOF before `count` bytes) and
/// any error surface errno in the Status message.
Status PreadFull(int fd, std::byte* buf, std::size_t count, off_t offset,
                 const std::string& path) {
  std::size_t done = 0;
  while (done < count) {
    const ssize_t n = ::pread(fd, buf + done, count - done, offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", path, errno);
    }
    if (n == 0) {
      return Status::IoError("pread failed on " + path + ": unexpected EOF at offset " +
                             std::to_string(offset + static_cast<off_t>(done)) + " (" +
                             std::to_string(count - done) + " bytes short)");
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

/// Loops ::pwrite until `count` bytes at `offset` are transferred, retrying
/// EINTR and short writes; errors surface errno in the Status message.
Status PwriteFull(int fd, const std::byte* buf, std::size_t count, off_t offset,
                  const std::string& path) {
  std::size_t done = 0;
  while (done < count) {
    const ssize_t n =
        ::pwrite(fd, buf + done, count - done, offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", path, errno);
    }
    if (n == 0) {
      // A zero-byte pwrite with nonzero count is a device refusing progress.
      return ErrnoStatus("pwrite (no progress)", path, errno != 0 ? errno : EIO);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

// --- MemoryBlockDevice ------------------------------------------------------

MemoryBlockDevice::MemoryBlockDevice(std::size_t block_size) : BlockDevice(block_size) {}

Status MemoryBlockDevice::Read(BlockId id, std::byte* out) {
  if (id >= blocks_.size()) {
    return Status::OutOfRange("read past device end: block " + std::to_string(id));
  }
  std::memcpy(out, blocks_[id].get(), block_size());
  return Status::Ok();
}

Status MemoryBlockDevice::Write(BlockId id, const std::byte* data) {
  if (id >= blocks_.size()) {
    return Status::OutOfRange("write past device end: block " + std::to_string(id));
  }
  std::memcpy(blocks_[id].get(), data, block_size());
  return Status::Ok();
}

BlockId MemoryBlockDevice::num_blocks() const { return static_cast<BlockId>(blocks_.size()); }

Status MemoryBlockDevice::Grow(BlockId new_num_blocks) {
  while (blocks_.size() < new_num_blocks) {
    auto block = std::make_unique<std::byte[]>(block_size());
    std::memset(block.get(), 0, block_size());
    blocks_.push_back(std::move(block));
  }
  return Status::Ok();
}

// --- FileBlockDevice --------------------------------------------------------

FileBlockDevice::FileBlockDevice(const std::string& path, std::size_t block_size,
                                 const FileDeviceOptions& options)
    : BlockDevice(block_size),
      path_(path),
      batching_(options.batching),
      telemetry_(options.metrics) {
  int flags = O_RDWR | O_CREAT;
  if (options.truncate) flags |= O_TRUNC;
  if (options.direct) {
    fd_ = ::open(path.c_str(), flags | O_DIRECT, 0644);
    direct_ = fd_ >= 0;
    // tmpfs before Linux 6.4 rejects O_DIRECT at open: go on buffered.
    if (!direct_) telemetry_.RecordFallback();
  }
  if (fd_ < 0) fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ >= 0 && !options.truncate) {
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end > 0) num_blocks_ = static_cast<BlockId>(static_cast<std::size_t>(end) / block_size);
  }
}

FileBlockDevice::~FileBlockDevice() {
  ::free(arena_);
  if (fd_ >= 0) ::close(fd_);
}

Status FileBlockDevice::Read(BlockId id, std::byte* out) {
  const BlockId ids[] = {id};
  LIOD_RETURN_IF_ERROR(CheckRange(ids, "read"));
  if (direct_) {
    std::byte* const outs[] = {out};
    return RunIo(ids, outs, {}, /*write=*/false);
  }
  const off_t off = static_cast<off_t>(id) * static_cast<off_t>(block_size());
  const auto start = telemetry_.timed() ? std::chrono::steady_clock::now()
                                        : std::chrono::steady_clock::time_point{};
  LIOD_RETURN_IF_ERROR(PreadFull(fd_, out, block_size(), off, path_));
  telemetry_.RecordSubmission(1, telemetry_.timed() ? ElapsedUs(start) : 0.0);
  return Status::Ok();
}

Status FileBlockDevice::Write(BlockId id, const std::byte* data) {
  const BlockId ids[] = {id};
  LIOD_RETURN_IF_ERROR(CheckRange(ids, "write"));
  if (direct_) {
    const std::byte* const datas[] = {data};
    return RunIo(ids, {}, datas, /*write=*/true);
  }
  const off_t off = static_cast<off_t>(id) * static_cast<off_t>(block_size());
  const auto start = telemetry_.timed() ? std::chrono::steady_clock::now()
                                        : std::chrono::steady_clock::time_point{};
  LIOD_RETURN_IF_ERROR(PwriteFull(fd_, data, block_size(), off, path_));
  telemetry_.RecordSubmission(1, telemetry_.timed() ? ElapsedUs(start) : 0.0);
  return Status::Ok();
}

BlockId FileBlockDevice::num_blocks() const { return num_blocks_; }

Status FileBlockDevice::Grow(BlockId new_num_blocks) {
  if (new_num_blocks <= num_blocks_) return Status::Ok();
  const off_t new_size = static_cast<off_t>(new_num_blocks) * static_cast<off_t>(block_size());
  if (::ftruncate(fd_, new_size) != 0) {
    return ErrnoStatus("ftruncate", path_, errno);
  }
  num_blocks_ = new_num_blocks;
  return Status::Ok();
}

Status FileBlockDevice::CheckRange(std::span<const BlockId> ids, const char* what) const {
  for (const BlockId id : ids) {
    if (id >= num_blocks_) {
      return Status::OutOfRange(std::string(what) + " past device end: block " +
                                std::to_string(id));
    }
  }
  return Status::Ok();
}

Status FileBlockDevice::ReadBatch(std::span<const BlockId> ids,
                                  std::span<std::byte* const> outs) {
  if (!batching_) return BlockDevice::ReadBatch(ids, outs);
  LIOD_RETURN_IF_ERROR(CheckRange(ids, "read"));
  return RunIo(ids, outs, {}, /*write=*/false);
}

Status FileBlockDevice::WriteBatch(std::span<const BlockId> ids,
                                   std::span<const std::byte* const> datas) {
  if (!batching_) return BlockDevice::WriteBatch(ids, datas);
  LIOD_RETURN_IF_ERROR(CheckRange(ids, "write"));
  return RunIo(ids, {}, datas, /*write=*/true);
}

std::byte* FileBlockDevice::EnsureArena(std::size_t bytes) {
  if (arena_bytes_ >= bytes) return arena_;
  std::size_t want = arena_bytes_ == 0 ? kArenaAlign : arena_bytes_;
  while (want < bytes) want *= 2;
  void* fresh = nullptr;
  if (::posix_memalign(&fresh, kArenaAlign, want) != 0) return nullptr;
  ::free(arena_);
  arena_ = static_cast<std::byte*>(fresh);
  arena_bytes_ = want;
  return arena_;
}

void FileBlockDevice::DropODirect() {
  const int flags = ::fcntl(fd_, F_GETFL);
  if (flags >= 0) (void)::fcntl(fd_, F_SETFL, flags & ~O_DIRECT);
  direct_ = false;
  telemetry_.RecordFallback();
}

Status FileBlockDevice::RunIo(std::span<const BlockId> ids, std::span<std::byte* const> outs,
                              std::span<const std::byte* const> datas, bool write) {
  const std::size_t bs = block_size();
  std::size_t i = 0;
  std::vector<struct iovec> iov;
  while (i < ids.size()) {
    // A run that starts in direct mode bounces through the arena to its end,
    // also when the filesystem rejects O_DIRECT on the way.
    const bool bounce = direct_;
    const std::size_t cap = bounce ? kMaxArenaBlocks : kMaxIov;
    std::size_t run = 1;
    while (i + run < ids.size() && run < cap && ids[i + run] == ids[i + run - 1] + 1) {
      ++run;
    }
    std::byte* arena = nullptr;
    if (bounce) {
      arena = EnsureArena(run * bs);
      if (arena == nullptr) return Status::IoError("posix_memalign failed for " + path_);
    }
    iov.resize(run);
    for (std::size_t k = 0; k < run; ++k) {
      std::byte* block = write ? const_cast<std::byte*>(datas[i + k]) : outs[i + k];
      if (bounce) {
        if (write) std::memcpy(arena + k * bs, block, bs);
        block = arena + k * bs;
      }
      iov[k] = {block, bs};
    }
    const off_t off = static_cast<off_t>(ids[i]) * static_cast<off_t>(bs);
    const std::size_t want = run * bs;
    const auto start = telemetry_.timed() ? std::chrono::steady_clock::now()
                                          : std::chrono::steady_clock::time_point{};
    ssize_t n = -1;
    for (;;) {
      n = write ? ::pwritev(fd_, iov.data(), static_cast<int>(run), off)
                : ::preadv(fd_, iov.data(), static_cast<int>(run), off);
      if (n >= 0) break;
      if (errno == EINTR) continue;
      // The filesystem took the O_DIRECT open but refuses the transfer: go
      // on buffered. Any other error (EIO, ENOSPC, ...) keeps O_DIRECT.
      if (errno == EINVAL && direct_) {
        DropODirect();
        continue;
      }
      return ErrnoStatus(write ? "pwritev" : "preadv", path_, errno);
    }
    telemetry_.RecordSubmission(run, telemetry_.timed() ? ElapsedUs(start) : 0.0);
    if (static_cast<std::size_t>(n) < want) {
      // Short vectored transfer: redo every block it did not finish with the
      // full-transfer loop. Whole blocks keep O_DIRECT's alignment, and
      // moving a block's bytes again is idempotent.
      for (std::size_t k = static_cast<std::size_t>(n) / bs; k < run; ++k) {
        std::byte* block = static_cast<std::byte*>(iov[k].iov_base);
        const off_t at = off + static_cast<off_t>(k * bs);
        LIOD_RETURN_IF_ERROR(write ? PwriteFull(fd_, block, bs, at, path_)
                                   : PreadFull(fd_, block, bs, at, path_));
      }
      telemetry_.RecordFallback();
    }
    if (bounce && !write) {
      for (std::size_t k = 0; k < run; ++k) std::memcpy(outs[i + k], arena + k * bs, bs);
    }
    i += run;
  }
  return Status::Ok();
}

}  // namespace liod
