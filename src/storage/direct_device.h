#ifndef LIOD_STORAGE_DIRECT_DEVICE_H_
#define LIOD_STORAGE_DIRECT_DEVICE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "storage/block_device.h"

namespace liod {

/// Construction knobs of DirectBlockDevice. The try_* flags exist so tests
/// can pin each rung of the fallback ladder deterministically; production
/// callers leave them true and let the runtime probes decide.
struct DirectDeviceOptions {
  bool truncate = true;
  /// Open with O_DIRECT. When the filesystem rejects it (EINVAL on tmpfs and
  /// friends), the device falls back to a buffered fd and counts one
  /// device.fallbacks event. False skips the attempt entirely (test hook).
  bool try_o_direct = true;
  /// Set up an io_uring for batch submission (only where the build found
  /// linux/io_uring.h; ENOSYS/EPERM at setup falls back -- counted -- to
  /// preadv/pwritev). False skips the ring (test hook / comparison baseline).
  bool try_io_uring = true;
  /// False degrades ReadBatch/WriteBatch to one syscall per block.
  bool batching = true;
  /// Optional; aggregates into the shared "device.*" metric namespace. Must
  /// outlive the device.
  MetricRegistry* metrics = nullptr;
};

/// O_DIRECT file device: page-cache-free reads/writes through a
/// posix_memalign'd bounce arena (O_DIRECT requires sector-aligned buffers,
/// offsets, and lengths; block_size is already a power of two >= 512, and
/// block-granular offsets are therefore always aligned). Batches submit
/// contiguous runs via io_uring where available -- one io_uring_enter for the
/// whole batch -- and preadv/pwritev otherwise.
///
/// Fallback ladder, each rung counted as a device.fallbacks event:
///   O_DIRECT open rejected        -> buffered fd (still batch-capable)
///   io_uring setup/enter refused  -> preadv/pwritev coalescing
///   vectored/short completion     -> plain pread/pwrite full-transfer loop
class DirectBlockDevice final : public BlockDevice {
 public:
  DirectBlockDevice(const std::string& path, std::size_t block_size,
                    const DirectDeviceOptions& options = {});
  ~DirectBlockDevice() override;

  bool ok() const { return fd_ >= 0; }
  /// False after the buffered-fd fallback.
  bool using_o_direct() const { return direct_; }
  /// False when the build lacks io_uring or setup was refused at runtime.
  bool using_io_uring() const;
  const DeviceTelemetry& telemetry() const { return telemetry_; }

  Status Read(BlockId id, std::byte* out) override;
  Status Write(BlockId id, const std::byte* data) override;
  BlockId num_blocks() const override;
  Status Grow(BlockId new_num_blocks) override;

  Status ReadBatch(std::span<const BlockId> ids, std::span<std::byte* const> outs) override;
  Status WriteBatch(std::span<const BlockId> ids,
                    std::span<const std::byte* const> datas) override;

 private:
  struct Uring;  // raw-syscall ring state; empty stub without kernel support

  /// Aligned bounce arena of >= `bytes` (geometric growth, 4 KiB aligned).
  /// Returns null only on allocation failure.
  std::byte* EnsureArena(std::size_t bytes);
  Status CheckRange(std::span<const BlockId> ids, const char* what) const;
  /// Shared body of ReadBatch/WriteBatch: coalesces contiguous runs, groups
  /// them into bounded submission waves, and issues each wave through the
  /// ring (one io_uring_enter) or preadv/pwritev (one syscall per run).
  Status BatchIo(std::span<const BlockId> ids, std::span<std::byte* const> outs,
                 std::span<const std::byte* const> datas, bool write);
  /// Clears O_DIRECT from the fd after a runtime rejection; counted.
  void DropODirect();

  int fd_ = -1;
  BlockId num_blocks_ = 0;
  std::string path_;
  bool direct_ = false;
  bool batching_ = true;
  DeviceTelemetry telemetry_;
  std::byte* arena_ = nullptr;
  std::size_t arena_bytes_ = 0;
  std::unique_ptr<Uring> ring_;
};

}  // namespace liod

#endif  // LIOD_STORAGE_DIRECT_DEVICE_H_
