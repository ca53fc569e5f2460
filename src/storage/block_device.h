#ifndef LIOD_STORAGE_BLOCK_DEVICE_H_
#define LIOD_STORAGE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/block.h"

namespace liod {

class MetricRegistry;  // telemetry/metric_registry.h

/// Submission accounting of the real (syscall-issuing) devices. Local relaxed
/// counters are always maintained -- tests and CI read them without a metric
/// registry -- and when a registry is bound the same events also land in the
/// un-prefixed shared "device.*" namespace (every device on one registry
/// aggregates into the same counters):
///
///   device.submissions      one per I/O submission (one pread, pwrite,
///                           preadv or pwritev call)
///   device.coalesced_blocks blocks that rode along in a submission instead
///                           of costing their own syscall (L-1 per L-block
///                           submission)
///   device.fallbacks        degradations taken: O_DIRECT rejected by the
///                           filesystem, or a vectored op completing short
///   device.io_us            wall time per submission (histogram; its count
///                           equals device.submissions when the registry is
///                           bound at construction)
class DeviceTelemetry {
 public:
  explicit DeviceTelemetry(MetricRegistry* registry = nullptr);

  /// One I/O submission that transferred `blocks` blocks in `elapsed_us`
  /// (wall). Callers only need to time the submission when timed() is true.
  void RecordSubmission(std::size_t blocks, double elapsed_us);
  void RecordFallback();

  /// Whether submissions should be timed (a registry will record io_us).
  bool timed() const { return registry_ != nullptr; }

  std::uint64_t submissions() const { return submissions_.load(std::memory_order_relaxed); }
  std::uint64_t coalesced_blocks() const {
    return coalesced_blocks_.load(std::memory_order_relaxed);
  }
  std::uint64_t fallbacks() const { return fallbacks_.load(std::memory_order_relaxed); }

 private:
  MetricRegistry* registry_;
  std::size_t submissions_id_ = 0;
  std::size_t coalesced_id_ = 0;
  std::size_t fallbacks_id_ = 0;
  std::size_t io_us_id_ = 0;
  std::atomic<std::uint64_t> submissions_{0};
  std::atomic<std::uint64_t> coalesced_blocks_{0};
  std::atomic<std::uint64_t> fallbacks_{0};
};

/// Abstract fixed-block-size storage device. All index data flows through
/// this interface so that every block transfer is observable; the simulated
/// MemoryBlockDevice backs the evaluation, while FileBlockDevice runs the
/// same code against a real filesystem.
class BlockDevice {
 public:
  explicit BlockDevice(std::size_t block_size) : block_size_(block_size) {}
  virtual ~BlockDevice() = default;

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  std::size_t block_size() const { return block_size_; }

  /// Reads block `id` into `out` (exactly block_size() bytes).
  virtual Status Read(BlockId id, std::byte* out) = 0;

  /// Writes exactly block_size() bytes from `data` to block `id`.
  virtual Status Write(BlockId id, const std::byte* data) = 0;

  /// Number of blocks currently addressable.
  virtual BlockId num_blocks() const = 0;

  /// Extends the device to at least `new_num_blocks` blocks (zero-filled).
  virtual Status Grow(BlockId new_num_blocks) = 0;

  /// Reads ids[i] into outs[i] (block_size() bytes each). ids need not be
  /// contiguous; batching devices coalesce contiguous runs into vectored
  /// submissions. Default: one Read per block, so every device takes the
  /// batch entry points.
  virtual Status ReadBatch(std::span<const BlockId> ids, std::span<std::byte* const> outs);

  /// Writes datas[i] to ids[i]. Default: one Write per block.
  virtual Status WriteBatch(std::span<const BlockId> ids,
                            std::span<const std::byte* const> datas);

 private:
  std::size_t block_size_;
};

/// In-RAM simulated disk. Backs the evaluation: exact, deterministic, and
/// fast, while preserving block-transfer granularity.
class MemoryBlockDevice final : public BlockDevice {
 public:
  explicit MemoryBlockDevice(std::size_t block_size);

  Status Read(BlockId id, std::byte* out) override;
  Status Write(BlockId id, const std::byte* data) override;
  BlockId num_blocks() const override;
  Status Grow(BlockId new_num_blocks) override;

 private:
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
};

/// Construction options of FileBlockDevice.
struct FileDeviceOptions {
  /// Truncates the file at open; false keeps its blocks (a reopen).
  bool truncate = true;
  /// Bypasses the page cache: opens with O_DIRECT and moves every transfer
  /// through an aligned bounce arena. A filesystem that rejects O_DIRECT
  /// (EINVAL, at open or on a transfer) leaves the device buffered, counted
  /// as one device.fallbacks event.
  bool direct = false;
  /// False degrades every batch to one syscall per block (the CI comparison
  /// baseline).
  bool batching = true;
  /// Optional, must outlive the device: aggregates submissions into the
  /// shared "device.*" namespace.
  MetricRegistry* metrics = nullptr;
};

/// File-backed device with two modes. Buffered mode issues POSIX pread/pwrite
/// straight from the caller's buffers. Direct mode bounces through a
/// posix_memalign'd arena, because O_DIRECT needs sector-aligned buffers,
/// offsets and lengths (block_size is a power of two >= 512, so block
/// offsets are aligned already). In both modes a batch submits each
/// contiguous run as one preadv/pwritev.
class FileBlockDevice final : public BlockDevice {
 public:
  /// Creates (truncates) or opens `path`. Check `ok()` before use.
  FileBlockDevice(const std::string& path, std::size_t block_size,
                  const FileDeviceOptions& options = {});
  ~FileBlockDevice() override;

  bool ok() const { return fd_ >= 0; }
  /// False in buffered mode, and after the filesystem rejected O_DIRECT.
  bool using_o_direct() const { return direct_; }
  const DeviceTelemetry& telemetry() const { return telemetry_; }

  Status Read(BlockId id, std::byte* out) override;
  Status Write(BlockId id, const std::byte* data) override;
  BlockId num_blocks() const override;
  Status Grow(BlockId new_num_blocks) override;

  Status ReadBatch(std::span<const BlockId> ids, std::span<std::byte* const> outs) override;
  Status WriteBatch(std::span<const BlockId> ids,
                    std::span<const std::byte* const> datas) override;

 private:
  Status CheckRange(std::span<const BlockId> ids, const char* what) const;
  /// Body of the batch ops, and of Read/Write in direct mode: one
  /// preadv/pwritev per maximal contiguous run, capped at one iovec table
  /// (buffered) or one arena (direct). A short completion finishes the run
  /// with the full-transfer loop.
  Status RunIo(std::span<const BlockId> ids, std::span<std::byte* const> outs,
               std::span<const std::byte* const> datas, bool write);
  /// Aligned bounce arena of at least `bytes` (grows geometrically); null
  /// only when the allocation fails.
  std::byte* EnsureArena(std::size_t bytes);
  /// Clears O_DIRECT from the fd after the filesystem rejected a transfer;
  /// counted.
  void DropODirect();

  int fd_ = -1;
  BlockId num_blocks_ = 0;
  std::string path_;
  bool direct_ = false;
  bool batching_ = true;
  DeviceTelemetry telemetry_;
  std::byte* arena_ = nullptr;
  std::size_t arena_bytes_ = 0;
};

}  // namespace liod

#endif  // LIOD_STORAGE_BLOCK_DEVICE_H_
