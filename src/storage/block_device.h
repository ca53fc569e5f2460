#ifndef LIOD_STORAGE_BLOCK_DEVICE_H_
#define LIOD_STORAGE_BLOCK_DEVICE_H_

#include <sys/types.h>

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
///   device.submissions      one per I/O submission (syscall or uring enter)
///   device.coalesced_blocks blocks that rode along in a submission instead
///                           of costing their own syscall (L-1 per L-block
///                           submission)
///   device.fallbacks        degradations taken: O_DIRECT rejected by the
///                           filesystem, io_uring unavailable, a vectored op
///                           completing short
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
/// MemoryBlockDevice backs the evaluation, while FileBlockDevice and
/// DirectBlockDevice (storage/direct_device.h) run the same code against a
/// real filesystem.
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

/// Loops ::pread until `count` bytes at `offset` are transferred, retrying
/// EINTR and short reads. A zero-byte transfer (EOF before `count` bytes) and
/// any error surface errno in the Status message. Shared by FileBlockDevice
/// and DirectBlockDevice.
Status PreadFull(int fd, std::byte* buf, std::size_t count, off_t offset,
                 const std::string& path);

/// Loops ::pwrite until `count` bytes at `offset` are transferred, retrying
/// EINTR and short writes; errors surface errno in the Status message.
Status PwriteFull(int fd, const std::byte* buf, std::size_t count, off_t offset,
                  const std::string& path);

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

/// File-backed device using buffered POSIX pread/pwrite, with contiguous
/// runs of a batch coalesced into single preadv/pwritev submissions.
class FileBlockDevice final : public BlockDevice {
 public:
  /// Creates (truncates) or opens `path`. Check `ok()` before use. `metrics`
  /// (optional, must outlive the device) aggregates submissions into the
  /// shared "device.*" namespace; `batching` false degrades every batch to
  /// one syscall per block (the CI comparison baseline).
  FileBlockDevice(const std::string& path, std::size_t block_size, bool truncate = true,
                  MetricRegistry* metrics = nullptr, bool batching = true);
  ~FileBlockDevice() override;

  bool ok() const { return fd_ >= 0; }
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
  /// Shared body of ReadBatch/WriteBatch: one preadv/pwritev per maximal
  /// contiguous run (capped at one iovec table); a short completion finishes
  /// the run with the full-transfer loop.
  Status BatchIo(std::span<const BlockId> ids, std::span<std::byte* const> outs,
                 std::span<const std::byte* const> datas, bool write);

  int fd_ = -1;
  BlockId num_blocks_ = 0;
  std::string path_;
  bool batching_ = true;
  DeviceTelemetry telemetry_;
};

}  // namespace liod

#endif  // LIOD_STORAGE_BLOCK_DEVICE_H_
