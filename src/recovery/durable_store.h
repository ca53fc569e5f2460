#ifndef LIOD_RECOVERY_DURABLE_STORE_H_
#define LIOD_RECOVERY_DURABLE_STORE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/block_device.h"

namespace liod {

/// Non-owning view of another BlockDevice. The durability files must survive
/// the index that writes them (that is the whole point of a crash-recovery
/// test), but PagedFile owns its device -- so the index wraps the slot's
/// devices in this forwarder and the slot keeps the real storage alive.
class BorrowedBlockDevice final : public BlockDevice {
 public:
  explicit BorrowedBlockDevice(BlockDevice* base)
      : BlockDevice(base->block_size()), base_(base) {}

  Status Read(BlockId id, std::byte* out) override { return base_->Read(id, out); }
  Status Write(BlockId id, const std::byte* data) override { return base_->Write(id, data); }
  BlockId num_blocks() const override { return base_->num_blocks(); }
  Status Grow(BlockId new_num_blocks) override { return base_->Grow(new_num_blocks); }

  // Forward the batch ops too: a multi-block transfer on a real device
  // should coalesce like any other.
  Status ReadBatch(std::span<const BlockId> ids, std::span<std::byte* const> outs) override {
    return base_->ReadBatch(ids, outs);
  }
  Status WriteBatch(std::span<const BlockId> ids,
                    std::span<const std::byte* const> datas) override {
    return base_->WriteBatch(ids, datas);
  }

 private:
  BlockDevice* base_;  // non-owning
};

/// The durable storage of one index: the devices its write-ahead log and
/// checkpoint files live on. A "crash" in this simulated framework destroys
/// the index (staging area, overlay, dirty frames, and the in-RAM base files
/// all vanish) but not the slot; RecoveryManager rebuilds the index from the
/// slot plus the immutable bulkload set -- the same contract as a DBMS
/// re-opening its table files and replaying the log.
///
/// Tests inject faults by constructing the slot over FaultInjectionDevice
/// wrappers; killing those devices mid-append or mid-checkpoint is the crash.
class DurableSlot {
 public:
  /// Plain in-memory slot (the default; exact counted I/O like every other
  /// simulated device).
  explicit DurableSlot(std::size_t block_size);

  /// Caller-supplied devices (e.g. FaultInjectionDevice wrappers, or
  /// FileBlockDevices for a real-filesystem demonstration).
  DurableSlot(std::unique_ptr<BlockDevice> wal_device,
              std::unique_ptr<BlockDevice> checkpoint_device);

  DurableSlot(const DurableSlot&) = delete;
  DurableSlot& operator=(const DurableSlot&) = delete;

  BlockDevice* wal_device() { return wal_device_.get(); }
  BlockDevice* checkpoint_device() { return checkpoint_device_.get(); }

 private:
  std::unique_ptr<BlockDevice> wal_device_;
  std::unique_ptr<BlockDevice> checkpoint_device_;
};

/// A set of DurableSlots, one per shard: ShardedEngine assigns slot i to
/// shard i so every shard logs to its own WAL (the issue's per-shard WAL
/// layout) while recovery can find them again by shard position.
class DurableStore {
 public:
  explicit DurableStore(std::size_t block_size) : block_size_(block_size) {}

  /// Returns slot `i`, creating in-memory slots up to it on first use.
  DurableSlot* slot(std::size_t i);

  /// Installs a caller-built slot at position `i` (growing the store with
  /// in-memory slots as needed), replacing whatever was there. The server
  /// uses this to back shard i with stable on-disk WAL/checkpoint files that
  /// a restarted process can reopen. Must happen before the engine takes the
  /// slot pointer (Bulkload/RecoverFrom).
  void InstallSlot(std::size_t i, std::unique_ptr<DurableSlot> slot);

  std::size_t size() const { return slots_.size(); }

 private:
  std::size_t block_size_;
  std::vector<std::unique_ptr<DurableSlot>> slots_;
};

}  // namespace liod

#endif  // LIOD_RECOVERY_DURABLE_STORE_H_
