#ifndef LIOD_COMMON_OPTIONS_H_
#define LIOD_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace liod {

/// ALEX on-disk layout variants from Section 4.1 of the paper.
enum class AlexLayout {
  kSingleFile = 1,  ///< Layout#1: inner and data nodes share one file.
  kSplitFiles = 2,  ///< Layout#2: one file per node class (the paper's pick).
};

/// Eviction policy of the buffer manager (storage/buffer_manager.h). The
/// paper's buffering study (Section 6.5) only considers LRU; clock and FIFO
/// are the classic DBMS alternatives exposed as a new scenario axis.
enum class BufferPolicy {
  kLru,    ///< exact least-recently-used (the paper's policy)
  kClock,  ///< second-chance approximation of LRU
  kFifo,   ///< first-in first-out (no recency tracking)
};

inline const char* BufferPolicyName(BufferPolicy policy) {
  switch (policy) {
    case BufferPolicy::kLru: return "lru";
    case BufferPolicy::kClock: return "clock";
    case BufferPolicy::kFifo: return "fifo";
  }
  return "unknown";
}

/// Parses "lru" / "clock" / "fifo". Returns false on an unknown name.
inline bool BufferPolicyFromName(const std::string& name, BufferPolicy* out) {
  if (name == "lru") {
    *out = BufferPolicy::kLru;
  } else if (name == "clock") {
    *out = BufferPolicy::kClock;
  } else if (name == "fifo") {
    *out = BufferPolicy::kFifo;
  } else {
    return false;
  }
  return true;
}

/// Storage backend of every paged file (storage/device_factory.h). The
/// modeled device backs all benchmarks: exact, deterministic counted I/O.
/// The real devices issue actual syscalls so wall-clock columns can be
/// measured beside the modeled ones; counted I/O is bit-identical across all
/// three kinds (the buffer manager does the counting and never consults the
/// device type).
enum class DeviceKind {
  kModeled,  ///< in-RAM MemoryBlockDevice (default; the determinism oracle)
  kFile,     ///< buffered file I/O (pread/pwrite + preadv/pwritev batches)
  kDirect,   ///< O_DIRECT + aligned buffers, io_uring/preadv batch submission
};

inline const char* DeviceKindName(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kModeled: return "modeled";
    case DeviceKind::kFile: return "file";
    case DeviceKind::kDirect: return "direct";
  }
  return "unknown";
}

/// Parses "modeled" / "file" / "direct". Returns false on an unknown name.
inline bool DeviceKindFromName(const std::string& name, DeviceKind* out) {
  if (name == "modeled") {
    *out = DeviceKind::kModeled;
  } else if (name == "file") {
    *out = DeviceKind::kFile;
  } else if (name == "direct") {
    *out = DeviceKind::kDirect;
  } else {
    return false;
  }
  return true;
}

/// How the out-of-place update buffer (src/updates/) drains staged updates
/// back into the base index. Only consulted when update_buffer_blocks > 0.
enum class MergeMode {
  kSync,        ///< merge inline on the writing thread at the fill threshold
  kBackground,  ///< merge on a dedicated thread (one per index/shard)
};

inline const char* MergeModeName(MergeMode mode) {
  switch (mode) {
    case MergeMode::kSync: return "sync";
    case MergeMode::kBackground: return "background";
  }
  return "unknown";
}

/// Parses "sync" / "background". Returns false on an unknown name.
inline bool MergeModeFromName(const std::string& name, MergeMode* out) {
  if (name == "sync") {
    *out = MergeMode::kSync;
  } else if (name == "background") {
    *out = MergeMode::kBackground;
  } else {
    return false;
  }
  return true;
}

/// The ShardedEngine's shard latch discipline, kept only because the
/// repository benchmark (perfbench/) still assigns
/// EngineOptions::shard_lock_mode. The engine has one rule (reads shared,
/// writes exclusive) and never reads the value. ROADMAP item 3 deletes this
/// enum and the field together with that assignment.
enum class ShardLockMode {
  kShared,  ///< readers share the shard latch; writers hold it exclusively
};

/// Durability of the buffered write path (src/recovery/). Decides when a
/// staged Insert/Delete's write-ahead-log record reaches the device relative
/// to the operation's return -- the classic commit-latency vs write-cost
/// trade-off the LSM designs surveyed by "Are Updatable Learned Indexes
/// Ready?" all pay. Only consulted by the out-of-place update decorator.
enum class DurabilityPolicy {
  kNone,         ///< no WAL at all (the paper's volatile setting; default)
  kAsync,        ///< WAL records buffered in memory, written per full block;
                 ///< a crash may lose the unwritten tail
  kGroupCommit,  ///< WAL forced every wal_group_window operations (shared
                 ///< across shards under a ShardedEngine)
  kSyncPerOp,    ///< WAL forced before every operation returns
};

inline const char* DurabilityPolicyName(DurabilityPolicy policy) {
  switch (policy) {
    case DurabilityPolicy::kNone: return "none";
    case DurabilityPolicy::kAsync: return "async";
    case DurabilityPolicy::kGroupCommit: return "group-commit";
    case DurabilityPolicy::kSyncPerOp: return "sync-per-op";
  }
  return "unknown";
}

/// Parses "none" / "async" / "group-commit" / "sync-per-op". Returns false on
/// an unknown name.
inline bool DurabilityPolicyFromName(const std::string& name, DurabilityPolicy* out) {
  if (name == "none") {
    *out = DurabilityPolicy::kNone;
  } else if (name == "async") {
    *out = DurabilityPolicy::kAsync;
  } else if (name == "group-commit") {
    *out = DurabilityPolicy::kGroupCommit;
  } else if (name == "sync-per-op") {
    *out = DurabilityPolicy::kSyncPerOp;
  } else {
    return false;
  }
  return true;
}

class BufferManager;     // storage/buffer_manager.h
class DurableSlot;       // recovery/durable_store.h
class GroupCommitWindow; // recovery/wal_writer.h
class MetricRegistry;    // telemetry/metric_registry.h
class TraceRecorder;     // telemetry/trace_recorder.h

/// Shared configuration for every index in the library. Defaults follow the
/// paper's experimental setup (Section 5.3). Each field documents its unit,
/// default, and which index families consume it.
struct IndexOptions {
  /// Disk block size. Unit: bytes; default 4096; consumed by every index
  /// family (it is the allocation and I/O granularity of all paged files).
  /// The paper fixes 4 KB except in the block-size study (Section 6.4),
  /// which sweeps 1 KB - 16 KB. Must be a power of two and >= 512
  /// (IsValidBlockSize); ShardedEngine rejects any other value.
  std::size_t block_size = 4096;

  /// Buffer budget, per file. Unit: blocks (frames); default 1; consumed by
  /// every index family via PagedFile/BufferManager. The paper's default
  /// setting has no buffer management except reusing the last fetched block
  /// (Section 6.5), i.e. capacity 1. The buffer study (Figure 13) sweeps
  /// this. Ignored for a file when shared_buffer_budget_blocks > 0 (the file
  /// then draws from the shared pool). 0 is invalid and rejected with
  /// kInvalidArgument on first buffer access.
  std::size_t buffer_pool_blocks = 1;

  /// Shared buffer budget across ALL files of the index (under a
  /// ShardedEngine, across every shard's files). Unit: blocks (frames);
  /// default 0 = disabled, i.e. the paper's per-file budgets above. When
  /// > 0, every counted file draws frames from one pool of this size -- the
  /// real-DBMS buffer-pool configuration the paper stops short of. Consumed
  /// by DiskIndex::MakeFile via BufferManager.
  std::size_t shared_buffer_budget_blocks = 0;

  /// Eviction policy of every buffer pool (per-file and shared). Default
  /// kLru, the paper's policy; clock/fifo open the policy axis of
  /// bench/buffer_policy_sweep. Consumed via BufferManager.
  BufferPolicy buffer_policy = BufferPolicy::kLru;

  /// Unit: flag; default false (the paper's write-through accounting: every
  /// logical block write is a counted device write). When true, writes only
  /// dirty the cached frame and the device write is paid (and counted) on
  /// eviction or flush -- the write-back mode of a real buffer pool.
  /// Consumed via BufferManager; the workload runners flush at the end of
  /// each measured window so deferred writes are attributed to it.
  bool buffer_write_back = false;

  /// Non-owning escape hatch: when set, the index registers its files with
  /// this externally owned manager instead of creating its own -- how
  /// ShardedEngine spans one budget across shards. The manager must outlive
  /// the index. Default nullptr; consumed by DiskIndex.
  BufferManager* shared_buffer_manager = nullptr;

  /// Out-of-place update buffering (src/updates/buffered_index.h). Unit:
  /// blocks; default 0 = disabled, the paper's in-place update path. When
  /// > 0, the factory wraps the index in an UpdateBufferedIndex decorator:
  /// Insert/Delete are absorbed into a sorted in-memory staging area of this
  /// many block-equivalents, spilled to append-only sorted runs (counted
  /// block writes) on overflow, and merged back into the base structure per
  /// update_buffer_merge_mode/threshold. Consumed by MakeIndex; applies to
  /// every factory index with zero per-index changes.
  std::size_t update_buffer_blocks = 0;

  /// When the buffered volume (staging + spilled runs) reaches this fraction
  /// of the staging capacity, a merge is triggered. Unit: fraction > 0;
  /// default 1.0 (merge exactly when the staging area fills, never spilling).
  /// Values > 1 let the buffer spill runs to disk before merging (e.g. 4.0
  /// merges after ~3 spilled runs). Consumed by UpdateBufferedIndex.
  double update_buffer_merge_threshold = 1.0;

  /// Whether threshold-triggered merges run inline on the writing thread
  /// (kSync, default) or on a dedicated background thread, one per index --
  /// and therefore one per shard under a ShardedEngine (kBackground).
  /// Consumed by UpdateBufferedIndex.
  MergeMode update_buffer_merge_mode = MergeMode::kSync;

  /// Durability of the buffered write path (src/recovery/). Unit: enum;
  /// default kNone, the paper's volatile setting: no WAL file is constructed
  /// at all and every existing I/O count stays bit-exact. Any other value
  /// requires the out-of-place update path (the factory wraps the index in
  /// the UpdateBufferedIndex decorator even when update_buffer_blocks is 0,
  /// which then uses a 1-block staging area) and gives every Insert/Delete a
  /// write-ahead-log record (LSN + CRC, counted FileClass::kWal block I/O)
  /// whose device write is scheduled per the policy. Consumed by
  /// UpdateBufferedIndex.
  DurabilityPolicy durability = DurabilityPolicy::kNone;

  /// Group-commit window: WAL records from this many operations are forced
  /// with one tail-block write. Unit: operations; default 8; consumed by
  /// WalWriter when durability == kGroupCommit. Under a ShardedEngine the
  /// window is shared across every shard's WAL (one commit window for the
  /// whole engine), so the amortization survives sharding.
  std::size_t wal_group_window = 8;

  /// Checkpoint cadence in logged operations: every N Insert/Delete ops the
  /// decorator snapshots its durable state and truncates the WAL. Unit:
  /// operations; default 0 = checkpoint only after merges (every drain ends
  /// with a checkpoint) and at FlushUpdates. Smaller values bound WAL replay
  /// length at the price of more checkpoint I/O (bench/recovery_sweep).
  /// Consumed by UpdateBufferedIndex when durability != kNone.
  std::size_t checkpoint_every_ops = 0;

  /// Non-owning escape hatch: devices the WAL and checkpoint files live on,
  /// surviving the index so a RecoveryManager can rebuild from them after a
  /// crash. Default nullptr: the decorator owns a private in-memory slot
  /// (durability costs are still counted, but there is nothing to recover
  /// from once the index dies). The slot must outlive the index. Consumed by
  /// UpdateBufferedIndex when durability != kNone.
  DurableSlot* durable_slot = nullptr;

  /// Non-owning escape hatch: a shared group-commit window spanning several
  /// WALs -- how ShardedEngine amortizes commits across shards. Default
  /// nullptr: the decorator owns a private window. Must outlive the index.
  /// Consumed by UpdateBufferedIndex when durability == kGroupCommit.
  GroupCommitWindow* group_commit = nullptr;

  /// Non-owning escape hatch: when set, the components under this index
  /// (UpdateBufferedIndex, WalWriter, RecoveryManager, plus ShardedEngine
  /// and the runners, which read it from their own options) record named
  /// counters/gauges/histograms here. Default nullptr = telemetry off: the
  /// hot paths see one null-pointer branch and every existing bit-exact I/O
  /// pin is untouched. Metrics observe, never perturb: recording changes no
  /// counted device I/O. Must outlive the index (gauges registered by the
  /// decorator are unregistered in its destructor). Consumed via
  /// src/telemetry/.
  MetricRegistry* metrics = nullptr;

  /// Non-owning escape hatch: span recorder for the same components (op,
  /// merge-drain, WAL-force, checkpoint, lock-wait spans; Chrome trace-event
  /// export). Default nullptr = off. Must outlive the index.
  TraceRecorder* trace = nullptr;

  /// Prefix for every metric name the index's own components register
  /// ("shard3." under an engine). Default "" (standalone index). Consumed
  /// wherever `metrics` is.
  std::string metrics_prefix;

  /// Unit: flag; default false; consumed by every index family. When true,
  /// inner-node files are pinned in main memory and their I/O is excluded
  /// from disk statistics -- the "hybrid case" of Section 6.2.
  bool memory_resident_inner = false;

  /// Unit: flag; default false; consumed by every index family's file
  /// allocator. When true, freed blocks may be recycled by later
  /// allocations. The paper does not reclaim invalid disk space
  /// (Section 6.3); kept as an ablation (ablation_storage_reuse).
  bool reuse_freed_space = false;

  /// Storage backend of every paged file. Default kModeled, the in-RAM
  /// simulated disk behind all benchmarks. kFile/kDirect issue real syscalls
  /// (buffered / O_DIRECT with batched submission) so modeled numbers can be
  /// validated against wall-clock ones; counted block I/O stays bit-identical
  /// across kinds. Consumed by DiskIndex::MakeFile via MakeBlockDevice.
  DeviceKind device = DeviceKind::kModeled;

  /// Directory the real devices (kFile/kDirect) create their files in.
  /// Unit: filesystem path; default "" -- the CLI then creates (and removes)
  /// a temporary directory; library callers must set it when device !=
  /// kModeled. Ignored for kModeled. Consumed via MakeBlockDevice.
  std::string device_path;

  /// Unit: flag; default true; consumed by the real devices. When true,
  /// multi-block reads/writes coalesce contiguous runs into vectored batch
  /// submissions (io_uring where available, preadv/pwritev otherwise): an
  /// N-block fetch is one submission, not N syscalls. False issues one
  /// syscall per block -- the CI baseline that pins the batch path's syscall
  /// savings. Never changes counted I/O, only how the device submits it.
  bool device_batching = true;

  // --- B+-tree ----------------------------------------------------------
  /// Leaf/inner fill fraction used during bulkload. Unit: fraction in
  /// (0, 1]; default 0.8; consumed by the B+-tree and by the FITing-tree
  /// (its directory and segment fill); the hybrids' B+-tree-styled leaves
  /// use hybrid_leaf_fill below instead. 0.8 reproduces the paper's 980,393
  /// leaves for 200M keys in 4 KB blocks (Table 3).
  double btree_fill_factor = 0.8;

  // --- FITing-tree ------------------------------------------------------
  /// Maximum prediction error of a segment's linear model. Unit: records
  /// (slots of offset error); default 64 (the paper's pick, Section 5.3);
  /// consumed by the FITing-tree and hybrid-fiting.
  std::uint32_t fiting_error_bound = 64;
  /// Delta-insert buffer capacity per segment. Unit: records; default 256
  /// (paper default); consumed by the FITing-tree only (hybrid-fiting's
  /// B+-tree-styled leaves have no delta buffers).
  std::uint32_t fiting_buffer_capacity = 256;

  // --- PGM --------------------------------------------------------------
  /// Leaf-level error bound. Unit: records; default 64 (paper default);
  /// consumed by DynamicPGM and hybrid-pgm.
  std::uint32_t pgm_error_bound = 64;
  /// Error bound of recursive (inner) levels. Unit: records; default 16;
  /// consumed by DynamicPGM and by both PLA-based hybrids (hybrid-pgm and
  /// hybrid-fiting build their inner structure as a recursive PGM).
  std::uint32_t pgm_inner_error_bound = 16;
  /// Capacity of the LSM insert buffer. Unit: records; default 585 -- the
  /// paper observed a sorted array of 585 records (~3 blocks at 4 KB),
  /// Section 6.1.3; consumed by DynamicPGM only (hybrid-pgm's inner is a
  /// static PGM with no insert buffer).
  std::uint32_t pgm_insert_buffer_records = 585;

  // --- ALEX -------------------------------------------------------------
  /// On-disk layout variant (Section 4.1). Default kSplitFiles (Layout#2,
  /// the paper's pick); consumed by ALEX only ("alex-l1" selects
  /// kSingleFile via the factory).
  AlexLayout alex_layout = AlexLayout::kSplitFiles;
  /// Upper bound on a data node's slot count. Unit: slots (records);
  /// default 65536; consumed by ALEX only (hybrid-alex's inner is a fence
  /// array plus root model, not ALEX nodes). The original ALEX allows data
  /// nodes up to 16 MB; the scaled default keeps SMOs frequent at bench
  /// scale (BenchOptions() lowers it further to 4096).
  std::uint32_t alex_max_data_node_slots = 1 << 16;
  /// Initial gapped-array density after bulkload/retrain. Unit: fraction in
  /// (0, 1); default 0.7 (original ALEX); consumed by ALEX only.
  double alex_initial_density = 0.7;
  /// Density that triggers an SMO. Unit: fraction in (0, 1]; default 0.8
  /// (original ALEX upper density limit); consumed by ALEX only.
  double alex_max_density = 0.8;
  /// Maximum fanout of an inner node. Unit: child pointers (power of two);
  /// default 1024; consumed by ALEX only.
  std::uint32_t alex_max_fanout = 1 << 10;

  // --- LIPP -------------------------------------------------------------
  /// Node-size multipliers by key count, per the paper's O11: below
  /// lipp_small_node_limit keys -> 5x slots, below lipp_medium_node_limit
  /// -> 2x, at or above it -> 1x. Unit: keys; defaults 100,000 and
  /// 1,000,000; consumed by LIPP only (hybrid-lipp's inner is not built
  /// from LIPP nodes).
  std::uint32_t lipp_small_node_limit = 100'000;
  std::uint32_t lipp_medium_node_limit = 1'000'000;
  /// Subtree rebuild trigger: rebuild when conflict inserts reach this
  /// fraction of the node's total inserts. Unit: fraction in (0, 1];
  /// default 0.1 (LIPP uses ~1/10); consumed by LIPP only.
  double lipp_rebuild_conflict_ratio = 0.1;

  // --- Hybrid (Section 6.1.2) -------------------------------------------
  /// Fill fraction of the B+-tree-styled leaf blocks under a learned inner
  /// structure. Unit: fraction in (0, 1]; default 0.8 (mirrors
  /// btree_fill_factor); consumed by all four hybrid-* indexes.
  double hybrid_leaf_fill = 0.8;
};

/// IndexOptions::block_size's contract: a power of two of at least 512 bytes.
inline bool IsValidBlockSize(std::size_t block_size) {
  return block_size >= 512 && (block_size & (block_size - 1)) == 0;
}

}  // namespace liod

#endif  // LIOD_COMMON_OPTIONS_H_
