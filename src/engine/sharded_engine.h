#ifndef LIOD_ENGINE_SHARDED_ENGINE_H_
#define LIOD_ENGINE_SHARDED_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "core/index.h"
#include "engine/heat_tracker.h"
#include "kv/request.h"
#include "recovery/durable_store.h"
#include "recovery/wal_writer.h"
#include "storage/io_stats.h"

namespace liod {

/// Configuration of one ShardedEngine.
struct EngineOptions {
  std::string index_name = "btree";  ///< factory name of the per-shard index
  std::size_t num_shards = 1;        ///< requested shards (clamped to key count)
  /// Options applied to every shard. With index.shared_buffer_budget_blocks
  /// > 0 (and no index.shared_buffer_manager injected), the engine owns one
  /// BufferManager whose budget spans every shard's files (the real-DBMS
  /// global buffer pool); counters stay attributed to the owning shard.
  IndexOptions index;

  /// Never read by the engine (see ShardLockMode): reads always take the
  /// shard latch shared. ROADMAP item 3 deletes this field with the enum.
  ShardLockMode shard_lock_mode = ShardLockMode::kShared;

  /// Durable storage for the shards' WAL/checkpoint files when
  /// index.durability != kNone: shard i logs to slot i (per-shard WALs).
  /// Non-owning; must outlive the engine. Default nullptr: the engine owns a
  /// private store, so durability costs are priced but a crashed engine
  /// cannot be recovered. Inject a store (and keep it) to recover shards
  /// individually via RecoveryManager with the same shard count.
  DurableStore* durable_store = nullptr;

  /// SpaceSaving slots per shard for the workload-heat tracker (top-k hot
  /// keys plus EWMA read/write/scan mix, engine/heat_tracker.h). Heat
  /// tracking activates only when index.metrics is attached AND this is > 0:
  /// with metrics off no tracker is even allocated, so the telemetry-off
  /// path -- and its counted I/O -- is byte-identical to before this knob
  /// existed. 0 disables heat tracking even with metrics on.
  std::size_t heat_top_k = 8;
};

/// Key-range-sharded concurrent execution engine.
///
/// Every DiskIndex in the library lets read-only calls overlap on one
/// instance but needs writes to run alone (core/index.h). The engine scales
/// indexes to M client threads by partitioning the key space across N shards
/// -- boundaries chosen from the sorted bulkload set so shards start equally
/// loaded -- running one index per shard, and enforcing that contract with
/// one reader/writer latch per shard: Lookup and Scan take it shared, every
/// op that writes (and the flushes) takes it exclusive.
/// Lookups, inserts, and read-modify-writes touch exactly one shard; scans
/// stitch results across shard boundaries in key order (shards are visited
/// in increasing order, so concurrent scans cannot deadlock).
///
/// Scan guarantee (deliberately relaxed): a cross-shard scan latches one
/// shard at a time, so it is NOT a point-in-time snapshot of the whole
/// engine -- a racing insert may land behind the scan's cursor in a shard it
/// has already released and be missed, or land ahead of it and be observed.
/// Each per-shard segment IS atomic, and the stitched result is always
/// sorted by strictly increasing key, contains every record that existed
/// before the scan started (and was not concurrently deleted), and contains
/// no torn or invented records. This matches what key-ordered iterators
/// give under reader/writer latching in real DBMSs; a snapshot scan would
/// need to latch all shards at once, serializing the engine.
///
/// After Bulkload (or RecoverFrom) returns, Execute and the per-op wrappers
/// (Lookup/Insert/Delete/ReadModifyWrite/Scan) plus the merged stat readers
/// are safe from any number of threads. Bulkload, RecoverFrom, DropCaches,
/// and shard() are not thread-safe.
class ShardedEngine {
 public:
  explicit ShardedEngine(const EngineOptions& options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Partitions `records` (sorted by strictly increasing key) into key
  /// ranges, instantiates one index per shard via the factory, and bulkloads
  /// the shards in parallel. Must be called exactly once, before any
  /// operation.
  Status Bulkload(std::span<const Record> records);

  /// Aggregate recovery outcome of RecoverFrom, summed/or-ed across shards.
  struct RecoverySummary {
    std::uint64_t replayed_records = 0;
    std::uint64_t checkpoint_entries = 0;
    std::uint64_t wal_blocks_read = 0;
    std::uint64_t checkpoint_blocks_read = 0;
    bool torn_tail = false;
  };

  /// Crash-recovery alternative to Bulkload: rebuilds every shard from
  /// `store`'s slot i (checkpoint + committed WAL tail, via RecoveryManager)
  /// instead of bulkloading fresh indexes. `records` must be the ORIGINAL
  /// bulkload set -- shard cut points are recomputed from it exactly as
  /// Bulkload would, so shard i finds its own WAL in slot i. Requires
  /// options().index.durability != kNone; like Bulkload, callable exactly
  /// once. The recovered engine answers the committed prefix bit-equal to
  /// the crashed one.
  Status RecoverFrom(DurableStore* store, std::span<const Record> records,
                     RecoverySummary* summary = nullptr);

  /// THE entry point -- the one op-dispatch path of the tree. Resizes
  /// batch.responses to batch.requests, partitions the requests by owning
  /// shard, visits shards in increasing order (the engine-wide deadlock-free
  /// latch order), and takes each shard's latch ONCE per batch: exclusively
  /// when the shard's group contains any write (whose WAL appends ride the
  /// shared GroupCommitWindow, so a batch of writes group-commits together),
  /// shared otherwise. Within a shard, requests execute in batch order;
  /// across shards, shard order wins (documented relaxation -- single-request
  /// batches are unaffected, and the runner drives batch size 1, which keeps
  /// its op interleaving and counted I/O bit-exact with the historical per-op
  /// calls). A one-request batch needs no heap allocation.
  ///
  /// Scans that exhaust their home shard continue across subsequent shards
  /// after the partitioned pass, one latch at a time (the same relaxed
  /// cross-shard guarantee as before this API existed).
  ///
  /// Per-op outcomes land in batch.responses[i].code (lookup miss =>
  /// kNotFound, never a batch failure). Like kv::ExecuteOnIndex, every
  /// request is attempted; the returned Status is Ok unless some op hit a
  /// hard failure, in which case the first such failure is returned after
  /// the batch completes. When `io` is non-null, the exact block I/O the
  /// batch performed on this thread is accumulated into it (per-thread I/O
  /// attribution for the runner, exact even beside parallel readers). When
  /// `shared_io` is non-null, the I/O of the batch's shared-latch reads is
  /// also accumulated into (*shared_io)[owning shard] (resized to
  /// num_shards() as needed): the runner's makespan model needs to know
  /// which I/O did not serialize against other readers.
  ///
  /// Telemetry is recorded once per call: a one-request batch is an op
  /// (`engine.<kind>_us` histogram, `<kind>` span tagged with the owning
  /// shard), a larger batch is one `engine.execute_us` sample and one
  /// `execute` span. `shard<i>.ops.<kind>` counts every request either way.
  Status Execute(kv::RequestBatch& batch, IoStatsSnapshot* io = nullptr,
                 std::vector<IoStatsSnapshot>* shared_io = nullptr);

  // The per-op methods below are thin wrappers that run a single-request
  // batch through Execute's dispatch -- kept because "look up one key"
  // deserves a signature, not because they are a second path.

  /// Point lookup on the owning shard (shared latch). `io` as on Execute.
  Status Lookup(Key key, Payload* payload, bool* found, IoStatsSnapshot* io = nullptr);

  /// Upsert on the owning shard (always exclusive).
  Status Insert(Key key, Payload payload, IoStatsSnapshot* io = nullptr);

  /// Delete on the owning shard (always exclusive). kUnimplemented unless
  /// the shard indexes carry an update buffer (IndexOptions::
  /// update_buffer_blocks > 0 or durability != kNone).
  Status Delete(Key key, IoStatsSnapshot* io = nullptr);

  /// YCSB-F read-modify-write: lookup then upsert, atomically under the
  /// owning shard's lock (always exclusive).
  Status ReadModifyWrite(Key key, Payload payload, bool* found,
                         IoStatsSnapshot* io = nullptr);

  /// Range scan from `start_key` (or its successor) for up to `count`
  /// records, continuing across shard boundaries until satisfied. A count
  /// above UINT32_MAX (the request's scan_count) saturates there. See the
  /// class comment for the (relaxed) cross-shard consistency guarantee.
  Status Scan(Key start_key, std::size_t count, std::vector<Record>* out,
              IoStatsSnapshot* io = nullptr);

  /// Empties every shard's buffer frames, flushing dirty ones first
  /// (benchmarks start cold). Not thread-safe. Returns the first flush
  /// error, if any.
  Status DropCaches();

  /// Writes back every shard's dirty frames (no-op under write-through).
  /// Takes each shard exclusively; the concurrent runner calls it after the
  /// measured window so deferred write-back I/O is attributed to the run.
  Status FlushBuffers();

  /// Drains every shard's out-of-place update buffer into its base index
  /// (no-op for in-place indexes). Takes each shard exclusively; the
  /// concurrent runner calls it at the end of the measured window, before
  /// FlushBuffers, so deferred merge I/O lands in the run that staged it.
  Status FlushUpdates();

  /// Sum of all shards' I/O counters. Thread-safe.
  IoStatsSnapshot MergedIo() const;

  /// Each shard's I/O counters, indexed by shard. Thread-safe.
  std::vector<IoStatsSnapshot> PerShardIo() const;

  /// Merged structural stats: counts and bytes sum across shards, height is
  /// the maximum. Thread-safe.
  IndexStats MergedStats() const;

  /// True when per-shard heat trackers are active (metrics attached and
  /// options().heat_top_k > 0 at Bulkload/RecoverFrom time).
  bool heat_enabled() const { return !heat_.empty(); }

  /// Snapshot of every shard's heat tracker, indexed by shard; empty when
  /// heat tracking is disabled. Thread-safe.
  std::vector<HeatSnapshot> HeatSnapshots() const;

  const EngineOptions& options() const { return options_; }
  std::size_t num_shards() const { return shards_.size(); }
  /// Inclusive lower key bound of each shard's range; front() is kMinKey.
  const std::vector<Key>& shard_lower_bounds() const { return lower_bounds_; }
  /// Index of the shard owning `key`.
  std::size_t ShardFor(Key key) const;
  /// Direct access to one shard's index (tests and reporting; not
  /// thread-safe).
  DiskIndex* shard(std::size_t i) { return shards_[i]->index.get(); }

 private:
  /// Cache-line aligned so that no two shards' latches share a line: an
  /// acquisition on one shard must not invalidate its neighbour's latch.
  struct alignas(64) Shard {
    std::unique_ptr<DiskIndex> index;
    /// Reader/writer latch: reads take it shared, writes and flushes
    /// exclusive.
    mutable std::shared_mutex mu;
  };

  /// The set-up Bulkload and RecoverFrom share: checks that `records` is
  /// sorted, fixes the shard count and the cut points (shard i owns
  /// records[(*cuts)[i], (*cuts)[i+1]) and lower_bounds_), and returns the
  /// per-shard options template in `shard_options`, wired to the cross-shard
  /// buffer manager and group-commit window when configured. Rejects a
  /// block size outside IndexOptions::block_size's contract.
  Status PlanShards(std::span<const Record> records, std::vector<std::size_t>* cuts,
                    IndexOptions* shard_options);
  /// Undoes a failed Bulkload/RecoverFrom, so it never leaves a half-built
  /// engine looking ready.
  void ResetShards();

  /// Dispatches `reqs` into `resps` (equal length, non-empty): the body of
  /// Execute, also driven by the per-op wrappers with one stack request.
  Status Dispatch(std::span<const kv::Request> reqs, std::span<kv::Response> resps,
                  IoStatsSnapshot* io, std::vector<IoStatsSnapshot>* shared_io);
  /// Runs `op` (invocable with DiskIndex*) on shard `s` under its latch --
  /// exclusively when `write`, shared otherwise -- attributing its I/O to
  /// `io`/`shared_io` as documented on Execute.
  /// Defined in the .cc; all instantiations live there.
  template <typename Op>
  Status RunOnShard(std::size_t s, bool write, IoStatsSnapshot* io,
                    std::vector<IoStatsSnapshot>* shared_io, const Op& op);
  /// Contended path of a shared acquisition: counts the wait (IoStats +
  /// telemetry lock-wait counter/histogram/span) around the blocking shared
  /// acquisition. The caller adopts the latch.
  void BlockingSharedAcquire(std::size_t s, Shard& shard);
  /// Continues a scan whose home-shard segment came up short across shards
  /// > `home`, one latch at a time (the relaxed cross-shard guarantee).
  Status ContinueScan(std::size_t home, const kv::Request& req, kv::Response* resp,
                      IoStatsSnapshot* io, std::vector<IoStatsSnapshot>* shared_io);
  /// Bumps the per-shard op counter for `kind` and feeds the shard's heat
  /// tracker with `key` (metrics_ must be non-null).
  void CountOp(std::size_t s, kv::OpKind kind, Key key);

  /// Caches the telemetry escape hatches from options_.index and registers
  /// the engine's metrics (per-shard op/lock-wait counters, engine-level
  /// latency histograms, per-shard buffer gauges). Called at the end of a
  /// successful Bulkload, once the shard count is final.
  void RegisterTelemetry();

  Status CheckReady() const;

  /// Per-shard telemetry metric ids (shard_metric_ids_[s]), resolved once in
  /// RegisterTelemetry so hot paths never touch the registry's name maps.
  struct ShardMetricIds {
    std::array<std::size_t, kv::kNumOpKinds> ops{};  ///< counters: shard<s>.ops.<kind>
    std::size_t lock_waits = 0;                      ///< counter: shard<s>.lock_waits
  };

  EngineOptions options_;
  /// Cross-shard buffer manager (index.shared_buffer_budget_blocks > 0).
  /// Declared before shards_ so shards (whose files unregister on
  /// destruction) are destroyed first.
  std::unique_ptr<BufferManager> shared_buffers_;
  /// Engine-owned durable store (durability on, none injected) and the
  /// cross-shard group-commit window. Both declared before shards_: shards
  /// reference them until destroyed.
  std::unique_ptr<DurableStore> owned_durable_store_;
  std::unique_ptr<GroupCommitWindow> group_commit_;
  std::vector<std::unique_ptr<Shard>> shards_;  // unique_ptr: stable latches
  std::vector<Key> lower_bounds_;

  // --- telemetry (inactive when options_.index.metrics / .trace are null) --
  MetricRegistry* metrics_ = nullptr;  ///< cached from options_.index.metrics
  TraceRecorder* trace_ = nullptr;     ///< cached from options_.index.trace
  std::vector<ShardMetricIds> shard_metric_ids_;
  /// Engine-level latency histograms (whole call including shard latching):
  /// engine.<kind>_us per op kind, recorded by one-request calls.
  std::array<std::size_t, kv::kNumOpKinds> op_us_ids_{};
  std::size_t execute_us_id_ = 0;    ///< engine.execute_us (multi-request batches)
  std::size_t lock_wait_us_id_ = 0;  ///< engine.lock_wait_us
  /// Per-shard heat trackers (empty unless metrics attached and heat_top_k >
  /// 0), fed by CountOp and exported as shard<i>.heat.* gauges.
  std::vector<std::unique_ptr<ShardHeatTracker>> heat_;
  /// Per-shard buffer and heat gauges (RegisterBufferGauges + shard<i>.heat.*),
  /// unregistered in the destructor before the shards -- and their IoStats
  /// and heat trackers -- are destroyed.
  std::vector<std::string> gauge_names_;
};

}  // namespace liod

#endif  // LIOD_ENGINE_SHARDED_ENGINE_H_
