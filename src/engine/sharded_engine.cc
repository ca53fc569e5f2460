#include "engine/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "core/index_factory.h"
#include "kv/execute.h"
#include "recovery/recovery_manager.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_recorder.h"

namespace liod {

namespace {

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Shard i's options: its durable slot (per-shard WALs: shard i logs to
/// `store`'s slot i) and, with telemetry on, the "shard<i>." namespace the
/// decorator and WAL register their counters/gauges under, so one registry
/// can hold every shard.
IndexOptions ShardOptions(IndexOptions options, std::size_t i, DurableStore* store) {
  if (store != nullptr) options.durable_slot = store->slot(i);
  if (options.metrics != nullptr || options.trace != nullptr) {
    options.metrics_prefix = "shard" + std::to_string(i) + ".";
  }
  return options;
}

}  // namespace

ShardedEngine::ShardedEngine(const EngineOptions& options) : options_(options) {
  static_assert(alignof(Shard) == 64, "each shard must start its own cache line");
}

ShardedEngine::~ShardedEngine() {
  // Buffer gauges capture per-shard IoStats pointers; drop them before the
  // shards (declared after metrics_ but destroyed first as members of this
  // object, so ordering here is what matters).
  if (metrics_ != nullptr) {
    for (const std::string& name : gauge_names_) metrics_->UnregisterGauge(name);
  }
}

Status ShardedEngine::CheckReady() const {
  if (shards_.empty()) {
    return Status::FailedPrecondition("ShardedEngine: Bulkload has not been called");
  }
  return Status::Ok();
}

std::size_t ShardedEngine::ShardFor(Key key) const {
  // lower_bounds_ is sorted and starts at kMinKey, so the owning shard is the
  // last bound <= key.
  const auto it = std::upper_bound(lower_bounds_.begin(), lower_bounds_.end(), key);
  return static_cast<std::size_t>(it - lower_bounds_.begin()) - 1;
}

Status ShardedEngine::PlanShards(std::span<const Record> records, std::vector<std::size_t>* cuts,
                                 IndexOptions* shard_options) {
  if (!IsValidBlockSize(options_.index.block_size)) {
    return Status::InvalidArgument("block size must be a power of two >= 512 (got " +
                                   std::to_string(options_.index.block_size) + ")");
  }
  // Validate sortedness up front: each shard only validates its own slice,
  // which would miss a violation straddling a cut point -- and unsorted input
  // would silently break key routing.
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].key <= records[i - 1].key) {
      return Status::InvalidArgument(
          "bulkload input must be sorted by strictly increasing key (violation at index " +
          std::to_string(i) + ")");
    }
  }
  const std::size_t num_shards = std::max<std::size_t>(
      1, std::min(options_.num_shards, std::max<std::size_t>(records.size(), 1)));

  *shard_options = options_.index;
  if (shard_options->shared_buffer_budget_blocks > 0 &&
      shard_options->shared_buffer_manager == nullptr) {
    // One budget spanning all shards: the engine owns the manager and injects
    // it into every shard's index.
    shared_buffers_ = std::make_unique<BufferManager>(BufferManagerOptionsFrom(*shard_options));
    shard_options->shared_buffer_manager = shared_buffers_.get();
  }
  if (shard_options->durability == DurabilityPolicy::kGroupCommit &&
      shard_options->group_commit == nullptr) {
    // Commit forcing is amortized through ONE group-commit window spanning
    // every shard, so the window fills at the engine's aggregate op rate.
    group_commit_ = std::make_unique<GroupCommitWindow>(shard_options->wal_group_window);
    shard_options->group_commit = group_commit_.get();
  }

  // Equal-count cut points over the sorted bulkload set; shard i owns keys in
  // [records[cuts[i]].key, records[cuts[i+1]].key).
  cuts->resize(num_shards + 1);
  for (std::size_t i = 0; i <= num_shards; ++i) (*cuts)[i] = i * records.size() / num_shards;
  lower_bounds_.assign(1, kMinKey);
  for (std::size_t i = 1; i < num_shards; ++i) {
    lower_bounds_.push_back(records[(*cuts)[i]].key);
  }
  return Status::Ok();
}

void ShardedEngine::ResetShards() {
  shards_.clear();
  lower_bounds_.clear();
  shared_buffers_.reset();
  group_commit_.reset();
  owned_durable_store_.reset();
}

Status ShardedEngine::Bulkload(std::span<const Record> records) {
  if (!shards_.empty()) {
    return Status::FailedPrecondition("ShardedEngine: Bulkload already called");
  }
  std::vector<std::size_t> cuts;
  IndexOptions shard_options;
  LIOD_RETURN_IF_ERROR(PlanShards(records, &cuts, &shard_options));
  const std::size_t num_shards = cuts.size() - 1;

  DurableStore* durable_store = nullptr;
  if (shard_options.durability != DurabilityPolicy::kNone) {
    durable_store = options_.durable_store;
    if (durable_store == nullptr) {
      owned_durable_store_ = std::make_unique<DurableStore>(shard_options.block_size);
      durable_store = owned_durable_store_.get();
    }
  }

  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = MakeIndex(options_.index_name, ShardOptions(shard_options, i, durable_store));
    if (shard->index == nullptr) {
      ResetShards();
      return Status::InvalidArgument("ShardedEngine: unknown index '" + options_.index_name +
                                     "'");
    }
    shards_.push_back(std::move(shard));
  }

  // Shards are fully independent (own files, own I/O counters): bulkload them
  // in parallel.
  std::vector<Status> statuses(num_shards);
  auto load_shard = [&](std::size_t i) {
    statuses[i] = shards_[i]->index->Bulkload(records.subspan(cuts[i], cuts[i + 1] - cuts[i]));
  };
  if (num_shards == 1) {
    load_shard(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) workers.emplace_back(load_shard, i);
    for (auto& w : workers) w.join();
  }
  for (const Status& status : statuses) {
    if (!status.ok()) {
      ResetShards();
      return status;
    }
  }
  RegisterTelemetry();
  return Status::Ok();
}

Status ShardedEngine::RecoverFrom(DurableStore* store, std::span<const Record> records,
                                  RecoverySummary* summary) {
  if (!shards_.empty()) {
    return Status::FailedPrecondition("ShardedEngine: Bulkload/RecoverFrom already called");
  }
  if (store == nullptr) {
    return Status::InvalidArgument("ShardedEngine::RecoverFrom: store must be non-null");
  }
  if (options_.index.durability == DurabilityPolicy::kNone) {
    return Status::FailedPrecondition(
        "ShardedEngine::RecoverFrom requires durability != kNone");
  }
  // Cut points MUST be the ones Bulkload computed, so each recovered shard
  // finds its own WAL/checkpoint in the matching store slot.
  std::vector<std::size_t> cuts;
  IndexOptions shard_options;
  LIOD_RETURN_IF_ERROR(PlanShards(records, &cuts, &shard_options));
  const std::size_t num_shards = cuts.size() - 1;

  RecoverySummary agg;
  for (std::size_t i = 0; i < num_shards; ++i) {
    RecoveryResult result;
    const Status status = RecoveryManager::Recover(
        store->slot(i), options_.index_name, ShardOptions(shard_options, i, store),
        records.subspan(cuts[i], cuts[i + 1] - cuts[i]), &result);
    if (!status.ok()) {
      ResetShards();
      return status;
    }
    agg.replayed_records += result.replayed_records;
    agg.checkpoint_entries += result.checkpoint_entries;
    agg.wal_blocks_read += result.wal_blocks_read;
    agg.checkpoint_blocks_read += result.checkpoint_blocks_read;
    agg.torn_tail = agg.torn_tail || result.torn_tail;
    auto shard = std::make_unique<Shard>();
    shard->index = std::move(result.index);
    shards_.push_back(std::move(shard));
  }
  if (summary != nullptr) *summary = agg;
  RegisterTelemetry();
  return Status::Ok();
}

void ShardedEngine::RegisterTelemetry() {
  metrics_ = options_.index.metrics;
  trace_ = options_.index.trace;
  if (metrics_ == nullptr) return;
  for (std::size_t k = 0; k < kv::kNumOpKinds; ++k) {
    const std::string kind = kv::OpKindName(static_cast<kv::OpKind>(k));
    op_us_ids_[k] = metrics_->Histogram("engine." + kind + "_us");
  }
  execute_us_id_ = metrics_->Histogram("engine.execute_us");
  lock_wait_us_id_ = metrics_->Histogram("engine.lock_wait_us");
  shard_metric_ids_.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "shard" + std::to_string(i) + ".";
    ShardMetricIds& ids = shard_metric_ids_[i];
    for (std::size_t k = 0; k < kv::kNumOpKinds; ++k) {
      ids.ops[k] = metrics_->Counter(prefix + "ops." + kv::OpKindName(static_cast<kv::OpKind>(k)));
    }
    ids.lock_waits = metrics_->Counter(prefix + "lock_waits");
    const std::vector<std::string> names =
        RegisterBufferGauges(metrics_, prefix, &shards_[i]->index->io_stats());
    gauge_names_.insert(gauge_names_.end(), names.begin(), names.end());
  }
  if (options_.heat_top_k > 0) {
    heat_.resize(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      heat_[i] = std::make_unique<ShardHeatTracker>(options_.heat_top_k);
      ShardHeatTracker* heat = heat_[i].get();
      const std::string prefix = "shard" + std::to_string(i) + ".heat.";
      metrics_->RegisterGauge(prefix + "ops_per_s",
                              [heat] { return heat->OpsPerSecond(); });
      metrics_->RegisterGauge(prefix + "read_frac",
                              [heat] { return heat->ReadFraction(); });
      metrics_->RegisterGauge(prefix + "write_frac",
                              [heat] { return heat->WriteFraction(); });
      metrics_->RegisterGauge(prefix + "scan_frac",
                              [heat] { return heat->ScanFraction(); });
      gauge_names_.push_back(prefix + "ops_per_s");
      gauge_names_.push_back(prefix + "read_frac");
      gauge_names_.push_back(prefix + "write_frac");
      gauge_names_.push_back(prefix + "scan_frac");
    }
  }
}

std::vector<HeatSnapshot> ShardedEngine::HeatSnapshots() const {
  std::vector<HeatSnapshot> out;
  out.reserve(heat_.size());
  for (const auto& tracker : heat_) out.push_back(tracker->Snapshot());
  return out;
}

void ShardedEngine::BlockingSharedAcquire(std::size_t s, Shard& shard) {
  shard.index->io_stats().CountReadLockWait();
  TraceRecorder::Scope span(trace_, "lock_wait", "lock", static_cast<int>(s));
  std::chrono::steady_clock::time_point start;
  if (metrics_ != nullptr) start = std::chrono::steady_clock::now();
  shard.mu.lock_shared();
  if (metrics_ != nullptr) {
    metrics_->Add(shard_metric_ids_[s].lock_waits);
    metrics_->Observe(lock_wait_us_id_, ElapsedUs(start));
  }
}

template <typename Op>
Status ShardedEngine::RunOnShard(std::size_t s, bool write, IoStatsSnapshot* io,
                                 std::vector<IoStatsSnapshot>* shared_io, const Op& op) {
  Shard& shard = *shards_[s];
  std::unique_lock<std::shared_mutex> exclusive_lock(shard.mu, std::defer_lock);
  std::shared_lock<std::shared_mutex> shared_lock(shard.mu, std::defer_lock);
  if (write) {
    exclusive_lock.lock();
  } else if (!shared_lock.try_lock()) {
    // A writer (or latch contention) is in the way: count the blocking
    // acquisition, then wait.
    BlockingSharedAcquire(s, shard);
    shared_lock = std::shared_lock<std::shared_mutex>(shard.mu, std::adopt_lock);
  }
  // Only shared-latch reads feed `shared_io`: they are the I/O that did not
  // serialize against other readers.
  std::vector<IoStatsSnapshot>* const shared_sink = write ? nullptr : shared_io;
  if (io == nullptr && shared_sink == nullptr) return op(shard.index.get());
  // Thread-exact attribution under both latches: the tally routes each
  // counter bump to the thread (and therefore the op) that performed it, so
  // parallel readers on this shard never see each other's I/O.
  IoStatsSnapshot delta;
  Status status;
  {
    IoStats::ThreadTally tally(&shard.index->io_stats(), &delta);
    status = op(shard.index.get());
  }
  if (io != nullptr) *io += delta;
  if (shared_sink != nullptr) {
    if (shared_sink->size() < shards_.size()) shared_sink->resize(shards_.size());
    (*shared_sink)[s] += delta;
  }
  return status;
}

void ShardedEngine::CountOp(std::size_t s, kv::OpKind kind, Key key) {
  metrics_->Add(shard_metric_ids_[s].ops[static_cast<std::size_t>(kind)]);
  if (!heat_.empty()) heat_[s]->Record(kind, key);
}

Status ShardedEngine::ContinueScan(std::size_t home, const kv::Request& req,
                                   kv::Response* resp, IoStatsSnapshot* io,
                                   std::vector<IoStatsSnapshot>* shared_io) {
  std::vector<Record> part;
  for (std::size_t s = home + 1;
       s < shards_.size() && resp->records.size() < req.scan_count; ++s) {
    const Key cursor = std::max(req.key, lower_bounds_[s]);
    const Status status = RunOnShard(s, false, io, shared_io, [&](DiskIndex* index) {
      return index->Scan(cursor, req.scan_count - resp->records.size(), &part);
    });
    if (!status.ok()) {
      resp->code = status.code();
      return status;
    }
    resp->records.insert(resp->records.end(), part.begin(), part.end());
  }
  return Status::Ok();
}

Status ShardedEngine::Dispatch(std::span<const kv::Request> reqs,
                               std::span<kv::Response> resps, IoStatsSnapshot* io,
                               std::vector<IoStatsSnapshot>* shared_io) {
  // (owning shard, request index) pairs sorted stably by shard, so within a
  // shard the batch order is preserved and shards are visited in increasing
  // order (the engine-wide deadlock-free latch order). One request needs no
  // sort and no heap.
  using Slot = std::pair<std::uint32_t, std::uint32_t>;
  Slot single{static_cast<std::uint32_t>(ShardFor(reqs[0].key)), 0};
  std::vector<Slot> many;
  std::span<const Slot> order(&single, 1);
  if (reqs.size() > 1) {
    many.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      many.emplace_back(static_cast<std::uint32_t>(ShardFor(reqs[i].key)),
                        static_cast<std::uint32_t>(i));
    }
    std::stable_sort(many.begin(), many.end(),
                     [](const Slot& a, const Slot& b) { return a.first < b.first; });
    order = many;
  }

  // One telemetry record per call: a lone request is an op of its kind on
  // its shard, anything larger is one `execute`.
  const bool lone = reqs.size() == 1;
  const char* span_name = "execute";
  if (trace_ != nullptr && lone) span_name = kv::OpKindName(reqs[0].kind);
  TraceRecorder::Scope span(trace_, span_name, "op", lone ? static_cast<int>(single.first) : -1);
  std::chrono::steady_clock::time_point start;
  if (metrics_ != nullptr) start = std::chrono::steady_clock::now();

  Status first_failure;
  for (std::size_t g = 0; g < order.size();) {
    const std::uint32_t s = order[g].first;
    std::size_t end = g;
    bool has_write = false;
    while (end < order.size() && order[end].first == s) {
      has_write = has_write || kv::OpKindIsWrite(reqs[order[end].second].kind);
      ++end;
    }
    // The whole group runs under ONE latch acquisition -- exclusive if any
    // request writes, so reads grouped with a write execute under the same
    // guard and the writes' WAL appends tick the shared GroupCommitWindow
    // together. Each request dispatches through kv::ExecuteOnIndex, the
    // tree's single op switch.
    const Status status = RunOnShard(s, has_write, io, shared_io, [&](DiskIndex* index) {
      for (std::size_t k = g; k < end; ++k) {
        const std::uint32_t i = order[k].second;
        const Status op_status = kv::ExecuteOnIndex(index, reqs.subspan(i, 1), resps.subspan(i, 1));
        if (first_failure.ok() && !op_status.ok()) first_failure = op_status;
        if (metrics_ != nullptr) CountOp(s, reqs[i].kind, reqs[i].key);
      }
      return Status::Ok();
    });
    if (first_failure.ok() && !status.ok()) first_failure = status;
    g = end;
  }

  // Scans whose home-shard segment came up short continue across later
  // shards after the partitioned pass (so they observe this batch's writes
  // to those shards -- documented batch-visibility order).
  for (const auto& [s, i] : order) {
    if (reqs[i].kind == kv::OpKind::kScan && resps[i].code == Status::Code::kOk &&
        resps[i].records.size() < reqs[i].scan_count && s + 1 < shards_.size()) {
      const Status status = ContinueScan(s, reqs[i], &resps[i], io, shared_io);
      if (first_failure.ok() && !status.ok()) first_failure = status;
    }
  }

  if (metrics_ != nullptr) {
    const auto kind = static_cast<std::size_t>(reqs[0].kind);
    metrics_->Observe(lone ? op_us_ids_[kind] : execute_us_id_, ElapsedUs(start));
  }
  return first_failure;
}

Status ShardedEngine::Execute(kv::RequestBatch& batch, IoStatsSnapshot* io,
                              std::vector<IoStatsSnapshot>* shared_io) {
  LIOD_RETURN_IF_ERROR(CheckReady());
  batch.responses.resize(batch.requests.size());
  if (batch.requests.empty()) return Status::Ok();
  return Dispatch(batch.requests, batch.responses, io, shared_io);
}

Status ShardedEngine::Lookup(Key key, Payload* payload, bool* found, IoStatsSnapshot* io) {
  LIOD_RETURN_IF_ERROR(CheckReady());
  const kv::Request req{kv::OpKind::kLookup, key, 0, 0};
  kv::Response resp;
  const Status status = Dispatch({&req, 1}, {&resp, 1}, io, nullptr);
  if (payload != nullptr && resp.found) *payload = resp.payload;
  if (found != nullptr) *found = resp.found;
  return status;
}

Status ShardedEngine::Insert(Key key, Payload payload, IoStatsSnapshot* io) {
  LIOD_RETURN_IF_ERROR(CheckReady());
  const kv::Request req{kv::OpKind::kInsert, key, payload, 0};
  kv::Response resp;
  return Dispatch({&req, 1}, {&resp, 1}, io, nullptr);
}

Status ShardedEngine::Delete(Key key, IoStatsSnapshot* io) {
  LIOD_RETURN_IF_ERROR(CheckReady());
  const kv::Request req{kv::OpKind::kDelete, key, 0, 0};
  kv::Response resp;
  return Dispatch({&req, 1}, {&resp, 1}, io, nullptr);
}

Status ShardedEngine::ReadModifyWrite(Key key, Payload payload, bool* found,
                                      IoStatsSnapshot* io) {
  LIOD_RETURN_IF_ERROR(CheckReady());
  const kv::Request req{kv::OpKind::kReadModifyWrite, key, payload, 0};
  kv::Response resp;
  const Status status = Dispatch({&req, 1}, {&resp, 1}, io, nullptr);
  if (found != nullptr) *found = resp.found;
  return status;
}

Status ShardedEngine::Scan(Key start_key, std::size_t count, std::vector<Record>* out,
                           IoStatsSnapshot* io) {
  LIOD_RETURN_IF_ERROR(CheckReady());
  if (count == 0) {
    // Historical contract: a zero-length engine scan clears `out` and
    // succeeds (only the wire/batch surface rejects it).
    out->clear();
    return Status::Ok();
  }
  const kv::Request req{kv::OpKind::kScan, start_key, 0,
                        static_cast<std::uint32_t>(std::min<std::size_t>(
                            count, std::numeric_limits<std::uint32_t>::max()))};
  // The response borrows the caller's vector, so its capacity is reused.
  kv::Response resp;
  resp.records.swap(*out);
  const Status status = Dispatch({&req, 1}, {&resp, 1}, io, nullptr);
  out->swap(resp.records);
  return status;
}

Status ShardedEngine::DropCaches() {
  for (auto& shard : shards_) {
    LIOD_RETURN_IF_ERROR(shard->index->DropCaches());
  }
  return Status::Ok();
}

Status ShardedEngine::FlushBuffers() {
  LIOD_RETURN_IF_ERROR(CheckReady());
  for (auto& shard : shards_) {
    std::lock_guard<std::shared_mutex> lock(shard->mu);
    LIOD_RETURN_IF_ERROR(shard->index->FlushBuffers());
  }
  return Status::Ok();
}

Status ShardedEngine::FlushUpdates() {
  LIOD_RETURN_IF_ERROR(CheckReady());
  for (auto& shard : shards_) {
    std::lock_guard<std::shared_mutex> lock(shard->mu);
    LIOD_RETURN_IF_ERROR(shard->index->FlushUpdates());
  }
  return Status::Ok();
}

// The stat readers take each shard's latch shared: counters are atomic and
// GetIndexStats is read-only, so they only need to exclude writers.

IoStatsSnapshot ShardedEngine::MergedIo() const {
  IoStatsSnapshot merged;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    merged += shard->index->io_stats().snapshot();
  }
  return merged;
}

std::vector<IoStatsSnapshot> ShardedEngine::PerShardIo() const {
  std::vector<IoStatsSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    out.push_back(shard->index->io_stats().snapshot());
  }
  return out;
}

IndexStats ShardedEngine::MergedStats() const {
  IndexStats merged;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    const IndexStats s = shard->index->GetIndexStats();
    merged.num_records += s.num_records;
    merged.disk_bytes += s.disk_bytes;
    merged.inner_bytes += s.inner_bytes;
    merged.leaf_bytes += s.leaf_bytes;
    merged.freed_bytes += s.freed_bytes;
    merged.height = std::max(merged.height, s.height);
    merged.smo_count += s.smo_count;
    merged.node_count += s.node_count;
  }
  return merged;
}

}  // namespace liod
