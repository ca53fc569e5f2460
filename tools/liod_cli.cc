// liod_cli: the tree's command-line front door, with four subcommands:
//
//   liod_cli run   [flags]   -- benchmark an index x dataset x workload combo
//   liod_cli serve [flags]   -- socket KV server over a ShardedEngine
//   liod_cli recover [flags] -- `run` with the crash-recovery demo forced on
//   liod_cli stats [flags]   -- live stats of a running serve (wire stats op)
//
// run/recover report throughput, exact block I/O, phase breakdown, tail
// latency, and storage footprint -- the general-purpose driver behind the
// per-figure benchmarks. `liod_cli COMMAND --help` lists a command's flags.
//
// --device selects the storage backend of every index file (and, with
// --durability, the WAL/checkpoint files): "modeled" is the in-RAM simulated
// disk behind all benchmarks; "file"/"direct" issue real syscalls (buffered /
// O_DIRECT with batched submission) so the wall_us/wall_p50_us/wall_p999_us
// CSV columns report measured I/O beside the modeled columns. Counted block
// I/O is bit-identical across devices. --device-path defaults to a temporary
// directory that is removed on exit; --device-no-batch issues one syscall per
// block (the baseline that shows the batch path's syscall savings in
// device.submissions).
//
// An unknown flag, a missing value, a number that does not parse completely
// ("abc", "10k") and an unknown name exit 2 naming the flag, before any
// dataset is built; so does a --block that is not a power of two >= 512.
//
// --buffer is the paper's per-file frame budget; --buffer-budget N > 0
// switches to one shared pool of N frames across all files and all shards,
// so the budget spans the whole engine.
//
// --update-buffer N > 0 switches updates from the paper's in-place path to
// the out-of-place UpdateBuffer decorator (N-block staging area), drained
// per --merge-mode at --merge-threshold x capacity (threshold > 1 spills
// sorted runs to disk before merging).
//
// --durability != none prices crash safety for that buffered path: every
// Insert/Delete is logged to a write-ahead log (counted as the "wal" file
// class, reported in the wal_writes CSV column), checkpoints snapshot +
// truncate it (--checkpoint-every N ops; 0 = at merges only). --recover
// (1 thread x 1 shard only) additionally demonstrates crash recovery: after
// the measured run it applies an unflushed tail of inserts, "crashes" the
// index, rebuilds it from the durable slot via RecoveryManager, and verifies
// the committed tail prefix is answered exactly.
//
// Every run goes through the ShardedEngine and the ConcurrentRunner, with
// --threads client threads over --shards key-range shards. The defaults
// (1/1) run one index on one thread, the paper's evaluation, and print the
// single-index CSV columns; other shapes add threads/shards.
//
// `serve` bulkloads --dataset/--bulk records (payload = key + 1) into a
// ShardedEngine with the same engine flags as run, then serves the binary KV
// protocol (src/server/protocol.h) on --listen until SIGINT/SIGTERM. Each
// connection's frames run on its own reader thread, one at a time;
// --queue bounds the multi-request frames executing at once across all
// connections (beyond it they are answered OVERLOADED).
//
// --wal-dir gives the per-shard WAL/checkpoint files stable paths
// (DIR/shard<i>.wal, DIR/shard<i>.ckpt) so a restarted `serve --recover`
// reopens them and rebuilds the committed state before listening; without it
// durability is priced but not restart-recoverable. Shutdown answers frames
// read after it began SHUTTING_DOWN, lets each reader finish the frame in
// hand, and checkpoints through the engine before exiting.
//
// Live observability of a running serve (DESIGN.md "Live observability"):
// --metrics-listen starts an HTTP endpoint serving /metrics (Prometheus),
// /metrics.json, and /stats.json; --slow-op-us captures ops whose queue+
// execute time crosses the threshold into a bounded ring. `liod_cli stats
// --connect ...` fetches the same stats document over the KV socket itself
// (the wire stats op) -- one-shot JSON, or a delta line per interval with
// --watch N.

#include <signal.h>
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/flags.h"
#include "core/index_factory.h"
#include "storage/device_factory.h"
#include "engine/concurrent_runner.h"
#include "engine/sharded_engine.h"
#include "recovery/durable_store.h"
#include "recovery/recovery_manager.h"
#include "server/kv_client.h"
#include "server/kv_server.h"
#include "server/net.h"
#include "storage/block_device.h"
#include "telemetry/exporter.h"
#include "telemetry/outputs.h"
#include "updates/buffered_index.h"
#include "workload/datasets.h"

using namespace liod;

namespace {

struct CliArgs {
  // --- engine (run, recover and serve) -------------------------------------
  std::string index = "btree";
  std::string dataset = "fb";
  std::size_t bulk = 100'000;
  std::uint64_t seed = 42;
  std::size_t shards = 1;
  IndexOptions options;          ///< --block through --device-path write here
  bool device_no_batch = false;  ///< --device-no-batch: one syscall per block
  bool recover = false;

  // --- run and recover -----------------------------------------------------
  WorkloadType workload = WorkloadType::kLookupOnly;
  std::size_t ops = 50'000;
  std::size_t threads = 1;
  double zipf_theta = 0.99;
  std::size_t scan_length = 100;
  std::vector<DiskModel> disks = {DiskModel::Hdd(), DiskModel::Ssd()};  ///< --disk
  bool csv = false;
  bool progress = false;  ///< --progress: stderr heartbeat

  TelemetryFlags telemetry;  ///< run, recover and serve

  // --- serve ---------------------------------------------------------------
  std::string listen;             ///< --listen unix:PATH | tcp:[HOST:]PORT
  std::size_t server_queue = 64;  ///< --queue: multi-request frames executing at once
  std::string wal_dir;            ///< --wal-dir: stable durable-file directory
  std::string metrics_listen;     ///< --metrics-listen unix:PATH | tcp:[HOST:]PORT
  double slow_op_us = 0.0;        ///< --slow-op-us: capture threshold (0 = off)
  std::size_t slow_op_cap = 128;  ///< --slow-op-cap: slow-op ring capacity

  // --- stats ---------------------------------------------------------------
  std::string connect;    ///< --connect unix:PATH | tcp:[HOST:]PORT
  std::size_t watch = 0;  ///< --watch N: re-poll every N seconds (0 = once)
};

void AddEngineFlags(FlagTable& flags, CliArgs& a) {
  IndexOptions& o = a.options;
  flags.Choice("--index", &a.index, NamedChoices(IndexNames()), "index structure")
      .Choice("--dataset", &a.dataset, NamedChoices(AllDatasetNames()), "synthetic dataset")
      .Number("--bulk", &a.bulk, "N", "records bulkloaded before the measured phase")
      .Number("--seed", &a.seed, "N", "dataset and workload seed")
      .Number("--shards", &a.shards, "N", "key-range shards")
      .Number("--block", &o.block_size, "BYTES", "block size, a power of two >= 512")
      .Number("--buffer", &o.buffer_pool_blocks, "BLOCKS", "buffer frames per file")
      .Number("--buffer-budget", &o.shared_buffer_budget_blocks, "BLOCKS",
              "one pool shared by all files and shards instead (0 = per file)")
      .Choice("--buffer-policy", &o.buffer_policy,
              NamedChoices<BufferPolicy>(
                  {BufferPolicy::kLru, BufferPolicy::kClock, BufferPolicy::kFifo},
                  BufferPolicyName),
              "buffer eviction policy")
      .Switch("--write-back", &o.buffer_write_back, "write a dirty frame once, on eviction")
      .Switch("--inner-in-memory", &o.memory_resident_inner, "keep inner nodes in memory")
      .Number("--update-buffer", &o.update_buffer_blocks, "BLOCKS",
              "out-of-place staging area (0 = in-place updates)")
      .Choice("--merge-mode", &o.update_buffer_merge_mode,
              NamedChoices<MergeMode>({MergeMode::kSync, MergeMode::kBackground}, MergeModeName),
              "where staged updates drain")
      .Number("--merge-threshold", &o.update_buffer_merge_threshold, "F",
              "drain at F x staging capacity (> 1 spills sorted runs)")
      .Choice("--durability", &o.durability,
              NamedChoices<DurabilityPolicy>(
                  {DurabilityPolicy::kNone, DurabilityPolicy::kAsync,
                   DurabilityPolicy::kGroupCommit, DurabilityPolicy::kSyncPerOp},
                  DurabilityPolicyName),
              "write-ahead logging of the buffered write path")
      .Number("--group-window", &o.wal_group_window, "OPS", "group-commit window")
      .Number("--checkpoint-every", &o.checkpoint_every_ops, "OPS",
              "checkpoint cadence (0 = at merges only)")
      .Choice("--device", &o.device,
              NamedChoices<DeviceKind>(
                  {DeviceKind::kModeled, DeviceKind::kFile, DeviceKind::kDirect}, DeviceKindName),
              "storage backend; file and direct add wall-clock CSV columns")
      .String("--device-path", &o.device_path, "DIR",
              "real-device files (default: a temp dir, removed on exit)")
      .Switch("--device-no-batch", &a.device_no_batch,
              "one syscall per block (the batch-savings baseline)")
      .Switch("--recover", &a.recover,
              "run: crash + rebuild demo (1 thread x 1 shard); serve: rebuild from --wal-dir");
}

void AddRunFlags(FlagTable& flags, CliArgs& a) {
  flags
      .Choice("--workload", &a.workload, NamedChoices(EveryWorkloadType(), WorkloadTypeName),
              "operation mix")
      .Number("--ops", &a.ops, "N", "measured operations")
      .Number("--threads", &a.threads, "N",
              "client threads (engine CSV columns when threads or shards > 1)")
      .Number("--zipf", &a.zipf_theta, "THETA", "Zipfian skew of YCSB key choice")
      .Number("--scan-length", &a.scan_length, "N", "records per scan")
      .Choice("--disk", &a.disks,
              {{"hdd", {DiskModel::Hdd()}},
               {"ssd", {DiskModel::Ssd()}},
               {"both", {DiskModel::Hdd(), DiskModel::Ssd()}}},
              "modeled disks to report")
      .Switch("--csv", &a.csv, "CSV rows instead of the summary")
      .Switch("--progress", &a.progress, "a heartbeat on stderr every second");
}

void AddServeFlags(FlagTable& flags, CliArgs& a) {
  flags.String("--listen", &a.listen, "unix:PATH|tcp:[HOST:]PORT", "where to serve (required)")
      .Number("--queue", &a.server_queue, "N",
              "multi-request frames executing at once (default 64); beyond it they are shed")
      .String("--wal-dir", &a.wal_dir, "DIR",
              "stable WAL/checkpoint files, so --recover can restart from them")
      .String("--metrics-listen", &a.metrics_listen, "unix:PATH|tcp:[HOST:]PORT",
              "HTTP /metrics (Prometheus), /metrics.json and /stats.json")
      .Number("--slow-op-us", &a.slow_op_us, "US",
              "capture ops over US us of queue+execute in a ring (0 = off)")
      .Number("--slow-op-cap", &a.slow_op_cap, "N", "slow-op ring capacity (default 128)");
}

void AddStatsFlags(FlagTable& flags, CliArgs& a) {
  flags.String("--connect", &a.connect, "unix:PATH|tcp:[HOST:]PORT", "the serve to ask (required)")
      .Number("--watch", &a.watch, "N", "re-poll every N s and print deltas (0 = once)");
}

/// Checks what the engine flags' table cannot, saying why on failure, and
/// completes the IndexOptions they wrote.
bool ResolveEngineFlags(CliArgs* args) {
  IndexOptions& options = args->options;
  if (!IsValidBlockSize(options.block_size)) {
    std::fprintf(stderr, "--block must be a power of two >= 512 (got %zu)\n",
                 options.block_size);
    return false;
  }
  if (options.update_buffer_merge_threshold <= 0.0) {
    std::fprintf(stderr, "--merge-threshold must be > 0 (got %s)\n",
                 std::to_string(options.update_buffer_merge_threshold).c_str());
    return false;
  }
  options.device_batching = !args->device_no_batch;
  options.alex_max_data_node_slots = 4096;
  if (args->threads == 0) args->threads = 1;
  if (args->shards == 0) args->shards = 1;
  return true;
}

/// --progress: a once-per-second heartbeat on STDERR (stdout stays parseable
/// under --csv). Reads the runner's relaxed op counter plus an index-specific
/// detail line (staged updates, checkpoints, last WAL LSN) supplied by the
/// caller.
class ProgressReporter {
 public:
  ProgressReporter(const std::atomic<std::uint64_t>* ops,
                   std::function<std::string()> detail)
      : ops_(ops),
        detail_(std::move(detail)),
        start_(std::chrono::steady_clock::now()),
        thread_([this] { Loop(); }) {}

  ~ProgressReporter() { Stop(); }

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Print();  // final line so short runs still report once
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
      cv_.wait_for(lock, std::chrono::seconds(1));
      if (stopped_) break;
      lock.unlock();
      Print();
      lock.lock();
    }
  }

  void Print() {
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      start_)
                            .count();
    const std::uint64_t done = ops_->load(std::memory_order_relaxed);
    const double rate = secs > 0.0 ? static_cast<double>(done) / secs : 0.0;
    const std::string detail = detail_ ? detail_() : std::string();
    std::fprintf(stderr, "progress: %llu ops (%.0f ops/s)%s\n",
                 static_cast<unsigned long long>(done), rate, detail.c_str());
  }

  const std::atomic<std::uint64_t>* const ops_;
  const std::function<std::string()> detail_;
  const std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;  // last member: runs Loop against the fields above
};

/// Staged updates, checkpoints and the newest WAL LSN over the engine's
/// durable shards; `any` is false for plain in-place indexes. The
/// decorators' introspection methods latch internally, so the heartbeat may
/// read them during the measured phase.
struct DurableTotals {
  bool any = false;
  std::size_t staged = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t last_lsn = 0;
};

DurableTotals SumDurable(ShardedEngine& engine) {
  DurableTotals totals;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    auto* durable = dynamic_cast<UpdateBufferedIndex*>(engine.shard(s));
    if (durable == nullptr) continue;
    totals.any = true;
    totals.staged += durable->staged_records();
    totals.checkpoints += durable->checkpoints_written();
    totals.last_lsn = std::max(totals.last_lsn, durable->wal_last_lsn());
  }
  return totals;
}

/// --recover demonstration on a one-shard engine: after the measured (and
/// fully flushed) run, apply an unflushed tail of inserts to the shard's
/// index, destroy the engine mid-flight (the simulated crash), rebuild from
/// the durable slot, and verify the committed tail prefix answers exactly.
/// Prints to stderr so --csv stays parseable.
int RunRecoveryDemo(const CliArgs& args, const IndexOptions& options, DurableSlot* slot,
                    std::unique_ptr<ShardedEngine> engine, const std::vector<Record>& bulk) {
  auto* durable = dynamic_cast<UpdateBufferedIndex*>(engine->shard(0));
  if (durable == nullptr) {
    std::fprintf(stderr, "--recover requires --durability != none\n");
    return 2;
  }
  const std::uint64_t base_lsn = durable->wal_last_lsn();
  const std::size_t tail = std::min<std::size_t>(bulk.size(), 2000);
  for (std::size_t i = 0; i < tail; ++i) {
    const Status status = durable->Insert(bulk[i].key, bulk[i].key + 977);
    if (!status.ok()) {
      std::fprintf(stderr, "recover demo: tail insert failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  engine.reset();  // crash: no FlushUpdates, no final checkpoint

  const auto start = std::chrono::steady_clock::now();
  RecoveryResult recovered;
  const Status status = RecoveryManager::Recover(slot, args.index, options, bulk, &recovered);
  // Two numbers, two stories: replay is the modeled analysis time (exact
  // checkpoint+WAL blocks x SSD latency, the recovery_sweep convention,
  // shrinking with checkpoint cadence); rebuild is the measured wall time of
  // the whole Recover call, dominated by re-bulkloading the base set.
  const double replay_ms = recovered.ReplayMicros(DiskModel::Ssd()) / 1000.0;
  const double rebuild_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  if (!status.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", status.ToString().c_str());
    return 1;
  }
  // Tail op i carries LSN base_lsn + i + 1, so the committed prefix length
  // falls out of the recovered maximum LSN.
  const std::size_t committed = static_cast<std::size_t>(
      std::min<std::uint64_t>(tail, recovered.max_lsn > base_lsn
                                        ? recovered.max_lsn - base_lsn
                                        : 0));
  for (std::size_t i = 0; i < tail; ++i) {
    Payload payload = 0;
    bool found = false;
    const Status lookup = recovered.index->Lookup(bulk[i].key, &payload, &found);
    if (!lookup.ok() || !found || (i < committed && payload != bulk[i].key + 977)) {
      std::fprintf(stderr, "recovery verification FAILED at tail op %zu\n", i);
      return 1;
    }
  }
  std::fprintf(stderr,
               "recovered %s: checkpoint_lsn=%llu (+%llu entries), replayed=%llu records "
               "(%llu wal blocks, torn_tail=%d), replay=%.3f ms (modeled ssd), "
               "rebuild=%.1f ms (wall), committed tail %zu/%zu verified\n",
               args.index.c_str(), static_cast<unsigned long long>(recovered.checkpoint_lsn),
               static_cast<unsigned long long>(recovered.checkpoint_entries),
               static_cast<unsigned long long>(recovered.replayed_records),
               static_cast<unsigned long long>(recovered.wal_blocks_read),
               recovered.torn_tail ? 1 : 0, replay_ms, rebuild_ms, committed, tail);
  return 0;
}

/// The WAL/checkpoint slot honoring --device: real devices when the run uses
/// them (WAL forces then ride the same batched submission path as data
/// blocks), the plain in-memory slot otherwise. Null on device failure.
std::unique_ptr<DurableSlot> MakeCliDurableSlot(const IndexOptions& options) {
  if (options.device == DeviceKind::kModeled) {
    return std::make_unique<DurableSlot>(options.block_size);
  }
  std::unique_ptr<BlockDevice> wal_device, checkpoint_device;
  const Status wal_status = MakeBlockDevice(options, "walstore", &wal_device);
  const Status ckpt_status = MakeBlockDevice(options, "ckptstore", &checkpoint_device);
  if (!wal_status.ok() || !ckpt_status.ok()) {
    std::fprintf(stderr, "durable slot device failed: %s\n",
                 (wal_status.ok() ? ckpt_status : wal_status).ToString().c_str());
    return nullptr;
  }
  return std::make_unique<DurableSlot>(std::move(wal_device), std::move(checkpoint_device));
}

/// Runs the workload through the ShardedEngine and the runner at --threads x
/// --shards, then reports it. 1 x 1, the default, is one index on one thread:
/// the paper's evaluation.
int RunOnEngine(const CliArgs& args, const IndexOptions& options, const std::vector<Key>& keys,
                const WorkloadSpec& spec, TelemetryOutputs* telemetry) {
  EngineOptions engine_options;
  engine_options.index_name = args.index;
  engine_options.num_shards = args.shards;
  engine_options.index = options;
  // At 1 x 1 a durable index logs to the CLI's slot, which honors --device
  // and outlives the engine across the --recover demo's simulated crash.
  const bool one_by_one = args.threads == 1 && args.shards == 1;
  DurableStore store(options.block_size);
  if (one_by_one && options.durability != DurabilityPolicy::kNone) {
    std::unique_ptr<DurableSlot> slot = MakeCliDurableSlot(options);
    if (slot == nullptr) return 1;
    store.InstallSlot(0, std::move(slot));
    engine_options.durable_store = &store;
  }
  auto engine = std::make_unique<ShardedEngine>(engine_options);

  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, args.threads);

  std::atomic<std::uint64_t> ops_done{0};
  std::unique_ptr<ProgressReporter> reporter;
  ConcurrentRunnerConfig config;
  config.record_samples = true;
  config.progress = &ops_done;
  // Every metric is registered by the time before_ops runs, so the sampler's
  // frozen columns cover them all.
  config.before_ops = [&] {
    telemetry->StartSampler();
    if (!args.progress) return;
    reporter = std::make_unique<ProgressReporter>(&ops_done, [&engine] {
      const DurableTotals durable = SumDurable(*engine);
      if (!durable.any) return std::string();
      char buf[96];
      std::snprintf(buf, sizeof(buf), ", staged=%zu, ckpts=%llu, wal_lsn=%llu", durable.staged,
                    static_cast<unsigned long long>(durable.checkpoints),
                    static_cast<unsigned long long>(durable.last_lsn));
      return std::string(buf);
    });
  };
  ConcurrentRunResult result;
  const Status status = RunConcurrentWorkload(engine.get(), w, config, &result);
  reporter.reset();  // stop the heartbeat before any other output
  const bool telemetry_ok = telemetry->Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "run failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!telemetry_ok) return 1;

  const std::vector<DiskModel>& disks = args.disks;
  const IndexStats& stats = result.stats_after;
  const double ops_den =
      result.operations == 0 ? 1.0 : static_cast<double>(result.operations);
  if (args.csv) {
    // scripts/compare_bench.py keys rows by these columns: 1 x 1 rows keep
    // the single-index set (with stddev_us and invalid_mib), every other
    // shape adds threads/shards instead.
    std::printf(
        "index,dataset,workload,%sdisk,ops,tput_ops_s,reads_per_op,writes_per_op,p99_us,%s"
        "disk_mib,%sheight,smos,hit_inner,hit_leaf,hit_overall,durability,wal_writes,"
        "p50_us,p999_us,device,wall_us,wall_p50_us,wall_p999_us\n",
        one_by_one ? "" : "threads,shards,", one_by_one ? "stddev_us," : "",
        one_by_one ? "invalid_mib," : "");
    for (const DiskModel& disk : disks) {
      std::printf("%s,%s,%s,", args.index.c_str(), args.dataset.c_str(),
                  WorkloadTypeName(args.workload));
      if (!one_by_one) std::printf("%zu,%zu,", args.threads, engine->num_shards());
      std::printf("%s,%llu,%.2f,%.3f,%.3f,%.1f,", disk.name.c_str(),
                  static_cast<unsigned long long>(result.operations),
                  result.ThroughputOps(disk),
                  static_cast<double>(result.io.TotalReads()) / ops_den,
                  static_cast<double>(result.io.TotalWrites()) / ops_den,
                  result.LatencyPercentileUs(0.99, disk));
      if (one_by_one) std::printf("%.1f,", result.LatencyStdDevUs(disk));
      std::printf("%.2f,", stats.disk_bytes / 1048576.0);
      if (one_by_one) std::printf("%.2f,", stats.freed_bytes / 1048576.0);
      std::printf("%llu,%llu,%.3f,%.3f,%.3f,%s,%llu,%.1f,%.1f,%s,%.1f,%.2f,%.2f\n",
                  static_cast<unsigned long long>(stats.height),
                  static_cast<unsigned long long>(stats.smo_count),
                  result.io.HitRateFor(FileClass::kInner),
                  result.io.HitRateFor(FileClass::kLeaf), result.io.OverallHitRate(),
                  DurabilityPolicyName(options.durability),
                  static_cast<unsigned long long>(result.io.WritesFor(FileClass::kWal)),
                  result.LatencyPercentileUs(0.50, disk), result.LatencyPercentileUs(0.999, disk),
                  DeviceKindName(options.device), result.wall_us,
                  result.WallPercentileUs(0.50), result.WallPercentileUs(0.999));
    }
  } else {
    std::printf(
        "%s on %s / %s: %llu ops, %zu threads x %zu shards, %zu bulkloaded keys\n",
        args.index.c_str(), args.dataset.c_str(), WorkloadTypeName(args.workload),
        static_cast<unsigned long long>(result.operations), args.threads,
        engine->num_shards(), w.bulk.size());
    std::printf("  blocks/op: %.2f read, %.2f written\n",
                static_cast<double>(result.io.TotalReads()) / ops_den,
                static_cast<double>(result.io.TotalWrites()) / ops_den);
    std::printf("  buffer hit rate: inner %.3f, leaf %.3f, overall %.3f\n",
                result.io.HitRateFor(FileClass::kInner),
                result.io.HitRateFor(FileClass::kLeaf), result.io.OverallHitRate());
    for (const DiskModel& disk : disks) {
      std::printf("  %s: %.1f ops/s (modeled, slowest-thread makespan), p99 %.2f ms, "
                  "stddev %.2f ms\n",
                  disk.name.c_str(), result.ThroughputOps(disk),
                  result.LatencyPercentileUs(0.99, disk) / 1e3,
                  result.LatencyStdDevUs(disk) / 1e3);
    }
    // Each shard's average is over all operations, so the shard sum is the
    // engine-wide average.
    const DiskModel& primary = disks.front();
    std::printf("  phase breakdown (avg %s us/op):", primary.name.c_str());
    for (OpPhase phase :
         {OpPhase::kSearch, OpPhase::kInsert, OpPhase::kSmo, OpPhase::kMaintenance}) {
      double avg = 0.0;
      for (std::size_t s = 0; s < engine->num_shards(); ++s) {
        avg += engine->shard(s)->breakdown().AvgLatencyUs(phase, primary, result.operations);
      }
      std::printf(" %s=%.1f", OpPhaseName(phase), avg);
    }
    std::printf("\n  storage: %.2f MiB total, %.2f MiB invalid; height=%llu; smos=%llu\n",
                stats.disk_bytes / 1048576.0, stats.freed_bytes / 1048576.0,
                static_cast<unsigned long long>(stats.height),
                static_cast<unsigned long long>(stats.smo_count));
    if (options.durability != DurabilityPolicy::kNone) {
      std::printf("  durability: %s, %llu wal writes in window, %llu checkpoints\n",
                  DurabilityPolicyName(options.durability),
                  static_cast<unsigned long long>(result.io.WritesFor(FileClass::kWal)),
                  static_cast<unsigned long long>(SumDurable(*engine).checkpoints));
    }
  }
  if (args.recover) {
    return RunRecoveryDemo(args, options, store.slot(0), std::move(engine), w.bulk);
  }
  return 0;
}

/// Real devices with no --device-path get a private temp directory, removed
/// on scope exit (best effort; the files are scratch by definition).
struct ScopedTempDeviceDir {
  std::string path;
  ~ScopedTempDeviceDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

int MaybeMakeTempDeviceDir(IndexOptions* options, ScopedTempDeviceDir* dir) {
  if (options->device == DeviceKind::kModeled || !options->device_path.empty()) {
    return 0;
  }
  char tmpl[] = "/tmp/liod_device_XXXXXX";
  const char* d = ::mkdtemp(tmpl);
  if (d == nullptr) {
    std::fprintf(stderr, "cannot create temp device dir: %s\n", std::strerror(errno));
    return 1;
  }
  dir->path = d;
  options->device_path = dir->path;
  return 0;
}

/// `run` (and `recover`, which is run with the crash demo forced on): the
/// historical benchmark driver with its exact output format.
int RunCommand(const CliArgs& args) {
  IndexOptions options = args.options;
  if (args.recover && (args.threads > 1 || args.shards > 1)) {
    std::fprintf(stderr, "--recover supports one thread and one shard only (threads=shards=1)\n");
    return 2;
  }
  if (args.recover && options.durability == DurabilityPolicy::kNone) {
    std::fprintf(stderr, "--recover requires --durability != none\n");
    return 2;
  }

  const std::size_t dataset_keys =
      WorkloadGrowsDataset(args.workload) ? args.bulk + args.ops : args.bulk;
  const auto keys = MakeDataset(args.dataset, dataset_keys, args.seed);

  WorkloadSpec spec;
  spec.type = args.workload;
  spec.bulk_keys = args.bulk;
  spec.operations = args.ops;
  spec.scan_length = args.scan_length;
  spec.seed = args.seed + 1;
  spec.zipf_theta = args.zipf_theta;

  TelemetryOutputs telemetry(args.telemetry);
  telemetry.Apply(&options);

  ScopedTempDeviceDir temp_device_dir;
  if (MaybeMakeTempDeviceDir(&options, &temp_device_dir) != 0) return 1;

  return RunOnEngine(args, options, keys, spec, &telemetry);
}

/// Parses an endpoint flag (--listen, --metrics-listen, --connect); prints
/// why and returns false when `value` is not unix:PATH or tcp:[HOST:]PORT.
bool ParseEndpointFlag(const char* flag, const std::string& value,
                       server::Endpoint* out) {
  const Status status = server::ParseEndpoint(value, out);
  if (!status.ok()) std::fprintf(stderr, "%s: %s\n", flag, status.message().c_str());
  return status.ok();
}

/// `serve`: bulkload (or `--recover` rebuild) a ShardedEngine with the same
/// engine flags as run, then serve the binary KV protocol until
/// SIGINT/SIGTERM, finishing with a graceful drain + checkpoint.
int ServeCommand(const CliArgs& args) {
  IndexOptions options = args.options;
  server::Endpoint listen;
  if (!ParseEndpointFlag("--listen", args.listen, &listen)) return 2;
  server::Endpoint metrics_listen;
  if (!args.metrics_listen.empty() &&
      !ParseEndpointFlag("--metrics-listen", args.metrics_listen, &metrics_listen)) {
    return 2;
  }
  server::ServerOptions server_options;
  server_options.unix_path = listen.unix_path;
  server_options.tcp_host = listen.host;
  server_options.tcp_port = listen.port;
  if (!args.wal_dir.empty() && options.durability == DurabilityPolicy::kNone) {
    std::fprintf(stderr, "--wal-dir requires --durability != none\n");
    return 2;
  }
  if (args.recover && args.wal_dir.empty()) {
    std::fprintf(stderr, "serve --recover requires --wal-dir (stable durable files)\n");
    return 2;
  }

  // The live endpoint serves the registry, so --metrics-listen implies one
  // even without a file output.
  TelemetryOutputs telemetry(args.telemetry, /*need_registry=*/!args.metrics_listen.empty());
  telemetry.Apply(&options);

  ScopedTempDeviceDir temp_device_dir;
  if (MaybeMakeTempDeviceDir(&options, &temp_device_dir) != 0) return 1;

  EngineOptions engine_options;
  engine_options.index_name = args.index;
  engine_options.num_shards = args.shards;
  engine_options.index = options;

  // --wal-dir pins shard i's WAL/checkpoint to DIR/shard<i>.{wal,ckpt}: a
  // fresh serve truncates them, `serve --recover` reopens what the previous
  // process left behind and replays the committed tail.
  DurableStore store(options.block_size);
  if (!args.wal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.wal_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --wal-dir %s: %s\n", args.wal_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
    const FileDeviceOptions durable{.truncate = !args.recover, .metrics = telemetry.metrics()};
    for (std::size_t i = 0; i < args.shards; ++i) {
      const std::string base = args.wal_dir + "/shard" + std::to_string(i);
      auto wal = std::make_unique<FileBlockDevice>(base + ".wal", options.block_size, durable);
      auto ckpt = std::make_unique<FileBlockDevice>(base + ".ckpt", options.block_size, durable);
      if (!wal->ok() || !ckpt->ok()) {
        std::fprintf(stderr, "cannot open durable files %s.{wal,ckpt}%s\n", base.c_str(),
                     args.recover ? " (is --wal-dir from the previous serve?)" : "");
        return 1;
      }
      store.InstallSlot(i, std::make_unique<DurableSlot>(std::move(wal), std::move(ckpt)));
    }
    engine_options.durable_store = &store;
  }

  ShardedEngine engine(engine_options);
  const auto records = MakeDatasetRecords(args.dataset, args.bulk, args.seed);
  if (args.recover) {
    ShardedEngine::RecoverySummary summary;
    const Status status = engine.RecoverFrom(&store, records, &summary);
    if (!status.ok()) {
      std::fprintf(stderr, "recover failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "liod_cli serve: recovered %zu shards: %llu checkpoint entries, "
                 "%llu replayed records (%llu wal blocks, torn_tail=%d)\n",
                 engine.num_shards(),
                 static_cast<unsigned long long>(summary.checkpoint_entries),
                 static_cast<unsigned long long>(summary.replayed_records),
                 static_cast<unsigned long long>(summary.wal_blocks_read),
                 summary.torn_tail ? 1 : 0);
  } else {
    const Status status = engine.Bulkload(records);
    if (!status.ok()) {
      std::fprintf(stderr, "bulkload failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  server_options.queue_capacity = args.server_queue;
  server_options.metrics = telemetry.metrics();
  server_options.trace = telemetry.trace();
  server_options.slow_op_us = args.slow_op_us;
  server_options.slow_op_capacity = args.slow_op_cap;

  // Block the shutdown signals BEFORE Start so every server thread inherits
  // the mask and delivery funnels into this thread's sigwait.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  server::KvServer server(&engine, server_options);
  if (const Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!server_options.unix_path.empty()) {
    std::fprintf(stderr,
                 "liod_cli serve: listening on unix:%s (queue=%zu, %zu shards)\n",
                 server_options.unix_path.c_str(), server_options.queue_capacity,
                 engine.num_shards());
  }
  if (server_options.tcp_port >= 0) {
    std::fprintf(stderr,
                 "liod_cli serve: listening on tcp:%d (queue=%zu, %zu shards)\n",
                 server.tcp_port(), server_options.queue_capacity, engine.num_shards());
  }

  // The live observability endpoint starts after the server so /stats.json
  // (which proxies KvServer::StatsJson) never races Start; it stops before
  // the drain completes so no scrape runs against a checkpointing engine.
  MetricsExporter exporter(ExporterOptions{.unix_path = metrics_listen.unix_path,
                                           .tcp_port = metrics_listen.port,
                                           .tcp_host = metrics_listen.host,
                                           .registry = telemetry.metrics()});
  if (!args.metrics_listen.empty()) {
    exporter.AddJsonHandler("/stats.json", [&server] { return server.StatsJson(); });
    if (const Status status = exporter.Start(); !status.ok()) {
      std::fprintf(stderr, "metrics endpoint failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "liod_cli serve: metrics on %s (/metrics, /metrics.json, /stats.json)\n",
                 args.metrics_listen.c_str());
  }

  // The sampler starts once every metric (engine + server) is registered, so
  // its frozen CSV columns cover the server.* namespace too.
  telemetry.StartSampler();

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "liod_cli serve: caught signal %d, draining\n", sig);

  exporter.Shutdown();
  const Status down = server.Shutdown();
  const server::ServerCounters counters = server.counters();
  std::fprintf(stderr,
               "liod_cli serve: done: %llu connections, %llu batches (%llu ops), "
               "%llu overloaded, %llu shutdown-rejected, %llu malformed\n",
               static_cast<unsigned long long>(counters.connections_accepted),
               static_cast<unsigned long long>(counters.batches_executed),
               static_cast<unsigned long long>(counters.ops_executed),
               static_cast<unsigned long long>(counters.batches_overloaded),
               static_cast<unsigned long long>(counters.batches_shutdown_rejected),
               static_cast<unsigned long long>(counters.malformed_frames));
  const bool telemetry_ok = telemetry.Finish();
  if (!down.ok()) {
    std::fprintf(stderr, "shutdown failed: %s\n", down.ToString().c_str());
    return 1;
  }
  return telemetry_ok ? 0 : 1;
}

/// Extracts the first `"key":<number>` from a JSON document. The stats
/// schema keeps its scalar key names unique document-wide exactly so a
/// watch-mode client needs string search, not a JSON parser.
double FindJsonNumber(const std::string& json, const std::string& key, bool* found) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    if (found != nullptr) *found = false;
    return 0.0;
  }
  if (found != nullptr) *found = true;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// `stats`: fetch the server's live stats document over the wire stats op.
/// One-shot prints the raw JSON (pipe into a JSON tool); --watch N re-polls
/// every N seconds and prints one delta line per interval.
int StatsCommand(const CliArgs& args) {
  server::Endpoint endpoint;
  if (!ParseEndpointFlag("--connect", args.connect, &endpoint)) return 2;
  server::KvClient client;
  const Status status = endpoint.unix_path.empty()
                            ? client.ConnectTcp(endpoint.host, endpoint.port)
                            : client.ConnectUnix(endpoint.unix_path);
  if (!status.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::string json;
  if (const Status s = client.Stats(&json); !s.ok()) {
    std::fprintf(stderr, "stats failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (args.watch == 0) {
    std::printf("%s\n", json.c_str());
    return 0;
  }

  // Watch mode: per-interval deltas from the monotonically growing counters.
  double prev_ops = FindJsonNumber(json, "ops_executed", nullptr);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::seconds(args.watch));
    if (const Status s = client.Stats(&json); !s.ok()) {
      std::fprintf(stderr, "stats failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const double ops = FindJsonNumber(json, "ops_executed", nullptr);
    const double rate = (ops - prev_ops) / static_cast<double>(args.watch);
    prev_ops = ops;
    std::printf("ops=%.0f (%.1f ops/s) queue_wait_p99=%.1fus "
                "execute_p99=%.1fus overloaded=%.0f slow=%.0f (dropped %.0f)\n",
                ops, rate, FindJsonNumber(json, "queue_wait_p99_us", nullptr),
                FindJsonNumber(json, "execute_p99_us", nullptr),
                FindJsonNumber(json, "batches_overloaded", nullptr),
                FindJsonNumber(json, "recorded", nullptr),
                FindJsonNumber(json, "dropped", nullptr));
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const bool run = command == "run" || command == "recover";
  if (!run && command != "serve" && command != "stats") {
    const bool help = command == "--help" || command == "-h";
    if (!help && !command.empty()) std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    std::fprintf(help ? stdout : stderr,
                 "usage: liod_cli run|recover|serve|stats [flags]\n"
                 "  run      benchmark an index x dataset x workload\n"
                 "  recover  run, then crash and rebuild from the WAL\n"
                 "  serve    serve the KV protocol over a sharded engine\n"
                 "  stats    live stats of a running serve\n"
                 "liod_cli COMMAND --help lists the command's flags.\n");
    return help ? 0 : 2;
  }

  CliArgs args;
  FlagTable flags;
  if (command == "stats") {
    AddStatsFlags(flags, args);
  } else {
    AddEngineFlags(flags, args);
    if (run) {
      AddRunFlags(flags, args);
    } else {
      AddServeFlags(flags, args);
    }
    args.telemetry.AddTo(flags);
  }
  if (const std::optional<int> exit = flags.ParseMain(argc, argv, 2)) return *exit;
  if (command == "stats") return StatsCommand(args);
  if (!ResolveEngineFlags(&args) || !args.telemetry.Resolve()) return 2;
  if (command == "serve") return ServeCommand(args);
  if (command == "recover") args.recover = true;
  return RunCommand(args);
}
