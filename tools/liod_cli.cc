// liod_cli: the tree's command-line front door, with four subcommands:
//
//   liod_cli run   [flags]   -- benchmark an index x dataset x workload combo
//   liod_cli serve [flags]   -- socket KV server over a ShardedEngine
//   liod_cli recover [flags] -- `run` with the crash-recovery demo forced on
//   liod_cli stats [flags]   -- live stats of a running serve (wire stats op)
//
// run/recover report throughput, exact block I/O, phase breakdown, tail
// latency, and storage footprint -- the general-purpose driver behind the
// per-figure benchmarks.
//
//   liod_cli run --index alex --dataset fb --workload balanced
//            --bulk 100000 --ops 100000 [--block 4096] [--buffer 1]
//            [--buffer-policy lru|clock|fifo] [--buffer-budget N]
//            [--write-back] [--disk hdd|ssd|both] [--csv]
//            [--inner-in-memory] [--scan-length 100] [--seed 42]
//            [--threads 1] [--shards 1] [--zipf 0.99]
//            [--update-buffer BLOCKS] [--merge-mode sync|background]
//            [--merge-threshold F]
//            [--durability none|async|group-commit|sync-per-op]
//            [--group-window N] [--checkpoint-every N] [--recover]
//            [--device modeled|file|direct] [--device-path DIR]
//            [--device-no-batch]
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
// Numeric flags must parse completely ("abc" or "10k" exits 2 naming the
// flag), and --block must be a power of two >= 512.
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
// protocol (src/server/protocol.h) until SIGINT/SIGTERM:
//
//   liod_cli serve --listen unix:/tmp/liod.sock|tcp:[HOST:]PORT [--queue N]
//            [--wal-dir DIR] [--recover] [engine flags]
//
// Each connection's frames run on its own reader thread, one at a time;
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
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/parse_number.h"
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
#include "telemetry/metric_registry.h"
#include "telemetry/sampler.h"
#include "telemetry/trace_recorder.h"
#include "updates/buffered_index.h"
#include "workload/datasets.h"

using namespace liod;

namespace {

struct CliArgs {
  std::string index = "btree";
  std::string dataset = "fb";
  std::string workload = "lookup-only";
  std::size_t bulk = 100'000;
  std::size_t ops = 50'000;
  std::size_t block = 4096;
  std::size_t buffer = 1;
  std::size_t buffer_budget = 0;  // 0 = per-file budgets
  std::string buffer_policy = "lru";
  bool write_back = false;
  std::size_t update_buffer = 0;  // 0 = in-place updates (paper default)
  std::string merge_mode = "sync";
  double merge_threshold = 1.0;
  std::string durability = "none";
  std::size_t group_window = 8;
  std::size_t checkpoint_every = 0;  // 0 = checkpoint at merges only
  bool recover = false;
  std::size_t scan_length = 100;
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::uint64_t seed = 42;
  double zipf_theta = 0.99;
  std::string disk = "both";
  bool csv = false;
  bool inner_in_memory = false;
  std::string device = "modeled";  ///< --device: storage backend of all files
  std::string device_path;         ///< --device-path: "" = temp dir, removed on exit
  bool device_no_batch = false;    ///< --device-no-batch: one syscall per block

  // --- telemetry (all off by default; see src/telemetry/) ------------------
  std::string metrics_out;          ///< --metrics-out: final registry JSON
  std::string trace_out;            ///< --trace-out: Chrome trace-event JSON
  std::string sample_out;           ///< --sample-out: periodic time-series CSV
  std::size_t sample_every_ms = 0;  ///< --sample-every-ms (0 = 100 when sampling)
  bool progress = false;            ///< --progress: stderr heartbeat

  // --- serve-only ----------------------------------------------------------
  std::string listen;             ///< --listen unix:PATH | tcp:[HOST:]PORT
  std::size_t server_queue = 64;  ///< --queue: multi-request frames executing at once
  std::string wal_dir;            ///< --wal-dir: stable durable-file directory
  std::string metrics_listen;     ///< --metrics-listen unix:PATH | tcp:[HOST:]PORT
  double slow_op_us = 0.0;        ///< --slow-op-us: capture threshold (0 = off)
  std::size_t slow_op_cap = 128;  ///< --slow-op-cap: slow-op ring capacity

  // --- stats-only ----------------------------------------------------------
  std::string connect;      ///< --connect unix:PATH | tcp:[HOST:]PORT
  std::size_t watch = 0;    ///< --watch N: re-poll every N seconds (0 = once)
};

void Usage() {
  std::printf(
      "liod_cli run --index NAME --dataset NAME --workload TYPE [options]\n"
      "liod_cli serve --listen unix:PATH|tcp:[HOST:]PORT [--queue N]\n"
      "               [--wal-dir DIR] [--recover] [engine options]\n"
      "liod_cli recover [run options]   (run with the crash-recovery demo)\n"
      "liod_cli stats --connect unix:PATH|tcp:[HOST:]PORT [--watch N]\n\n"
      "indexes:   btree fiting pgm alex alex-l1 lipp hybrid-{fiting,pgm,alex,lipp}\n"
      "datasets: ");
  for (const auto& d : AllDatasetNames()) std::printf(" %s", d.c_str());
  std::printf("\nworkloads:");
  for (WorkloadType t : AllWorkloadTypes()) std::printf(" %s", WorkloadTypeName(t));
  for (WorkloadType t : YcsbWorkloadTypes()) std::printf(" %s", WorkloadTypeName(t));
  std::printf(
      "\noptions:   --bulk N --ops N --block BYTES --buffer BLOCKS --seed N\n"
      "           --buffer-policy lru|clock|fifo --buffer-budget BLOCKS (shared pool;\n"
      "             spans all shards) --write-back\n"
      "           --scan-length N --disk hdd|ssd|both --csv --inner-in-memory\n"
      "           --threads N --shards N (engine CSV columns when either > 1)\n"
      "           --zipf THETA\n"
      "           --update-buffer BLOCKS (0 = in-place) --merge-mode sync|background\n"
      "           --merge-threshold F (fraction of staging capacity; > 1 spills runs)\n"
      "           --durability none|async|group-commit|sync-per-op (WAL for the\n"
      "             buffered write path) --group-window OPS --checkpoint-every OPS\n"
      "           --recover (1 thread x 1 shard: crash + rebuild demonstration)\n"
      "           --device modeled|file|direct (storage backend; file/direct add\n"
      "             wall-clock CSV columns with bit-identical counted I/O)\n"
      "           --device-path DIR (real-device files; default: temp dir)\n"
      "           --device-no-batch (one syscall per block; batch-savings baseline)\n"
      "           --metrics-out FILE (final metric-registry JSON)\n"
      "           --trace-out FILE (Chrome trace-event JSON; load in Perfetto)\n"
      "           --sample-out FILE --sample-every-ms N (periodic metrics CSV)\n"
      "           --progress (stderr heartbeat; --csv stdout stays clean)\n"
      "serve:     --listen unix:PATH|tcp:[HOST:]PORT --queue N (multi-request\n"
      "             frames executing at once; beyond it they are shed)\n"
      "           --wal-dir DIR (stable WAL/checkpoint files; enables restart\n"
      "             recovery) --recover (rebuild from --wal-dir before listening)\n"
      "           --metrics-listen unix:PATH|tcp:[HOST:]PORT (live HTTP endpoint:\n"
      "             /metrics Prometheus text, /metrics.json, /stats.json)\n"
      "           --slow-op-us THRESH (capture ops over THRESH us queue+execute\n"
      "             in a bounded ring) --slow-op-cap N (ring size, default 128)\n"
      "stats:     --connect unix:PATH|tcp:[HOST:]PORT (wire stats op; prints the\n"
      "             liod-stats/1 JSON) --watch N (re-poll every N s with deltas)\n");
}

bool Parse(int argc, char** argv, int start, CliArgs* args) {
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    auto number = [&](auto* out) { return ParseFlagNumber(a.c_str(), v, out); };
    bool ok = true;
    if (a == "--help" || a == "-h") return false;
    if (a == "--csv") {
      args->csv = true;
    } else if (a == "--inner-in-memory") {
      args->inner_in_memory = true;
    } else if (a == "--write-back") {
      args->write_back = true;
    } else if (a == "--recover") {
      args->recover = true;
    } else if (a == "--device-no-batch") {
      args->device_no_batch = true;
    } else if (a == "--progress") {
      args->progress = true;
    } else if ((v = next()) == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    } else if (a == "--index") {
      args->index = v;
    } else if (a == "--dataset") {
      args->dataset = v;
    } else if (a == "--workload") {
      args->workload = v;
    } else if (a == "--bulk") {
      ok = number(&args->bulk);
    } else if (a == "--ops") {
      ok = number(&args->ops);
    } else if (a == "--block") {
      ok = number(&args->block);
    } else if (a == "--buffer") {
      ok = number(&args->buffer);
    } else if (a == "--buffer-budget") {
      ok = number(&args->buffer_budget);
    } else if (a == "--buffer-policy") {
      args->buffer_policy = v;
    } else if (a == "--update-buffer") {
      ok = number(&args->update_buffer);
    } else if (a == "--merge-mode") {
      args->merge_mode = v;
    } else if (a == "--merge-threshold") {
      ok = number(&args->merge_threshold);
    } else if (a == "--durability") {
      args->durability = v;
    } else if (a == "--group-window") {
      ok = number(&args->group_window);
    } else if (a == "--checkpoint-every") {
      ok = number(&args->checkpoint_every);
    } else if (a == "--scan-length") {
      ok = number(&args->scan_length);
    } else if (a == "--threads") {
      ok = number(&args->threads);
    } else if (a == "--shards") {
      ok = number(&args->shards);
    } else if (a == "--seed") {
      ok = number(&args->seed);
    } else if (a == "--zipf") {
      ok = number(&args->zipf_theta);
    } else if (a == "--disk") {
      args->disk = v;
    } else if (a == "--device") {
      args->device = v;
    } else if (a == "--device-path") {
      args->device_path = v;
    } else if (a == "--metrics-out") {
      args->metrics_out = v;
    } else if (a == "--trace-out") {
      args->trace_out = v;
    } else if (a == "--sample-out") {
      args->sample_out = v;
    } else if (a == "--sample-every-ms") {
      ok = number(&args->sample_every_ms);
    } else if (a == "--listen") {
      args->listen = v;
    } else if (a == "--queue") {
      ok = number(&args->server_queue);
    } else if (a == "--wal-dir") {
      args->wal_dir = v;
    } else if (a == "--metrics-listen") {
      args->metrics_listen = v;
    } else if (a == "--slow-op-us") {
      ok = number(&args->slow_op_us);
    } else if (a == "--slow-op-cap") {
      ok = number(&args->slow_op_cap);
    } else if (a == "--connect") {
      args->connect = v;
    } else if (a == "--watch") {
      ok = number(&args->watch);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
    if (!ok) return false;
  }
  if (args->threads == 0) args->threads = 1;
  if (args->shards == 0) args->shards = 1;
  if (!args->sample_out.empty() && args->sample_every_ms == 0) args->sample_every_ms = 100;
  if (args->sample_every_ms > 0 && args->sample_out.empty()) {
    std::fprintf(stderr, "--sample-every-ms requires --sample-out FILE\n");
    return false;
  }
  return true;
}

std::vector<DiskModel> ParseDisks(const std::string& name) {
  std::vector<DiskModel> disks;
  if (name == "hdd" || name == "both") disks.push_back(DiskModel::Hdd());
  if (name == "ssd" || name == "both") disks.push_back(DiskModel::Ssd());
  return disks;
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

/// The CLI-owned telemetry objects. The registry/trace outlive the engine
/// (it references them); the sampler is constructed by the runner's
/// before_ops hook so its frozen CSV columns include every metric the run
/// registers.
struct TelemetryContext {
  std::unique_ptr<MetricRegistry> metrics;
  std::unique_ptr<TraceRecorder> trace;
  std::unique_ptr<TelemetrySampler> sampler;
};

bool WriteFileOrComplain(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Stops the sampler and writes --metrics-out / --trace-out. Must run while
/// the engine is still alive: the registry's gauges read its IoStats.
int FinishTelemetry(const CliArgs& args, TelemetryContext* telemetry) {
  int rc = 0;
  if (telemetry->sampler != nullptr) {
    const Status status = telemetry->sampler->Stop();
    if (!status.ok()) {
      std::fprintf(stderr, "telemetry sampler failed: %s\n", status.ToString().c_str());
      rc = 1;
    }
    telemetry->sampler.reset();
  }
  if (!args.metrics_out.empty() && telemetry->metrics != nullptr) {
    if (!WriteFileOrComplain(args.metrics_out, telemetry->metrics->ToJson())) rc = 1;
  }
  if (!args.trace_out.empty() && telemetry->trace != nullptr) {
    if (!WriteFileOrComplain(args.trace_out, telemetry->trace->ToChromeTraceJson())) rc = 1;
  }
  return rc;
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
                const WorkloadSpec& spec, TelemetryContext* telemetry) {
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
    if (!args.sample_out.empty() && telemetry->metrics != nullptr) {
      telemetry->sampler = std::make_unique<TelemetrySampler>(
          telemetry->metrics.get(), args.sample_out,
          std::chrono::milliseconds(args.sample_every_ms));
    }
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
  const int telemetry_rc = FinishTelemetry(args, telemetry);
  if (!status.ok()) {
    std::fprintf(stderr, "run failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (telemetry_rc != 0) return telemetry_rc;

  const std::vector<DiskModel> disks = ParseDisks(args.disk);
  if (disks.empty()) {
    std::fprintf(stderr, "unknown disk '%s'\n", args.disk.c_str());
    return 2;
  }

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
      std::printf("%s,%s,%s,", args.index.c_str(), args.dataset.c_str(), args.workload.c_str());
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
        args.index.c_str(), args.dataset.c_str(), args.workload.c_str(),
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

/// Builds the IndexOptions shared by run and serve from the flag set.
/// Returns 0 on success, 2 (after complaining to stderr) on a bad value;
/// callers print Usage() on failure.
int BuildIndexOptions(const CliArgs& args, IndexOptions* options) {
  if (!IsValidBlockSize(args.block)) {
    std::fprintf(stderr, "--block must be a power of two >= 512 (got %zu)\n", args.block);
    return 2;
  }
  options->block_size = args.block;
  options->buffer_pool_blocks = args.buffer;
  options->shared_buffer_budget_blocks = args.buffer_budget;
  options->buffer_write_back = args.write_back;
  options->memory_resident_inner = args.inner_in_memory;
  options->alex_max_data_node_slots = 4096;
  if (!BufferPolicyFromName(args.buffer_policy, &options->buffer_policy)) {
    std::fprintf(stderr, "unknown buffer policy '%s'\n", args.buffer_policy.c_str());
    return 2;
  }
  if (args.merge_threshold <= 0.0) {
    std::fprintf(stderr, "--merge-threshold must be > 0 (got %s)\n",
                 std::to_string(args.merge_threshold).c_str());
    return 2;
  }
  options->update_buffer_blocks = args.update_buffer;
  options->update_buffer_merge_threshold = args.merge_threshold;
  if (!MergeModeFromName(args.merge_mode, &options->update_buffer_merge_mode)) {
    std::fprintf(stderr, "unknown merge mode '%s'\n", args.merge_mode.c_str());
    return 2;
  }
  if (!DurabilityPolicyFromName(args.durability, &options->durability)) {
    std::fprintf(stderr, "unknown durability policy '%s'\n", args.durability.c_str());
    return 2;
  }
  options->wal_group_window = args.group_window;
  options->checkpoint_every_ops = args.checkpoint_every;
  if (!DeviceKindFromName(args.device, &options->device)) {
    std::fprintf(stderr, "unknown device '%s'\n", args.device.c_str());
    return 2;
  }
  options->device_path = args.device_path;
  options->device_batching = !args.device_no_batch;
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
  WorkloadType type = WorkloadType::kLookupOnly;
  if (!WorkloadTypeFromName(args.workload, &type)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    Usage();
    return 2;
  }

  IndexOptions options;
  if (const int rc = BuildIndexOptions(args, &options); rc != 0) {
    Usage();
    return rc;
  }
  if (args.recover && (args.threads > 1 || args.shards > 1)) {
    std::fprintf(stderr, "--recover supports one thread and one shard only (threads=shards=1)\n");
    return 2;
  }
  if (args.recover && options.durability == DurabilityPolicy::kNone) {
    std::fprintf(stderr, "--recover requires --durability != none\n");
    return 2;
  }

  const std::size_t dataset_keys =
      WorkloadGrowsDataset(type) ? args.bulk + args.ops : args.bulk;
  const auto keys = MakeDataset(args.dataset, dataset_keys, args.seed);

  WorkloadSpec spec;
  spec.type = type;
  spec.bulk_keys = args.bulk;
  spec.operations = args.ops;
  spec.scan_length = args.scan_length;
  spec.seed = args.seed + 1;
  spec.zipf_theta = args.zipf_theta;

  // Telemetry is opt-in: nothing is constructed (and the library sees null
  // escape hatches, i.e. the zero-overhead default) unless a flag asks for an
  // output. The registry/trace outlive the index and engine, which hold raw
  // pointers to them.
  TelemetryContext telemetry;
  if (!args.metrics_out.empty() || !args.sample_out.empty()) {
    telemetry.metrics = std::make_unique<MetricRegistry>();
  }
  if (!args.trace_out.empty()) {
    telemetry.trace = std::make_unique<TraceRecorder>();
  }
  options.metrics = telemetry.metrics.get();
  options.trace = telemetry.trace.get();

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
  IndexOptions options;
  if (const int rc = BuildIndexOptions(args, &options); rc != 0) {
    Usage();
    return rc;
  }

  server::Endpoint listen;
  if (!ParseEndpointFlag("--listen", args.listen, &listen)) {
    Usage();
    return 2;
  }
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

  TelemetryContext telemetry;
  // The live endpoint serves the registry, so --metrics-listen implies one
  // even without a file output.
  if (!args.metrics_out.empty() || !args.sample_out.empty() ||
      !args.metrics_listen.empty()) {
    telemetry.metrics = std::make_unique<MetricRegistry>();
  }
  if (!args.trace_out.empty()) {
    telemetry.trace = std::make_unique<TraceRecorder>();
  }
  options.metrics = telemetry.metrics.get();
  options.trace = telemetry.trace.get();

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
    for (std::size_t i = 0; i < args.shards; ++i) {
      const std::string base = args.wal_dir + "/shard" + std::to_string(i);
      auto wal = std::make_unique<FileBlockDevice>(base + ".wal", options.block_size,
                                                   /*truncate=*/!args.recover,
                                                   telemetry.metrics.get());
      auto ckpt = std::make_unique<FileBlockDevice>(base + ".ckpt", options.block_size,
                                                    /*truncate=*/!args.recover,
                                                    telemetry.metrics.get());
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
  server_options.metrics = telemetry.metrics.get();
  server_options.trace = telemetry.trace.get();
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
                                           .registry = telemetry.metrics.get()});
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
  if (!args.sample_out.empty() && telemetry.metrics != nullptr) {
    telemetry.sampler = std::make_unique<TelemetrySampler>(
        telemetry.metrics.get(), args.sample_out,
        std::chrono::milliseconds(args.sample_every_ms));
  }

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
  const int telemetry_rc = FinishTelemetry(args, &telemetry);
  if (!down.ok()) {
    std::fprintf(stderr, "shutdown failed: %s\n", down.ToString().c_str());
    return 1;
  }
  return telemetry_rc;
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
  if (!ParseEndpointFlag("--connect", args.connect, &endpoint)) {
    Usage();
    return 2;
  }
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
  if (command != "run" && command != "serve" && command != "recover" && command != "stats") {
    if (!command.empty()) std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    Usage();
    return 2;
  }

  CliArgs args;
  if (!Parse(argc, argv, 2, &args)) {
    Usage();
    return 2;
  }
  if (command == "serve") return ServeCommand(args);
  if (command == "stats") return StatsCommand(args);
  if (command == "recover") args.recover = true;
  return RunCommand(args);
}
