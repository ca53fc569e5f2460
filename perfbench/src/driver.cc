// One driver for all four workloads. A workload names its system under test
// -- the shards driven directly through DiskIndex, the ShardedEngine, or a
// KvServer with connected KvClients -- plus its client count; the driver sets
// it up, warms it, counts block I/O over a fixed number of ops, times
// closed-loop windows, checks every answer, and in the traced run adds the
// program's telemetry, the benchmark's spans and the layer waterfall.

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>

#include "engine/sharded_engine.h"
#include "recovery/durable_store.h"
#include "server/kv_client.h"
#include "server/kv_server.h"
#include "server/protocol.h"
#include "storage/block_device.h"
#include "storage/buffer_manager.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_recorder.h"
#include "workloads.h"

namespace perfbench {

namespace {

using liod::DeviceKind;
using liod::IndexStats;
using liod::IoStatsSnapshot;
using liod::Status;
using liod::kv::OpKind;

constexpr std::size_t kAllPages = liod::BufferManager::kUnbounded;
constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();

/// The outermost call a client makes.
enum class Entry { kIndex, kEngine, kServer };

/// How the program is configured for a workload or a waterfall step. The
/// bulkload set is always range-partitioned into `shards` indexes by a
/// ShardedEngine; kIndex clients then call the owning shard's DiskIndex
/// directly, bypassing the engine.
struct Config {
  const char* index;
  std::size_t shards;
  std::size_t frames;  ///< per-file buffer budget
  DeviceKind device;
  Entry entry;
  /// Empty the buffer after bulkload; off only for the waterfall's
  /// every-page-resident step.
  bool drop_caches = true;
};

/// A workload's clients are its input tapes, one each (InputSpecFor).
struct Workload {
  const char* name;
  Config config;
  /// CPUs the whole process is pinned to; 0 leaves it unpinned.
  std::size_t cpus;
  /// Ops per client replayed untimed after set-up, so the buffer and the
  /// update buffer reach their steady state.
  std::uint64_t warm_ops;
};

// lookup-lipp: four clients, each on its own LIPP shard through
// DiskIndex::Lookup -- the single-threaded read-miss path per op, averaged
// over four vCPUs, because one-thread runs drift most on a shared host.
// ingest-pgm: client t inserts only keys of shard t, so the clients do not
// queue on each other's exclusive shard latches.
// server-ycsb-b: the whole process on two CPUs, which its clients, readers
// and workers keep busy, so the three hand-offs of every request (client,
// reader, worker) rarely wake an idle vCPU, whose wake-up latency a busy
// host inflates.
const Workload kWorkloads[] = {
    {"lookup-lipp", {"lipp", 4, 1, DeviceKind::kFile, Entry::kIndex}, 0, 0},
    {"engine-ycsb-c", {"btree", 4, kAllPages, DeviceKind::kFile, Entry::kEngine}, 0, 0},
    {"ingest-pgm", {"pgm", 4, 1, DeviceKind::kFile, Entry::kEngine}, 0, 0},
    {"server-ycsb-b", {"btree", 4, 64, DeviceKind::kFile, Entry::kServer}, 2, 20000},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const char* SpanName(Entry e) {
  switch (e) {
    case Entry::kIndex: return "index.Lookup";
    case Entry::kEngine: return "engine.Execute";
    case Entry::kServer: return "client.Call";
  }
  return "";
}

liod::EngineOptions EngineOptionsFor(const Config& c, const std::string& dir,
                                     liod::MetricRegistry* metrics, liod::TraceRecorder* trace) {
  liod::EngineOptions e;
  e.index_name = c.index;
  e.num_shards = c.shards;
  e.shard_lock_mode = liod::ShardLockMode::kShared;
  e.index.device = c.device;
  e.index.device_path = dir;
  e.index.buffer_pool_blocks = c.frames;
  e.index.metrics = metrics;
  e.index.trace = trace;
  return e;
}

/// The system under test: set-up calls, one judged call per op, counters.
class Sut {
 public:
  Sut() = default;
  Sut(const Sut&) = delete;
  Sut& operator=(const Sut&) = delete;
  virtual ~Sut() = default;
  /// The program's set-up calls; setup_s times only these.
  virtual Status Setup(std::span<const liod::Record> bulk) = 0;
  /// Client t's call for `op`, judged.
  virtual Outcome Do(std::size_t t, const Op& op) = 0;
  virtual liod::ShardedEngine& engine() = 0;
  /// Per-layer metrics of the system's own outermost layer, read after the
  /// traced window `w`.
  virtual void AddTracedLayers(const TelemetryWindow& tw, WindowResult& w, SpanLog* spans,
                               Values* v) = 0;
  IoStatsSnapshot Io() { return engine().MergedIo(); }
  IndexStats Stats() { return engine().MergedStats(); }
};

Outcome JudgeResponse(const Op& op, const liod::kv::Response& r) {
  if (op.kind == OpKind::kLookup) return JudgeLookup(r.code, r.found, r.payload, op.key);
  return r.code == Status::Code::kOk ? Outcome::kOk : Outcome::kFailed;
}

/// In-process: ShardedEngine::Execute, or the owning shard's DiskIndex.
class EngineSut final : public Sut {
 public:
  EngineSut(const Config& c, std::size_t clients, const std::string& dir,
            liod::MetricRegistry* metrics, liod::TraceRecorder* trace)
      : config_(c), batches_(clients), engine_(EngineOptionsFor(c, dir, metrics, trace)) {}

  Status Setup(std::span<const liod::Record> bulk) override {
    LIOD_RETURN_IF_ERROR(engine_.Bulkload(bulk));
    for (std::size_t i = 0; i < engine_.num_shards(); ++i) shards_.push_back(engine_.shard(i));
    return config_.drop_caches ? engine_.DropCaches() : Status::Ok();
  }

  Outcome Do(std::size_t t, const Op& op) override {
    if (config_.entry == Entry::kEngine) {
      liod::kv::RequestBatch& batch = batches_[t];
      batch.requests.resize(1);
      batch.requests[0] = liod::kv::Request{op.kind, op.key, op.payload, 0};
      if (!engine_.Execute(batch).ok()) return Outcome::kFailed;
      return JudgeResponse(op, batch.responses[0]);
    }
    liod::DiskIndex* index = shards_[engine_.ShardFor(op.key)];
    if (op.kind == OpKind::kLookup) {
      liod::Payload payload = 0;
      bool found = false;
      const Status s = index->Lookup(op.key, &payload, &found);
      return JudgeLookup(s.code(), found, payload, op.key);
    }
    return index->Insert(op.key, op.payload).ok() ? Outcome::kOk : Outcome::kFailed;
  }

  liod::ShardedEngine& engine() override { return engine_; }

  void AddTracedLayers(const TelemetryWindow&, WindowResult& w, SpanLog*, Values* v) override {
    if (config_.entry != Entry::kEngine) return;
    (*v)["engine.execute_us.p50"] = QuantileUs(w.latency_ns, 0.50);
    (*v)["engine.execute_us.p99"] = QuantileUs(w.latency_ns, 0.99);
  }

 private:
  Config config_;
  std::vector<liod::kv::RequestBatch> batches_;  ///< one per client, reused
  liod::ShardedEngine engine_;
  std::vector<liod::DiskIndex*> shards_;  ///< owned by engine_
};

/// KvClient::Call at batch 1 against an in-process KvServer in the CI
/// `serve` configuration: 2 workers, queue 64, group-commit WAL (window 8)
/// with per-shard WAL and checkpoint files.
class ServerSut final : public Sut {
 public:
  /// Frames of client 0 kept, when traced, to time the protocol on.
  static constexpr std::size_t kProtocolFrames = 20000;

  ServerSut(const Config& c, std::size_t clients, const std::string& dir,
            liod::MetricRegistry* metrics, liod::TraceRecorder* trace)
      : socket_(dir + "/kv.sock"),
        store_(4096),
        reqs_(clients, std::vector<liod::kv::Request>(1)),
        resps_(clients),
        keep_frames_(metrics != nullptr) {
    for (std::size_t i = 0; i < c.shards; ++i) {
      const std::string base = dir + "/shard" + std::to_string(i);
      store_.InstallSlot(i, std::make_unique<liod::DurableSlot>(
                                std::make_unique<liod::FileBlockDevice>(base + ".wal", 4096),
                                std::make_unique<liod::FileBlockDevice>(base + ".ckpt", 4096)));
    }
    liod::EngineOptions e = EngineOptionsFor(c, dir, metrics, trace);
    e.durable_store = &store_;
    e.index.durability = liod::DurabilityPolicy::kGroupCommit;
    e.index.wal_group_window = 8;
    engine_ = std::make_unique<liod::ShardedEngine>(e);
    liod::server::ServerOptions so;
    so.unix_path = socket_;
    so.workers = 2;
    so.queue_capacity = 64;
    so.metrics = metrics;
    so.trace = trace;
    server_ = std::make_unique<liod::server::KvServer>(engine_.get(), so);
  }
  ~ServerSut() override {
    clients_.clear();
    server_->Shutdown();
  }

  Status Setup(std::span<const liod::Record> bulk) override {
    LIOD_RETURN_IF_ERROR(engine_->Bulkload(bulk));
    LIOD_RETURN_IF_ERROR(engine_->DropCaches());
    LIOD_RETURN_IF_ERROR(server_->Start());
    for (std::size_t c = 0; c < reqs_.size(); ++c) {
      clients_.push_back(std::make_unique<liod::server::KvClient>());
      LIOD_RETURN_IF_ERROR(clients_.back()->ConnectUnix(socket_));
    }
    return Status::Ok();
  }

  Outcome Do(std::size_t t, const Op& op) override {
    std::vector<liod::kv::Response>& resps = resps_[t];
    reqs_[t][0] = liod::kv::Request{op.kind, op.key, op.payload, 0};
    const bool ok = clients_[t]->Call(reqs_[t], &resps).ok() && resps.size() == 1;
    if (keep_frames_ && t == 0 && frame_reqs_.size() < kProtocolFrames) {
      frame_reqs_.push_back(reqs_[t][0]);
      frame_resps_.push_back(ok ? resps[0] : liod::kv::Response{});
    }
    return ok ? JudgeResponse(op, resps[0]) : Outcome::kFailed;
  }

  liod::ShardedEngine& engine() override { return *engine_; }

  void AddTracedLayers(const TelemetryWindow& tw, WindowResult& w, SpanLog* spans,
                       Values* v) override {
    Values& m = *v;
    const liod::HistogramSnapshot queue_wait =
        HistogramDelta(tw.before, tw.after, "server.queue_wait_us");
    const liod::HistogramSnapshot execute =
        HistogramDelta(tw.before, tw.after, "server.execute_us");
    m["server.queue_wait_us.p50"] = queue_wait.Quantile(0.50);
    m["server.queue_wait_us.p99"] = queue_wait.Quantile(0.99);
    m["server.execute_us.p50"] = execute.Quantile(0.50);
    m["server.self_us.p50"] = QuantileUs(w.latency_ns, 0.50) - m["server.queue_wait_us.p50"] -
                              m["server.execute_us.p50"];
    TimeProtocol(spans, v);
  }

 private:
  /// Times Encode/Decode of the request and response bodies of the kept
  /// frames, logging the first pass as spans on an extra thread row.
  void TimeProtocol(SpanLog* spans, Values* v) const {
    namespace proto = liod::server;
    const std::size_t n = frame_reqs_.size();
    if (n == 0) return;
    const std::size_t row = reqs_.size();
    spans->EnsureThreads(row + 1);
    std::vector<std::byte> buf;
    std::vector<liod::kv::Request> reqs;
    std::vector<liod::kv::Response> resps;
    std::uint32_t tag = 0;
    constexpr int kPasses = 5;
    std::uint64_t encode_ns = 0, decode_ns = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t t0 = NowNs();
        buf.clear();
        proto::EncodeRequestBody(static_cast<std::uint32_t>(i), {&frame_reqs_[i], 1}, &buf);
        const std::size_t req_bytes = buf.size();
        proto::EncodeResponseBody(static_cast<std::uint32_t>(i), {&frame_resps_[i], 1}, &buf);
        const std::uint64_t t1 = NowNs();
        proto::DecodeRequestBody({buf.data(), req_bytes}, &tag, &reqs);
        proto::DecodeResponseBody({buf.data() + req_bytes, buf.size() - req_bytes}, &tag, &resps);
        const std::uint64_t t2 = NowNs();
        encode_ns += t1 - t0;
        decode_ns += t2 - t1;
        if (pass == 0) {
          spans->Record(row, "protocol.encode", i, t0, t1);
          spans->Record(row, "protocol.decode", i, t1, t2);
        }
      }
    }
    const double ops = static_cast<double>(n) * kPasses;
    (*v)["protocol.encode_ns_per_op"] = static_cast<double>(encode_ns) / ops;
    (*v)["protocol.decode_ns_per_op"] = static_cast<double>(decode_ns) / ops;
  }

  std::string socket_;
  liod::DurableStore store_;
  std::unique_ptr<liod::ShardedEngine> engine_;
  std::unique_ptr<liod::server::KvServer> server_;
  std::vector<std::unique_ptr<liod::server::KvClient>> clients_;
  std::vector<std::vector<liod::kv::Request>> reqs_;  ///< one batch-1 request per client
  std::vector<std::vector<liod::kv::Response>> resps_;
  bool keep_frames_;
  std::vector<liod::kv::Request> frame_reqs_;
  std::vector<liod::kv::Response> frame_resps_;
};

/// A set-up program in its own directory, removed with it.
struct Deployment {
  std::string dir;
  std::unique_ptr<Sut> sut;
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    sut.reset();
    if (!dir.empty()) RemoveTree(dir);
  }
};

/// Runs ops [offset, offset + n) of every client's tape as a closed loop,
/// cyclically when the tapes wrap; an insert tape ends its client's share
/// early when it runs out. `seconds` > 0 bounds the phase in time and
/// slices it.
Measured RunPhase(Sut& sut, std::span<const Tape> tapes, bool wrap, std::uint64_t offset,
                  std::uint64_t n, double seconds, SpanLog* spans = nullptr,
                  const char* span_name = nullptr) {
  std::vector<std::uint64_t> max_ops;
  for (const Tape& tape : tapes) {
    max_ops.push_back(wrap ? n : std::min<std::uint64_t>(n, tape.size() - offset));
  }
  Measured m;
  m.before = sut.Stats();
  const IoStatsSnapshot io0 = sut.Io();
  m.window = RunClosedLoop(
      tapes.size(), seconds, kSlices, max_ops,
      [&](std::size_t t, std::uint64_t i) {
        const Tape& tape = tapes[t];
        return sut.Do(t, tape[(offset + i) % tape.size()]);
      },
      spans, span_name);
  m.io = sut.Io() - io0;
  m.after = sut.Stats();
  return m;
}

/// Builds the program for `c` in `dir` and runs its set-up calls; returns
/// their seconds, or a negative value on failure. When the caches were
/// dropped but the budget holds every page, every page is then read once,
/// untimed: one lookup per 32 keys reads every leaf and every inner node on
/// the way.
double Deploy(Deployment* d, const Config& c, std::size_t clients, const std::string& dir,
              std::span<const liod::Record> bulk, liod::MetricRegistry* metrics = nullptr,
              liod::TraceRecorder* trace = nullptr) {
  d->dir = dir;
  std::filesystem::create_directories(dir);
  if (c.entry == Entry::kServer) {
    d->sut = std::make_unique<ServerSut>(c, clients, dir, metrics, trace);
  } else {
    d->sut = std::make_unique<EngineSut>(c, clients, dir, metrics, trace);
  }
  const std::uint64_t t0 = NowNs();
  const Status s = d->sut->Setup(bulk);
  const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  if (!s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    return -1.0;
  }
  if (c.drop_caches && c.frames == kAllPages) {
    for (std::size_t i = 0; i < bulk.size(); i += 32) {
      d->sut->Do(0, Op{OpKind::kLookup, bulk[i].key, 0});
    }
    d->sut->Do(0, Op{OpKind::kLookup, bulk.back().key, 0});
  }
  return seconds;
}

/// The workload's untimed warm-up replay, if it has one.
void WarmUp(Sut& sut, const Workload& w, const Inputs& in, RunOutput* out) {
  if (w.warm_ops == 0) return;
  CountOutcomes(RunPhase(sut, in.tapes, in.tapes_wrap, 0, w.warm_ops, 0.0).window, out);
}

/// After inserting tape ops [0, executed[t]) of every client: every one of
/// those keys is looked up (untimed, one reader per client, in key order)
/// and the live record count must equal bulk + inserts.
void CheckInserted(Sut& sut, const Inputs& in, const std::vector<std::uint64_t>& executed,
                   RunOutput* out) {
  std::vector<std::uint64_t> bad(in.tapes.size(), 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < in.tapes.size(); ++t) {
    readers.emplace_back([&, t] {
      std::vector<liod::Key> keys;
      keys.reserve(executed[t]);
      for (std::uint64_t i = 0; i < executed[t]; ++i) keys.push_back(in.tapes[t][i].key);
      std::sort(keys.begin(), keys.end());
      for (liod::Key key : keys) {
        if (sut.Do(t, Op{OpKind::kLookup, key, 0}) != Outcome::kOk) ++bad[t];
      }
    });
  }
  for (auto& r : readers) r.join();
  std::uint64_t missing = 0, inserted = 0;
  for (std::size_t t = 0; t < in.tapes.size(); ++t) {
    missing += bad[t];
    inserted += executed[t];
  }
  const std::uint64_t live = sut.Stats().num_records;
  if (missing > 0 || live != in.bulk.size() + inserted) {
    out->correct = false;
    std::fprintf(stderr,
                 "ingest check: %llu inserted keys not found, %llu live records (want %llu)\n",
                 static_cast<unsigned long long>(missing), static_cast<unsigned long long>(live),
                 static_cast<unsigned long long>(in.bulk.size() + inserted));
  }
}

std::vector<std::uint64_t> Sum(const std::vector<std::uint64_t>& a,
                               const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> s(a);
  for (std::size_t i = 0; i < b.size(); ++i) s[i] += b[i];
  return s;
}

/// Sets up kSetups times; each of the last kDeployments set-ups then warms
/// up, runs the count phase and serves its share of the timed window. After
/// the last window every inserted key is checked; checking every window
/// would nearly double an ingest run's time.
void RunUntraced(const Workload& w, const Inputs& in, const Args& args, RunOutput* out) {
  std::vector<double> setup;
  WindowResult pooled;
  IoStatsSnapshot count_io;
  std::uint64_t count_ops = 0;
  IndexStats counted;
  for (std::size_t r = 0; r < kSetups; ++r) {
    Deployment d;
    const double s = Deploy(&d, w.config, in.tapes.size(), "deploy" + std::to_string(r), in.bulk);
    if (s < 0.0) {
      out->correct = false;
      return;
    }
    setup.push_back(s);
    Log("deployment %zu set up in %.3f s", r, s);
    if (r + kDeployments < kSetups) continue;
    WarmUp(*d.sut, w, in, out);
    Measured count = RunPhase(*d.sut, in.tapes, in.tapes_wrap, w.warm_ops, kCountOps, 0.0);
    CountOutcomes(count.window, out);
    Measured m = RunPhase(*d.sut, in.tapes, in.tapes_wrap, w.warm_ops + kCountOps, kUnlimited,
                          args.seconds / static_cast<double>(kDeployments));
    Log("deployment %zu window: %llu ops", r, static_cast<unsigned long long>(m.window.attempted));
    CountOutcomes(m.window, out);
    if (!in.tapes_wrap && r + 1 == kSetups) {
      CheckInserted(*d.sut, in, Sum(count.window.ops_per_thread, m.window.ops_per_thread), out);
    }
    count_io += count.io;
    count_ops += count.window.attempted;
    counted = count.after;
    Pool(&pooled, std::move(m.window));
  }
  AddEndToEnd(out, pooled, Median(setup), count_io, count_ops, counted);
}

/// One single-threaded waterfall step: `replay` on a fresh deployment of `c`.
WindowResult WaterfallStep(const Config& c, const std::string& dir, const Inputs& in,
                           const Tape& replay, RunOutput* out, IoStatsSnapshot* io = nullptr) {
  Deployment d;
  if (Deploy(&d, c, 1, dir, in.bulk) < 0.0) {
    out->correct = false;
    return {};
  }
  Measured m = RunPhase(*d.sut, {&replay, 1}, false, 0, replay.size(), 0.0);
  CountOutcomes(m.window, out);
  if (io != nullptr) *io = m.io;
  return std::move(m.window);
}

/// Three parts of args.seconds / 3 each: (a) the workload as run, untraced,
/// for counters and the reference throughput; (b) the same with the
/// program's telemetry attached and a span around every outermost call;
/// (c) the layer waterfall over (a)'s ops on one thread.
void RunTraced(const Workload& w, const Inputs& in, const Args& args, RunOutput* out) {
  Values& v = out->metrics;
  const double part = args.seconds / 3.0;

  Measured base;
  {
    Deployment d;
    if (Deploy(&d, w.config, in.tapes.size(), "untraced", in.bulk) < 0.0) {
      out->correct = false;
      return;
    }
    WarmUp(*d.sut, w, in, out);
    base = RunPhase(*d.sut, in.tapes, in.tapes_wrap, w.warm_ops, kUnlimited, part);
    CountOutcomes(base.window, out);
    if (!in.tapes_wrap) CheckInserted(*d.sut, in, base.window.ops_per_thread, out);
    AddCounterLayers(&v, base.io, base.window.attempted, base.before, base.after);
    v["server.ctx_switches_per_op"] =
        static_cast<double>(base.window.usage.ctx_switches) /
        static_cast<double>(std::max<std::uint64_t>(base.window.attempted, 1));
    v["engine.shard_skew"] = ShardSkew(d.sut->engine(), in, w.warm_ops, base.window.ops_per_thread);
  }
  Log("traced run: untraced part done");

  {
    liod::MetricRegistry registry;
    liod::TraceRecorder recorder(1 << 16);
    SpanLog spans(in.tapes.size());
    Deployment d;
    if (Deploy(&d, w.config, in.tapes.size(), "traced", in.bulk, &registry, &recorder) < 0.0) {
      out->correct = false;
      return;
    }
    WarmUp(*d.sut, w, in, out);
    TelemetryWindow tw;
    tw.before = registry.Snapshot();
    tw.start_us = recorder.NowUs();
    Measured traced = RunPhase(*d.sut, in.tapes, in.tapes_wrap, w.warm_ops, kUnlimited, part,
                               &spans, SpanName(w.config.entry));
    tw.after = registry.Snapshot();
    tw.trace_json = recorder.ToChromeTraceJson();
    CountOutcomes(traced.window, out);
    d.sut->AddTracedLayers(tw, traced.window, &spans, &v);
    AddRegistryLayers(&v, tw, traced.window.attempted);
    v["telemetry.overhead_pct"] = OverheadPct(base.window, traced.window);
    WriteTraces(args, spans, tw.trace_json, out);
  }
  Log("traced run: traced part done");

  // Steps 1-3 drive the workload's shards directly through DiskIndex; step 4
  // goes through Execute; step 5 is part (a). A layer's cost is the
  // difference between adjacent steps.
  const Tape replay = InterleaveExecuted(in, w.warm_ops, base.window.ops_per_thread);
  Config bare = w.config;
  bare.entry = Entry::kIndex;
  bare.device = DeviceKind::kModeled;
  bare.frames = kAllPages;
  bare.drop_caches = false;
  const WindowResult s1 = WaterfallStep(bare, "step1", in, replay, out);
  bare.frames = w.config.frames;
  bare.drop_caches = true;
  const WindowResult s2 = WaterfallStep(bare, "step2", in, replay, out);
  bare.device = DeviceKind::kFile;
  IoStatsSnapshot io3;
  const WindowResult s3 = WaterfallStep(bare, "step3", in, replay, out, &io3);
  v["index.cpu_us_per_op"] = CpuUsPerOp(s1);
  v["storage.buffer_us_per_op"] = WallUsPerOp(s2) - WallUsPerOp(s1);
  const double device_us = WallUsPerOp(s3) - WallUsPerOp(s2);
  const double blocks3 = s3.attempted == 0 ? 0.0
                                           : static_cast<double>(io3.TotalIo()) /
                                                 static_cast<double>(s3.attempted);
  v["storage.device_us_per_op"] = device_us;
  v["storage.device_us_per_block"] = blocks3 > 0.0 ? device_us / blocks3 : 0.0;
  if (w.config.entry == Entry::kEngine) {
    const WindowResult s4 = WaterfallStep(w.config, "step4", in, replay, out);
    v["engine.dispatch_us_per_op"] = WallUsPerOp(s4) - WallUsPerOp(s3);
    v["engine.contention_cpu_us_per_op"] = CpuUsPerOp(base.window) - CpuUsPerOp(s4);
    v["engine.scaling_x"] = s4.ops_per_s() > 0.0 ? base.window.ops_per_s() / s4.ops_per_s() : 0.0;
  }
  out->info.emplace_back("waterfall_ops", std::to_string(replay.size()));
}

/// Pins the process, and every thread it starts from now on, to the last
/// `n` CPUs it may run on.
void PinToCpus(std::size_t n, RunOutput* out) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    list = std::to_string(cpu) + (list.empty() ? "" : "," + list);
    --n;
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) == 0) out->info.emplace_back("cpus", list);
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindWorkload(name) != nullptr; }

RunOutput RunWorkload(const Args& args) {
  const Workload& w = *FindWorkload(args.workload);
  RunOutput out;
  if (w.cpus > 0) PinToCpus(w.cpus, &out);
  const Inputs in = MakeInputs(InputSpecFor(args.workload, args.seconds), args.seed);
  // The high-water mark from here on covers the program, not the generator.
  ResetPeakRss();
  Log("inputs generated");
  out.info.emplace_back("inputs_digest",
                        Fmt("%016llx", static_cast<unsigned long long>(in.digest)));
  out.info.emplace_back("bulk_keys", std::to_string(in.bulk.size()));
  out.info.emplace_back("clients", std::to_string(in.tapes.size()));
  out.info.emplace_back("index", w.config.index);
  out.info.emplace_back("shards", std::to_string(w.config.shards));
  out.info.emplace_back("frames_per_file",
                        w.config.frames == kAllPages ? "all" : std::to_string(w.config.frames));
  out.info.emplace_back("flush_policy",
                        w.config.entry == Entry::kServer
                            ? "group-commit WAL, window 8; a force is a pwrite into the page "
                              "cache (no fsync/fdatasync)"
                            : "none (no WAL; buffer write-through)");
  if (args.trace) {
    RunTraced(w, in, args, &out);
  } else {
    RunUntraced(w, in, args, &out);
  }
  return out;
}

}  // namespace perfbench
