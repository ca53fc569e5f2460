#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four workloads and the helpers they share. A workload builds its
// inputs from the seed, sets the program up several times (timing only the
// program's set-up calls), counts block I/O over a fixed number of ops, runs
// closed-loop windows against a public entry point, checks every answer, and
// reports metrics by name.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/index.h"
#include "inputs.h"
#include "measure.h"
#include "storage/io_stats.h"
#include "telemetry/metric_registry.h"

namespace liod {
class ShardedEngine;
}

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;        ///< scratch directory for device, WAL and socket files
  std::string trace_dir;  ///< where the traced run writes its Chrome traces
  bool inputs_only = false;
};

using Values = std::map<std::string, double>;

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< wrong answers + non-OK codes + refusals
  Values metrics;
  std::vector<std::pair<std::string, std::string>> info;  ///< printed, not gated
};

/// An untraced run sets the program up kSetups times, each time from
/// scratch, and setup_s is the median. The last kDeployments set-ups each
/// serve a 1/kDeployments share of the timed window and the other figures
/// pool those windows, so one unlucky placement of the program's files and
/// memory moves a quarter of the run, not all of it.
inline constexpr std::size_t kSetups = 7;
inline constexpr std::size_t kDeployments = 4;
/// Slices per deployment's window; throughput, latency quantiles and CPU
/// per op are medians over the run's slices.
inline constexpr std::size_t kSlices = 4;
/// Ops per client in the untimed count phase that precedes each measured
/// window: read_blocks_per_op and space_amp are read over it, so they
/// depend on which ops ran, not on how many the host's speed allowed.
inline constexpr std::uint64_t kCountOps = 25'000;

/// One timed window with the program's counters around it.
struct Measured {
  WindowResult window;
  liod::IoStatsSnapshot io;  ///< delta over the window
  liod::IndexStats before;
  liod::IndexStats after;
};

InputSpec InputSpecFor(const std::string& name, double seconds);

bool IsWorkload(const std::string& name);
/// Runs args.workload (driver.cc): the end-to-end metrics untraced, the
/// per-layer metrics traced.
RunOutput RunWorkload(const Args& args);

// --- shared helpers (common.cc) ---------------------------------------------

/// Judges a lookup of a live key against what the generator could have
/// stored for it: a miss or a foreign value is wrong, any other non-OK code
/// a failure.
Outcome JudgeLookup(liod::Status::Code code, bool found, liod::Payload payload, liod::Key key);

/// Adds a window's attempted ops and failures to the run's totals; any
/// wrong answer makes the run incorrect.
void CountOutcomes(const WindowResult& w, RunOutput* out);

double WallUsPerOp(const WindowResult& w);
double CpuUsPerOp(const WindowResult& w);
/// Median over the window's slices of ops completed per second; the whole
/// window's rate when it has no slices.
double SliceMedianOpsPerS(const WindowResult& w);
/// How much slower the traced window ran than the untraced one, in percent
/// of the untraced throughput.
double OverheadPct(const WindowResult& untraced, const WindowResult& traced);

/// Writes the benchmark's spans and the program's own trace as Chrome
/// trace JSON under args.trace_dir, named after the workload.
void WriteTraces(const Args& args, const SpanLog& spans, const std::string& program_trace,
                 RunOutput* out);

/// max / mean of ops per shard over the ops a window executed: ops
/// [offset, offset + ops_per_thread[t]) of each tape t, cyclically.
double ShardSkew(const liod::ShardedEngine& engine, const Inputs& in, std::uint64_t offset,
                 const std::vector<std::uint64_t>& ops_per_thread);

/// Block reads the index issued, whether the buffer or the device served
/// them: every read probes the buffer once, and under write-through every
/// write probes it once too and is one device write.
std::uint64_t BlockReads(const liod::IoStatsSnapshot& io);

/// The end-to-end metrics of an untraced run: `window` pools the measured
/// windows, `io` and `ops` the count phases, and `counted` is the index
/// after the last count phase.
void AddEndToEnd(RunOutput* out, const WindowResult& window, double setup_s,
                 const liod::IoStatsSnapshot& io, std::uint64_t ops,
                 const liod::IndexStats& counted);

/// Per-layer metrics read off IoStats deltas and structural stats
/// (storage.* counts, index.* visits/shape/SMOs, engine lock waits,
/// recovery.wal_blocks_per_op).
void AddCounterLayers(Values* v, const liod::IoStatsSnapshot& io, std::uint64_t ops,
                      const liod::IndexStats& before, const liod::IndexStats& after);

/// The program's own telemetry around one traced window: registry
/// snapshots at its start and end, the window's start on the trace
/// recorder's clock, and the recorder's Chrome trace taken after it.
struct TelemetryWindow {
  liod::MetricsSnapshot before;
  liod::MetricsSnapshot after;
  std::uint64_t start_us = 0;
  std::string trace_json;
};

/// Merge of every histogram whose name ends in `suffix`, after minus before.
liod::HistogramSnapshot HistogramDelta(const liod::MetricsSnapshot& before,
                                       const liod::MetricsSnapshot& after, const char* suffix);

/// Per-layer metrics read off the program's own telemetry over a traced
/// window: update merges, WAL forces and checkpoints (counters summed over
/// shards), WAL-force and lock-wait histograms, device.io_us, and the
/// merge.drain spans of the program's trace.
void AddRegistryLayers(Values* v, const TelemetryWindow& t, std::uint64_t ops);

/// Removes `path` and everything under it, ignoring errors.
void RemoveTree(const std::string& path);
std::string Fmt(const char* fmt, ...);
/// One progress line on stderr, stamped with seconds since the first call.
void Log(const char* fmt, ...);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
