// perfbench: the repository benchmark. One invocation runs one workload for
// one seed and prints, as its last stdout line, one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A line before it, {"info": {...}}, records the inputs digest
// and the run's conditions. See ../README.md.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Names and units must match BENCHMARK.json (tests/test_perfbench.py checks).
const MetricDef kEndToEnd[] = {
    {"tput_ops_s", "ops/s"},       {"p50_us", "us"},
    {"p99_us", "us"},              {"setup_s", "s"},
    {"cpu_us_per_op", "us"},       {"read_blocks_per_op", "blocks"},
    {"space_amp", "ratio"},        {"rss_peak_mib", "MiB"},
    {"ok_ratio", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"server.queue_wait_us.p50", "us"},
    {"server.queue_wait_us.p99", "us"},
    {"server.execute_us.p50", "us"},
    {"server.self_us.p50", "us"},
    {"server.ctx_switches_per_op", "count"},
    {"protocol.encode_ns_per_op", "ns"},
    {"protocol.decode_ns_per_op", "ns"},
    {"engine.execute_us.p50", "us"},
    {"engine.execute_us.p99", "us"},
    {"engine.lock_waits_per_kop", "count"},
    {"engine.lock_wait_us.p99", "us"},
    {"engine.shard_skew", "ratio"},
    {"engine.dispatch_us_per_op", "us"},
    {"engine.contention_cpu_us_per_op", "us"},
    {"engine.scaling_x", "ratio"},
    {"index.cpu_us_per_op", "us"},
    {"index.inner_visits_per_op", "count"},
    {"index.leaf_visits_per_op", "count"},
    {"index.height", "count"},
    {"index.nodes", "count"},
    {"index.smos_per_kop", "count"},
    {"storage.hit_ratio.inner", "ratio"},
    {"storage.hit_ratio.leaf", "ratio"},
    {"storage.evictions_per_op", "count"},
    {"storage.writebacks_per_op", "blocks"},
    {"storage.reads_per_op.inner", "blocks"},
    {"storage.reads_per_op.leaf", "blocks"},
    {"storage.writes_per_op.leaf", "blocks"},
    {"storage.writes_per_op.wal", "blocks"},
    {"storage.read_blocks_per_op", "blocks"},
    {"storage.write_blocks_per_op", "blocks"},
    {"storage.buffer_us_per_op", "us"},
    {"storage.device_us_per_op", "us"},
    {"storage.device_us_per_block", "us"},
    {"storage.device_io_us_per_op", "us"},
    {"updates.merges_per_kop", "count"},
    {"updates.merge_us.p99", "us"},
    {"recovery.wal_forces_per_kop", "count"},
    {"recovery.wal_force_us.p99", "us"},
    {"recovery.wal_blocks_per_op", "blocks"},
    {"recovery.checkpoints_per_kop", "count"},
    {"telemetry.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR\n"
               "                 [--trace-dir DIR] [--inputs-only]\n"
               "workloads: lookup-lipp engine-ycsb-c ingest-pgm server-ycsb-b\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inputs-only") {
      a->inputs_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--dir") {
      a->dir = v;
    } else if (flag == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return IsWorkload(a->workload) && a->seconds > 0.0 && (a->inputs_only || !a->dir.empty());
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  Log("%s seed %llu", args.workload.c_str(), static_cast<unsigned long long>(args.seed));

  if (args.inputs_only) {
    const Inputs in = MakeInputs(InputSpecFor(args.workload, args.seconds), args.seed);
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"inputs_digest\":\"%016llx\"}\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(in.digest));
    return 0;
  }
  // Every device, WAL and socket file lives under --dir; working inside it
  // keeps the unix socket path short whatever the checkout's path is.
  if (chdir(args.dir.c_str()) != 0) {
    std::perror("chdir --dir");
    return 2;
  }
  args.dir = ".";

  RunOutput out = RunWorkload(args);

  out.info.emplace_back("workload", args.workload);
  out.info.emplace_back("seed", std::to_string(args.seed));
  out.info.emplace_back("mode", args.trace ? "traced" : "untraced");
  out.info.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.info.emplace_back("device", "file (buffered pread/pwrite)");
  out.info.emplace_back("page_cache", "warm: files written by bulkload, never dropped");
  if (!args.trace) {
    out.info.emplace_back("setups", std::to_string(kSetups));
    out.info.emplace_back("deployments_measured", std::to_string(kDeployments));
  }
  std::printf("{\"info\":{");
  for (std::size_t i = 0; i < out.info.size(); ++i) {
    if (i > 0) std::printf(",");
    PrintJsonString(out.info[i].first);
    std::printf(":");
    PrintJsonString(out.info[i].second);
  }
  std::printf("}}\n");

  const std::span<const MetricDef> defs =
      args.trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : defs) {
    double& value = out.metrics[def.name];  // absent: the layer is not on this workload's path
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", def.name);
      out.correct = false;
      value = 0.0;
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",", defs[i].name,
                out.metrics[defs[i].name], defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct && out.attempted > 0 ? 0 : 1;
}
