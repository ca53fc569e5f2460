// server_loadgen: multi-client closed-loop driver for `liod_cli serve`.
//
// Spawns one KvClient per client thread against a running server, replays a
// deterministic workload tape (the same BuildConcurrentWorkload machinery the
// in-process ConcurrentRunner uses, so a loadgen run and an engine-mode run
// draw identical op sequences), and reports end-to-end throughput plus
// p50/p99/p999 WALL latency per request round trip -- socket, framing, and
// engine execution on the connection's server-side reader thread included.
// Closed loop: each client keeps exactly --batch ops in flight (one Call at a
// time), so offered load scales with --clients and contention shows up in the
// tail. Only multi-request frames can be shed: when more clients than the
// server's --queue bound send --batch > 1 frames at once, the excess is
// answered OVERLOADED (the `overloaded` column).
//
// `server_loadgen --help` lists the flags.
//
// --server-stats fetches the server's liod-stats/1 document (the wire stats
// op) after the final measurement and prints it to STDERR -- stdout CSV stays
// parseable, and CI reconciles the server's ops_executed against the CSV op
// tallies from the same run.
//
// --dataset/--bulk/--seed must match the server's flags so the tape draws
// keys the server actually loaded (YCSB A/B/C/F operate over the loaded set;
// growing workloads insert fresh keys, which the server accepts as inserts).
// --ops is the TOTAL per measurement, split across clients; every client
// count in --clients is one measurement over the same total, which is how
// the scaling column stays comparable.
//
// CSV columns feed scripts/bench_to_json.py unchanged: index (the --label),
// workload, clients, ops, tput_ops_s, reads_per_op/writes_per_op (0 -- the
// client cannot see server-side I/O; the gate for those lives in the
// engine-mode perf rows), p50_us/p99_us/p999_us, and the response-code
// tallies (not_found is an answer; overloaded/shutdown_rejected count shed
// requests, which still complete a round trip and so stay in the latency
// population).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "server/kv_client.h"
#include "server/net.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

using namespace liod;

namespace {

struct LoadgenArgs {
  server::Endpoint connect;       ///< --connect unix:PATH | tcp:[HOST:]PORT
  std::vector<std::size_t> clients = {1};
  std::size_t ops = 50'000;       ///< total per measurement, split across clients
  std::size_t batch = 1;          ///< ops per request frame
  std::string dataset = "fb";
  std::size_t bulk = 100'000;
  std::uint64_t seed = 42;
  WorkloadType workload = WorkloadType::kYcsbC;
  double zipf_theta = 0.99;
  std::size_t scan_length = 100;
  std::string label = "server";
  std::size_t connect_wait_ms = 5'000;  ///< retry budget while the server starts
  bool csv = false;
  bool server_stats = false;  ///< --server-stats: post-run stats op to stderr
};

/// Parses the flags into `args`; the status to exit with on --help or a
/// usage error.
std::optional<int> Parse(int argc, char** argv, LoadgenArgs* args) {
  std::string connect;
  FlagTable flags;
  flags.String("--connect", &connect, "unix:PATH|tcp:[HOST:]PORT", "the serve to drive (required)")
      .List("--clients", &args->clients, "a,b,c", "client counts, one measurement each")
      .Number("--ops", &args->ops, "N", "operations per measurement, split across clients")
      .Number("--batch", &args->batch, "N", "operations per request frame")
      .Choice("--dataset", &args->dataset, NamedChoices(AllDatasetNames()), "the serve's --dataset")
      .Number("--bulk", &args->bulk, "N", "the serve's --bulk")
      .Number("--seed", &args->seed, "N", "the serve's --seed")
      .Choice("--workload", &args->workload, NamedChoices(EveryWorkloadType(), WorkloadTypeName),
              "workload mix (default ycsb-c)")
      .Number("--zipf", &args->zipf_theta, "THETA", "Zipfian skew of YCSB key choice")
      .Number("--scan-length", &args->scan_length, "N", "records per scan")
      .String("--label", &args->label, "NAME", "the CSV index column (default server)")
      .Number("--connect-wait-ms", &args->connect_wait_ms, "N",
              "connect retry budget while the server starts")
      .Switch("--csv", &args->csv, "CSV rows")
      .Switch("--server-stats", &args->server_stats,
              "print the server's stats document to stderr after the last measurement");
  if (const std::optional<int> exit = flags.ParseMain(argc, argv)) return exit;
  if (args->batch == 0) args->batch = 1;
  if (std::find(args->clients.begin(), args->clients.end(), 0) != args->clients.end()) {
    std::fprintf(stderr, "--clients entries must be > 0\n");
    return 2;
  }
  if (connect.empty()) {
    std::fprintf(stderr, "--connect is required\n");
    return 2;
  }
  if (const Status status = server::ParseEndpoint(connect, &args->connect); !status.ok()) {
    std::fprintf(stderr, "--connect: %s\n", status.message().c_str());
    return 2;
  }
  return std::nullopt;
}

/// Connects with retries while the server finishes startup (the CI smoke job
/// launches server and loadgen back to back).
Status ConnectWithRetry(const LoadgenArgs& args, server::KvClient* client) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(args.connect_wait_ms);
  Status status;
  while (true) {
    status = args.connect.unix_path.empty()
                 ? client->ConnectTcp(args.connect.host, args.connect.port)
                 : client->ConnectUnix(args.connect.unix_path);
    if (status.ok() || std::chrono::steady_clock::now() >= deadline) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// One client thread's tallies. Latencies are per Call round trip (one frame
/// of --batch ops), in microseconds.
struct ClientResult {
  Status status;
  std::vector<double> call_us;
  std::uint64_t ops = 0;
  std::uint64_t not_found = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t shutdown_rejected = 0;
  std::uint64_t op_errors = 0;  ///< any other non-ok response code
};

void RunClient(const LoadgenArgs& args, const std::vector<WorkloadOp>& tape,
               std::size_t scan_length, std::atomic<bool>* go, ClientResult* out) {
  server::KvClient client;
  out->status = ConnectWithRetry(args, &client);
  if (!out->status.ok()) return;
  out->call_us.reserve(tape.size() / args.batch + 1);

  std::vector<kv::Request> frame;
  std::vector<kv::Response> responses;
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();

  std::size_t pos = 0;
  while (pos < tape.size()) {
    frame.clear();
    const std::size_t end = std::min(pos + args.batch, tape.size());
    for (; pos < end; ++pos) frame.push_back(ToRequest(tape[pos], scan_length));

    const auto start = std::chrono::steady_clock::now();
    out->status = client.Call(frame, &responses);
    if (!out->status.ok()) return;
    out->call_us.push_back(
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
            .count());

    out->ops += responses.size();
    for (const kv::Response& r : responses) {
      switch (r.code) {
        case Status::Code::kOk:
          break;
        case Status::Code::kNotFound:
          ++out->not_found;
          break;
        case Status::Code::kOverloaded:
          ++out->overloaded;
          break;
        case Status::Code::kShuttingDown:
          ++out->shutdown_rejected;
          break;
        default:
          ++out->op_errors;
          break;
      }
    }
  }
}

double PercentileUs(std::vector<double>* sorted_us, double q) {
  if (sorted_us->empty()) return 0.0;
  const std::size_t n = sorted_us->size();
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return (*sorted_us)[idx];
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenArgs args;
  if (const std::optional<int> exit = Parse(argc, argv, &args)) return *exit;

  // Same dataset-sizing rule as liod_cli run: growing workloads need fresh
  // keys beyond the server's bulkload; the others replay over the loaded set.
  const std::size_t dataset_keys =
      WorkloadGrowsDataset(args.workload) ? args.bulk + args.ops : args.bulk;
  const auto keys = MakeDataset(args.dataset, dataset_keys, args.seed);

  if (args.csv) {
    std::printf(
        "index,workload,clients,batch,ops,tput_ops_s,reads_per_op,writes_per_op,"
        "p50_us,p99_us,p999_us,not_found,overloaded,shutdown_rejected,op_errors\n");
  }

  for (const std::size_t clients : args.clients) {
    WorkloadSpec spec;
    spec.type = args.workload;
    spec.bulk_keys = args.bulk;
    spec.operations = args.ops;
    spec.scan_length = args.scan_length;
    spec.seed = args.seed + 1;
    spec.zipf_theta = args.zipf_theta;
    const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, clients);

    std::vector<ClientResult> results(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    std::atomic<bool> go{false};
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(RunClient, std::cref(args), std::cref(w.thread_ops[c]),
                           w.scan_length, &go, &results[c]);
    }
    // Clients connect before the barrier drops, so the measured window holds
    // steady-state traffic only.
    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    ClientResult total;
    std::vector<double> latencies;
    for (ClientResult& r : results) {
      if (!r.status.ok()) {
        std::fprintf(stderr, "client failed: %s\n", r.status.ToString().c_str());
        return 1;
      }
      total.ops += r.ops;
      total.not_found += r.not_found;
      total.overloaded += r.overloaded;
      total.shutdown_rejected += r.shutdown_rejected;
      total.op_errors += r.op_errors;
      latencies.insert(latencies.end(), r.call_us.begin(), r.call_us.end());
    }
    std::sort(latencies.begin(), latencies.end());
    const double tput = wall_s > 0 ? static_cast<double>(total.ops) / wall_s : 0.0;
    const double p50 = PercentileUs(&latencies, 0.50);
    const double p99 = PercentileUs(&latencies, 0.99);
    const double p999 = PercentileUs(&latencies, 0.999);

    if (args.csv) {
      std::printf("%s,%s,%zu,%zu,%llu,%.2f,0.000,0.000,%.2f,%.2f,%.2f,%llu,%llu,%llu,%llu\n",
                  args.label.c_str(), WorkloadTypeName(args.workload), clients, args.batch,
                  static_cast<unsigned long long>(total.ops), tput, p50, p99, p999,
                  static_cast<unsigned long long>(total.not_found),
                  static_cast<unsigned long long>(total.overloaded),
                  static_cast<unsigned long long>(total.shutdown_rejected),
                  static_cast<unsigned long long>(total.op_errors));
    } else {
      std::printf(
          "%zu client(s) x batch %zu on %s: %llu ops in %.3f s = %.1f ops/s wall; "
          "round trip p50 %.1f us, p99 %.1f us, p999 %.1f us "
          "(%llu not-found, %llu overloaded, %llu shutdown-rejected, %llu errors)\n",
          clients, args.batch, WorkloadTypeName(args.workload),
          static_cast<unsigned long long>(total.ops), wall_s, tput, p50, p99, p999,
          static_cast<unsigned long long>(total.not_found),
          static_cast<unsigned long long>(total.overloaded),
          static_cast<unsigned long long>(total.shutdown_rejected),
          static_cast<unsigned long long>(total.op_errors));
    }
    std::fflush(stdout);
  }

  if (args.server_stats) {
    server::KvClient client;
    const Status status = ConnectWithRetry(args, &client);
    if (!status.ok()) {
      std::fprintf(stderr, "server-stats connect failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::string json;
    if (const Status s = client.Stats(&json); !s.ok()) {
      std::fprintf(stderr, "server-stats failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "server-stats: %s\n", json.c_str());
  }
  return 0;
}
