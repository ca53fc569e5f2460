#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Timing, process accounting, the closed-loop window runner, and the
// benchmark's own span log. Everything here measures the program from
// outside: clocks and getrusage around calls into its public entry points.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide resource usage (all threads, client and server alike).
struct ProcUsage {
  double cpu_s = 0.0;              ///< user + system
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary
  static ProcUsage Now();
};

/// Resets the process's peak resident set to its current resident set
/// (/proc/self/clear_refs), so that PeakRssMib() covers only what follows.
void ResetPeakRss();
/// Peak resident set since the last ResetPeakRss (VmHWM), in MiB.
double PeakRssMib();

/// Nearest-rank quantile (q in (0, 1]) of latency samples in nanoseconds;
/// reorders `ns`. Returns microseconds. 0 for an empty sample.
double QuantileUs(std::vector<std::uint32_t>& ns, double q);

double Median(std::vector<double> v);

/// One benchmark span: a call into a layer, tagged with its request id.
struct Span {
  const char* name;
  std::uint32_t tid;
  std::uint64_t req;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Spans kept in memory per thread (bounded: the first kMaxPerThread of each
/// thread are kept, the rest only counted) and written at exit as Chrome
/// trace-event JSON, loadable in Perfetto.
class SpanLog {
 public:
  static constexpr std::size_t kMaxPerThread = 20000;
  explicit SpanLog(std::size_t threads) : per_thread_(threads), dropped_(threads, 0) {}
  void Record(std::size_t tid, const char* name, std::uint64_t req, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    auto& spans = per_thread_[tid];
    if (spans.size() < kMaxPerThread) {
      spans.push_back(Span{name, static_cast<std::uint32_t>(tid), req, start_ns, end_ns});
    } else {
      ++dropped_[tid];
    }
  }
  /// Grows to at least `threads` per-thread logs (not thread-safe; call
  /// between windows).
  void EnsureThreads(std::size_t threads);
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> per_thread_;
  std::vector<std::uint64_t> dropped_;
};

/// Outcome of one operation as judged by the benchmark.
enum class Outcome { kOk, kFailed, kWrong };

/// What one slice of a timed window measured. A window is cut into equal
/// slices so that every end-to-end figure can be a median over slices: a
/// burst of host interference then moves one slice, not the run's result.
struct Slice {
  double wall_s = 0.0;
  double cpu_s = 0.0;     ///< process user + system CPU
  std::uint64_t ops = 0;  ///< completed without failure
  double p50_us = 0.0;    ///< latency quantiles of the ops that ended in the slice
  double p99_us = 0.0;
  std::uint64_t samples = 0;
};

struct WindowResult {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< non-OK codes and refusals
  std::uint64_t wrong = 0;   ///< answers the generator could not have stored
  std::vector<std::uint64_t> ops_per_thread;  ///< attempted, per client
  std::vector<std::uint32_t> latency_ns;      ///< one sample per op
  std::vector<Slice> slices;                  ///< empty for untimed replays
  ProcUsage usage;                            ///< delta over the window
  double ops_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(attempted - failed - wrong) / wall_s : 0.0;
  }
};

/// Adds `w` to `into` as more of the same window: counts are summed and
/// slices appended; the raw latency samples are dropped (each slice keeps
/// its quantiles), so pooling does not grow the process.
void Pool(WindowResult* into, WindowResult&& w);

/// Closed loop: `threads` clients each call op(thread, i) for i = 0, 1, ...
/// and wait for it before the next, until `seconds` elapse or a client has
/// issued max_ops[thread]. `seconds` <= 0 means no time limit and no
/// slices (untimed replays). The calling thread times each call; with
/// `spans` set, every call is also logged as span `span_name` with request
/// id (thread << 40 | i). With a time limit the window is cut into `slices`
/// equal slices; a coordinator samples the clients' completed-op counters
/// and the process CPU at each slice end, and each client notes where its
/// latency samples cross a slice end, so every slice gets its own quantiles.
template <typename OpFn>
WindowResult RunClosedLoop(std::size_t threads, double seconds, std::size_t slices,
                           const std::vector<std::uint64_t>& max_ops, OpFn&& op,
                           SpanLog* spans = nullptr, const char* span_name = nullptr) {
  struct PerThread {
    std::uint64_t failed = 0, wrong = 0, end_ns = 0;
    std::vector<std::uint32_t> lat;
    std::vector<std::size_t> marks;  ///< lat.size() when each slice ended
  };
  struct alignas(64) Completed {
    std::atomic<std::uint64_t> ok{0};
  };
  std::vector<PerThread> per(threads);
  std::vector<Completed> completed(threads);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> slices_ended{0};
  std::atomic<std::size_t> ready{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::size_t done = 0;  // guarded by done_mu
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PerThread& me = per[t];
      me.lat.reserve(std::min<std::uint64_t>(max_ops[t], 1u << 23));
      std::uint64_t ok = 0;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < max_ops[t] && !stop.load(std::memory_order_relaxed);
           ++i) {
        const std::uint64_t t0 = NowNs();
        const Outcome outcome = op(t, i);
        const std::uint64_t t1 = NowNs();
        me.lat.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(t1 - t0, UINT32_MAX)));
        if (spans != nullptr) spans->Record(t, span_name, (std::uint64_t{t} << 40) | i, t0, t1);
        if (outcome == Outcome::kOk) completed[t].ok.store(++ok, std::memory_order_relaxed);
        if (outcome == Outcome::kFailed) ++me.failed;
        if (outcome == Outcome::kWrong) ++me.wrong;
        while (me.marks.size() < slices_ended.load(std::memory_order_relaxed)) {
          me.marks.push_back(me.lat.size());
        }
      }
      me.end_ns = NowNs();
      std::lock_guard<std::mutex> lock(done_mu);
      ++done;
      done_cv.notify_one();
    });
  }
  while (ready.load() < threads) std::this_thread::yield();

  WindowResult r;
  std::uint64_t last_ok = 0;
  ProcUsage last_usage = ProcUsage::Now();
  std::uint64_t last_ns = NowNs();
  const ProcUsage before = last_usage;
  const std::uint64_t start_ns = last_ns;
  go.store(true, std::memory_order_release);
  if (seconds > 0.0) {
    const auto start = std::chrono::steady_clock::now();
    const auto slice = std::chrono::duration<double>(seconds / static_cast<double>(slices));
    for (std::size_t s = 1; s <= slices; ++s) {
      const auto boundary =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(slice * s);
      // Clients that run out of tape early end the window early.
      std::unique_lock<std::mutex> lock(done_mu);
      if (done_cv.wait_until(lock, boundary, [&] { return done == threads; })) break;
      lock.unlock();
      std::uint64_t ok = 0;
      for (const Completed& c : completed) ok += c.ok.load(std::memory_order_relaxed);
      const ProcUsage usage = ProcUsage::Now();
      const std::uint64_t ns = NowNs();
      slices_ended.store(s, std::memory_order_relaxed);
      r.slices.push_back(Slice{static_cast<double>(ns - last_ns) * 1e-9,
                               usage.cpu_s - last_usage.cpu_s, ok - last_ok});
      last_ok = ok;
      last_usage = usage;
      last_ns = ns;
    }
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& w : workers) w.join();
  const ProcUsage after = ProcUsage::Now();

  // A client's samples [marks[s-1], marks[s]) ended in slice s; a client
  // that stopped early has all its remaining samples in the next slice.
  std::vector<std::uint32_t> slice_ns;
  for (std::size_t s = 0; s < r.slices.size(); ++s) {
    slice_ns.clear();
    for (const PerThread& p : per) {
      const auto mark = [&](std::size_t k) {
        return k < p.marks.size() ? p.marks[k] : p.lat.size();
      };
      const std::size_t begin = s == 0 ? 0 : mark(s - 1);
      slice_ns.insert(slice_ns.end(), p.lat.begin() + static_cast<std::ptrdiff_t>(begin),
                      p.lat.begin() + static_cast<std::ptrdiff_t>(mark(s)));
    }
    r.slices[s].samples = slice_ns.size();
    r.slices[s].p50_us = QuantileUs(slice_ns, 0.50);
    r.slices[s].p99_us = QuantileUs(slice_ns, 0.99);
  }

  std::uint64_t end_ns = start_ns;
  for (PerThread& p : per) {
    end_ns = std::max(end_ns, p.end_ns);
    r.attempted += p.lat.size();
    r.failed += p.failed;
    r.wrong += p.wrong;
    r.ops_per_thread.push_back(p.lat.size());
    r.latency_ns.insert(r.latency_ns.end(), p.lat.begin(), p.lat.end());
  }
  r.wall_s = static_cast<double>(end_ns - start_ns) * 1e-9;
  r.usage.cpu_s = after.cpu_s - before.cpu_s;
  r.usage.ctx_switches = after.ctx_switches - before.ctx_switches;
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
