#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

ProcUsage ProcUsage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

double QuantileUs(std::vector<std::uint32_t>& ns, double q) {
  if (ns.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * static_cast<double>(ns.size())), 1.0,
                 static_cast<double>(ns.size())));
  auto nth = ns.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(ns.begin(), nth, ns.end());
  return static_cast<double>(*nth) * 1e-3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Pool(WindowResult* into, WindowResult&& w) {
  into->wall_s += w.wall_s;
  into->attempted += w.attempted;
  into->failed += w.failed;
  into->wrong += w.wrong;
  into->ops_per_thread.resize(std::max(into->ops_per_thread.size(), w.ops_per_thread.size()));
  for (std::size_t t = 0; t < w.ops_per_thread.size(); ++t) {
    into->ops_per_thread[t] += w.ops_per_thread[t];
  }
  into->slices.insert(into->slices.end(), w.slices.begin(), w.slices.end());
  into->usage.cpu_s += w.usage.cpu_s;
  into->usage.ctx_switches += w.usage.ctx_switches;
}

void SpanLog::EnsureThreads(std::size_t threads) {
  if (per_thread_.size() < threads) {
    per_thread_.resize(threads);
    dropped_.resize(threads, 0);
  }
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = UINT64_MAX;
  std::uint64_t dropped = 0;
  for (const auto& spans : per_thread_) {
    for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  }
  for (std::uint64_t d : dropped_) dropped += d;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":%llu},"
                  "\"traceEvents\":[",
               static_cast<unsigned long long>(dropped));
  bool first = true;
  for (const auto& spans : per_thread_) {
    for (const Span& s : spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu}}",
                   first ? "" : ",\n", s.name, s.tid,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.req));
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
