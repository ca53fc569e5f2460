#include "storage/io_stats.h"

#include <sstream>

namespace liod {

namespace {

std::uint64_t Sum(const std::array<std::uint64_t, kNumFileClasses>& counters) {
  std::uint64_t total = 0;
  for (auto c : counters) total += c;
  return total;
}

double Rate(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t probes = hits + misses;
  return probes == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(probes);
}

}  // namespace

const char* FileClassName(FileClass klass) {
  switch (klass) {
    case FileClass::kMeta: return "meta";
    case FileClass::kInner: return "inner";
    case FileClass::kLeaf: return "leaf";
    case FileClass::kOther: return "other";
    case FileClass::kWal: return "wal";
  }
  return "unknown";
}

std::uint64_t IoStatsSnapshot::TotalReads() const { return Sum(reads); }

std::uint64_t IoStatsSnapshot::TotalWrites() const { return Sum(writes); }

std::uint64_t IoStatsSnapshot::TotalHits() const { return Sum(buffer_hits); }

std::uint64_t IoStatsSnapshot::TotalMisses() const { return Sum(buffer_misses); }

std::uint64_t IoStatsSnapshot::TotalEvictions() const { return Sum(buffer_evictions); }

std::uint64_t IoStatsSnapshot::TotalWritebacks() const { return Sum(buffer_writebacks); }

double IoStatsSnapshot::HitRateFor(FileClass klass) const {
  return Rate(HitsFor(klass), MissesFor(klass));
}

double IoStatsSnapshot::OverallHitRate() const { return Rate(TotalHits(), TotalMisses()); }

IoStatsSnapshot IoStatsSnapshot::operator-(const IoStatsSnapshot& rhs) const {
  IoStatsSnapshot out;
  for (int i = 0; i < kNumFileClasses; ++i) {
    out.reads[i] = reads[i] - rhs.reads[i];
    out.writes[i] = writes[i] - rhs.writes[i];
    out.buffer_hits[i] = buffer_hits[i] - rhs.buffer_hits[i];
    out.buffer_misses[i] = buffer_misses[i] - rhs.buffer_misses[i];
    out.buffer_evictions[i] = buffer_evictions[i] - rhs.buffer_evictions[i];
    out.buffer_writebacks[i] = buffer_writebacks[i] - rhs.buffer_writebacks[i];
  }
  out.inner_nodes_visited = inner_nodes_visited - rhs.inner_nodes_visited;
  out.leaf_nodes_visited = leaf_nodes_visited - rhs.leaf_nodes_visited;
  out.read_lock_waits = read_lock_waits - rhs.read_lock_waits;
  return out;
}

IoStatsSnapshot& IoStatsSnapshot::operator+=(const IoStatsSnapshot& rhs) {
  for (int i = 0; i < kNumFileClasses; ++i) {
    reads[i] += rhs.reads[i];
    writes[i] += rhs.writes[i];
    buffer_hits[i] += rhs.buffer_hits[i];
    buffer_misses[i] += rhs.buffer_misses[i];
    buffer_evictions[i] += rhs.buffer_evictions[i];
    buffer_writebacks[i] += rhs.buffer_writebacks[i];
  }
  inner_nodes_visited += rhs.inner_nodes_visited;
  leaf_nodes_visited += rhs.leaf_nodes_visited;
  read_lock_waits += rhs.read_lock_waits;
  return *this;
}

std::string IoStatsSnapshot::ToString() const {
  std::ostringstream os;
  auto per_class = [&os](const char* label,
                         const std::array<std::uint64_t, kNumFileClasses>& counters) {
    os << label << "{";
    for (int i = 0; i < kNumFileClasses; ++i) {
      if (i) os << ",";
      os << FileClassName(static_cast<FileClass>(i)) << "=" << counters[i];
    }
    os << "}";
  };
  per_class("reads", reads);
  os << " ";
  per_class("writes", writes);
  os << " ";
  per_class("hits", buffer_hits);
  os << " ";
  per_class("misses", buffer_misses);
  os << " nodes{inner=" << inner_nodes_visited << ",leaf=" << leaf_nodes_visited << "}";
  os << " locks{waits=" << read_lock_waits << "}";
  return os.str();
}

thread_local IoStats::ThreadTally* IoStats::ThreadTally::top_ = nullptr;

IoStatsSnapshot IoStats::snapshot() const {
  IoStatsSnapshot out;
  for (int i = 0; i < kNumFileClasses; ++i) {
    out.reads[i] = reads_[i].load(std::memory_order_relaxed);
    out.writes[i] = writes_[i].load(std::memory_order_relaxed);
    out.buffer_hits[i] = buffer_hits_[i].load(std::memory_order_relaxed);
    out.buffer_misses[i] = buffer_misses_[i].load(std::memory_order_relaxed);
    out.buffer_evictions[i] = buffer_evictions_[i].load(std::memory_order_relaxed);
    out.buffer_writebacks[i] = buffer_writebacks_[i].load(std::memory_order_relaxed);
  }
  out.inner_nodes_visited = inner_nodes_visited_.load(std::memory_order_relaxed);
  out.leaf_nodes_visited = leaf_nodes_visited_.load(std::memory_order_relaxed);
  out.read_lock_waits = read_lock_waits_.load(std::memory_order_relaxed);
  return out;
}

void IoStats::Reset() {
  for (int i = 0; i < kNumFileClasses; ++i) {
    reads_[i].store(0, std::memory_order_relaxed);
    writes_[i].store(0, std::memory_order_relaxed);
    buffer_hits_[i].store(0, std::memory_order_relaxed);
    buffer_misses_[i].store(0, std::memory_order_relaxed);
    buffer_evictions_[i].store(0, std::memory_order_relaxed);
    buffer_writebacks_[i].store(0, std::memory_order_relaxed);
  }
  inner_nodes_visited_.store(0, std::memory_order_relaxed);
  leaf_nodes_visited_.store(0, std::memory_order_relaxed);
  read_lock_waits_.store(0, std::memory_order_relaxed);
}

}  // namespace liod
