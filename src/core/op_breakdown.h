#ifndef LIOD_CORE_OP_BREAKDOWN_H_
#define LIOD_CORE_OP_BREAKDOWN_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/striped.h"
#include "storage/disk_model.h"
#include "storage/io_stats.h"

namespace liod {

/// The four steps of the paper's insert-path breakdown (Figure 6):
/// (a) initial search, (b) the insertion itself, (c) structural modification,
/// (d) maintenance (statistics updates tied to future SMOs).
enum class OpPhase : int {
  kSearch = 0,
  kInsert = 1,
  kSmo = 2,
  kMaintenance = 3,
};
inline constexpr int kNumOpPhases = 4;

const char* OpPhaseName(OpPhase phase);

/// Accumulates CPU time and I/O per phase across many operations.
///
/// Thread-safe without a shared serialization point: totals are striped
/// (common/striped.h), each thread mapped to one stripe, and totals()
/// merges the stripes on read (the same merge-on-read shape as
/// IoStats::ThreadTally). Every index op -- including
/// read-only lookups -- charges a PhaseScope here, and the engine runs
/// lookups in parallel on one index instance under a shared shard latch; a
/// single global mutex made Record a serialization point exactly where the
/// engine is supposed to scale.
class OpBreakdown {
 public:
  struct PhaseTotals {
    double cpu_us = 0.0;
    IoStatsSnapshot io;
    std::uint64_t events = 0;
  };

  void Record(OpPhase phase, double cpu_us, const IoStatsSnapshot& io_delta);
  /// One phase's totals merged across stripes. Exact once recording threads
  /// are quiescent; concurrent with Record it may miss in-flight events
  /// (same contract as IoStats::snapshot()).
  PhaseTotals totals(OpPhase phase) const;
  void Reset();

  /// Average modeled latency (CPU + modeled I/O) per *operation* for one
  /// phase, where `ops` is the number of top-level operations executed.
  double AvgLatencyUs(OpPhase phase, const DiskModel& model, std::uint64_t ops) const;

 private:
  // 16 stripes bounds the per-instance footprint (every DiskIndex owns one
  // OpBreakdown, and tests create thousands) while keeping the collision
  // odds low at the thread counts the engine runs.
  static constexpr std::size_t kNumStripes = 16;

  Striped<std::array<PhaseTotals, kNumOpPhases>, kNumStripes> stripes_;
};

/// RAII scope that charges elapsed CPU time and I/O to one phase. I/O is
/// captured with a thread-exact ThreadTally, not a stats-wide snapshot
/// delta, so parallel readers on one index cannot double-count each other's
/// fetches into their own phase.
class PhaseScope {
 public:
  PhaseScope(OpBreakdown* breakdown, IoStats* stats, OpPhase phase)
      : breakdown_(breakdown),
        phase_(phase),
        tally_(stats, &io_delta_),
        start_(std::chrono::steady_clock::now()) {}

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double cpu_us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(elapsed).count();
    breakdown_->Record(phase_, cpu_us, io_delta_);
  }

 private:
  OpBreakdown* breakdown_;
  OpPhase phase_;
  IoStatsSnapshot io_delta_;  ///< must outlive tally_ (declared first)
  IoStats::ThreadTally tally_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace liod

#endif  // LIOD_CORE_OP_BREAKDOWN_H_
