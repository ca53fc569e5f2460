#ifndef LIOD_ENGINE_HEAT_TRACKER_H_
#define LIOD_ENGINE_HEAT_TRACKER_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "kv/request.h"

namespace liod {

/// Point-in-time view of one shard's workload heat (ShardHeatTracker).
struct HeatSnapshot {
  /// EWMA-smoothed operation rate (1 s windows, see ShardHeatTracker). Before
  /// the first full window elapses this is the rate over the partial window.
  double ops_per_s = 0.0;
  /// Recent read/write/scan mix, fractions summing to 1 when any traffic was
  /// seen (EWMA of the same windows; lifetime mix before the first window).
  double read_frac = 0.0;
  double write_frac = 0.0;
  double scan_frac = 0.0;
  /// Lifetime totals (exact, not estimates).
  std::uint64_t total_ops = 0;
  std::uint64_t lookups = 0;
  std::uint64_t writes = 0;  ///< insert + delete + read-modify-write
  std::uint64_t scans = 0;
  /// SpaceSaving estimate of one hot key: true count is in
  /// [count - error, count].
  struct HotKey {
    Key key = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };
  std::vector<HotKey> top_keys;  ///< hottest first, at most top_k entries
};

/// Online workload-heat tracker for one shard: SpaceSaving top-k hot keys
/// plus EWMA read/write/scan mix and operation rate. This is the data feed
/// for the index advisor on the ROADMAP's Deferred list -- "which keys are
/// hot and what is the mix" is exactly what choosing an index per the
/// paper's design-choices framing needs, and none of it is derivable from
/// cumulative counters after the fact.
///
/// SpaceSaving (Metwally et al.): k monitored counters; a hit increments its
/// counter, a miss evicts the minimum counter and inherits its count as the
/// new key's overestimation error. Any key with true frequency > total/k is
/// guaranteed monitored; reported counts never understate the truth by more
/// than `error`.
///
/// Rates use fixed 1 s windows folded into an EWMA (alpha = 0.3) when a
/// window rolls over; Record() and Snapshot() both roll elapsed windows, so
/// an idle shard decays toward zero instead of freezing at its last rate.
///
/// Thread-safe: one mutex per tracker (= per shard). The engine only calls
/// Record() on its telemetry-enabled path, so the telemetry-off
/// configuration never pays for (or observes) any of this.
class ShardHeatTracker {
 public:
  explicit ShardHeatTracker(std::size_t top_k);

  ShardHeatTracker(const ShardHeatTracker&) = delete;
  ShardHeatTracker& operator=(const ShardHeatTracker&) = delete;

  /// Accounts one operation on this shard. For scans, `key` is the start key.
  void Record(kv::OpKind kind, Key key);

  HeatSnapshot Snapshot() const;

  /// Gauge helpers (shard<i>.heat.* in the registry).
  double OpsPerSecond() const { return Snapshot().ops_per_s; }
  double ReadFraction() const { return Snapshot().read_frac; }
  double WriteFraction() const { return Snapshot().write_frac; }
  double ScanFraction() const { return Snapshot().scan_frac; }

 private:
  /// Operation classes tracked for the mix.
  enum Class : int { kRead = 0, kWrite = 1, kScan = 2, kNumClasses = 3 };

  struct Slot {
    Key key = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  static Class ClassOf(kv::OpKind kind);

  /// Folds every fully elapsed window since window_start_ into the EWMA
  /// rates. Caller holds mu_. Const (over mutable EWMA state) because
  /// Snapshot() rolls windows too -- observation decays an idle shard's
  /// rates exactly like recording would.
  void RollWindows(std::chrono::steady_clock::time_point now) const;

  const std::size_t top_k_;

  mutable std::mutex mu_;
  // SpaceSaving state: slots_ holds at most top_k_ monitored keys; index_
  // maps each monitored key to its slot.
  std::vector<Slot> slots_;
  std::unordered_map<Key, std::size_t> index_;
  // Lifetime exact totals per class.
  std::uint64_t lifetime_[kNumClasses] = {0, 0, 0};
  // EWMA state: counts in the current (partial) window and the smoothed
  // per-second rates of completed windows. Mutable: see RollWindows.
  mutable std::chrono::steady_clock::time_point window_start_;
  mutable std::uint64_t window_[kNumClasses] = {0, 0, 0};
  mutable double rate_[kNumClasses] = {0.0, 0.0, 0.0};
  mutable bool primed_ = false;  ///< at least one full window folded into rate_
};

}  // namespace liod

#endif  // LIOD_ENGINE_HEAT_TRACKER_H_
