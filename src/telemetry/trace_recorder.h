#ifndef LIOD_TELEMETRY_TRACE_RECORDER_H_
#define LIOD_TELEMETRY_TRACE_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/striped.h"

namespace liod {

/// Bounded ring buffer of timed spans, exportable as Chrome trace-event JSON
/// (chrome://tracing and https://ui.perfetto.dev both load it directly).
///
/// Spans go into kStripes fixed-capacity rings (common/striped.h), each
/// thread into its stripe's ring under that stripe's mutex, so threads rarely
/// share a lock and memory is bounded by the stripe count however many
/// threads ever record: a ring is allocated on its stripe's first record,
/// and once full it overwrites its oldest spans (dropped() reports how
/// many). Span names and categories must be string literals (or otherwise
/// outlive the recorder) -- the ring stores the pointers, not copies, to
/// keep Record() allocation-free after a ring's first span.
class TraceRecorder {
 public:
  static constexpr std::size_t kStripes = 16;

  explicit TraceRecorder(std::size_t capacity_per_stripe = 8192);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Microseconds since recorder construction (steady clock).
  std::uint64_t NowUs() const;

  /// Records a completed span. `shard` < 0 means "not shard-scoped".
  void Record(const char* name, const char* category, int shard,
              std::uint64_t start_us, std::uint64_t end_us);

  std::uint64_t recorded() const;  ///< total spans ever recorded
  std::uint64_t dropped() const;   ///< spans overwritten by ring wraparound

  /// `{"traceEvents":[...],"displayTimeUnit":"ms"}` with complete ("ph":"X")
  /// events sorted by start time; tid numbers the stripes that hold spans
  /// 0, 1, ... (threads that share a stripe share a track), and shard-scoped
  /// spans carry {"args":{"shard":N}}.
  std::string ToChromeTraceJson() const;

  /// RAII span: times construction-to-destruction and records on exit.
  /// A null recorder makes it a no-op that never touches the clock, so call
  /// sites stay branch-free: `TraceRecorder::Scope s(trace_, "lookup", "op");`
  class Scope {
   public:
    Scope(TraceRecorder* recorder, const char* name, const char* category,
          int shard = -1)
        : recorder_(recorder),
          name_(name),
          category_(category),
          shard_(shard),
          start_us_(recorder != nullptr ? recorder->NowUs() : 0) {}
    ~Scope() {
      if (recorder_ != nullptr) {
        recorder_->Record(name_, category_, shard_, start_us_, recorder_->NowUs());
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceRecorder* recorder_;
    const char* name_;
    const char* category_;
    int shard_;
    std::uint64_t start_us_;
  };

 private:
  struct Span {
    const char* name;
    const char* category;
    std::int32_t shard;
    std::uint64_t start_us;
    std::uint64_t dur_us;
  };

  struct Ring {
    std::vector<Span> spans;  ///< capacity_ slots, allocated on first record
    std::size_t next = 0;     ///< spans[next] is written next
    std::uint64_t total = 0;  ///< spans ever recorded into this ring
  };

  const std::size_t capacity_;
  const std::uint64_t origin_ns_;
  Striped<Ring, kStripes> rings_;
};

}  // namespace liod

#endif  // LIOD_TELEMETRY_TRACE_RECORDER_H_
