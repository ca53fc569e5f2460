#include "core/op_breakdown.h"

namespace liod {

const char* OpPhaseName(OpPhase phase) {
  switch (phase) {
    case OpPhase::kSearch: return "search";
    case OpPhase::kInsert: return "insert";
    case OpPhase::kSmo: return "smo";
    case OpPhase::kMaintenance: return "maintenance";
  }
  return "unknown";
}

void OpBreakdown::Record(OpPhase phase, double cpu_us, const IoStatsSnapshot& io_delta) {
  stripes_.Update([&](std::array<PhaseTotals, kNumOpPhases>& totals) {
    PhaseTotals& t = totals[static_cast<int>(phase)];
    t.cpu_us += cpu_us;
    t.io += io_delta;
    ++t.events;
  });
}

OpBreakdown::PhaseTotals OpBreakdown::totals(OpPhase phase) const {
  PhaseTotals merged;
  stripes_.ForEach([&](const std::array<PhaseTotals, kNumOpPhases>& totals) {
    const PhaseTotals& t = totals[static_cast<int>(phase)];
    merged.cpu_us += t.cpu_us;
    merged.io += t.io;
    merged.events += t.events;
  });
  return merged;
}

void OpBreakdown::Reset() {
  stripes_.ForEach([](std::array<PhaseTotals, kNumOpPhases>& totals) { totals = {}; });
}

double OpBreakdown::AvgLatencyUs(OpPhase phase, const DiskModel& model,
                                 std::uint64_t ops) const {
  if (ops == 0) return 0.0;
  const PhaseTotals t = totals(phase);
  return (t.cpu_us + model.IoMicros(t.io)) / static_cast<double>(ops);
}

}  // namespace liod
