#ifndef LIOD_TELEMETRY_OUTPUTS_H_
#define LIOD_TELEMETRY_OUTPUTS_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/flags.h"
#include "common/options.h"
#include "telemetry/metric_registry.h"
#include "telemetry/sampler.h"
#include "telemetry/trace_recorder.h"

namespace liod {

/// The four telemetry flags of every binary that can record its run. All
/// off by default.
struct TelemetryFlags {
  std::string metrics_out;          ///< --metrics-out: final registry JSON
  std::string trace_out;            ///< --trace-out: Chrome trace-event JSON
  std::string sample_out;           ///< --sample-out: periodic metrics CSV
  std::size_t sample_every_ms = 0;  ///< --sample-every-ms (0 = 100 when sampling)

  /// Adds the four flags to `table`.
  void AddTo(FlagTable& table);

  /// After parsing: --sample-every-ms defaults to 100 with --sample-out and
  /// is a usage error without it (false, after saying so on stderr).
  bool Resolve();
};

/// Owns what the telemetry flags ask for: the registry (--metrics-out,
/// --sample-out, or a caller that serves it live), the trace (--trace-out)
/// and the sampler, and writes the output files at Finish(). Nothing is
/// constructed unless asked for, so the library sees null escape hatches:
/// no overhead and bit-exact counted I/O. Construct it before any engine;
/// indexes and engines hold raw pointers to the registry and trace.
class TelemetryOutputs {
 public:
  explicit TelemetryOutputs(const TelemetryFlags& flags, bool need_registry = false);
  TelemetryOutputs(const TelemetryOutputs&) = delete;
  TelemetryOutputs& operator=(const TelemetryOutputs&) = delete;

  MetricRegistry* metrics() const { return metrics_.get(); }
  TraceRecorder* trace() const { return trace_.get(); }

  /// Points `options` at the registry and trace (null when off).
  void Apply(IndexOptions* options) const;

  /// Starts the --sample-out sampler unless it runs already. Call once every
  /// metric is registered: its CSV columns are frozen at start (later
  /// registrations of the same names accumulate into them).
  void StartSampler();

  /// Stops the sampler and writes --metrics-out and --trace-out. Call while
  /// the engine is alive: the registry's gauges read its counters. False,
  /// after saying why on stderr, on any I/O failure.
  bool Finish();

 private:
  const TelemetryFlags flags_;
  std::unique_ptr<MetricRegistry> metrics_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<TelemetrySampler> sampler_;
};

}  // namespace liod

#endif  // LIOD_TELEMETRY_OUTPUTS_H_
