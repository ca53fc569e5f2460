#include "telemetry/outputs.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace liod {

namespace {

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

void TelemetryFlags::AddTo(FlagTable& table) {
  table.String("--metrics-out", &metrics_out, "FILE", "final metric-registry JSON")
      .String("--trace-out", &trace_out, "FILE", "Chrome trace-event JSON (load in Perfetto)")
      .String("--sample-out", &sample_out, "FILE", "periodic metrics CSV")
      .Number("--sample-every-ms", &sample_every_ms, "N",
              "--sample-out interval (default 100)");
}

bool TelemetryFlags::Resolve() {
  if (sample_out.empty() && sample_every_ms > 0) {
    std::fprintf(stderr, "--sample-every-ms requires --sample-out FILE\n");
    return false;
  }
  if (!sample_out.empty() && sample_every_ms == 0) sample_every_ms = 100;
  return true;
}

TelemetryOutputs::TelemetryOutputs(const TelemetryFlags& flags, bool need_registry)
    : flags_(flags) {
  if (need_registry || !flags.metrics_out.empty() || !flags.sample_out.empty()) {
    metrics_ = std::make_unique<MetricRegistry>();
  }
  if (!flags.trace_out.empty()) trace_ = std::make_unique<TraceRecorder>();
}

void TelemetryOutputs::Apply(IndexOptions* options) const {
  options->metrics = metrics_.get();
  options->trace = trace_.get();
}

void TelemetryOutputs::StartSampler() {
  if (sampler_ != nullptr || flags_.sample_out.empty()) return;
  sampler_ = std::make_unique<TelemetrySampler>(
      metrics_.get(), flags_.sample_out, std::chrono::milliseconds(flags_.sample_every_ms));
}

bool TelemetryOutputs::Finish() {
  bool ok = true;
  if (sampler_ != nullptr) {
    const Status status = sampler_->Stop();
    if (!status.ok()) {
      std::fprintf(stderr, "telemetry sampler failed: %s\n", status.ToString().c_str());
      ok = false;
    }
    sampler_.reset();
  }
  if (!flags_.metrics_out.empty()) ok = WriteFile(flags_.metrics_out, metrics_->ToJson()) && ok;
  if (!flags_.trace_out.empty()) {
    ok = WriteFile(flags_.trace_out, trace_->ToChromeTraceJson()) && ok;
  }
  return ok;
}

}  // namespace liod
