#include "telemetry/trace_recorder.h"

#include <algorithm>
#include <chrono>

namespace liod {

namespace {

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void AppendQuoted(std::string* out, const char* text) {
  out->push_back('"');
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '"' || *c == '\\') out->push_back('\\');
    out->push_back(*c);
  }
  out->push_back('"');
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity_per_stripe)
    : capacity_(std::max<std::size_t>(1, capacity_per_stripe)), origin_ns_(SteadyNowNs()) {}

std::uint64_t TraceRecorder::NowUs() const {
  return (SteadyNowNs() - origin_ns_) / 1000;
}

void TraceRecorder::Record(const char* name, const char* category, int shard,
                           std::uint64_t start_us, std::uint64_t end_us) {
  const std::uint64_t dur_us = end_us >= start_us ? end_us - start_us : 0;
  rings_.Update([&](Ring& ring) {
    if (ring.spans.empty()) ring.spans.resize(capacity_);
    ring.spans[ring.next] = Span{name, category, shard, start_us, dur_us};
    ring.next = (ring.next + 1) % capacity_;
    ++ring.total;
  });
}

std::uint64_t TraceRecorder::recorded() const {
  std::uint64_t total = 0;
  rings_.ForEach([&](const Ring& ring) { total += ring.total; });
  return total;
}

std::uint64_t TraceRecorder::dropped() const {
  std::uint64_t overwritten = 0;
  rings_.ForEach([&](const Ring& ring) {
    if (ring.total > capacity_) overwritten += ring.total - capacity_;
  });
  return overwritten;
}

std::string TraceRecorder::ToChromeTraceJson() const {
  struct Exported {
    Span span;
    std::uint32_t tid;
  };
  std::vector<Exported> events;
  std::uint32_t tid = 0;
  rings_.ForEach([&](const Ring& ring) {
    if (ring.total == 0) return;
    const std::size_t kept =
        static_cast<std::size_t>(std::min<std::uint64_t>(ring.total, capacity_));
    // The ring's oldest surviving span sits at `next` once it has wrapped.
    const std::size_t oldest = ring.total > capacity_ ? ring.next : 0;
    for (std::size_t i = 0; i < kept; ++i) {
      events.push_back({ring.spans[(oldest + i) % capacity_], tid});
    }
    ++tid;
  });
  std::sort(events.begin(), events.end(),
            [](const Exported& a, const Exported& b) {
              return a.span.start_us < b.span.start_us;
            });
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out.append("{\"traceEvents\":[");
  bool first = true;
  for (const Exported& event : events) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    AppendQuoted(&out, event.span.name);
    out.append(",\"cat\":");
    AppendQuoted(&out, event.span.category);
    out.append(",\"ph\":\"X\",\"pid\":0,\"tid\":");
    out.append(std::to_string(event.tid));
    out.append(",\"ts\":");
    out.append(std::to_string(event.span.start_us));
    out.append(",\"dur\":");
    out.append(std::to_string(event.span.dur_us));
    if (event.span.shard >= 0) {
      out.append(",\"args\":{\"shard\":");
      out.append(std::to_string(event.span.shard));
      out.push_back('}');
    }
    out.push_back('}');
  }
  out.append("],\"displayTimeUnit\":\"ms\"}");
  return out;
}

}  // namespace liod
