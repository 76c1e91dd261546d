#include "telemetry/span_tracer.h"

#include <cstdio>

#include "telemetry/json_writer.h"

namespace prism::telemetry {

std::string SpanTracer::export_chrome_trace(
    std::string_view process_name) const {
  JsonWriter w;
  w.begin_object();
  // Ring accounting up front so a consumer can tell whether the timeline
  // is complete: dropped > 0 means the oldest spans were overwritten.
  w.key("traceStats")
      .begin_object()
      .member("recorded", recorded())
      .member("retained", static_cast<std::uint64_t>(size()))
      .member("dropped", dropped())
      .end_object();
  w.key("traceEvents").begin_array();

  // Metadata: process name, one thread row per labelled track.
  w.begin_object()
      .member("ph", "M")
      .member("pid", 0)
      .member("tid", 0)
      .member("name", "process_name")
      .key("args")
      .begin_object()
      .member("name", process_name)
      .end_object()
      .end_object();
  for (const auto& [track, label] : track_labels_) {
    w.begin_object()
        .member("ph", "M")
        .member("pid", 0)
        .member("tid", track)
        .member("name", "thread_name")
        .key("args")
        .begin_object()
        .member("name", label)
        .end_object()
        .end_object();
  }

  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = at(i);
    w.begin_object();
    w.member("pid", 0).member("tid", static_cast<int>(s.track));
    w.member("name", name(s.name));
    w.member("ts", static_cast<double>(s.begin) / 1e3);
    if (s.instant) {
      w.member("ph", "i").member("s", "t");
    } else {
      w.member("ph", "X");
      w.member("dur", static_cast<double>(s.duration) / 1e3);
      if (s.arg != 0 || s.arg2 != 0) {
        w.key("args").begin_object();
        if (s.arg != 0) {
          w.member("packets", static_cast<std::uint64_t>(s.arg));
        }
        if (s.arg2 != 0) {
          w.member("stage_ns", static_cast<std::uint64_t>(s.arg2));
        }
        w.end_object();
      }
    }
    w.end_object();
  }

  w.end_array();
  w.member("displayTimeUnit", "ns");
  w.end_object();
  return w.take();
}

bool SpanTracer::export_chrome_trace_file(
    const std::string& path, std::string_view process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = export_chrome_trace(process_name);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

}  // namespace prism::telemetry
