#include "obs/exporter.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <set>

#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace marsit::obs {

namespace {

constexpr double kMicrosPerSecond = 1e6;

void write_event_common(JsonWriter& json, const TraceSpan& span) {
  json.kv("name", span.name);
  json.kv("cat", span.cat);
  json.kv("ts", span.start_seconds * kMicrosPerSecond);
  json.kv("pid", std::uint64_t{0});
  json.kv("tid", std::uint64_t{span.track});
}

}  // namespace

void write_chrome_trace(const TraceSession& session, std::ostream& out) {
  const std::vector<TraceSpan> spans = session.spans();

  JsonWriter json(out, /*pretty=*/false);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();

  // Name the tracks: 0 is the trainer/schedule timeline, 1+n is fabric
  // node n (hop spans land on their sender's track).
  std::set<std::uint32_t> tracks;
  for (const TraceSpan& span : spans) {
    tracks.insert(span.track);
  }
  for (const std::uint32_t track : tracks) {
    json.begin_object();
    json.kv("name", "thread_name");
    json.kv("ph", "M");
    json.kv("pid", std::uint64_t{0});
    json.kv("tid", std::uint64_t{track});
    json.key("args");
    json.begin_object();
    json.kv("name", track == 0 ? std::string("trainer")
                               : "node " + std::to_string(track - 1));
    json.end_object();
    json.end_object();
  }

  for (const TraceSpan& span : spans) {
    json.begin_object();
    write_event_common(json, span);
    if (span.instant) {
      json.kv("ph", "i");
      json.kv("s", "t");  // thread-scoped instant
    } else {
      json.kv("ph", "X");
      json.kv("dur", (span.end_seconds - span.start_seconds) *
                         kMicrosPerSecond);
    }
    json.end_object();
  }
  json.end_array();
  json.kv("displayTimeUnit", "ms");

  // Non-standard extras (chrome://tracing ignores unknown top-level keys):
  // the per-round records and a metrics scrape, so one file carries the
  // whole observation.
  json.key("roundMetrics");
  json.begin_array();
  for (const RoundRecord& record : session.rounds()) {
    json.begin_object();
    json.kv("round", record.round);
    for (const auto& [key, value] : record.fields) {
      json.kv(key, value);
    }
    json.end_object();
  }
  json.end_array();

  json.key("metrics");
  json.begin_array();
  for (const MetricSnapshot& snap : MetricsRegistry::global().scrape()) {
    json.begin_object();
    json.kv("name", snap.name);
    json.kv("kind", metric_kind_name(snap.kind));
    json.kv("value", snap.value);
    json.kv("count", snap.count);
    if (snap.kind == MetricKind::kHistogram && snap.count > 0) {
      json.kv("min", snap.min);
      json.kv("max", snap.max);
      json.kv("mean", snap.value / static_cast<double>(snap.count));
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_round_jsonl(const TraceSession& session, std::ostream& out) {
  for (const RoundRecord& record : session.rounds()) {
    JsonWriter json(out, /*pretty=*/false);
    json.begin_object();
    json.kv("round", record.round);
    for (const auto& [key, value] : record.fields) {
      json.kv(key, value);
    }
    json.end_object();
    out << '\n';
  }
}

ScopedTrace::ScopedTrace(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--trace") {
      path_ = argv[i + 1];
      break;
    }
  }
  if (!path_.empty()) {
    set_metrics_enabled(true);
    TraceSession::install(&session_);
  }
}

ScopedTrace::~ScopedTrace() {
  if (path_.empty()) {
    return;
  }
  TraceSession::install(nullptr);
  set_metrics_enabled(false);
  {
    std::ofstream out(path_);
    MARSIT_CHECK(out.good()) << "cannot open trace output " << path_;
    write_chrome_trace(session_, out);
  }
  std::cerr << "chrome trace written to " << path_
            << " (load via chrome://tracing or ui.perfetto.dev)\n";
  if (!session_.rounds().empty()) {
    const std::string jsonl_path = path_ + ".jsonl";
    std::ofstream out(jsonl_path);
    MARSIT_CHECK(out.good()) << "cannot open metrics output " << jsonl_path;
    write_round_jsonl(session_, out);
    std::cerr << "per-round metrics written to " << jsonl_path << "\n";
  }
}

}  // namespace marsit::obs
