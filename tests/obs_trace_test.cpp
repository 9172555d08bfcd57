// TraceSession + exporters: span bookkeeping, the JsonWriter, chrome-trace
// JSON validity, the per-round JSONL stream, and the end-to-end acceptance
// contract — span counts match rounds × (compute + sync) and the JSONL
// wire-bit stream sums exactly to TrainResult::total_wire_bits.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "nn/models.hpp"
#include "obs/exporter.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "sim/trainer.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace marsit::obs {
namespace {

// --- minimal JSON validity checker -----------------------------------------
// Recursive-descent parser that accepts exactly the JSON grammar (objects,
// arrays, strings with escapes, numbers, true/false/null) without building
// any values.  Strict enough to catch the classic emitter bugs: trailing
// commas, unescaped quotes, bare NaN/inf, unbalanced brackets.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!parse_value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool parse_value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
        return parse_literal("true");
      case 'f':
        return parse_literal("false");
      case 'n':
        return parse_literal("null");
      default:
        return parse_number();
    }
  }

  bool parse_object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!parse_value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      return false;
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') {
        ++pos_;
      }
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  bool parse_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// --- JsonWriter -------------------------------------------------------------

TEST(JsonWriterTest, EmitsValidNestedStructure) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.kv("name", "hello \"world\"\n\t\x01");
    json.kv("count", std::size_t{42});
    json.kv("ratio", 0.1);
    json.kv("flag", true);
    json.key("items");
    json.begin_array();
    json.value(1);
    json.value(-2);
    json.value(2.5e-9);
    json.end_array();
    json.end_object();
  }
  EXPECT_TRUE(JsonChecker(out.str()).valid()) << out.str();
  EXPECT_NE(out.str().find("\\u0001"), std::string::npos);
}

TEST(JsonWriterTest, DoublesRoundTrip) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0}) {
    std::ostringstream out;
    {
      JsonWriter json(out);
      json.value(v);
    }
    EXPECT_EQ(std::stod(out.str()), v) << out.str();
  }
}

TEST(JsonWriterTest, StructuralMisuseThrows) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  EXPECT_THROW(json.value(1.0), CheckError);  // value without key
  EXPECT_THROW(json.end_array(), CheckError);  // mismatched close
}

// --- TraceSession -----------------------------------------------------------

TEST(TraceSessionTest, CountsSpansByCategory) {
  TraceSession session;
  session.add_span("round 0", "round", 0.0, 2.0, 0);
  session.add_span("sync", "sync", 1.0, 2.0, 0);
  session.add_instant("rejoin worker 2", "rejoin", 1.5, 0);
  EXPECT_EQ(session.span_count(), 3u);
  EXPECT_EQ(session.span_count("round"), 1u);
  EXPECT_EQ(session.span_count("sync"), 1u);
  EXPECT_EQ(session.span_count("rejoin"), 1u);
  EXPECT_EQ(session.span_count("nope"), 0u);
}

TEST(TraceSessionTest, RejectsBackwardsSpans) {
  TraceSession session;
  EXPECT_THROW(session.add_span("bad", "sync", 2.0, 1.0, 0), CheckError);
}

TEST(TraceSessionTest, TimeOffsetRoundTrips) {
  TraceSession session;
  EXPECT_DOUBLE_EQ(session.time_offset(), 0.0);
  session.set_time_offset(3.25);
  EXPECT_DOUBLE_EQ(session.time_offset(), 3.25);
}

TEST(TraceSessionTest, InstallMakesCurrentNonNull) {
  EXPECT_EQ(TraceSession::current(), nullptr);
  {
    TraceSession session;
    TraceSession::install(&session);
    EXPECT_EQ(TraceSession::current(), &session);
    EXPECT_TRUE(tracing_enabled());
    TraceSession::install(nullptr);
  }
  EXPECT_FALSE(tracing_enabled());
}

// --- exporters ---------------------------------------------------------------

TEST(ExporterTest, ChromeTraceIsValidJsonWithExpectedEvents) {
  TraceSession session;
  session.add_span("round 0", "round", 0.0, 2.0, 0);
  session.add_span("compute", "compute", 0.0, 1.0, 0);
  session.add_span("sync", "sync", 1.0, 2.0, 0);
  session.add_span("hop 0→1", "hop", 1.0, 1.5, 1);
  session.add_instant("rejoin worker 2", "rejoin", 1.0, 0);
  RoundRecord record;
  record.round = 0;
  record.set("wire_bits", 128.0);
  session.add_round_record(std::move(record));

  std::ostringstream out;
  write_chrome_trace(session, out);
  const std::string text = out.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  // 4 complete events, 1 instant, plus thread_name metadata for the two
  // used tracks.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"X\""), 4u);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"i\""), 1u);
  EXPECT_EQ(count_occurrences(text, "\"thread_name\""), 2u);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"roundMetrics\""), std::string::npos);
}

TEST(ExporterTest, RoundJsonlOneValidObjectPerLine) {
  TraceSession session;
  for (std::size_t t = 0; t < 3; ++t) {
    RoundRecord record;
    record.round = t;
    record.set("wire_bits", 100.0 * static_cast<double>(t));
    record.set("sync_seconds", 0.5);
    session.add_round_record(std::move(record));
  }
  std::ostringstream out;
  write_round_jsonl(session, out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

// --- end-to-end acceptance ---------------------------------------------------

TEST(ObsEndToEndTest, TrainerSessionMeetsAcceptanceContract) {
  set_log_level(LogLevel::kError);
  auto& registry = MetricsRegistry::global();
  registry.reset();
  set_metrics_enabled(true);
  TraceSession session;
  TraceSession::install(&session);

  SyntheticDigits digits;
  SyncConfig sync_config;
  sync_config.num_workers = 4;
  sync_config.paradigm = MarParadigm::kRing;
  sync_config.seed = 7;
  PsgdSync strategy(sync_config);
  TrainerConfig config;
  config.rounds = 5;
  config.eval_interval = 0;
  config.eval_samples = 64;
  config.eta_l = 0.05f;
  auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {16}, digits.num_classes());
  };
  DistributedTrainer trainer(digits, factory, strategy, config);
  const TrainResult result = trainer.train();

  TraceSession::install(nullptr);
  set_metrics_enabled(false);

  const std::size_t rounds = result.rounds_completed;
  ASSERT_EQ(rounds, 5u);
  // Acceptance: span count = rounds × (round + compute + sync), plus
  // per-hop spans and the collectives' phase spans.
  EXPECT_EQ(session.span_count("round"), rounds);
  EXPECT_EQ(session.span_count("compute"), rounds);
  EXPECT_EQ(session.span_count("sync"), rounds);
  // Ring all-reduce: reduce-scatter + all-gather per round.
  EXPECT_EQ(session.span_count("phase"), 2 * rounds);
  // 2(M−1) hops per phase per... in total 2(M−1)·M messages per round.
  EXPECT_EQ(session.span_count("hop"),
            rounds * 2 * (sync_config.num_workers - 1) *
                sync_config.num_workers);

  // Spans nest: every compute/sync span sits inside its round span, hops
  // inside the sync window.
  const std::vector<TraceSpan> spans = session.spans();
  double max_end = 0.0;
  for (const TraceSpan& span : spans) {
    EXPECT_GE(span.end_seconds, span.start_seconds);
    max_end = std::max(max_end, span.end_seconds);
  }
  EXPECT_NEAR(max_end, result.sim_seconds, 1e-9);

  // Acceptance: the JSONL per-round wire-bit stream sums exactly to
  // TrainResult::total_wire_bits.
  const std::vector<RoundRecord> records = session.rounds();
  ASSERT_EQ(records.size(), rounds);
  double wire_bits = 0.0;
  for (const RoundRecord& record : records) {
    bool found = false;
    for (const auto& [key, value] : record.fields) {
      if (key == "wire_bits") {
        wire_bits += value;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "round record missing wire_bits";
  }
  EXPECT_DOUBLE_EQ(wire_bits, result.total_wire_bits);

  // Metrics agree with the trainer's own accounting.
  EXPECT_DOUBLE_EQ(registry.value("sync.wire_bits"), result.total_wire_bits);
  EXPECT_DOUBLE_EQ(registry.value("sync.rounds"),
                   static_cast<double>(rounds));
  EXPECT_DOUBLE_EQ(registry.value("trainer.rounds"),
                   static_cast<double>(rounds));
  EXPECT_DOUBLE_EQ(registry.value("sync.active_workers"), 4.0);
  const MetricSnapshot hop_seconds = registry.find("net.hop_seconds");
  EXPECT_EQ(hop_seconds.count,
            static_cast<std::uint64_t>(session.span_count("hop")));
  registry.reset();
}

TEST(ObsEndToEndTest, CorruptionRunWireBitsStreamSumsToTotal) {
  // ISSUE satellite: under a corruption plan every message grows by the
  // CRC footer, and that charge must land exactly once — the per-round
  // JSONL stream still sums bit-for-bit to TrainResult::total_wire_bits,
  // and the footer-inflated total stays above the fault-free payload.
  set_log_level(LogLevel::kError);
  TraceSession session;
  TraceSession::install(&session);

  SyntheticDigits digits;
  SyncConfig sync_config;
  sync_config.num_workers = 4;
  sync_config.paradigm = MarParadigm::kRing;
  sync_config.seed = 7;
  sync_config.fault_plan.corruption_rate = 0.2;
  sync_config.fault_plan.retry_timeout = 0.01;
  MarsitSync strategy(sync_config, MarsitOptions{});
  TrainerConfig config;
  config.rounds = 6;
  config.eval_interval = 0;
  config.eval_samples = 64;
  auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {16}, digits.num_classes());
  };
  DistributedTrainer trainer(digits, factory, strategy, config);
  const TrainResult result = trainer.train();
  TraceSession::install(nullptr);

  const std::vector<RoundRecord> records = session.rounds();
  ASSERT_EQ(records.size(), result.rounds_completed);
  double wire_bits = 0.0;
  double retransmitted = 0.0;
  for (const RoundRecord& record : records) {
    for (const auto& [key, value] : record.fields) {
      if (key == "wire_bits") {
        wire_bits += value;
      } else if (key == "retransmitted_wire_bits") {
        retransmitted += value;
      }
    }
  }
  EXPECT_DOUBLE_EQ(wire_bits, result.total_wire_bits);
  EXPECT_DOUBLE_EQ(retransmitted, result.total_retransmitted_wire_bits);

  // Footer-exactly-once pin: at a vanishing corruption rate no retry or
  // demotion ever draws, so the whole-run total is the fault-free payload
  // plus exactly one 32-bit footer per message — 2(M−1)·M ring messages
  // per round.
  SyncConfig clean_config = sync_config;
  clean_config.fault_plan = FaultPlan{};
  MarsitSync clean_strategy(clean_config, MarsitOptions{});
  DistributedTrainer clean_trainer(digits, factory, clean_strategy, config);
  const TrainResult clean = clean_trainer.train();

  SyncConfig tiny_config = sync_config;
  tiny_config.fault_plan = FaultPlan{};
  tiny_config.fault_plan.corruption_rate = 1e-12;
  tiny_config.fault_plan.retry_timeout = 0.01;
  MarsitSync tiny_strategy(tiny_config, MarsitOptions{});
  DistributedTrainer tiny_trainer(digits, factory, tiny_strategy, config);
  const TrainResult tiny = tiny_trainer.train();
  const double messages_per_round = 2.0 * 3.0 * 4.0;
  EXPECT_DOUBLE_EQ(tiny.total_wire_bits,
                   clean.total_wire_bits +
                       32.0 * messages_per_round *
                           static_cast<double>(clean.rounds_completed));
  EXPECT_DOUBLE_EQ(tiny.total_retransmitted_wire_bits, 0.0);
}

TEST(ObsEndToEndTest, DisabledRunRecordsNothing) {
  set_log_level(LogLevel::kError);
  auto& registry = MetricsRegistry::global();
  registry.reset();
  ASSERT_FALSE(metrics_enabled());
  ASSERT_EQ(TraceSession::current(), nullptr);

  SyntheticDigits digits;
  SyncConfig sync_config;
  sync_config.num_workers = 2;
  sync_config.paradigm = MarParadigm::kRing;
  PsgdSync strategy(sync_config);
  TrainerConfig config;
  config.rounds = 2;
  config.eval_interval = 0;
  config.eval_samples = 64;
  auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {16}, digits.num_classes());
  };
  DistributedTrainer trainer(digits, factory, strategy, config);
  trainer.train();

  for (const MetricSnapshot& snap : registry.scrape()) {
    EXPECT_EQ(snap.count, 0u) << snap.name << " published while disabled";
  }
}

}  // namespace
}  // namespace marsit::obs
