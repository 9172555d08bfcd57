// Decorators that observe the layers from the benchmark's side of their
// public interfaces; nothing under src/ is instrumented.
//
//   RecordingTransport  wraps a Transport (the socket ranks' SocketTransport)
//                       and attributes every send/recv to its round, taken
//                       from the frame tag (dist::run_marsit_worker tags
//                       round t's frames t << 2 | phase).
//   TimedSync           wraps a SyncStrategy (MarsitSync in the in-process
//                       trainer) and times every synchronize call.
//
// Untraced, each call costs one clock read and a few adds — just enough to
// find round boundaries.  Traced, each call also appends a span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sync_strategy.hpp"
#include "net/transport.hpp"
#include "workload.hpp"

namespace perfbench {

/// One transport call as the traced run records it.
struct Span {
  std::uint32_t kind = 0;  // kSpanSend / kSpanRecv
  std::uint32_t peer = 0;
  std::uint64_t round = 0;
  std::uint64_t bytes = 0;
  double start = 0.0;
  double end = 0.0;
};
inline constexpr std::uint32_t kSpanSend = 0;
inline constexpr std::uint32_t kSpanRecv = 1;

/// Per-round totals of one rank's transport calls.
struct RoundCalls {
  /// End of the round's last transport call: the round boundary.
  double last_end = 0.0;
  std::uint64_t payload_bytes = 0;
  double send_seconds = 0.0;  // traced only
  double recv_seconds = 0.0;  // traced only
};

class RecordingTransport final : public marsit::Transport {
 public:
  explicit RecordingTransport(marsit::Transport& inner) : inner_(inner) {}

  std::size_t rank() const override { return inner_.rank(); }
  std::size_t world_size() const override { return inner_.world_size(); }

  /// Starts a fresh episode of `rounds` rounds.
  void begin_episode(std::size_t rounds, bool traced) {
    rounds_.assign(rounds, RoundCalls{});
    spans_.clear();
    traced_ = traced;
  }
  const std::vector<RoundCalls>& rounds() const { return rounds_; }
  const std::vector<Span>& spans() const { return spans_; }

  void send(std::size_t peer, std::uint32_t tag,
            std::span<const std::uint8_t> payload) override {
    const double start = traced_ ? now_seconds() : 0.0;
    inner_.send(peer, tag, payload);
    finish(kSpanSend, peer, tag, payload.size(), start).payload_bytes +=
        payload.size();
  }

  std::vector<std::uint8_t> recv(std::size_t peer,
                                 std::uint32_t tag) override {
    const double start = traced_ ? now_seconds() : 0.0;
    std::vector<std::uint8_t> payload = inner_.recv(peer, tag);
    finish(kSpanRecv, peer, tag, payload.size(), start);
    return payload;
  }

 private:
  RoundCalls& finish(std::uint32_t kind, std::size_t peer, std::uint32_t tag,
                     std::size_t bytes, double start) {
    const double end = now_seconds();
    const std::size_t index = tag >> 2;
    if (index >= rounds_.size()) {
      rounds_.resize(index + 1);
    }
    RoundCalls& round = rounds_[index];
    round.last_end = end;
    if (traced_) {
      (kind == kSpanSend ? round.send_seconds : round.recv_seconds) +=
          end - start;
      spans_.push_back({kind, static_cast<std::uint32_t>(peer), index, bytes,
                        start, end});
    }
    return round;
  }

  marsit::Transport& inner_;
  std::vector<RoundCalls> rounds_;
  std::vector<Span> spans_;
  bool traced_ = false;
};

/// One synchronize call of the in-process trainer.
struct SyncCall {
  double start = 0.0;
  double end = 0.0;
  bool full_precision = false;
  /// The strategy's α–β communication seconds for the round.
  double predicted_comm = 0.0;
};

class TimedSync final : public marsit::SyncStrategy {
 public:
  explicit TimedSync(marsit::SyncStrategy& inner)
      : SyncStrategy(inner.config()), inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::size_t flush_period() const override { return inner_.flush_period(); }
  const std::vector<SyncCall>& calls() const { return calls_; }

 private:
  marsit::SyncStepResult do_synchronize(const marsit::WorkerSpans& inputs,
                                        std::span<float> out) override {
    const double start = now_seconds();
    marsit::SyncStepResult result = inner_.synchronize(inputs, out);
    calls_.push_back({start, now_seconds(), result.full_precision,
                      result.timing.communication_seconds()});
    return result;
  }

  marsit::SyncStrategy& inner_;
  std::vector<SyncCall> calls_;
};

}  // namespace perfbench
