// SimTransport — the in-memory Transport backend (DESIGN.md §14).
//
// A SimFabric holds the mailboxes of every (src, dst, tag) stream: send()
// appends a copy of the payload to the stream's mailbox and returns, which
// satisfies the Transport contract that send() returns once the peer's
// transport accepted the message; recv() waits for the stream's next
// payload.  The fabric only delivers — it prices nothing.  A round's α–β
// time comes from price_hop_schedule (core/hop_schedule.hpp), the one
// pricer of every method's round.
//
// This is the deterministic oracle the socket backend is checked against: a
// distributed worker run over SimTransport must produce bit-identical
// parameters to the same run over SocketTransport, because both carry the
// same bytes through the same schedules (tests/dist_cross_backend_test).
//
// Endpoints may live on different threads (the in-process cross-backend
// test does this); the fabric serializes all state under one mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "net/transport.hpp"
#include "util/thread_safety.hpp"

namespace marsit {

class SimTransport;

/// The shared medium: the in-memory mailboxes of every (src, dst, tag)
/// stream.
class SimFabric {
 public:
  explicit SimFabric(std::size_t world_size);

  std::size_t world_size() const { return world_size_; }

  /// Creates the endpoint for `rank` (each rank exactly once).
  std::unique_ptr<SimTransport> endpoint(std::size_t rank);

 private:
  friend class SimTransport;

  void send(std::size_t src, std::size_t dst, std::uint32_t tag,
            std::span<const std::uint8_t> payload);
  std::vector<std::uint8_t> recv(std::size_t src, std::size_t dst,
                                 std::uint32_t tag);

  using StreamKey = std::tuple<std::size_t, std::size_t, std::uint32_t>;

  std::size_t world_size_;
  Mutex mutex_;
  CondVar cv_;
  std::map<StreamKey, std::deque<std::vector<std::uint8_t>>> mail_
      MARSIT_GUARDED_BY(mutex_);
};

class SimTransport final : public Transport {
 public:
  std::size_t rank() const override { return rank_; }
  std::size_t world_size() const override { return fabric_->world_size(); }

  void send(std::size_t peer, std::uint32_t tag,
            std::span<const std::uint8_t> payload) override {
    fabric_->send(rank_, peer, tag, payload);
  }
  std::vector<std::uint8_t> recv(std::size_t peer,
                                 std::uint32_t tag) override {
    return fabric_->recv(peer, rank_, tag);
  }

 private:
  friend class SimFabric;
  SimTransport(SimFabric* fabric, std::size_t rank)
      : fabric_(fabric), rank_(rank) {}

  SimFabric* fabric_;
  std::size_t rank_;
};

}  // namespace marsit
