// Transport — the point-to-point message layer underneath the collective
// schedules (DESIGN.md §14).
//
// The collectives in src/collectives describe *who* sends *what* to *whom*
// per step; a Transport carries the bytes.  Two backends implement it:
//
//   SimTransport     the deterministic oracle — endpoints share a SimFabric
//                    whose in-memory queues deliver the payloads;
//   SocketTransport  real OS sockets — one process (or thread) per worker,
//                    length-prefixed CRC-checked frames, acks for
//                    flow-control (see net/frame.hpp for the wire format).
//
// Contract:
//   * send() blocks until the payload is accepted by the peer's transport
//     (acked on sockets; enqueued on the simulator).  After
//     send() returns the bytes are guaranteed to be eventually recv()able
//     exactly once by the peer.
//   * recv() blocks until a message from `peer` with tag `tag` is
//     available and returns its payload.  Messages with equal (peer, tag)
//     form a FIFO stream; distinct tags are independent streams, so two
//     overlapping collective phases cannot steal each other's payloads.
//   * Implementations must be callable from one thread per endpoint (the
//     worker loop); they need not support concurrent send/recv races on a
//     single endpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace marsit {

class Transport {
 public:
  virtual ~Transport() = default;

  /// This endpoint's rank in [0, world_size).
  virtual std::size_t rank() const = 0;
  virtual std::size_t world_size() const = 0;

  /// Delivers `payload` to `peer` on the (sender, tag) stream.  Blocks
  /// until the peer's transport has accepted the bytes.
  virtual void send(std::size_t peer, std::uint32_t tag,
                    std::span<const std::uint8_t> payload) = 0;

  /// Returns the next payload of the (peer, tag) stream, blocking until
  /// one arrives.
  virtual std::vector<std::uint8_t> recv(std::size_t peer,
                                         std::uint32_t tag) = 0;
};

}  // namespace marsit
