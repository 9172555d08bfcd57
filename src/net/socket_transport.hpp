// SocketTransport — the real-OS-socket Transport backend (DESIGN.md §14).
//
// One endpoint per worker process (or per thread in tests), fully meshed
// over loopback TCP: rank r holds one connected stream socket per peer.
// Messages travel as net/frame.hpp frames; every data frame is acked by the
// receiving endpoint, and send() blocks until the matching ack arrives, so
// the simulator's "send completes when the payload is accepted" semantics
// hold on real sockets too.
//
// Payload bytes cross user space once per side.  send() writes straight
// from the caller's span in kPieceBytes pieces, computing each piece's
// CRC32 just before writing it; the header goes out with the first piece
// and the footer with the last, so a frame of at most one piece is one
// writev(2).  The reader reads each piece into a buffer of its own (the
// footer together with the last piece), CRCs it while it is hot and
// appends it to the payload, which was reserved to the declared length
// without zero-filling.
//
// Each connection owns a reader thread that decodes incoming frames
// autonomously: a data frame lands in its tag's FIFO mailbox, and is acked,
// only after its magic, length ceiling and CRC have all checked out; ack
// frames release blocked senders.  Because acking never waits on the
// application, two peers may both send() before either recv()s — the
// deadlock that kills naive blocking-socket rings.
//
// Determinism note: the transport carries bytes and never consumes rng or
// clocks; all nondeterminism (thread scheduling, TCP timing) is confined to
// *when* payloads arrive, not *what* they contain, and the collective
// schedules impose a total order per stream via tags.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "util/thread_safety.hpp"

namespace marsit {

class SocketTransport final : public Transport {
 public:
  /// Payload bytes per write on send and per read on receive: small enough
  /// for a piece to stay in L2 between its CRC and its copy.
  static constexpr std::size_t kPieceBytes = std::size_t{256} << 10;

  /// Takes ownership of `peer_fds`: one connected stream socket per peer,
  /// indexed by peer rank, -1 at `rank` (self).  Spawns one reader thread
  /// per connection.
  SocketTransport(std::size_t rank, std::vector<int> peer_fds);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  std::size_t rank() const override { return rank_; }
  std::size_t world_size() const override { return connections_.size(); }

  void send(std::size_t peer, std::uint32_t tag,
            std::span<const std::uint8_t> payload) override;
  std::vector<std::uint8_t> recv(std::size_t peer, std::uint32_t tag) override;

  /// Payload bytes this endpoint has send()t so far (frame headers, CRC
  /// footers and acks excluded).  With the frame overhead formula —
  /// data_frames_sent() · (kFrameHeaderBytes + kFrameFooterBytes) — tests
  /// can pin the exact number of bytes written to the wire
  /// (tests/dist_wire_volume_test).
  std::uint64_t payload_bytes_sent() const {
    return payload_bytes_sent_.load(std::memory_order_relaxed);
  }
  /// Data frames this endpoint has send()t so far (acks excluded).
  std::uint64_t data_frames_sent() const {
    return data_frames_sent_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    /// Set once before the reader thread starts, closed only after it has
    /// joined — effectively immutable while any thread can see it.
    int fd = -1;
    std::thread reader;
    /// Serializes frame writes (data vs acks).  Guards the write side of fd,
    /// which the analysis cannot see through the writev(2) syscall; the
    /// discipline is "hold write_mutex across every piece of a frame".
    Mutex write_mutex;
    Mutex mutex;  // guards everything below
    CondVar cv;
    std::map<std::uint32_t, std::deque<std::vector<std::uint8_t>>> mailbox
        MARSIT_GUARDED_BY(mutex);
    /// Data frames the peer has acknowledged.
    std::size_t acks MARSIT_GUARDED_BY(mutex) = 0;
    /// Data frames written to the peer.
    std::size_t sent MARSIT_GUARDED_BY(mutex) = 0;
    /// Frames mailboxed but not yet acked by our reader.  The destructor
    /// waits for this to drain before shutting the socket down: the final
    /// recv() of a run can return (and the whole endpoint destruct) while
    /// the reader is still between the mailbox push and the ack write, and
    /// shutting down in that window would strand the peer's blocked send().
    std::size_t acks_pending MARSIT_GUARDED_BY(mutex) = 0;
    bool closed MARSIT_GUARDED_BY(mutex) = false;
    /// First framing/IO failure, re-thrown at callers.
    std::string error MARSIT_GUARDED_BY(mutex);
  };

  Connection& connection(std::size_t peer);
  void reader_loop(Connection& conn);

  std::size_t rank_;
  std::vector<std::unique_ptr<Connection>> connections_;  // [peer], self null
  std::atomic<std::uint64_t> payload_bytes_sent_{0};
  std::atomic<std::uint64_t> data_frames_sent_{0};
};

/// Binds a listening TCP socket on 127.0.0.1 with an OS-assigned port
/// (written to *port_out).  Returns the listening fd.  Transient
/// EADDRINUSE (ephemeral-port churn under parallel test load) is retried
/// with exponential backoff before giving up.
int bind_loopback_listener(std::uint16_t* port_out);

/// Builds rank's side of the full mesh: connects to every lower rank's
/// listener (announcing itself with a 4-byte little-endian rank hello) and
/// accepts one connection from every higher rank (reading its hello to slot
/// the fd).  Closes `listen_fd` before returning.  `ports[r]` is rank r's
/// listener port.  Returns fds indexed by peer rank, -1 at `rank`.
std::vector<int> connect_socket_mesh(std::size_t rank, std::size_t world_size,
                                     int listen_fd,
                                     std::span<const std::uint16_t> ports);

}  // namespace marsit
