#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <memory>

#include "net/frame.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

/// strerror(3) shares one static buffer across threads (clang-tidy
/// concurrency-mt-unsafe), so errno is rendered through strerror_r instead.
/// glibc's _GNU_SOURCE variant returns char* (possibly ignoring the caller
/// buffer) while the POSIX variant returns int and fills the buffer; the
/// overload pair dispatches on whichever signature the platform provides.
[[maybe_unused]] const char* describe_errno_result(const char* result,
                                                   const char* /*buf*/) {
  return result;
}
[[maybe_unused]] const char* describe_errno_result(int /*rc*/,
                                                   const char* buf) {
  return buf;
}

std::string errno_message(int err) {
  char buf[256] = "unknown error";
  return describe_errno_result(::strerror_r(err, buf, sizeof(buf)), buf);
}

/// write(2) until every byte is out, retrying EINTR.  Returns false on any
/// other error (peer gone); callers surface it as a closed connection.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// read(2) exactly `size` bytes, retrying EINTR.  False on EOF or error.
bool read_all(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// writev(2) until every byte of parts[0, count) is out, retrying EINTR and
/// resuming after short writes.  False on any other error (peer gone).
bool writev_all(int fd, iovec* parts, std::size_t count) {
  while (count > 0) {
    const ssize_t n = ::writev(fd, parts, static_cast<int>(count));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    auto done = static_cast<std::size_t>(n);
    while (count > 0 && done >= parts->iov_len) {
      done -= parts->iov_len;
      ++parts;
      --count;
    }
    if (count > 0) {
      parts->iov_base = static_cast<std::uint8_t*>(parts->iov_base) + done;
      parts->iov_len -= done;
    }
  }
  return true;
}

/// Writes one frame straight from `payload`, one writev(2) per piece: the
/// header rides with the first piece and the footer with the last, and
/// each piece is CRC'd just before it is written.  The caller holds the
/// connection's write_mutex.  False once the peer is gone.
bool write_frame(int fd, std::uint32_t magic, std::uint32_t tag,
                 std::span<const std::uint8_t> payload) {
  const FrameHeaderBytes header =
      encode_frame_header(magic, tag, payload.size());
  FrameCrc crc(header);
  std::size_t offset = 0;
  do {
    const std::span<const std::uint8_t> piece = payload.subspan(
        offset,
        std::min(SocketTransport::kPieceBytes, payload.size() - offset));
    crc.update(piece);
    FrameFooterBytes footer{};
    // writev(2) only reads through iov_base; the casts drop const for the
    // iovec type, not for the write.
    std::array<iovec, 3> parts{};
    std::size_t count = 0;
    if (offset == 0) {
      parts[count++] = {const_cast<std::uint8_t*>(header.data()),
                        header.size()};
    }
    if (!piece.empty()) {
      parts[count++] = {const_cast<std::uint8_t*>(piece.data()), piece.size()};
    }
    offset += piece.size();
    if (offset == payload.size()) {
      footer = crc.footer();
      parts[count++] = {footer.data(), footer.size()};
    }
    if (!writev_all(fd, parts.data(), count)) {
      return false;
    }
  } while (offset < payload.size());
  return true;
}

/// Reads the body of a frame whose header is `header_bytes`: the payload
/// in kPieceBytes pieces through `piece`, each CRC'd while it is hot and
/// appended to `payload` (reserved, never zero-filled), and the footer in
/// the same read as the last piece.  False if the stream ends first;
/// CheckError on a CRC mismatch.
bool read_frame_body(int fd, const FrameHeaderBytes& header_bytes,
                     const FrameHeader& header, std::span<std::uint8_t> piece,
                     std::vector<std::uint8_t>& payload) {
  payload.reserve(header.length);
  FrameCrc crc(header_bytes);
  std::size_t left = header.length;
  while (true) {
    const std::size_t n = std::min(SocketTransport::kPieceBytes, left);
    left -= n;
    if (!read_all(fd, piece.data(), n + (left == 0 ? kFrameFooterBytes : 0))) {
      return false;
    }
    const std::span<const std::uint8_t> bytes = piece.first(n);
    crc.update(bytes);
    payload.insert(payload.end(), bytes.begin(), bytes.end());
    if (left == 0) {
      crc.check(piece.subspan(n).first<kFrameFooterBytes>(), header.tag);
      return true;
    }
  }
}

}  // namespace

SocketTransport::SocketTransport(std::size_t rank, std::vector<int> peer_fds)
    : rank_(rank) {
  MARSIT_CHECK(rank < peer_fds.size())
      << "rank " << rank << " outside the " << peer_fds.size()
      << "-endpoint mesh";
  connections_.resize(peer_fds.size());
  for (std::size_t peer = 0; peer < peer_fds.size(); ++peer) {
    if (peer == rank) {
      MARSIT_CHECK(peer_fds[peer] < 0) << "self slot must carry fd -1";
      continue;
    }
    MARSIT_CHECK(peer_fds[peer] >= 0)
        << "missing socket for peer " << peer;
    connections_[peer] = std::make_unique<Connection>();
    Connection& conn = *connections_[peer];
    conn.fd = peer_fds[peer];
    // Sign payloads are latency-sensitive small frames; never Nagle-delay
    // the ack behind them.
    const int one = 1;
    (void)::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conn.reader = std::thread([this, &conn] { reader_loop(conn); });
  }
}

SocketTransport::~SocketTransport() {
  for (auto& conn : connections_) {
    if (conn == nullptr) {
      continue;
    }
    // Let the reader finish acking anything it has already mailboxed —
    // a peer may still be blocked in send() on that ack.
    {
      const MutexLock lock(conn->mutex);
      conn->cv.wait(conn->mutex, [&conn]() MARSIT_REQUIRES(conn->mutex) {
        return conn->acks_pending == 0 || conn->closed;
      });
    }
    // Wake the reader out of its blocking read; it marks the connection
    // closed and exits.
    ::shutdown(conn->fd, SHUT_RDWR);
    if (conn->reader.joinable()) {
      conn->reader.join();
    }
    ::close(conn->fd);
  }
}

SocketTransport::Connection& SocketTransport::connection(std::size_t peer) {
  MARSIT_CHECK(peer < connections_.size() && peer != rank_)
      << "rank " << rank_ << " has no connection to peer " << peer;
  return *connections_[peer];
}

void SocketTransport::reader_loop(Connection& conn) {
  std::string error;
  // One piece plus the footer that arrives with a frame's last piece.  Not
  // zero-filled: a connection that carries only small frames touches one
  // page of it.
  constexpr std::size_t kBufferBytes = kPieceBytes + kFrameFooterBytes;
  const auto buffer =
      std::make_unique_for_overwrite<std::uint8_t[]>(kBufferBytes);
  const std::span<std::uint8_t> piece(buffer.get(), kBufferBytes);
  while (true) {
    FrameHeaderBytes header_bytes{};
    if (!read_all(conn.fd, header_bytes.data(), header_bytes.size())) {
      break;  // EOF / peer shutdown: a clean close, not an error
    }
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    try {
      header = decode_frame_header(header_bytes);
      if (!read_frame_body(conn.fd, header_bytes, header, piece, payload)) {
        error = "connection dropped mid-frame";
        break;
      }
    } catch (const CheckError& failure) {
      error = failure.what();
      break;
    }
    if (header.magic == kAckMagic) {
      {
        const MutexLock lock(conn.mutex);
        ++conn.acks;
      }
      conn.cv.notify_all();
      continue;
    }
    // Data frame: mailbox it, then ack.  Acking from the reader thread —
    // never from recv() — keeps send/recv order on the two endpoints
    // independent, which is what makes symmetric exchanges deadlock-free.
    {
      const MutexLock lock(conn.mutex);
      conn.mailbox[header.tag].push_back(std::move(payload));
      ++conn.acks_pending;
    }
    conn.cv.notify_all();
    bool acked = false;
    {
      const MutexLock lock(conn.write_mutex);
      acked = write_frame(conn.fd, kAckMagic, header.tag, {});
    }
    {
      const MutexLock lock(conn.mutex);
      --conn.acks_pending;
    }
    conn.cv.notify_all();
    if (!acked) {
      error = "peer vanished before ack";
      break;
    }
  }
  {
    const MutexLock lock(conn.mutex);
    conn.closed = true;
    conn.error = error;
  }
  conn.cv.notify_all();
}

void SocketTransport::send(std::size_t peer, std::uint32_t tag,
                           std::span<const std::uint8_t> payload) {
  Connection& conn = connection(peer);
  std::size_t seq = 0;
  {
    const MutexLock lock(conn.write_mutex);
    MARSIT_CHECK(write_frame(conn.fd, kDataMagic, tag, payload))
        << "rank " << rank_ << " failed to write to peer " << peer;
    const MutexLock state(conn.mutex);
    seq = ++conn.sent;
  }
  payload_bytes_sent_.fetch_add(payload.size(), std::memory_order_relaxed);
  data_frames_sent_.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(conn.mutex);
  conn.cv.wait(conn.mutex, [&conn, seq]() MARSIT_REQUIRES(conn.mutex) {
    return conn.acks >= seq || conn.closed;
  });
  MARSIT_CHECK(conn.acks >= seq)
      << "rank " << rank_ << " lost peer " << peer << " awaiting ack"
      << (conn.error.empty() ? "" : ": ") << conn.error;
}

std::vector<std::uint8_t> SocketTransport::recv(std::size_t peer,
                                                std::uint32_t tag) {
  Connection& conn = connection(peer);
  const MutexLock lock(conn.mutex);
  conn.cv.wait(conn.mutex, [&conn, tag]() MARSIT_REQUIRES(conn.mutex) {
    const auto found = conn.mailbox.find(tag);
    return (found != conn.mailbox.end() && !found->second.empty()) ||
           conn.closed;
  });
  const auto found = conn.mailbox.find(tag);
  MARSIT_CHECK(found != conn.mailbox.end() && !found->second.empty())
      << "rank " << rank_ << " lost peer " << peer << " awaiting tag " << tag
      << (conn.error.empty() ? "" : ": ") << conn.error;
  std::vector<std::uint8_t> payload = std::move(found->second.front());
  found->second.pop_front();
  return payload;
}

int bind_loopback_listener(std::uint16_t* port_out) {
  // Under heavy parallel test load the kernel can transiently refuse even
  // an OS-assigned port (ephemeral range exhausted by TIME_WAIT churn).
  // That is a flake, not a bug: retry with exponential backoff.
  constexpr int kMaxAttempts = 8;
  constexpr useconds_t kInitialBackoffUs = 10'000;  // 10ms, doubling
  useconds_t backoff = kInitialBackoffUs;
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    MARSIT_CHECK(fd >= 0) << "socket(): " << errno_message(errno);
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // OS-assigned
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int bind_errno = errno;
      ::close(fd);
      MARSIT_CHECK(bind_errno == EADDRINUSE && attempt + 1 < kMaxAttempts)
          << "bind(): " << errno_message(bind_errno) << " (attempt "
          << attempt + 1 << "/" << kMaxAttempts << ")";
      ::usleep(backoff);
      backoff *= 2;
      continue;
    }
    socklen_t len = sizeof(addr);
    MARSIT_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                               &len) == 0)
        << "getsockname(): " << errno_message(errno);
    MARSIT_CHECK(::listen(fd, SOMAXCONN) == 0)
        << "listen(): " << errno_message(errno);
    *port_out = ntohs(addr.sin_port);
    return fd;
  }
}

std::vector<int> connect_socket_mesh(std::size_t rank, std::size_t world_size,
                                     int listen_fd,
                                     std::span<const std::uint16_t> ports) {
  MARSIT_CHECK(world_size >= 2 && rank < world_size &&
               ports.size() == world_size)
      << "mesh of " << world_size << " needs " << world_size
      << " ports and rank " << rank << " in range";
  std::vector<int> fds(world_size, -1);
  // Connect downward: rank r dials every lower rank and announces itself.
  for (std::size_t peer = 0; peer < rank; ++peer) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    MARSIT_CHECK(fd >= 0) << "socket(): " << errno_message(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(ports[peer]);
    int rc = -1;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    MARSIT_CHECK(rc == 0) << "rank " << rank << " cannot reach rank " << peer
                          << ": " << errno_message(errno);
    const std::uint32_t hello = static_cast<std::uint32_t>(rank);
    std::uint8_t wire[4] = {
        static_cast<std::uint8_t>(hello & 0xff),
        static_cast<std::uint8_t>((hello >> 8) & 0xff),
        static_cast<std::uint8_t>((hello >> 16) & 0xff),
        static_cast<std::uint8_t>((hello >> 24) & 0xff),
    };
    MARSIT_CHECK(write_all(fd, wire, sizeof(wire)))
        << "rank " << rank << " hello to " << peer << " failed";
    fds[peer] = fd;
  }
  // Accept upward: every higher rank dials us and says who it is.
  for (std::size_t expected = rank + 1; expected < world_size; ++expected) {
    int fd = -1;
    do {
      fd = ::accept(listen_fd, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    MARSIT_CHECK(fd >= 0) << "accept(): " << errno_message(errno);
    std::uint8_t wire[4] = {0, 0, 0, 0};
    MARSIT_CHECK(read_all(fd, wire, sizeof(wire))) << "hello read failed";
    const std::uint32_t peer = static_cast<std::uint32_t>(wire[0]) |
                               (static_cast<std::uint32_t>(wire[1]) << 8) |
                               (static_cast<std::uint32_t>(wire[2]) << 16) |
                               (static_cast<std::uint32_t>(wire[3]) << 24);
    MARSIT_CHECK(peer > rank && peer < world_size && fds[peer] == -1)
        << "mesh hello names rank " << peer << ", which rank " << rank
        << " does not expect";
    fds[peer] = fd;
  }
  ::close(listen_fd);
  return fds;
}

}  // namespace marsit
