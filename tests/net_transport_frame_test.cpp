// net/frame.hpp + SocketTransport: the framed wire format and its
// hostile-reader discipline (DESIGN.md §14).  A short buffer means "read
// more"; a bad magic, an oversized declared length, or a CRC mismatch is
// desynchronization and throws — and a SocketTransport fed such bytes
// surfaces the failure to blocked callers instead of guessing past it.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.hpp"
#include "net/socket_transport.hpp"
#include "util/check.hpp"

namespace marsit {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (const int v : values) {
    out.push_back(static_cast<std::uint8_t>(v));
  }
  return out;
}

TEST(FrameTest, DataRoundTrip) {
  const std::vector<std::uint8_t> payload = bytes_of({1, 2, 3, 0xff, 0});
  const std::vector<std::uint8_t> wire =
      encode_frame(kDataMagic, 42, {payload.data(), payload.size()});
  EXPECT_EQ(wire.size(),
            kFrameHeaderBytes + payload.size() + kFrameFooterBytes);
  Frame frame;
  const std::size_t consumed = try_decode_frame({wire.data(), wire.size()},
                                                frame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.magic, kDataMagic);
  EXPECT_FALSE(frame.is_ack());
  EXPECT_EQ(frame.tag, 42u);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameTest, AckRoundTripCarriesNoPayload) {
  const std::vector<std::uint8_t> wire = encode_frame(kAckMagic, 7, {});
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + kFrameFooterBytes);
  Frame frame;
  EXPECT_EQ(try_decode_frame({wire.data(), wire.size()}, frame), wire.size());
  EXPECT_TRUE(frame.is_ack());
  EXPECT_EQ(frame.tag, 7u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, EveryTruncationIsWaitForMore) {
  const std::vector<std::uint8_t> payload = bytes_of({9, 8, 7});
  const std::vector<std::uint8_t> wire =
      encode_frame(kDataMagic, 3, {payload.data(), payload.size()});
  // Every strict prefix — including an empty buffer and a complete header
  // with a partial body — decodes to "0 consumed", never to garbage.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Frame frame;
    EXPECT_EQ(try_decode_frame({wire.data(), cut}, frame), 0u)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FrameTest, UnknownMagicThrows) {
  std::vector<std::uint8_t> wire = encode_frame(kDataMagic, 1, {});
  wire[0] ^= 0x01;  // no longer "MRSF"/"MRSA"
  Frame frame;
  EXPECT_THROW(try_decode_frame({wire.data(), wire.size()}, frame),
               CheckError);
}

TEST(FrameTest, HostileLengthPrefixThrowsBeforeAllocation) {
  // A full header whose length field claims 0xffffffff bytes: the ceiling
  // check must reject it outright rather than report "wait for 4 GiB".
  std::vector<std::uint8_t> wire = encode_frame(kDataMagic, 1, {});
  wire[8] = 0xff;
  wire[9] = 0xff;
  wire[10] = 0xff;
  wire[11] = 0xff;
  Frame frame;
  EXPECT_THROW(try_decode_frame({wire.data(), wire.size()}, frame),
               CheckError);
  // Just above the ceiling is equally hostile, even with a plausible CRC.
  const std::uint32_t above = kMaxFramePayloadBytes + 1;
  wire[8] = static_cast<std::uint8_t>(above & 0xff);
  wire[9] = static_cast<std::uint8_t>((above >> 8) & 0xff);
  wire[10] = static_cast<std::uint8_t>((above >> 16) & 0xff);
  wire[11] = static_cast<std::uint8_t>((above >> 24) & 0xff);
  EXPECT_THROW(try_decode_frame({wire.data(), wire.size()}, frame),
               CheckError);
}

TEST(FrameTest, EncodeRejectsOversizedPayloadAndBadMagic) {
  EXPECT_THROW(encode_frame(0xdeadbeef, 0, {}), CheckError);
}

TEST(FrameTest, CorruptedBytesFailTheCrc) {
  const std::vector<std::uint8_t> payload = bytes_of({4, 4, 4, 4});
  const std::vector<std::uint8_t> clean =
      encode_frame(kDataMagic, 11, {payload.data(), payload.size()});
  // Flip one bit anywhere past the magic (tag, length would desync the
  // total-size math too, so restrict to payload and footer bytes).
  for (const std::size_t at : {kFrameHeaderBytes, clean.size() - 1}) {
    std::vector<std::uint8_t> wire = clean;
    wire[at] ^= 0x10;
    Frame frame;
    EXPECT_THROW(try_decode_frame({wire.data(), wire.size()}, frame),
                 CheckError)
        << "bit flip at byte " << at;
  }
}

/// Two connected SocketTransport endpoints over a socketpair — the smallest
/// real mesh.
struct TransportPair {
  TransportPair() {
    int fds[2] = {-1, -1};
    MARSIT_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0)
        << "socketpair failed";
    a = std::make_unique<SocketTransport>(0, std::vector<int>{-1, fds[0]});
    b = std::make_unique<SocketTransport>(1, std::vector<int>{fds[1], -1});
  }
  std::unique_ptr<SocketTransport> a;
  std::unique_ptr<SocketTransport> b;
};

TEST(SocketTransportTest, DeliversTaggedStreamsInFifoOrder) {
  TransportPair pair;
  const std::vector<std::uint8_t> first = bytes_of({1, 2, 3});
  const std::vector<std::uint8_t> second = bytes_of({4});
  const std::vector<std::uint8_t> other = bytes_of({5, 6});
  // Interleave two tags; each tag's stream keeps its own FIFO order and the
  // other tag's traffic never bleeds in.
  std::thread sender([&] {
    pair.a->send(1, 10, {first.data(), first.size()});
    pair.a->send(1, 20, {other.data(), other.size()});
    pair.a->send(1, 10, {second.data(), second.size()});
  });
  EXPECT_EQ(pair.b->recv(0, 10), first);
  EXPECT_EQ(pair.b->recv(0, 10), second);
  EXPECT_EQ(pair.b->recv(0, 20), other);
  sender.join();
}

TEST(SocketTransportTest, SymmetricSendsDoNotDeadlock) {
  // Both endpoints send before either receives — the classic blocking-ring
  // deadlock.  The reader-thread ack design must absorb it.
  TransportPair pair;
  const std::vector<std::uint8_t> from_a = bytes_of({0xaa});
  const std::vector<std::uint8_t> from_b = bytes_of({0xbb});
  std::vector<std::uint8_t> b_got;
  std::thread peer([&] {
    pair.b->send(0, 1, {from_b.data(), from_b.size()});
    b_got = pair.b->recv(0, 1);
  });
  pair.a->send(1, 1, {from_a.data(), from_a.size()});
  EXPECT_EQ(pair.a->recv(1, 1), from_b);
  peer.join();
  EXPECT_EQ(b_got, from_a);
}

TEST(SocketTransportTest, HostileLengthPrefixPoisonsTheConnection) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketTransport transport(0, std::vector<int>{-1, fds[0]});
  // Raw peer writes a header whose length field is all-ones: the reader
  // must refuse the allocation and poison the connection, and the blocked
  // recv surfaces that as CheckError instead of hanging.
  const std::vector<std::uint8_t> hostile = bytes_of(
      {0x46, 0x53, 0x52, 0x4d,   // "MRSF" little-endian
       0x01, 0x00, 0x00, 0x00,   // tag 1
       0xff, 0xff, 0xff, 0xff});  // length 0xffffffff
  ASSERT_EQ(::write(fds[1], hostile.data(), hostile.size()),
            static_cast<ssize_t>(hostile.size()));
  EXPECT_THROW(transport.recv(1, 1), CheckError);
  ::close(fds[1]);
}

TEST(SocketTransportTest, CorruptFrameBytesPoisonTheConnection) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketTransport transport(0, std::vector<int>{-1, fds[0]});
  const std::vector<std::uint8_t> payload = bytes_of({1, 2, 3, 4});
  std::vector<std::uint8_t> wire =
      encode_frame(kDataMagic, 5, {payload.data(), payload.size()});
  wire[kFrameHeaderBytes] ^= 0x80;  // flip one payload bit: CRC must catch it
  ASSERT_EQ(::write(fds[1], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  EXPECT_THROW(transport.recv(1, 5), CheckError);
  ::close(fds[1]);
}

TEST(SocketTransportTest, PeerShutdownUnblocksWithError) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketTransport transport(0, std::vector<int>{-1, fds[0]});
  ::close(fds[1]);  // peer vanishes; the pending recv must not hang forever
  EXPECT_THROW(transport.recv(1, 0), CheckError);
}

/// Payload sizes around the transport's piece boundary: empty, one byte,
/// one piece ± 1, exactly one piece, and several pieces plus a ragged tail.
std::vector<std::size_t> piece_edge_sizes() {
  constexpr std::size_t kPiece = SocketTransport::kPieceBytes;
  return {0, 1, kPiece - 1, kPiece, kPiece + 1, 3 * kPiece + 17};
}

std::vector<std::uint8_t> patterned_payload(std::size_t size) {
  std::vector<std::uint8_t> payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 131 + size) & 0xff);
  }
  return payload;
}

/// Reads exactly `size` bytes from a raw socket; false on EOF or error.
bool read_exact(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n <= 0) {
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes every byte to a raw socket, one write(2) per `chunk` bytes.
bool write_exact(int fd, std::span<const std::uint8_t> bytes,
                 std::size_t chunk) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done,
                              std::min(chunk, bytes.size() - done));
    if (n <= 0) {
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

TEST(SocketTransportTest, SendWritesExactlyTheEncodedFrameBytes) {
  // The streaming sender (header with the first piece, footer with the
  // last) must put encode_frame's bytes on the wire, byte for byte.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketTransport transport(0, std::vector<int>{-1, fds[0]});
  std::uint32_t tag = 100;
  for (const std::size_t size : piece_edge_sizes()) {
    const std::vector<std::uint8_t> payload = patterned_payload(size);
    const std::vector<std::uint8_t> expected =
        encode_frame(kDataMagic, tag, payload);
    std::thread sender([&] { transport.send(1, tag, payload); });
    std::vector<std::uint8_t> wire(expected.size());
    const bool read_ok = read_exact(fds[1], wire.data(), wire.size());
    // Ack it the way a peer endpoint would, so send() returns.
    const std::vector<std::uint8_t> ack = encode_frame(kAckMagic, tag, {});
    const bool ack_ok = write_exact(fds[1], ack, ack.size());
    sender.join();
    ASSERT_TRUE(read_ok && ack_ok) << "payload of " << size << " bytes";
    EXPECT_TRUE(wire == expected) << "payload of " << size << " bytes";
    ++tag;
  }
  EXPECT_EQ(transport.data_frames_sent(), piece_edge_sizes().size());
  ::close(fds[1]);
}

TEST(SocketTransportTest, ReaderReassemblesFramesWrittenOneByteAtATime) {
  // Every read boundary the kernel can produce: the peer writes each
  // encoded frame one byte per write(2), and the reader must still deliver
  // each payload intact and ack it.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketTransport transport(0, std::vector<int>{-1, fds[0]});
  std::uint32_t tag = 200;
  for (const std::size_t size : piece_edge_sizes()) {
    const std::vector<std::uint8_t> payload = patterned_payload(size);
    const std::vector<std::uint8_t> wire =
        encode_frame(kDataMagic, tag, payload);
    bool written = false;
    std::thread peer([&] { written = write_exact(fds[1], wire, 1); });
    const std::vector<std::uint8_t> got = transport.recv(1, tag);
    peer.join();
    ASSERT_TRUE(written) << "payload of " << size << " bytes";
    ASSERT_EQ(got.size(), size);
    // memcmp may not see the null data() of an empty vector.
    EXPECT_TRUE(size == 0 ||
                std::memcmp(got.data(), payload.data(), size) == 0)
        << "payload of " << size << " bytes";
    // The reader acks every accepted frame with its tag.
    std::vector<std::uint8_t> ack(kFrameHeaderBytes + kFrameFooterBytes);
    ASSERT_TRUE(read_exact(fds[1], ack.data(), ack.size()));
    Frame frame;
    ASSERT_EQ(try_decode_frame(ack, frame), ack.size());
    EXPECT_TRUE(frame.is_ack());
    EXPECT_EQ(frame.tag, tag);
    ++tag;
  }
  ::close(fds[1]);
}

TEST(SocketTransportTest, CorruptLastPieceOrFooterPoisonsTheConnection) {
  // A three-piece frame with one bit flipped in the last piece, or in the
  // footer: the check runs only once every piece has arrived, and the
  // frame must never be mailboxed.
  constexpr std::size_t kSize = 2 * SocketTransport::kPieceBytes + 100;
  const std::vector<std::uint8_t> payload = patterned_payload(kSize);
  const std::vector<std::uint8_t> clean = encode_frame(kDataMagic, 9, payload);
  for (const std::size_t at :
       {kFrameHeaderBytes + kSize - 50, clean.size() - 2}) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    SocketTransport transport(0, std::vector<int>{-1, fds[0]});
    std::vector<std::uint8_t> wire = clean;
    wire[at] ^= 0x08;
    bool written = false;
    std::thread peer([&] { written = write_exact(fds[1], wire, wire.size()); });
    EXPECT_THROW(transport.recv(1, 9), CheckError) << "bit flip at " << at;
    peer.join();
    EXPECT_TRUE(written);
    ::close(fds[1]);
  }
}

TEST(SocketTransportTest, PeerClosingMidPayloadUnblocksWithError) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketTransport transport(0, std::vector<int>{-1, fds[0]});
  constexpr std::size_t kSize = 3 * SocketTransport::kPieceBytes;
  const std::vector<std::uint8_t> wire =
      encode_frame(kDataMagic, 4, patterned_payload(kSize));
  // The header and half the payload arrive, then the peer vanishes.
  const std::size_t cut = kFrameHeaderBytes + kSize / 2;
  bool written = false;
  std::thread peer([&] {
    written = write_exact(fds[1], {wire.data(), cut}, cut);
    ::close(fds[1]);
  });
  EXPECT_THROW(transport.recv(1, 4), CheckError);
  peer.join();
  EXPECT_TRUE(written);
}

TEST(SocketTransportTest, LoopbackMeshExchangesAllPairs) {
  // Three ranks over real loopback TCP via the example's mesh helpers:
  // every ordered pair exchanges one message tagged by the sender.
  constexpr std::size_t kWorld = 3;
  std::vector<int> listeners(kWorld);
  std::vector<std::uint16_t> ports(kWorld);
  for (std::size_t r = 0; r < kWorld; ++r) {
    listeners[r] = bind_loopback_listener(&ports[r]);
  }
  std::vector<std::thread> ranks;
  // One byte per rank: vector<bool> packs the flags into one shared word,
  // which the rank threads would race on.
  std::vector<char> ok(kWorld, 0);
  for (std::size_t r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      std::vector<int> fds = connect_socket_mesh(
          r, kWorld, listeners[r], {ports.data(), ports.size()});
      SocketTransport transport(r, std::move(fds));
      for (std::size_t peer = 0; peer < kWorld; ++peer) {
        if (peer == r) {
          continue;
        }
        const std::vector<std::uint8_t> note =
            bytes_of({static_cast<int>(r), static_cast<int>(peer)});
        transport.send(peer, static_cast<std::uint32_t>(r),
                       {note.data(), note.size()});
      }
      bool all = true;
      for (std::size_t peer = 0; peer < kWorld; ++peer) {
        if (peer == r) {
          continue;
        }
        const std::vector<std::uint8_t> note =
            transport.recv(peer, static_cast<std::uint32_t>(peer));
        all = all && note == bytes_of({static_cast<int>(peer),
                                       static_cast<int>(r)});
      }
      ok[r] = all;
    });
  }
  for (std::thread& t : ranks) {
    t.join();
  }
  for (std::size_t r = 0; r < kWorld; ++r) {
    EXPECT_TRUE(ok[r]) << "rank " << r;
  }
}

}  // namespace
}  // namespace marsit
