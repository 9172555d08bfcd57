// SocketTransport wire format: length-prefixed frames with the same CRC32
// footer the simulator prices (net/crc32.hpp), so both backends carry the
// identical integrity overhead.
//
// Frame layout (all integers little-endian):
//
//   magic   u32   kDataMagic ("MRSF") or kAckMagic ("MRSA")
//   tag     u32   stream tag (collective phase / round)
//   length  u32   payload byte count (0 for acks)
//   payload length bytes
//   crc32   u32   CRC32 over everything after the magic (tag | length |
//                 payload) — the magic is the resynchronization sentinel
//                 and stays outside the checksum.
//
// This header is the only definition of that layout.  The header codec
// (encode_frame_header / decode_frame_header) owns the byte order, the
// magic check and the length ceiling; FrameCrc owns the checksum's span and
// the footer.  SocketTransport streams frames through these pieces without
// building a whole-frame buffer on either side; encode_frame and
// try_decode_frame assemble the same bytes in memory, for tests and tools.
//
// Decoding is hostile-reader safe (the ckpt_snapshot_test discipline): a
// short buffer is "wait for more bytes", but a bad magic, an oversized
// declared length, or a checksum mismatch throws CheckError — a framing
// error on a stream socket is unrecoverable desynchronization, never
// something to guess past.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace marsit {

inline constexpr std::uint32_t kDataMagic = 0x4d525346;  // "MRSF"
inline constexpr std::uint32_t kAckMagic = 0x4d525341;   // "MRSA"

/// Hard ceiling on a frame's declared payload size: anything larger is a
/// corrupted or hostile length prefix, rejected before any allocation.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 1u << 30;

/// magic + tag + length.
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// The CRC32 footer.
inline constexpr std::size_t kFrameFooterBytes = 4;

using FrameHeaderBytes = std::array<std::uint8_t, kFrameHeaderBytes>;
using FrameFooterBytes = std::array<std::uint8_t, kFrameFooterBytes>;

/// The decoded fixed-size header of one frame.
struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint32_t tag = 0;
  std::uint32_t length = 0;
};

/// Serializes a header for a `length`-byte payload.  Throws CheckError on
/// an unknown magic or a length above kMaxFramePayloadBytes.
FrameHeaderBytes encode_frame_header(std::uint32_t magic, std::uint32_t tag,
                                     std::size_t length);

/// Parses a received header.  Throws CheckError on an unknown magic or a
/// declared length above kMaxFramePayloadBytes.
FrameHeader decode_frame_header(
    std::span<const std::uint8_t, kFrameHeaderBytes> bytes);

/// The running CRC32 of one frame: it starts over the header's tag and
/// length and takes the payload in any number of pieces.
class FrameCrc {
 public:
  explicit FrameCrc(std::span<const std::uint8_t, kFrameHeaderBytes> header);

  void update(std::span<const std::uint8_t> piece);

  /// The footer for the bytes seen so far.
  FrameFooterBytes footer() const;

  /// Throws CheckError unless `footer` matches the bytes seen so far.
  void check(std::span<const std::uint8_t, kFrameFooterBytes> footer,
             std::uint32_t tag) const;

 private:
  std::uint32_t state_ = 0;
};

struct Frame {
  std::uint32_t magic = 0;
  std::uint32_t tag = 0;
  std::vector<std::uint8_t> payload;

  bool is_ack() const { return magic == kAckMagic; }
};

/// Serializes one frame (header | payload | crc32 footer).
std::vector<std::uint8_t> encode_frame(std::uint32_t magic, std::uint32_t tag,
                                       std::span<const std::uint8_t> payload);

/// Attempts to decode one frame from the front of `buffer`.  Returns the
/// number of bytes consumed (header + payload + footer) with `out` filled,
/// or 0 when the buffer holds only a prefix (caller reads more bytes and
/// retries).  Throws CheckError on an unknown magic, a length above
/// kMaxFramePayloadBytes, or a CRC mismatch.
std::size_t try_decode_frame(std::span<const std::uint8_t> buffer, Frame& out);

}  // namespace marsit
