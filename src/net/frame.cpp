#include "net/frame.hpp"

#include <algorithm>

#include "net/crc32.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

void put_u32(std::uint8_t* at, std::uint32_t value) {
  at[0] = static_cast<std::uint8_t>(value & 0xff);
  at[1] = static_cast<std::uint8_t>((value >> 8) & 0xff);
  at[2] = static_cast<std::uint8_t>((value >> 16) & 0xff);
  at[3] = static_cast<std::uint8_t>((value >> 24) & 0xff);
}

std::uint32_t get_u32(const std::uint8_t* at) {
  return static_cast<std::uint32_t>(at[0]) |
         (static_cast<std::uint32_t>(at[1]) << 8) |
         (static_cast<std::uint32_t>(at[2]) << 16) |
         (static_cast<std::uint32_t>(at[3]) << 24);
}

/// The CRC covers everything after the magic.
constexpr std::size_t kCrcStart = 4;

}  // namespace

FrameHeaderBytes encode_frame_header(std::uint32_t magic, std::uint32_t tag,
                                     std::size_t length) {
  MARSIT_CHECK(magic == kDataMagic || magic == kAckMagic)
      << "unknown frame magic " << magic;
  MARSIT_CHECK(length <= kMaxFramePayloadBytes)
      << "frame payload of " << length << " bytes exceeds the "
      << kMaxFramePayloadBytes << " ceiling";
  FrameHeaderBytes bytes{};
  put_u32(bytes.data(), magic);
  put_u32(bytes.data() + 4, tag);
  put_u32(bytes.data() + 8, static_cast<std::uint32_t>(length));
  return bytes;
}

FrameHeader decode_frame_header(
    std::span<const std::uint8_t, kFrameHeaderBytes> bytes) {
  FrameHeader header;
  header.magic = get_u32(bytes.data());
  MARSIT_CHECK(header.magic == kDataMagic || header.magic == kAckMagic)
      << "frame stream desynchronized: unknown magic " << header.magic;
  header.tag = get_u32(bytes.data() + 4);
  header.length = get_u32(bytes.data() + 8);
  MARSIT_CHECK(header.length <= kMaxFramePayloadBytes)
      << "frame declares a " << header.length << "-byte payload, above the "
      << kMaxFramePayloadBytes << " ceiling";
  return header;
}

FrameCrc::FrameCrc(std::span<const std::uint8_t, kFrameHeaderBytes> header)
    : state_(crc32_update(0, header.data() + kCrcStart,
                          kFrameHeaderBytes - kCrcStart)) {}

void FrameCrc::update(std::span<const std::uint8_t> piece) {
  state_ = crc32_update(state_, piece.data(), piece.size());
}

FrameFooterBytes FrameCrc::footer() const {
  FrameFooterBytes bytes{};
  put_u32(bytes.data(), state_);
  return bytes;
}

void FrameCrc::check(std::span<const std::uint8_t, kFrameFooterBytes> footer,
                     std::uint32_t tag) const {
  MARSIT_CHECK(get_u32(footer.data()) == state_)
      << "frame CRC mismatch on tag " << tag;
}

std::vector<std::uint8_t> encode_frame(std::uint32_t magic, std::uint32_t tag,
                                       std::span<const std::uint8_t> payload) {
  const FrameHeaderBytes header =
      encode_frame_header(magic, tag, payload.size());
  FrameCrc crc(header);
  crc.update(payload);
  const FrameFooterBytes footer = crc.footer();
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes + payload.size() +
                                  kFrameFooterBytes);
  auto at = std::copy(header.begin(), header.end(), bytes.begin());
  at = std::copy(payload.begin(), payload.end(), at);
  std::copy(footer.begin(), footer.end(), at);
  return bytes;
}

std::size_t try_decode_frame(std::span<const std::uint8_t> buffer,
                             Frame& out) {
  if (buffer.size() < kFrameHeaderBytes) {
    return 0;
  }
  const auto header_bytes = buffer.first<kFrameHeaderBytes>();
  const FrameHeader header = decode_frame_header(header_bytes);
  const std::size_t total = kFrameHeaderBytes +
                            static_cast<std::size_t>(header.length) +
                            kFrameFooterBytes;
  if (buffer.size() < total) {
    return 0;
  }
  const std::span<const std::uint8_t> payload =
      buffer.subspan(kFrameHeaderBytes, header.length);
  FrameCrc crc(header_bytes);
  crc.update(payload);
  crc.check(buffer.subspan(kFrameHeaderBytes + header.length)
                .first<kFrameFooterBytes>(),
            header.tag);
  out.magic = header.magic;
  out.tag = header.tag;
  out.payload.assign(payload.begin(), payload.end());
  return total;
}

}  // namespace marsit
