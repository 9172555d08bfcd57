#include "net/sim_transport.hpp"

#include "util/check.hpp"

namespace marsit {

SimFabric::SimFabric(std::size_t world_size) : world_size_(world_size) {
  MARSIT_CHECK(world_size >= 2) << "fabric needs at least 2 endpoints";
}

std::unique_ptr<SimTransport> SimFabric::endpoint(std::size_t rank) {
  MARSIT_CHECK(rank < world_size_)
      << "rank " << rank << " outside the " << world_size_ << "-node fabric";
  // unique_ptr over make_unique: the constructor is private to SimFabric.
  return std::unique_ptr<SimTransport>(new SimTransport(this, rank));
}

void SimFabric::send(std::size_t src, std::size_t dst, std::uint32_t tag,
                     std::span<const std::uint8_t> payload) {
  MARSIT_CHECK(src < world_size_ && dst < world_size_ && src != dst)
      << "bad simulated transfer " << src << " -> " << dst;
  {
    const MutexLock lock(mutex_);
    mail_[StreamKey{src, dst, tag}].emplace_back(payload.begin(),
                                                 payload.end());
  }
  cv_.notify_all();
}

std::vector<std::uint8_t> SimFabric::recv(std::size_t src, std::size_t dst,
                                          std::uint32_t tag) {
  const MutexLock lock(mutex_);
  const StreamKey key{src, dst, tag};
  cv_.wait(mutex_, [&]() MARSIT_REQUIRES(mutex_) {
    const auto found = mail_.find(key);
    return found != mail_.end() && !found->second.empty();
  });
  const auto found = mail_.find(key);
  std::vector<std::uint8_t> payload = std::move(found->second.front());
  found->second.pop_front();
  return payload;
}

}  // namespace marsit
