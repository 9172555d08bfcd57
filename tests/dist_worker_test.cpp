// run_marsit_worker's configuration checks: a config MarsitSync rejects
// must fail on every rank before any frame is sent, so no rank is left
// blocked on a peer that already gave up.
#include "dist/worker.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "net/sim_transport.hpp"
#include "nn/models.hpp"
#include "util/check.hpp"

namespace marsit {
namespace {

/// Forwards to a SimFabric endpoint and counts the frames it sends.
class SendCountingTransport final : public Transport {
 public:
  explicit SendCountingTransport(std::unique_ptr<SimTransport> inner)
      : inner_(std::move(inner)) {}

  std::size_t rank() const override { return inner_->rank(); }
  std::size_t world_size() const override { return inner_->world_size(); }
  void send(std::size_t peer, std::uint32_t tag,
            std::span<const std::uint8_t> payload) override {
    ++sends_;
    inner_->send(peer, tag, payload);
  }
  std::vector<std::uint8_t> recv(std::size_t peer,
                                 std::uint32_t tag) override {
    return inner_->recv(peer, tag);
  }

  std::size_t sends() const { return sends_; }

 private:
  std::unique_ptr<SimTransport> inner_;
  std::size_t sends_ = 0;
};

TEST(DistWorkerTest, EveryRankRejectsNonPositiveEtaSBeforeTheFirstFrame) {
  for (const float eta_s : {0.0f, -1e-3f}) {
    dist::WorkerConfig config;
    config.rounds = 2;
    config.options.eta_s = eta_s;
    config.options.full_precision_period = 2;
    const std::size_t world = 2;
    SimFabric fabric(world);
    std::vector<std::unique_ptr<SendCountingTransport>> endpoints;
    for (std::size_t r = 0; r < world; ++r) {
      endpoints.push_back(
          std::make_unique<SendCountingTransport>(fabric.endpoint(r)));
    }
    std::vector<int> rejected(world, 0);
    std::vector<std::thread> ranks;
    for (std::size_t r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        SyntheticDigits digits;
        const auto factory = [&digits] {
          return make_mlp(digits.sample_size(), {8}, digits.num_classes());
        };
        try {
          (void)dist::run_marsit_worker(*endpoints[r], digits, factory,
                                        config);
        } catch (const CheckError&) {
          rejected[r] = 1;
        }
      });
    }
    for (std::thread& rank : ranks) {
      rank.join();
    }
    for (std::size_t r = 0; r < world; ++r) {
      EXPECT_EQ(rejected[r], 1) << "rank " << r << " accepted eta_s "
                                << eta_s;
      EXPECT_EQ(endpoints[r]->sends(), 0u) << "rank " << r
                                           << " sent before rejecting";
    }
  }
}

}  // namespace
}  // namespace marsit
