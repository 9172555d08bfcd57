// run_marsit_worker's configuration checks: a config MarsitSync rejects
// must fail on every rank before any frame is sent, so no rank is left
// blocked on a peer that already gave up.
#include "dist/worker.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "net/sim_transport.hpp"
#include "nn/models.hpp"
#include "util/check.hpp"

namespace marsit {
namespace {

TEST(DistWorkerTest, EveryRankRejectsNonPositiveEtaSBeforeTheFirstFrame) {
  for (const float eta_s : {0.0f, -1e-3f}) {
    dist::WorkerConfig config;
    config.rounds = 2;
    config.options.eta_s = eta_s;
    config.options.full_precision_period = 2;
    const std::size_t world = 2;
    SimFabric fabric(world, config.cost_model);
    std::vector<std::unique_ptr<SimTransport>> endpoints;
    for (std::size_t r = 0; r < world; ++r) {
      endpoints.push_back(fabric.endpoint(r));
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
    }
    EXPECT_EQ(fabric.total_bytes(), 0.0);
  }
}

}  // namespace
}  // namespace marsit
