#include "workload.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>

#include "nn/models.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using marsit::MarParadigm;

// Why each workload exists is in README.md; the shapes come from it.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Latency-bound: D ≈ 3.6k, so kernels cost nothing and the
      // per-frame send-until-ack dominates.
      {"ring-small", MarParadigm::kRing, 4, 0, 0, {16, 16}, 16, 400, 200, 5,
       false},
      // Memory-bound: D ≈ 4.6M, so O(D) passes dominate.
      {"ring-large", MarParadigm::kRing, 4, 0, 0, {2048, 2048}, 16, 12, 6, 1,
       false},
      // Bulk bytes: every other round is a float all-gather of 5-10 MB
      // frames over the torus's row and column rings.
      {"torus-flush", MarParadigm::kTorus2d, 4, 2, 2, {1024, 1024}, 16, 10, 2,
       5, false},
      // No sockets: the trainer's pool fan-out and MarsitSync's in-memory
      // segmented fold at M = 16.
      {"sim-fold", MarParadigm::kRing, 16, 0, 0, {1024, 1024}, 16, 8, 4, 1,
       true},
  };
  return all;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

RunSeeds run_seeds(std::uint64_t seed) {
  return {marsit::derive_seed(seed, 1), marsit::derive_seed(seed, 2),
          marsit::derive_seed(seed, 3)};
}

marsit::SyntheticDigitsConfig digits_config(const RunSeeds& seeds) {
  marsit::SyntheticDigitsConfig config;
  config.seed = seeds.data;
  return config;
}

marsit::Sequential make_model(const Workload& workload) {
  return marsit::make_mlp(
      marsit::SyntheticDigits::kHeight * marsit::SyntheticDigits::kWidth,
      workload.hidden, 10);
}

std::size_t param_count(const Workload& workload) {
  return make_model(workload).param_count();
}

marsit::dist::WorkerConfig worker_config(const Workload& workload,
                                         const RunSeeds& seeds,
                                         const marsit::CostModel& cost) {
  marsit::dist::WorkerConfig config;
  config.batch_size_per_worker = workload.batch;
  config.optimizer = marsit::OptimizerKind::kSgd;
  config.eta_l = 0.05f;
  config.rounds = workload.episode_rounds;
  config.trainer_seed = seeds.trainer;
  config.sync_seed = seeds.sync;
  config.paradigm = workload.paradigm;
  config.torus_rows = workload.torus_rows;
  config.torus_cols = workload.torus_cols;
  config.sync_mode = marsit::SyncMode::kReduceScatter;
  config.options.eta_s = 2e-3f;
  config.options.full_precision_period = workload.flush_period;
  config.cost_model = cost;
  return config;
}

marsit::SyncConfig sync_config(const Workload& workload,
                               const RunSeeds& seeds,
                               const marsit::CostModel& cost) {
  marsit::SyncConfig config;
  config.num_workers = workload.workers;
  config.paradigm = workload.paradigm;
  config.torus_rows = workload.torus_rows;
  config.torus_cols = workload.torus_cols;
  config.sync_mode = marsit::SyncMode::kReduceScatter;
  config.seed = seeds.sync;
  config.cost_model = cost;
  return config;
}

marsit::TrainerConfig trainer_config(const Workload& workload,
                                     const RunSeeds& seeds,
                                     std::size_t rounds) {
  marsit::TrainerConfig config;
  config.batch_size_per_worker = workload.batch;
  config.optimizer = marsit::OptimizerKind::kSgd;
  config.eta_l = 0.05f;
  config.rounds = rounds;
  config.eval_interval = rounds + 1;  // one small evaluation at the end
  config.eval_samples = 16;
  config.seed = seeds.trainer;
  return config;
}

double now_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

bool read_exact(int fd, void* data, std::size_t size, double deadline) {
  std::size_t done = 0;
  auto* bytes = static_cast<std::uint8_t*>(data);
  while (done < size) {
    const double remaining = deadline - now_seconds();
    if (remaining <= 0.0) {
      return false;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining * 1e3) + 1);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      return false;
    }
    const ssize_t n = ::read(fd, bytes + done, size - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_exact(int fd, const void* data, std::size_t size) {
  std::size_t done = 0;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (done < size) {
    const ssize_t n = ::write(fd, bytes + done, size - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_message(int fd, const std::vector<std::uint8_t>& payload) {
  const std::uint64_t size = payload.size();
  return write_exact(fd, &size, sizeof(size)) &&
         write_exact(fd, payload.data(), payload.size());
}

bool read_message(int fd, std::vector<std::uint8_t>& payload,
                  double deadline) {
  std::uint64_t size = 0;
  // 1 GiB ceiling: a larger prefix is a corrupted pipe, not a message.
  if (!read_exact(fd, &size, sizeof(size), deadline) || size > (1ull << 30)) {
    return false;
  }
  payload.resize(size);
  return read_exact(fd, payload.data(), payload.size(), deadline);
}

}  // namespace perfbench
