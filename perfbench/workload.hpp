// Workload definitions and the helpers every part of perfbench shares:
// the monotonic clock, deadline-bounded pipe IO, byte (de)serialization and
// sample statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/sync_strategy.hpp"
#include "data/synthetic_digits.hpp"
#include "dist/worker.hpp"
#include "net/cost_model.hpp"
#include "nn/sequential.hpp"
#include "sim/trainer.hpp"

namespace perfbench {

/// One benchmark workload.  Every workload runs Marsit on the paper's
/// reduce-scatter plane; training restarts from the seeded initialization
/// every `episode_rounds` rounds, so every episode of a run must end on the
/// same parameter digest.
struct Workload {
  std::string name;
  marsit::MarParadigm paradigm = marsit::MarParadigm::kRing;
  std::size_t workers = 4;
  std::size_t torus_rows = 0;
  std::size_t torus_cols = 0;
  std::vector<std::size_t> hidden;
  std::size_t batch = 16;
  std::size_t episode_rounds = 0;
  /// Full-precision flush period K.  Rounds t with t % K == 0 are flushes,
  /// so every workload has flush rounds to report and round 0 (which also
  /// pays the model build inside the worker) is never a measured sample.
  std::size_t flush_period = 0;
  /// Socket workloads: rank groups per run that train, each for an equal
  /// share of the measured seconds; the end-to-end metrics are medians over
  /// them.  More launches resist one launch's bad thread placement.
  std::size_t launches = 1;
  /// DistributedTrainer + MarsitSync in this process instead of forked
  /// socket ranks.
  bool in_process = false;
};

/// The named workload, or nullptr.
const Workload* find_workload(const std::string& name);

/// Seeds every input of a run derives from: data, model init, sync rng.
struct RunSeeds {
  std::uint64_t data = 0;
  std::uint64_t trainer = 0;
  std::uint64_t sync = 0;
};
RunSeeds run_seeds(std::uint64_t seed);

marsit::SyntheticDigitsConfig digits_config(const RunSeeds& seeds);
marsit::Sequential make_model(const Workload& workload);
std::size_t param_count(const Workload& workload);

marsit::dist::WorkerConfig worker_config(const Workload& workload,
                                         const RunSeeds& seeds,
                                         const marsit::CostModel& cost);
marsit::SyncConfig sync_config(const Workload& workload,
                               const RunSeeds& seeds,
                               const marsit::CostModel& cost);
marsit::TrainerConfig trainer_config(const Workload& workload,
                                     const RunSeeds& seeds,
                                     std::size_t rounds);

/// CLOCK_MONOTONIC seconds; comparable across the forked ranks of one host.
double now_seconds();

/// Median / nearest-rank percentile of `samples` (q in [0, 1]); 0 for an
/// empty set.
double percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Reads exactly `size` bytes, failing once `deadline` passes or the pipe
/// closes.
bool read_exact(int fd, void* data, std::size_t size, double deadline);
bool write_exact(int fd, const void* data, std::size_t size);

/// Length-prefixed message over a pipe.
bool write_message(int fd, const std::vector<std::uint8_t>& payload);
bool read_message(int fd, std::vector<std::uint8_t>& payload,
                  double deadline);

/// Appends trivially copyable values / arrays to a byte payload.
class ByteWriter {
 public:
  template <typename T>
  void put(const T& value) {
    append(&value, sizeof(T));
  }
  template <typename T>
  void put_array(const std::vector<T>& values) {
    put<std::uint64_t>(values.size());
    append(values.data(), values.size() * sizeof(T));
  }
  std::vector<std::uint8_t>& bytes() { return bytes_; }

 private:
  void append(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  std::vector<std::uint8_t> bytes_;
};

/// Reads what ByteWriter wrote; every read is bounds-checked.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  template <typename T>
  bool get(T& value) {
    return take(&value, sizeof(T));
  }
  template <typename T>
  bool get_array(std::vector<T>& values) {
    std::uint64_t count = 0;
    if (!get(count) || count > (bytes_.size() - offset_) / sizeof(T)) {
      return false;
    }
    values.resize(count);
    return take(values.data(), count * sizeof(T));
  }

 private:
  bool take(void* data, std::size_t size) {
    if (size > bytes_.size() - offset_) {
      return false;
    }
    std::memcpy(data, bytes_.data() + offset_, size);
    offset_ += size;
    return true;
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace perfbench
