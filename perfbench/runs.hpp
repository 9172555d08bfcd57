// The two kinds of run: forked socket ranks and the in-process trainer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/cost_model.hpp"
#include "parallel/thread_pool.hpp"
#include "recording.hpp"
#include "report.hpp"

namespace perfbench {

/// One DistributedTrainer + MarsitSync training of `rounds` rounds from the
/// seeded initialization, with every synchronize call timed.
struct TrainerRun {
  std::uint64_t digest = 0;  // FNV-1a over the final parameters
  double setup_seconds = 0.0;  // dataset, strategy and trainer construction
  double train_start = 0.0;
  double train_end = 0.0;
  std::vector<SyncCall> calls;
};

/// `pool` == nullptr fans workers out on the global pool; otherwise the
/// workers run serially and the sync pipeline runs on `pool`.
TrainerRun run_trainer(const Workload& workload, const RunSeeds& seeds,
                       const marsit::CostModel& cost, std::size_t rounds,
                       marsit::ThreadPool* pool);

/// Per-round samples of a trainer run's rounds t ≥ 1 (round 0 has no
/// previous boundary).  A round runs from the end of the previous
/// synchronize call to the end of its own.
struct SyncSplit {
  std::vector<double> one_bit_round_ms;
  std::vector<double> flush_round_ms;
  std::vector<double> sync_ms;       // one-bit rounds
  std::vector<double> compute_ms;    // one-bit rounds: round − sync
  std::vector<double> predicted_ms;  // one-bit rounds, α–β comm
};
SyncSplit split_sync_calls(const std::vector<SyncCall>& calls);

/// M = workload.workers forked ranks of dist::run_marsit_worker over a
/// loopback SocketTransport mesh, checked against the in-process simulator.
Outcome run_socket_workload(const RunOptions& options);

/// DistributedTrainer + MarsitSync in this process, no sockets.
Outcome run_sim_workload(const RunOptions& options);

/// α–β fit from a two-rank loopback ping (send-until-ack of 64 B and 4 MiB
/// frames), plus the raw per-frame send and recv-wait times at
/// `probe_bytes`.  Forks, so it must run before this process starts any
/// thread.
struct Calibration {
  bool ok = false;
  marsit::CostModel cost;
  std::vector<double> probe_send_seconds;
  std::vector<double> probe_recv_seconds;
};
Calibration calibrate_loopback(std::size_t probe_bytes, double deadline);

}  // namespace perfbench
