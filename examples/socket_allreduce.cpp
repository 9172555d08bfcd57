// Socket-backend drill: the cross-backend determinism contract, end to end
// over real OS processes (DESIGN.md §14).
//
// For each scenario — Marsit on ring, 2×2 torus, parameter server and
// binomial tree — the launcher
//
//   1. binds one loopback listener per worker (before any threads exist —
//      the trainer's pool must not leak into forked children),
//   2. forks 4 worker processes; each mesh-connects over TCP, runs
//      dist::run_marsit_worker over a SocketTransport, and pipes back its
//      FNV-1a param digest plus per-round step and measured/predicted
//      timings,
//   3. runs the identical seeds through the simulator
//      (DistributedTrainer + MarsitSync) in the parent,
//   4. asserts every socket rank's digest equals the simulator's, that
//      one-bit rounds move exactly 2(M−1)·D sign bits, and prints each
//      round's local step (line 1 included) and measured communication
//      wall-clock next to the α–β prediction.
//
// A watchdog bounds every scenario: result pipes are read with a poll()
// deadline and children that outlive it are SIGKILLed and reaped, so a
// wedged collective fails the drill instead of hanging CI.
//
// Exit status 0 iff every digest matches — CI's socket-loopback job runs
// this binary under Release and ASan.
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "compress/kernels.hpp"
#include "core/sync_strategy.hpp"
#include "data/synthetic_digits.hpp"
#include "dist/worker.hpp"
#include "net/socket_transport.hpp"
#include "nn/models.hpp"
#include "sim/trainer.hpp"
#include "tensor/tensor.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kRounds = 10;
constexpr std::uint64_t kTrainerSeed = 7;
constexpr std::uint64_t kSyncSeed = 2022;
/// Watchdog budget per scenario: pipe reads past this deadline fail and
/// surviving children are killed.  Generous — a healthy drill finishes in
/// well under a second even under sanitizers.
constexpr double kScenarioTimeoutSeconds = 120.0;

double now_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

dist::WorkerConfig worker_config(MarParadigm paradigm) {
  dist::WorkerConfig config;
  config.batch_size_per_worker = 16;
  config.optimizer = OptimizerKind::kSgd;
  config.eta_l = 0.05f;
  config.rounds = kRounds;
  config.trainer_seed = kTrainerSeed;
  config.sync_seed = kSyncSeed;
  config.paradigm = paradigm;
  if (paradigm == MarParadigm::kTorus2d) {
    config.torus_rows = 2;
    config.torus_cols = 2;
  }
  config.options.eta_s = 2e-3f;
  config.options.full_precision_period = 5;
  return config;
}

/// Fixed-size wire record a child pipes back per round.
struct RoundWire {
  std::uint64_t round;
  std::uint64_t full_precision;
  double step_seconds;
  double measured_comm_seconds;
  double predicted_comm_seconds;
  double wire_bits;
  double total_wire_bits;
};

/// Reads `size` bytes, failing once `deadline` (CLOCK_MONOTONIC seconds)
/// passes — the watchdog half of the child protocol.
bool read_exact(int fd, void* data, std::size_t size, double deadline) {
  std::size_t done = 0;
  auto* bytes = static_cast<std::uint8_t*>(data);
  while (done < size) {
    const double remaining = deadline - now_seconds();
    if (remaining <= 0.0) {
      return false;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(remaining * 1e3) + 1);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (ready == 0) {
      return false;  // deadline
    }
    const ssize_t n = ::read(fd, bytes + done, size - done);
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

bool write_exact(int fd, const void* data, std::size_t size) {
  std::size_t done = 0;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (done < size) {
    const ssize_t n = ::write(fd, bytes + done, size - done);
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

/// Child body: connect the mesh, train, pipe back digest + rounds.
[[noreturn]] void run_child(std::size_t rank, int listen_fd,
                            const std::vector<std::uint16_t>& ports,
                            const dist::WorkerConfig& config, int out_fd) {
  SyntheticDigits digits;
  const auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {16}, digits.num_classes());
  };
  std::vector<int> fds = connect_socket_mesh(
      rank, kWorkers, listen_fd, {ports.data(), ports.size()});
  int status = 0;
  {
    SocketTransport transport(rank, std::move(fds));
    const dist::WorkerResult result =
        dist::run_marsit_worker(transport, digits, factory, config);
    const std::uint64_t count = result.rounds.size();
    bool ok = write_exact(out_fd, &result.param_digest,
                          sizeof(result.param_digest)) &&
              write_exact(out_fd, &count, sizeof(count));
    for (const dist::RoundReport& report : result.rounds) {
      const RoundWire wire{report.round, report.full_precision ? 1u : 0u,
                           report.step_seconds, report.measured_comm_seconds,
                           report.predicted_comm_seconds, report.wire_bits,
                           report.total_wire_bits};
      ok = ok && write_exact(out_fd, &wire, sizeof(wire));
    }
    status = ok ? 0 : 1;
  }
  ::close(out_fd);
  ::_exit(status);
}

/// The oracle: same seeds through the simulator, digest of the final
/// parameters.
std::uint64_t simulator_digest(const dist::WorkerConfig& config) {
  SyntheticDigits digits;
  const auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {16}, digits.num_classes());
  };
  SyncConfig sync_config;
  sync_config.num_workers = kWorkers;
  sync_config.paradigm = config.paradigm;
  sync_config.torus_rows = config.torus_rows;
  sync_config.torus_cols = config.torus_cols;
  sync_config.seed = config.sync_seed;
  MarsitSync strategy(sync_config, config.options);

  TrainerConfig trainer_config;
  trainer_config.batch_size_per_worker = config.batch_size_per_worker;
  trainer_config.optimizer = config.optimizer;
  trainer_config.eta_l = config.eta_l;
  trainer_config.rounds = config.rounds;
  trainer_config.eval_interval = config.rounds + 1;  // digests only
  trainer_config.seed = config.trainer_seed;

  DistributedTrainer trainer(digits, factory, strategy, trainer_config);
  (void)trainer.train();
  Tensor params(trainer.param_count());
  trainer.copy_params_into(params.span());
  return ckpt::fnv1a(params.span().data(),
                     params.size() * sizeof(float));
}

/// Reaps every child without blocking forever: polls WNOHANG until the
/// deadline, then SIGKILLs and reaps whatever is left.  Returns true when
/// every child exited cleanly on its own.
bool reap_children(const std::vector<pid_t>& children, double deadline) {
  bool ok = true;
  for (std::size_t w = 0; w < children.size(); ++w) {
    int status = 0;
    for (;;) {
      const pid_t reaped = ::waitpid(children[w], &status, WNOHANG);
      if (reaped == children[w]) {
        break;
      }
      if (reaped < 0) {
        std::perror("waitpid");
        ok = false;
        break;
      }
      if (now_seconds() > deadline) {
        std::fprintf(stderr, "rank %zu: watchdog timeout, killing\n", w);
        ::kill(children[w], SIGKILL);
        ::waitpid(children[w], &status, 0);
        ok = false;
        break;
      }
      ::usleep(20'000);
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "rank %zu exited abnormally\n", w);
      ok = false;
    }
  }
  return ok;
}

/// The sign-plane dimension D: the model's parameter count padded to whole
/// 64-bit words — what every one-bit wire-volume formula counts.
double sign_plane_bits() {
  SyntheticDigits digits;
  Sequential model =
      make_mlp(digits.sample_size(), {16}, digits.num_classes());
  return static_cast<double>(kernels::words_for(model.param_count())) * 64.0;
}

/// One scenario's drill; returns true when all 4 socket digests match the
/// simulator and every one-bit round moved exactly 2(M−1)·D sign bits.
bool run_scenario(const char* name, MarParadigm paradigm) {
  const dist::WorkerConfig config = worker_config(paradigm);
  const double deadline = now_seconds() + kScenarioTimeoutSeconds;
  std::printf("=== %s: %zu workers, %zu rounds ===\n", name, kWorkers,
              kRounds);

  // Listeners and pipes exist before any fork; each child inherits the lot
  // and closes what is not its own.
  std::vector<int> listeners(kWorkers);
  std::vector<std::uint16_t> ports(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    listeners[w] = bind_loopback_listener(&ports[w]);
  }
  std::vector<int> read_fds(kWorkers);
  std::vector<pid_t> children(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      std::perror("pipe");
      return false;
    }
    read_fds[w] = pipe_fds[0];
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return false;
    }
    if (pid == 0) {
      ::close(pipe_fds[0]);
      for (std::size_t other = 0; other < kWorkers; ++other) {
        if (other != w) {
          ::close(listeners[other]);
        }
        if (other < w) {
          ::close(read_fds[other]);
        }
      }
      run_child(w, listeners[w], ports, config, pipe_fds[1]);
    }
    children[w] = pid;
    ::close(pipe_fds[1]);
  }
  for (const int fd : listeners) {
    ::close(fd);
  }

  // Collect results under the watchdog deadline, then reap.
  std::vector<std::uint64_t> digests(kWorkers, 0);
  std::vector<std::vector<RoundWire>> reports(kWorkers);
  bool ok = true;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    std::uint64_t count = 0;
    if (!read_exact(read_fds[w], &digests[w], sizeof(digests[w]),
                    deadline) ||
        !read_exact(read_fds[w], &count, sizeof(count), deadline) ||
        count != kRounds) {
      std::fprintf(stderr, "rank %zu: result pipe broken or timed out\n", w);
      ok = false;
    } else {
      reports[w].resize(count);
      for (RoundWire& wire : reports[w]) {
        if (!read_exact(read_fds[w], &wire, sizeof(wire), deadline)) {
          std::fprintf(stderr, "rank %zu: truncated round reports\n", w);
          ok = false;
          break;
        }
      }
    }
    ::close(read_fds[w]);
  }
  ok = reap_children(children, deadline) && ok;
  if (!ok) {
    return false;
  }

  // Measured wall-clock vs the α–β prediction, per round (rank 0's view;
  // measured varies run to run, predicted is deterministic).  "step s" is
  // the local step with line 1 in it, "measured s" the hops after it.
  std::printf("%6s  %5s  %10s  %14s  %14s  %12s  %14s\n", "round", "kind",
              "step s", "measured s", "predicted s", "wire bits",
              "total bits");
  for (const RoundWire& wire : reports[0]) {
    std::printf("%6llu  %5s  %10.6f  %14.6f  %14.6f  %12.0f  %14.0f\n",
                static_cast<unsigned long long>(wire.round),
                wire.full_precision != 0 ? "flush" : "1-bit",
                wire.step_seconds, wire.measured_comm_seconds,
                wire.predicted_comm_seconds, wire.wire_bits,
                wire.total_wire_bits);
  }

  // The paper's wire volume, pinned on every rank's every one-bit round:
  // 2(M−1)·D sign bits (D = the word-padded dimension; framing rides on
  // top).
  const double expected_one_bit =
      2.0 * static_cast<double>(kWorkers - 1) * sign_plane_bits();
  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (const RoundWire& wire : reports[w]) {
      if (wire.full_precision == 0 && wire.total_wire_bits !=
                                          expected_one_bit) {
        std::fprintf(stderr,
                     "rank %zu round %llu: %.0f wire bits, expected %.0f\n",
                     w, static_cast<unsigned long long>(wire.round),
                     wire.total_wire_bits, expected_one_bit);
        ok = false;
      }
    }
  }

  const std::uint64_t oracle = simulator_digest(config);
  std::printf("simulator digest: %016llx\n",
              static_cast<unsigned long long>(oracle));
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const bool match = digests[w] == oracle;
    std::printf("rank %zu digest:    %016llx  %s\n", w,
                static_cast<unsigned long long>(digests[w]),
                match ? "OK" : "MISMATCH");
    ok = ok && match;
  }
  return ok;
}

}  // namespace
}  // namespace marsit

int main() {
  using namespace marsit;
  set_log_level(LogLevel::kWarning);
  bool ok = run_scenario("Marsit ring (RAR)", MarParadigm::kRing);
  ok = run_scenario("Marsit 2x2 torus (TAR)", MarParadigm::kTorus2d) && ok;
  ok = run_scenario("Marsit parameter server (PS)",
                    MarParadigm::kParameterServer) &&
       ok;
  ok = run_scenario("Marsit binomial tree (TREE)", MarParadigm::kTree) && ok;
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: socket backend diverged from the simulator\n");
    return 1;
  }
  std::printf("all socket digests match the simulator\n");
  return 0;
}
