// Wire-layer benchmark: one Marsit round's hop schedule executed over a real
// loopback SocketTransport mesh, timed next to its α–β prediction, written
// as JSON (BENCH_socket.json).
//
//   socket_hops [--out BENCH_socket.json] [--reps 11]
//
// The launcher forks M = 4 ranks that mesh-connect over loopback TCP and
// run execute_hop_schedule (core/hop_schedule.hpp) for three rounds:
//
//   ring_flush    the float all-reduce of a ring flush (reduce-scatter
//                 with a float add, then all-gather) at ring-large's
//                 D = 4,620,298 (six 4.6 MB hops per rank);
//   ring_one_bit  a one-bit ring round (reduce-scatter ⊙ fold, then
//                 all-gather) at the same D;
//   torus_flush   the 2×2 torus flush at torus-flush's D = 1,261,578.
//
// Every repetition starts from a barrier over the same transport, and each
// rank times its own execute_hop_schedule call.  A row reports the slowest
// rank's time per repetition, as its median and minimum over repetitions;
// each rank's user and sys CPU per round (getrusage, reader threads
// included); the payload bytes all ranks sent; and price_hop_schedule's
// α–β seconds for the same schedule.  The cost model is fitted in this
// binary from a two-rank ping: the median send-until-ack time of 64 B and
// 4 MiB frames gives α and the bandwidth.
//
// The rounds check themselves: after every flush each rank must hold
// bytes memcmp-equal to the in-memory fold (fold_float_schedule) of the
// same contributions, and after every one-bit round all ranks must hold the
// same aggregate.  A failed check, a payload byte count
// other than the schedule's, or a rank that dies or overruns the watchdog
// exits 1 without writing the file.
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compress/kernels.hpp"
#include "core/hop_schedule.hpp"
#include "core/segmented_fold.hpp"
#include "net/socket_transport.hpp"

namespace marsit {
namespace {

constexpr std::size_t kRanks = 4;
/// Ping sizes of the cost-model fit, and repetitions of each.
constexpr std::size_t kSmallProbe = 64;
constexpr std::size_t kLargeProbe = std::size_t{4} << 20;
constexpr std::size_t kSmallProbeReps = 300;
constexpr std::size_t kLargeProbeReps = 20;
/// Watchdog per launch: a wedged rank fails the bench instead of hanging.
constexpr double kLaunchTimeoutSeconds = 300.0;
/// Barrier frames use rounds far above any timed round's, so their tags
/// (round << 2 | stream) never meet a schedule's.
constexpr std::uint32_t kBarrierRoundBase = 1u << 24;
/// Every one-bit repetition folds with the same seed, so every repetition
/// must reach the same aggregate.
constexpr std::uint64_t kRoundSeed = 0x5eed;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Case {
  const char* name;
  RoundKind kind;
  MarParadigm paradigm;
  std::size_t torus_cols;
  std::size_t elements;
};

const Case kCases[] = {
    {"ring_flush", RoundKind::kAllReduce, MarParadigm::kRing, 0, 4620298},
    {"ring_one_bit", RoundKind::kOneBit, MarParadigm::kRing, 0, 4620298},
    {"torus_flush", RoundKind::kAllReduce, MarParadigm::kTorus2d, 2, 1261578},
};

HopSchedule schedule_of(const Case& c) {
  const std::size_t units = c.kind == RoundKind::kAllReduce
                                ? c.elements
                                : kernels::words_for(c.elements);
  return hop_schedule(c.kind, c.paradigm, c.torus_cols, kRanks, units);
}

/// The wire alone, as the distributed worker prices its rounds.
WireFormat wire_of(const Case& c) {
  return c.kind == RoundKind::kAllReduce ? full_precision_wire()
                                         : one_bit_wire();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- forked ranks --------------------------------------------------------------

bool write_exact(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
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

/// Reads `size` bytes, failing once `deadline` (now_seconds()) passes.
bool read_exact(int fd, void* data, std::size_t size, double deadline) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  std::size_t done = 0;
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

/// One rank's work: returns the doubles it reports to the launcher.
using RankBody =
    std::function<std::vector<double>(std::size_t rank, SocketTransport&)>;

/// Forks `world` ranks over a loopback mesh, runs `body` in each and
/// collects what every rank reports.  Returns false if a rank fails, dies
/// or overruns the watchdog.  Forks, so the caller must not have started
/// any thread.
bool run_ranks(std::size_t world, const RankBody& body,
               std::vector<std::vector<double>>& reports) {
  std::vector<int> listeners(world);
  std::vector<std::uint16_t> ports(world);
  for (std::size_t r = 0; r < world; ++r) {
    listeners[r] = bind_loopback_listener(&ports[r]);
  }
  std::vector<int> from_rank(world, -1);
  std::vector<pid_t> pids;
  for (std::size_t r = 0; r < world; ++r) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      std::perror("pipe");
      std::exit(1);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      ::close(fds[0]);
      for (std::size_t other = 0; other < world; ++other) {
        if (other != r) {
          ::close(listeners[other]);
        }
      }
      int status = 1;
      try {
        SocketTransport transport(
            r, connect_socket_mesh(r, world, listeners[r], ports));
        const std::vector<double> report = body(r, transport);
        const std::uint64_t count = report.size();
        status = write_exact(fds[1], &count, sizeof(count)) &&
                         write_exact(fds[1], report.data(),
                                     report.size() * sizeof(double))
                     ? 0
                     : 1;
      } catch (const std::exception& failure) {
        std::fprintf(stderr, "rank %zu: %s\n", r, failure.what());
      }
      ::close(fds[1]);
      std::_Exit(status);
    }
    ::close(fds[1]);
    from_rank[r] = fds[0];
    pids.push_back(pid);
  }
  for (const int fd : listeners) {
    ::close(fd);
  }
  const double deadline = now_seconds() + kLaunchTimeoutSeconds;
  bool ok = true;
  reports.assign(world, {});
  for (std::size_t r = 0; r < world; ++r) {
    std::uint64_t count = 0;
    ok = ok && read_exact(from_rank[r], &count, sizeof(count), deadline);
    if (ok) {
      reports[r].resize(count);
      ok = read_exact(from_rank[r], reports[r].data(), count * sizeof(double),
                      deadline);
    }
    ::close(from_rank[r]);
  }
  for (const pid_t pid : pids) {
    if (!ok) {
      ::kill(pid, SIGKILL);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  return ok;
}

/// No rank leaves before every rank has entered.
void barrier(SocketTransport& transport, std::uint32_t round) {
  const std::uint32_t tag = (kBarrierRoundBase + round) << 2;
  for (std::size_t peer = 0; peer < transport.world_size(); ++peer) {
    if (peer != transport.rank()) {
      transport.send(peer, tag, {});
    }
  }
  for (std::size_t peer = 0; peer < transport.world_size(); ++peer) {
    if (peer != transport.rank()) {
      (void)transport.recv(peer, tag);
    }
  }
}

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Deterministic stand-in for rank `rank`'s flush contribution: values of
/// mixed magnitude, so the sum depends on its association.
float flush_value(std::size_t rank, std::size_t i) {
  return static_cast<float>((rank * 7919 + i) % 9973) *
         (i % 3 == 0 ? 1e-3f : 1.7f) * (rank % 2 == 0 ? 1.0f : -0.3f);
}

/// Every flush case's sum, folded in memory from every rank's contribution,
/// in kCases order (empty for one-bit cases).
std::vector<std::vector<float>> flush_sums() {
  std::vector<std::vector<float>> sums;
  for (const Case& c : kCases) {
    sums.emplace_back();
    if (c.kind != RoundKind::kAllReduce) {
      continue;
    }
    std::vector<std::vector<float>> rows(kRanks,
                                         std::vector<float>(c.elements));
    std::vector<std::span<float>> spans;
    for (std::size_t r = 0; r < kRanks; ++r) {
      for (std::size_t i = 0; i < c.elements; ++i) {
        rows[r][i] = flush_value(r, i);
      }
      spans.emplace_back(rows[r]);
    }
    sums.back().resize(c.elements);
    fold_float_schedule(schedule_of(c), spans, {0, c.elements}, sums.back());
  }
  return sums;
}

std::uint64_t fnv1a(std::span<const std::uint64_t> words) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (w >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

// --- the rounds ----------------------------------------------------------------

/// What one rank reports per case, after its `reps` round seconds.
enum CaseField : std::size_t {
  kUserSeconds,
  kSysSeconds,
  kPayloadBytes,
  kChecked,
  kDigestHigh,
  kDigestLow,
  kCaseFields
};

/// One warm-up round, then `reps` timed rounds of every case; `sums` is
/// flush_sums().
std::vector<double> time_cases(std::size_t rank, SocketTransport& transport,
                               std::size_t reps,
                               const std::vector<std::vector<float>>& sums) {
  std::vector<double> report;
  std::uint32_t round = 0;
  for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
    const Case& c = kCases[ci];
    const HopSchedule schedule = schedule_of(c);
    const std::size_t d = c.elements;
    std::vector<float> values;
    std::vector<std::uint64_t> own_words;
    std::vector<std::uint64_t> words;
    if (c.kind == RoundKind::kAllReduce) {
      values.resize(d);
    } else {
      own_words.resize(kernels::words_for(d));
      for (std::size_t w = 0; w < own_words.size(); ++w) {
        own_words[w] = (w * 0x9e3779b97f4a7c15ull) ^ (rank * 0x5851f42d4c957f2dull);
      }
    }
    std::vector<double> seconds;
    double user = 0.0;
    double sys = 0.0;
    double payload = 0.0;
    bool checked = true;
    std::uint64_t digest = 0;
    for (std::size_t rep = 0; rep <= reps; ++rep) {
      // Untimed: reset the buffers to this rank's contribution.
      if (c.kind == RoundKind::kAllReduce) {
        for (std::size_t i = 0; i < d; ++i) {
          values[i] = flush_value(rank, i);
        }
      } else {
        words = own_words;
      }
      barrier(transport, round);
      rusage before{};
      ::getrusage(RUSAGE_SELF, &before);
      const double start = now_seconds();
      payload = c.kind == RoundKind::kAllReduce
                    ? execute_hop_schedule(transport, schedule, round,
                                           std::span<float>(values))
                    : execute_hop_schedule(transport, schedule, round,
                                           kRoundSeed, words);
      const double elapsed = now_seconds() - start;
      rusage after{};
      ::getrusage(RUSAGE_SELF, &after);
      ++round;
      if (c.kind == RoundKind::kAllReduce) {
        checked = checked && std::memcmp(values.data(), sums[ci].data(),
                                         d * sizeof(float)) == 0;
      } else {
        const std::uint64_t got = fnv1a(words);
        checked = checked && (rep == 0 || got == digest);
        digest = got;
      }
      if (rep == 0) {
        continue;  // warm-up: pages, socket buffers, reader buffers
      }
      seconds.push_back(elapsed);
      user += cpu_seconds(after.ru_utime) - cpu_seconds(before.ru_utime);
      sys += cpu_seconds(after.ru_stime) - cpu_seconds(before.ru_stime);
    }
    report.insert(report.end(), seconds.begin(), seconds.end());
    report.push_back(user / static_cast<double>(reps));
    report.push_back(sys / static_cast<double>(reps));
    report.push_back(payload);
    report.push_back(checked ? 1.0 : 0.0);
    report.push_back(static_cast<double>(digest >> 32));
    report.push_back(static_cast<double>(digest & 0xffffffffu));
  }
  return report;
}

// --- the cost model --------------------------------------------------------------

struct Fit {
  CostModel cost;
  double small_seconds = 0.0;
  double large_seconds = 0.0;
};

/// α–β fit from a two-rank ping: rank 0 times send-until-ack of 64 B and
/// 4 MiB frames, rank 1 receives them.
bool fit_cost_model(Fit& fit) {
  const RankBody body = [](std::size_t rank, SocketTransport& transport) {
    std::vector<double> report;
    std::uint32_t tag = 0;
    for (const auto& [bytes, reps] :
         {std::pair{kSmallProbe, kSmallProbeReps},
          std::pair{kLargeProbe, kLargeProbeReps}}) {
      const std::vector<std::uint8_t> payload(bytes, 0x5a);
      std::vector<double> sends;
      for (std::size_t i = 0; i < reps; ++i) {
        const double start = now_seconds();
        if (rank == 0) {
          transport.send(1, tag, payload);
        } else {
          (void)transport.recv(0, tag);
        }
        sends.push_back(now_seconds() - start);
      }
      report.push_back(median(sends));
      ++tag;
    }
    return report;
  };
  std::vector<std::vector<double>> reports;
  if (!run_ranks(2, body, reports) || reports[0].size() != 2) {
    return false;
  }
  fit.small_seconds = reports[0][0];
  fit.large_seconds = reports[0][1];
  if (fit.large_seconds > fit.small_seconds) {
    fit.cost.link_bandwidth =
        static_cast<double>(kLargeProbe - kSmallProbe) /
        (fit.large_seconds - fit.small_seconds);
  }
  fit.cost.link_alpha =
      std::max(0.0, fit.small_seconds - static_cast<double>(kSmallProbe) /
                                            fit.cost.link_bandwidth);
  return true;
}

// --- output -------------------------------------------------------------------------

struct Row {
  const Case* c = nullptr;
  double slowest_p50 = 0.0;
  double slowest_min = 0.0;
  std::vector<double> user_ms;
  std::vector<double> sys_ms;
  double payload_bytes = 0.0;
  double predicted_seconds = 0.0;
};

/// "model name" from /proc/cpuinfo, so a committed file names its machine.
std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.2f", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out;
}

bool write_json(const std::string& path, const std::string& command,
                std::size_t reps, const Fit& fit,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"socket_hops\",\n");
  std::fprintf(f, "  \"command\": \"%s\",\n", command.c_str());
  std::fprintf(f, "  \"cpu\": \"%s\",\n", cpu_model().c_str());
  std::fprintf(f, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"ranks\": %zu,\n  \"reps\": %zu,\n", kRanks, reps);
  std::fprintf(f,
               "  \"cost_model\": {\"ping_64B_us\": %.2f, "
               "\"ping_4MiB_us\": %.2f, \"link_alpha_us\": %.3f, "
               "\"link_bandwidth_gbps\": %.3f},\n",
               fit.small_seconds * 1e6, fit.large_seconds * 1e6,
               fit.cost.link_alpha * 1e6, fit.cost.link_bandwidth * 8e-9);
  std::fprintf(f, "  \"rounds\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"round\": \"%s\", \"paradigm\": \"%s\", \"elements\": %zu, "
        "\"payload_bytes\": %.0f, \"slowest_rank_ms_p50\": %.3f, "
        "\"slowest_rank_ms_min\": %.3f, \"user_ms_per_rank\": [%s], "
        "\"sys_ms_per_rank\": [%s], \"predicted_ms\": %.3f, "
        "\"measured_over_predicted\": %.2f}%s\n",
        r.c->name, mar_paradigm_name(r.c->paradigm), r.c->elements,
        r.payload_bytes, r.slowest_p50 * 1e3, r.slowest_min * 1e3,
        join(r.user_ms).c_str(), join(r.sys_ms).c_str(),
        r.predicted_seconds * 1e3, r.slowest_p50 / r.predicted_seconds,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

std::size_t parse_count(const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || value == 0) {
    std::fprintf(stderr, "invalid count '%s'\n", text);
    std::exit(2);
  }
  return static_cast<std::size_t>(value);
}

}  // namespace
}  // namespace marsit

int main(int argc, char** argv) {
  using namespace marsit;
  std::string out = "BENCH_socket.json";
  std::size_t reps = 11;
  std::string command = "socket_hops";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    command += " " + arg;
    if ((arg == "--out" || arg == "--reps") && i + 1 < argc) {
      const char* value = argv[++i];
      command += std::string(" ") + value;
      if (arg == "--out") {
        out = value;
      } else {
        reps = parse_count(value);
      }
    } else {
      std::fprintf(stderr, "usage: socket_hops [--out FILE] [--reps N]\n");
      return 2;
    }
  }

  Fit fit;
  if (!fit_cost_model(fit)) {
    std::fprintf(stderr, "cost-model ping failed\n");
    return 1;
  }
  std::fprintf(stderr, "ping: 64 B %.1f us, 4 MiB %.1f us -> alpha %.2f us, "
               "%.2f Gbit/s\n", fit.small_seconds * 1e6,
               fit.large_seconds * 1e6, fit.cost.link_alpha * 1e6,
               fit.cost.link_bandwidth * 8e-9);

  // Folded before the fork, so the ranks share the pages.
  const std::vector<std::vector<float>> sums = flush_sums();
  std::vector<std::vector<double>> reports;
  const RankBody body = [reps, &sums](std::size_t rank,
                                      SocketTransport& transport) {
    return time_cases(rank, transport, reps, sums);
  };
  if (!run_ranks(kRanks, body, reports)) {
    std::fprintf(stderr, "a rank failed\n");
    return 1;
  }
  const std::size_t stride = reps + kCaseFields;
  std::vector<Row> rows;
  bool ok = true;
  for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
    const Case& c = kCases[ci];
    const HopSchedule schedule = schedule_of(c);
    NetworkSim net(kRanks, fit.cost);
    const CollectiveTiming price =
        price_hop_schedule(schedule, wire_of(c), net);
    Row row;
    row.c = &c;
    row.predicted_seconds = price.completion_seconds;
    std::vector<double> slowest(reps, 0.0);
    for (std::size_t r = 0; r < kRanks; ++r) {
      const std::vector<double>& report = reports[r];
      if (report.size() != std::size(kCases) * stride) {
        std::fprintf(stderr, "rank %zu sent a malformed report\n", r);
        return 1;
      }
      const double* at = report.data() + ci * stride;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        slowest[rep] = std::max(slowest[rep], at[rep]);
      }
      const double* fields = at + reps;
      row.user_ms.push_back(fields[kUserSeconds] * 1e3);
      row.sys_ms.push_back(fields[kSysSeconds] * 1e3);
      row.payload_bytes += fields[kPayloadBytes];
      if (fields[kChecked] != 1.0) {
        std::fprintf(stderr, "%s: rank %zu holds a wrong result\n", c.name, r);
        ok = false;
      }
      const double* rank0 = reports[0].data() + ci * stride + reps;
      if (c.kind == RoundKind::kOneBit &&
          (fields[kDigestHigh] != rank0[kDigestHigh] ||
           fields[kDigestLow] != rank0[kDigestLow])) {
        std::fprintf(stderr, "%s: rank %zu's aggregate differs from rank 0's\n",
                     c.name, r);
        ok = false;
      }
    }
    if (row.payload_bytes * 8.0 != price.total_wire_bits) {
      std::fprintf(stderr, "%s: %.0f payload bytes, schedule prices %.0f\n",
                   c.name, row.payload_bytes, price.total_wire_bits / 8.0);
      ok = false;
    }
    row.slowest_p50 = median(slowest);
    row.slowest_min = *std::min_element(slowest.begin(), slowest.end());
    std::fprintf(stderr,
                 "%-13s slowest rank p50 %8.3f ms  min %8.3f ms  "
                 "user [%s] ms  sys [%s] ms  predicted %.3f ms\n",
                 c.name, row.slowest_p50 * 1e3, row.slowest_min * 1e3,
                 join(row.user_ms).c_str(), join(row.sys_ms).c_str(),
                 row.predicted_seconds * 1e3);
    rows.push_back(row);
  }
  if (!ok) {
    return 1;
  }
  if (!write_json(out, command, reps, fit, rows)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}
