// Socket workloads: forked ranks of dist::run_marsit_worker over a loopback
// SocketTransport mesh, launched the way examples/socket_allreduce does.
//
// Rank lifecycle:
//   * listeners, pipes and every fork happen before this process starts a
//     thread (the oracle trainer's pool, started later, must not leak into
//     a child);
//   * a child dies with its parent (PR_SET_PDEATHSIG) and quits on a closed
//     command pipe, so no rank outlives the run;
//   * every pipe read runs under a poll() deadline; ranks that outlive it
//     are SIGKILLed and reaped;
//   * each rank destroys its SocketTransport before it exits — the
//     destructor drains pending acks, without which a peer still blocked in
//     send() fails with "lost peer ... awaiting ack".
//
// Protocol: a rank connects, builds its transport, dataset and model, and
// reports READY; the parent's setup timer stops when all ranks have.  Each
// 'G' (untraced) or 'T' (traced) command runs one episode — a full
// run_marsit_worker call from the seeded initialization — and the rank
// pipes back its digest, per-round reports and transport records.  'Q', or
// EOF, ends the rank.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>

#include "compress/kernels.hpp"
#include "core/segmented_fold.hpp"
#include "layer_timers.hpp"
#include "net/socket_transport.hpp"
#include "recording.hpp"
#include "runs.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using marsit::dist::RoundReport;

/// Launches per run; the median set-up time is reported, and the last
/// Workload::launches of them train.
constexpr std::size_t kSetupLaunches = 5;
constexpr char kCmdRun = 'G';
constexpr char kCmdRunTraced = 'T';
constexpr char kCmdQuit = 'Q';
constexpr std::uint32_t kMsgReady = 1;
constexpr std::uint32_t kMsgEpisode = 2;
constexpr std::uint32_t kMsgSamples = 3;
/// Grace after the measured window for the rest of the run (oracle, side
/// loops) before ranks are declared hung.
constexpr double kWatchdogSlackSeconds = 90.0;

struct RankGroup {
  std::vector<pid_t> pids;
  std::vector<int> from_rank;  // the parent reads rank messages here
  std::vector<int> to_rank;    // the parent writes commands here
};

/// A rank's body: runs on its connected mesh, returns the exit status.
using RankBody = std::function<int(std::size_t rank, std::vector<int> fds,
                                   int in_fd, int out_fd)>;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Binds `m` loopback listeners, opens the pipes, forks the ranks.  Returns
/// false when a pipe or fork fails; whatever was forked is in `group`.
bool launch_ranks(std::size_t m, const RankBody& body, RankGroup& group) {
  std::vector<int> listeners(m, -1);
  std::vector<std::uint16_t> ports(m, 0);
  for (std::size_t w = 0; w < m; ++w) {
    listeners[w] = marsit::bind_loopback_listener(&ports[w]);
  }
  group.from_rank.assign(m, -1);
  group.to_rank.assign(m, -1);
  std::vector<int> child_out(m, -1);
  std::vector<int> child_in(m, -1);
  bool ok = true;
  for (std::size_t w = 0; w < m && ok; ++w) {
    int up[2];
    int down[2];
    if (::pipe(up) != 0) {
      ok = false;
      break;
    }
    if (::pipe(down) != 0) {
      ::close(up[0]);
      ::close(up[1]);
      ok = false;
      break;
    }
    group.from_rank[w] = up[0];
    child_out[w] = up[1];
    child_in[w] = down[0];
    group.to_rank[w] = down[1];
  }
  const pid_t parent = ::getpid();
  for (std::size_t w = 0; w < m && ok; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      ok = false;
      break;
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) {
        ::_exit(1);
      }
      for (std::size_t o = 0; o < m; ++o) {
        close_fd(group.from_rank[o]);
        close_fd(group.to_rank[o]);
        if (o != w) {
          close_fd(listeners[o]);
          close_fd(child_out[o]);
          close_fd(child_in[o]);
        }
      }
      int code = 1;
      try {
        std::vector<int> fds =
            marsit::connect_socket_mesh(w, m, listeners[w], ports);
        code = body(w, std::move(fds), child_in[w], child_out[w]);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "rank %zu: %s\n", w, error.what());
      }
      ::_exit(code);
    }
    group.pids.push_back(pid);
  }
  for (std::size_t w = 0; w < m; ++w) {
    close_fd(listeners[w]);
    close_fd(child_out[w]);
    close_fd(child_in[w]);
  }
  return ok;
}

void send_command(const RankGroup& group, char command) {
  for (const int fd : group.to_rank) {
    (void)write_exact(fd, &command, 1);
  }
}

bool read_command(int fd, char& command) {
  for (;;) {
    const ssize_t n = ::read(fd, &command, 1);
    if (n == 1) {
      return true;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
}

/// Ends every rank: quit command, closed pipes, then reaping until
/// `deadline`, after which stragglers are SIGKILLed.  True when every rank
/// exited 0 on its own.
bool reap_ranks(RankGroup& group, double deadline) {
  send_command(group, kCmdQuit);
  for (int& fd : group.to_rank) {
    close_fd(fd);
  }
  for (int& fd : group.from_rank) {
    close_fd(fd);
  }
  bool ok = true;
  for (const pid_t pid : group.pids) {
    int status = 0;
    for (;;) {
      const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
      if (reaped == pid) {
        break;
      }
      if (reaped < 0) {
        ok = false;
        break;
      }
      if (now_seconds() > deadline) {
        std::fprintf(stderr, "rank pid %d: watchdog timeout, killing\n",
                     static_cast<int>(pid));
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        ok = false;
        break;
      }
      ::usleep(1000);
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ok = false;
    }
  }
  group.pids.clear();
  return ok;
}

/// Waits for one message of `kind` from every rank.
bool collect(const RankGroup& group, std::uint32_t kind, double deadline,
             std::vector<std::vector<std::uint8_t>>& messages) {
  messages.assign(group.from_rank.size(), {});
  for (std::size_t w = 0; w < group.from_rank.size(); ++w) {
    std::uint32_t got = 0;
    if (!read_message(group.from_rank[w], messages[w], deadline) ||
        messages[w].size() < sizeof(got)) {
      return false;
    }
    std::memcpy(&got, messages[w].data(), sizeof(got));
    if (got != kind) {
      return false;
    }
  }
  return true;
}

// --- loopback calibration ----------------------------------------------------

constexpr std::size_t kSmallProbe = 64;
constexpr std::size_t kLargeProbe = std::size_t{4} << 20;

Calibration fit_calibration(const std::vector<std::vector<double>>& sends,
                            std::vector<double> probe_recv) {
  Calibration calibration;
  const double t_small = median(sends[0]);
  const double t_large = median(sends[1]);
  calibration.cost.link_bandwidth =
      t_large > t_small
          ? static_cast<double>(kLargeProbe - kSmallProbe) / (t_large - t_small)
          : calibration.cost.link_bandwidth;
  calibration.cost.link_alpha = std::max(
      0.0, t_small - static_cast<double>(kSmallProbe) /
                         calibration.cost.link_bandwidth);
  calibration.probe_send_seconds = sends[2];
  calibration.probe_recv_seconds = std::move(probe_recv);
  calibration.ok = true;
  return calibration;
}

}  // namespace

Calibration calibrate_loopback(std::size_t probe_bytes, double deadline) {
  const std::vector<std::size_t> sizes = {kSmallProbe, kLargeProbe,
                                          probe_bytes};
  const std::vector<std::size_t> reps = {300, 20, 100};
  const RankBody body = [&](std::size_t rank, std::vector<int> fds, int,
                            int out_fd) {
    marsit::SocketTransport socket(rank, std::move(fds));
    ByteWriter out;
    out.put(kMsgSamples);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const std::vector<std::uint8_t> payload(sizes[s], 0x5a);
      std::vector<double> samples;
      for (std::size_t i = 0; i < reps[s]; ++i) {
        const double start = now_seconds();
        if (rank == 0) {
          socket.send(1, static_cast<std::uint32_t>(s), payload);
        } else {
          (void)socket.recv(0, static_cast<std::uint32_t>(s));
        }
        samples.push_back(now_seconds() - start);
      }
      out.put_array(samples);
    }
    return write_message(out_fd, out.bytes()) ? 0 : 1;
  };
  RankGroup group;
  Calibration failed;
  std::vector<std::vector<std::uint8_t>> messages;
  const bool launched = launch_ranks(2, body, group);
  const bool collected =
      launched && collect(group, kMsgSamples, deadline, messages);
  const bool reaped = reap_ranks(group, deadline);
  if (!collected || !reaped) {
    return failed;
  }
  std::vector<std::vector<double>> sends(sizes.size());
  std::vector<std::vector<double>> recvs(sizes.size());
  for (std::size_t rank = 0; rank < 2; ++rank) {
    ByteReader reader(messages[rank]);
    std::uint32_t kind = 0;
    reader.get(kind);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      if (!reader.get_array(rank == 0 ? sends[s] : recvs[s])) {
        return failed;
      }
    }
  }
  return fit_calibration(sends, recvs[2]);
}

namespace {

// --- episodes ------------------------------------------------------------------

struct EpisodeHeader {
  std::uint64_t digest = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t frames_sent = 0;  // SocketTransport::data_frames_sent delta
  std::uint64_t bytes_sent = 0;   // SocketTransport::payload_bytes_sent delta
};

struct RoundWire {
  std::uint64_t full_precision = 0;
  double measured_comm = 0.0;
  double predicted_comm = 0.0;
  double wire_bits = 0.0;
  RoundCalls calls;
};

struct RankEpisode {
  EpisodeHeader header;
  std::vector<RoundWire> rounds;
  std::vector<Span> spans;
};

int training_rank(const Workload& workload, const RunSeeds& seeds,
                  const marsit::dist::WorkerConfig& config, std::size_t rank,
                  std::vector<int> fds, int in_fd, int out_fd) {
  marsit::SocketTransport socket(rank, std::move(fds));
  RecordingTransport recording(socket);
  const marsit::SyntheticDigits digits(digits_config(seeds));
  // The first episode trains the model built here, so model construction
  // and init are part of set-up like the mesh and transport.
  std::optional<marsit::Sequential> prebuilt = make_model(workload);
  marsit::Rng init_rng(
      marsit::derive_seed(seeds.trainer, marsit::kModelInitSeedSalt));
  prebuilt->init(init_rng);
  const auto factory = [&]() {
    if (prebuilt) {
      marsit::Sequential model = std::move(*prebuilt);
      prebuilt.reset();
      return model;
    }
    return make_model(workload);
  };
  ByteWriter ready;
  ready.put(kMsgReady);
  if (!write_message(out_fd, ready.bytes())) {
    return 1;
  }
  char command = kCmdQuit;
  while (read_command(in_fd, command) && command != kCmdQuit) {
    recording.begin_episode(config.rounds, command == kCmdRunTraced);
    EpisodeHeader header;
    const std::uint64_t frames0 = socket.data_frames_sent();
    const std::uint64_t bytes0 = socket.payload_bytes_sent();
    header.start = now_seconds();
    const marsit::dist::WorkerResult result =
        marsit::dist::run_marsit_worker(recording, digits, factory, config);
    header.end = now_seconds();
    header.digest = result.param_digest;
    header.frames_sent = socket.data_frames_sent() - frames0;
    header.bytes_sent = socket.payload_bytes_sent() - bytes0;
    if (recording.rounds().size() != result.rounds.size()) {
      return 1;
    }
    std::vector<RoundWire> rounds(result.rounds.size());
    for (std::size_t t = 0; t < rounds.size(); ++t) {
      const RoundReport& report = result.rounds[t];
      rounds[t] = {report.full_precision ? 1u : 0u,
                   report.measured_comm_seconds, report.predicted_comm_seconds,
                   report.wire_bits, recording.rounds()[t]};
    }
    ByteWriter out;
    out.put(kMsgEpisode);
    out.put(header);
    out.put_array(rounds);
    out.put_array(recording.spans());
    if (!write_message(out_fd, out.bytes())) {
      return 1;
    }
  }
  return 0;
}

bool parse_episode(const std::vector<std::uint8_t>& message,
                   RankEpisode& episode) {
  ByteReader reader(message);
  std::uint32_t kind = 0;
  return reader.get(kind) && reader.get(episode.header) &&
         reader.get_array(episode.rounds) && reader.get_array(episode.spans);
}

/// The untraced samples of one training launch.  End-to-end metrics are
/// medians over launches of each launch's statistic, so one launch that
/// the scheduler placed badly cannot move them.
struct LaunchSamples {
  std::size_t episodes = 0;
  std::size_t rounds = 0;
  double train_seconds = 0.0;
  std::vector<double> one_bit_ms;
  std::vector<double> flush_ms;
};

/// Everything the episodes of one run add up to.
struct Totals {
  std::vector<LaunchSamples> launches;
  std::vector<double> traced_one_bit_ms;
  std::vector<std::uint64_t> digests;  // every rank of every episode
  std::uint64_t frames = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t rank_rounds = 0;
  // Traced one-bit rounds, per rank and round (t >= 1).
  std::vector<double> send_us;
  std::vector<double> recv_us;
  std::vector<double> comm_ms;
  std::vector<double> compute_ms;
  std::vector<double> predicted_ms;
  double traced_round_s = 0.0;
  double traced_send_s = 0.0;
  double traced_recv_s = 0.0;
  double traced_comm_s = 0.0;
  std::size_t traced_rank_rounds = 0;
  std::map<std::uint64_t, std::uint64_t> frames_by_size;
  std::vector<RankEpisode> timeline;  // the first traced episode
};

/// Checks one episode and adds its samples.
void absorb(std::vector<RankEpisode>& ranks, bool traced,
            std::uint64_t expected_one_bit_bytes, Totals& totals,
            Outcome& outcome) {
  const std::size_t m = ranks.size();
  const std::size_t rounds = ranks.front().rounds.size();
  double start = ranks.front().header.start;
  double end = ranks.front().header.end;
  for (const RankEpisode& rank : ranks) {
    start = std::min(start, rank.header.start);
    end = std::max(end, rank.header.end);
    totals.digests.push_back(rank.header.digest);
    totals.frames += rank.header.frames_sent;
    totals.payload_bytes += rank.header.bytes_sent;
    std::uint64_t recorded = 0;
    for (const RoundWire& round : rank.rounds) {
      recorded += round.calls.payload_bytes;
    }
    if (rank.rounds.size() != rounds || recorded != rank.header.bytes_sent) {
      outcome.fail("rank reports disagree with the transport's byte count");
    }
  }
  LaunchSamples& launch = totals.launches.back();
  launch.episodes += 1;
  totals.rank_rounds += rounds * m;
  if (!traced) {
    launch.rounds += rounds;
    launch.train_seconds += end - start;
  }

  // A round is done when its slowest rank is: round t runs from the last
  // rank's round t−1 boundary to the last rank's round t boundary, so the
  // rounds of an episode add up to its wall-clock.
  double previous_done = 0.0;
  for (std::size_t t = 0; t < rounds; ++t) {
    const bool full_precision = ranks.front().rounds[t].full_precision != 0;
    std::uint64_t bytes = 0;
    double wire_bits = 0.0;
    double done = 0.0;
    for (const RankEpisode& rank : ranks) {
      const RoundWire& round = rank.rounds[t];
      bytes += round.calls.payload_bytes;
      wire_bits += round.wire_bits;
      done = std::max(done, round.calls.last_end);
    }
    const double slowest = done - previous_done;
    previous_done = done;
    if (!full_precision && (bytes != expected_one_bit_bytes ||
                            wire_bits != 8.0 * static_cast<double>(bytes))) {
      outcome.fail("round " + std::to_string(t) + " moved " +
                   std::to_string(bytes) + " payload bytes, expected " +
                   std::to_string(expected_one_bit_bytes));
    }
    if (t == 0) {
      continue;  // round 0 also pays the worker's model build
    }
    if (full_precision) {
      if (!traced) {
        launch.flush_ms.push_back(1e3 * slowest);
      }
      continue;
    }
    (traced ? totals.traced_one_bit_ms : launch.one_bit_ms)
        .push_back(1e3 * slowest);
    if (!traced) {
      continue;
    }
    for (const RankEpisode& rank : ranks) {
      const RoundWire& round = rank.rounds[t];
      const double own =
          round.calls.last_end - rank.rounds[t - 1].calls.last_end;
      totals.comm_ms.push_back(1e3 * round.measured_comm);
      totals.compute_ms.push_back(1e3 * (own - round.measured_comm));
      totals.predicted_ms.push_back(1e3 * round.predicted_comm);
      totals.traced_round_s += own;
      totals.traced_send_s += round.calls.send_seconds;
      totals.traced_recv_s += round.calls.recv_seconds;
      totals.traced_comm_s += round.measured_comm;
      totals.traced_rank_rounds += 1;
    }
  }
  if (!traced) {
    return;
  }
  for (const RankEpisode& rank : ranks) {
    for (const Span& span : rank.spans) {
      if (span.kind == kSpanSend) {
        totals.frames_by_size[span.bytes] += 1;
      }
      if (span.round == 0 || span.round >= rounds ||
          rank.rounds[span.round].full_precision != 0) {
        continue;
      }
      (span.kind == kSpanSend ? totals.send_us : totals.recv_us)
          .push_back(1e6 * (span.end - span.start));
    }
  }
  if (totals.timeline.empty()) {
    totals.timeline = std::move(ranks);
  }
}

/// Runs episodes on a launched group for `seconds` — in a traced run,
/// untraced and traced episodes in turn, so the tracing overhead is
/// measured within one run.  False when a rank fails or its pipe breaks.
bool run_launch(const RankGroup& group, const Workload& workload,
                bool traced_run, double seconds,
                std::uint64_t expected_one_bit_bytes, double deadline,
                Totals& totals, Outcome& outcome) {
  totals.launches.emplace_back();
  const double start = now_seconds();
  std::vector<std::vector<std::uint8_t>> messages;
  for (std::size_t episode = 0;; ++episode) {
    const bool traced = traced_run && episode % 2 == 1;
    send_command(group, traced ? kCmdRunTraced : kCmdRun);
    outcome.attempted += workload.episode_rounds;
    std::vector<RankEpisode> ranks(group.from_rank.size());
    if (!collect(group, kMsgEpisode, deadline, messages)) {
      return false;
    }
    for (std::size_t w = 0; w < ranks.size(); ++w) {
      if (!parse_episode(messages[w], ranks[w])) {
        return false;
      }
    }
    absorb(ranks, traced, expected_one_bit_bytes, totals, outcome);
    const bool enough =
        !totals.launches.back().one_bit_ms.empty() &&
        (!traced_run || !totals.traced_one_bit_ms.empty());
    if (now_seconds() - start >= seconds && enough) {
      return true;
    }
  }
}

/// Writes the first traced episode as one Chrome-trace timeline: one
/// process lane per rank, a span per round and per transport call.
void write_timeline(const std::string& path,
                    const std::vector<RankEpisode>& ranks) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  double origin = ranks.front().header.start;
  for (const RankEpisode& rank : ranks) {
    origin = std::min(origin, rank.header.start);
  }
  const auto us = [origin](double t) { return (t - origin) * 1e6; };
  out << "{\"traceEvents\": [\n";
  bool first = true;
  const auto event = [&](const std::string& name, std::size_t pid,
                         std::size_t tid, double start, double end,
                         const std::string& args) {
    out << (first ? "" : ",\n") << "{\"name\": \"" << name
        << "\", \"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"ts\": " << us(start) << ", \"dur\": " << (end - start) * 1e6
        << ", \"args\": {" << args << "}}";
    first = false;
  };
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankEpisode& rank = ranks[r];
    double previous = rank.header.start;
    for (std::size_t t = 0; t < rank.rounds.size(); ++t) {
      const RoundWire& round = rank.rounds[t];
      event(std::string(round.full_precision ? "flush" : "one-bit") +
                " round " + std::to_string(t),
            r, 0, previous, round.calls.last_end,
            "\"measured_comm_ms\": " +
                std::to_string(1e3 * round.measured_comm) +
                ", \"predicted_comm_ms\": " +
                std::to_string(1e3 * round.predicted_comm));
      previous = round.calls.last_end;
    }
    for (const Span& span : rank.spans) {
      event(span.kind == kSpanSend ? "send" : "recv", r, 1, span.start,
            span.end,
            "\"round\": " + std::to_string(span.round) +
                ", \"peer\": " + std::to_string(span.peer) +
                ", \"bytes\": " + std::to_string(span.bytes));
    }
  }
  out << "\n]}\n";
}

}  // namespace

Outcome run_socket_workload(const RunOptions& options) {
  const Workload& workload = *options.workload;
  const RunSeeds seeds = run_seeds(options.seed);
  const std::size_t m = workload.workers;
  const std::size_t d = param_count(workload);
  const std::size_t words = marsit::kernels::words_for(d);
  const std::uint64_t expected_one_bit_bytes = 2 * (m - 1) * words * 8;
  const double program_start = now_seconds();
  const double deadline =
      program_start + options.seconds + kWatchdogSlackSeconds;
  Outcome outcome;

  Calibration calibration;
  if (options.traced) {
    calibration = calibrate_loopback(
        marsit::word_segment(words, m, 0).count * 8, deadline);
    if (!calibration.ok) {
      outcome.fail("loopback calibration failed");
    }
  }
  const marsit::dist::WorkerConfig config =
      worker_config(workload, seeds, calibration.cost);

  // Every launch is timed from bind to the last READY; the last
  // workload.launches launches also train, for an equal share of the
  // measured seconds each.
  std::vector<double> setup;
  Totals totals;
  bool ranks_ok = true;
  std::vector<std::vector<std::uint8_t>> messages;
  const RankBody body = [&](std::size_t rank, std::vector<int> fds,
                            int in_fd, int out_fd) {
    return training_rank(workload, seeds, config, rank, std::move(fds), in_fd,
                         out_fd);
  };
  const std::size_t first_training = kSetupLaunches - workload.launches;
  for (std::size_t launch = 0; launch < kSetupLaunches && ranks_ok;
       ++launch) {
    RankGroup group;
    const double start = now_seconds();
    ranks_ok = launch_ranks(m, body, group) &&
               collect(group, kMsgReady, deadline, messages);
    setup.push_back(now_seconds() - start);
    if (ranks_ok && launch >= first_training) {
      ranks_ok = run_launch(group, workload, options.traced,
                            options.seconds /
                                static_cast<double>(workload.launches),
                            expected_one_bit_bytes, deadline, totals,
                            outcome);
    }
    ranks_ok = reap_ranks(group, deadline) && ranks_ok;
  }
  if (!ranks_ok) {
    outcome.fail("a rank failed, hung or broke its pipe");
    outcome.attempted = std::max<std::uint64_t>(outcome.attempted,
                                                workload.episode_rounds);
  }

  // The oracle: the same config through the in-process simulator.
  const TrainerRun oracle =
      run_trainer(workload, seeds, calibration.cost, workload.episode_rounds,
                  nullptr);
  std::uint64_t reference = oracle.digest;
  if (options.inject_digest_mismatch) {
    reference ^= 1;
  }
  for (const std::uint64_t digest : totals.digests) {
    if (digest != reference) {
      outcome.fail("rank digest differs from the simulator's");
      break;
    }
  }

  const double rounds_per_rank = static_cast<double>(
      std::max<std::size_t>(1, totals.rank_rounds));
  std::vector<double> untraced_ms;
  if (!options.traced) {
    std::vector<double> p50;
    std::vector<double> p90;
    std::vector<double> flush;
    std::vector<double> rate;
    std::size_t flush_rounds = 0;
    std::size_t episodes = 0;
    for (const LaunchSamples& launch : totals.launches) {
      p50.push_back(percentile(launch.one_bit_ms, 0.5));
      p90.push_back(percentile(launch.one_bit_ms, 0.9));
      flush.push_back(median(launch.flush_ms));
      rate.push_back(static_cast<double>(m * workload.batch * launch.rounds) /
                     std::max(launch.train_seconds, 1e-9));
      std::printf("launch %zu: round_ms p50 %.4f p90 %.4f, flush_ms p50 "
                  "%.4f, samples/s %.1f\n",
                  p50.size() - 1, p50.back(), p90.back(), flush.back(),
                  rate.back());
      untraced_ms.insert(untraced_ms.end(), launch.one_bit_ms.begin(),
                         launch.one_bit_ms.end());
      flush_rounds += launch.flush_ms.size();
      episodes += launch.episodes;
    }
    outcome.add("round_ms_p50", median(p50), "ms");
    outcome.add("round_ms_p90", median(p90), "ms");
    outcome.add("flush_round_ms_p50", median(flush), "ms");
    outcome.add("samples_per_s", median(rate), "1/s");
    outcome.add("setup_s", median(setup), "s");
    outcome.count("training launches", totals.launches.size());
    outcome.count("episodes", episodes);
    outcome.count("one-bit rounds", untraced_ms.size());
    outcome.count("flush rounds", flush_rounds);
    outcome.count("set-ups", setup.size());
    return outcome;
  }
  for (const LaunchSamples& launch : totals.launches) {
    untraced_ms.insert(untraced_ms.end(), launch.one_bit_ms.begin(),
                       launch.one_bit_ms.end());
  }

  const LayerTimes layers = time_layers(workload, seeds);
  const FrameCodecTimes codec = time_frame_codec(totals.frames_by_size);
  const SyncSplit sync = split_sync_calls(oracle.calls);
  const double round_s = std::max(totals.traced_round_s, 1e-12);
  const double comm_p50 = median(totals.comm_ms);
  const double predicted = median(totals.predicted_ms);
  const double fwd_bwd_s = 1e-3 * (layers.forward_ms + layers.backward_ms);
  outcome.add("net.send_us_p50", percentile(totals.send_us, 0.5), "us");
  outcome.add("net.send_us_p90", percentile(totals.send_us, 0.9), "us");
  outcome.add("net.send_share", totals.traced_send_s / round_s, "ratio");
  outcome.add("net.recv_wait_us_p50", median(totals.recv_us), "us");
  outcome.add("net.recv_share", totals.traced_recv_s / round_s, "ratio");
  outcome.add("net.frames_per_round",
              static_cast<double>(totals.frames) / rounds_per_rank, "count");
  outcome.add("net.payload_bytes_per_round",
              static_cast<double>(totals.payload_bytes) / rounds_per_rank,
              "bytes");
  outcome.add("net.frame_encode_us", codec.encode_us, "us");
  outcome.add("net.frame_decode_us", codec.decode_us, "us");
  outcome.add("net.alpha_us", 1e6 * calibration.cost.link_alpha, "us");
  outcome.add("net.bandwidth_gbps",
              8e-9 * calibration.cost.link_bandwidth, "Gbit/s");
  outcome.add("compress.pack_ms", layers.pack_ms, "ms");
  outcome.add("compress.unpack_ms", layers.unpack_ms, "ms");
  outcome.add("core.combine_ms", layers.combine_ms, "ms");
  outcome.add("core.segmented_fold_ms", layers.segmented_fold_ms, "ms");
  outcome.add("nn.forward_ms", layers.forward_ms, "ms");
  outcome.add("nn.backward_ms", layers.backward_ms, "ms");
  outcome.add("dist.comm_ms_p50", comm_p50, "ms");
  outcome.add("dist.compute_ms_p50", median(totals.compute_ms), "ms");
  outcome.add("sim.sync_ms_p50", median(sync.sync_ms), "ms");
  outcome.add("sim.compute_ms_p50", median(sync.compute_ms), "ms");
  outcome.add("dist.predicted_comm_ms", predicted, "ms");
  outcome.add("dist.measured_over_predicted",
              predicted > 0.0 ? comm_p50 / predicted : 0.0, "ratio");
  const double untraced = median(untraced_ms);
  outcome.add("trace.overhead_pct",
              untraced > 0.0
                  ? 100.0 * (median(totals.traced_one_bit_ms) / untraced - 1.0)
                  : 0.0,
              "%");
  // Round time covered neither by the comm phase (which holds the send and
  // recv spans) nor by the side-loop forward+backward estimate.
  outcome.add("trace.unattributed_share",
              (totals.traced_round_s - totals.traced_comm_s -
               static_cast<double>(totals.traced_rank_rounds) * fwd_bwd_s) /
                  round_s,
              "ratio");
  outcome.count("traced one-bit rounds", totals.traced_one_bit_ms.size());
  outcome.count("untraced one-bit rounds", untraced_ms.size());
  outcome.count("send spans", totals.send_us.size());
  outcome.count("recv spans", totals.recv_us.size());
  if (!options.trace_dir.empty() && !totals.timeline.empty()) {
    write_timeline(options.trace_dir + "/" + workload.name + ".trace.json",
                   totals.timeline);
  }
  return outcome;
}

}  // namespace perfbench
