// The hop schedule — one description of every round's collective, read by
// three interpreters.
//
// A schedule is an ordered list of phases.  A phase is a set of chains on
// one tag stream; a chain is an ordered list of hops, and a hop moves the
// units [begin, begin + count) of one member's buffer to another node.
// Hop t of every chain in a phase forms the phase's step t.  A phase is
// one of two kinds:
//
//   fold  the receiver merges the arriving units into its own copy: with
//         Marsit's weighted ⊙ (core/one_bit.hpp) on a one-bit round, with a
//         float add on an all-reduce.  The hop names the segment seed id
//         and op index of its ⊙ generator
//         (segment_op_rng(segment_fold_seed(round_seed, seed_id), op)), the
//         weight each operand stands for, and which operand comes first —
//         ⊙ draws its Bernoulli mask for the first operand, so the order is
//         part of the result.  Ring and torus chains fold the arriving
//         partial first; the parameter server and the tree fold the
//         receiver's aggregate first.  A float chain's order fixes its
//         sum's association: ((x_s + x_{s+1}) + …) around a ring, rank
//         order at a server.
//   copy  the receiver overwrites its copy of the units (all-gathers and
//         broadcasts).
//
// hop_schedule() is the only generator.  A one-bit round's schedule is the
// paradigm's reduce-scatter and all-gather over the W-word sign plane; an
// all-reduce round's is the same hops over D elements: Marsit's flush,
// which both backends run as a float all-reduce, and the priced payload of
// every other method (floats, sign-sums):
//
//   ring   fold: segment s of word_segment(W, M, ·) starts at member s and
//          folds around the ring (seed id s, op k at member s+k+1);
//          copy: each finished segment circles the ring once.
//   torus  fold: row rings over word_segment(W, cols, ·) (seed id
//          row·cols + j), then column rings over the owned segment's
//          word_segment(·, rows, ·) sub-segments with whole-row weights
//          (seed id M + col·rows + i); copy: column rings, then row rings.
//          Members re-form by torus_rows_for, so a degraded torus is a
//          smaller torus or a ring.
//   PS     fold: every member pushes the whole plane to the server, which
//          folds them in rank order (seed id 0, op k for the k-th push);
//          copy: the server sends the aggregate to every member.  Priced on
//          the server NIC.  The `server` argument places it: at member 0
//          (PsServer::kMember0, which pushes nothing — what Marsit's folds
//          and the socket worker run), or on its own node `members`
//          (PsServer::kOwnNode — the paper's PS, which the baselines and
//          the figure benches price; such a schedule is priced, never run).
//   tree   fold: binomial stride-doubling merges into the lower member
//          (seed id 0, one op per merge); copy: the mirrored broadcast.
//
// Every schedule moves exactly 2(M−1)·units units; a PS on its own node
// moves 2M·units.
//
// The interpreters:
//
//   marsit_fold_signs_segmented, fold_float_schedule
//       (core/segmented_fold.hpp) fold in memory, each hop into its
//       receiver's buffer as on the wire: ⊙ chains as pool tasks, floats
//       window by window.
//   execute_hop_schedule  runs one member's side over a Transport.  In each
//       step it sends before it receives; round t's frames carry the tag
//       t << 2 | stream (stream < 4), so a reader can recover the round
//       from any frame.
//   price_hop_schedule  replays the hops on a NetworkSim: the α–β model of
//       every round, for every method, the trainer's and the worker's.
//
// Empty hops (count == 0, when W < M) send no frame and draw no rng; the
// pricer still lets the receiver wait for the sender, as a zero-byte hop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "collectives/timing.hpp"
#include "net/network_sim.hpp"
#include "net/transport.hpp"

namespace marsit {

/// Which synchronization fabric carries the update.  kTree is the paper's
/// claimed extension target ("easily extended to ... tree all-reduce"): the
/// weighted ⊙ operator folds binomial-tree merges exactly like torus ones.
enum class MarParadigm { kRing, kTorus2d, kParameterServer, kTree };

const char* mar_paradigm_name(MarParadigm paradigm);

/// Rows of the torus a `members`-rank round runs on, for a torus configured
/// with `torus_cols` columns: members / torus_cols when the members fill at
/// least two whole rows (at full membership, the configured shape), else 0
/// — the round re-forms as a ring.  The one degraded-torus rule:
/// hop_schedule follows it, so the fold, the executor and the pricer all
/// see the same shape.
std::size_t torus_rows_for(std::size_t torus_cols, std::size_t members);

/// One word-aligned segment of a reduce-scatter partition.
struct WordSegment {
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// Deterministic partition of `num_words` words into `parts` segments: the
/// first (num_words mod parts) segments get one extra word.  Segments may be
/// empty when num_words < parts; empty segments cost no wire bytes and no
/// rng.  Every backend derives ownership from this single function.
WordSegment word_segment(std::size_t num_words, std::size_t parts,
                         std::size_t index);

/// One transfer of a schedule.  The fold fields are unused on copy hops.
struct Hop {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::size_t begin = 0;
  std::size_t count = 0;
  std::size_t seed_id = 0;
  std::size_t op = 0;
  /// Contributions the arriving units and dst's own units stand for.
  std::size_t arriving_weight = 0;
  std::size_t resident_weight = 0;
  /// The arriving units are ⊙'s first operand (else dst's units are).
  bool arriving_first = false;
};

enum class HopKind { kFold, kCopy };

struct HopPhase {
  /// Trace span name ("reduce-scatter", "row all-gather", "push", …).
  const char* name = "";
  HopKind kind = HopKind::kCopy;
  /// Tag stream in [0, 4).
  std::uint32_t stream = 0;
  /// Hops touch the parameter server, priced at CostModel::server_bandwidth.
  bool server_nic = false;
  std::vector<std::vector<Hop>> chains;
};

struct HopSchedule {
  std::size_t members = 0;
  /// Nodes the hops touch: `members`, plus one for a PS on its own node.
  std::size_t nodes = 0;
  /// Units each member contributes, and the elements one unit carries.
  std::size_t units = 0;
  std::size_t unit_elements = 1;
  std::vector<HopPhase> phases;
};

/// kOneBit: Marsit's sign-word plane, 64 elements a unit.  kAllReduce: the
/// same reduce-scatter and all-gather over single elements — Marsit's float
/// flush, and the priced payload of the other methods.
enum class RoundKind { kOneBit, kAllReduce };

/// Where a parameter-server schedule puts its server.
enum class PsServer { kMember0, kOwnNode };

/// The schedule of a `kind` round over `members` members, each
/// contributing `units` units: W sign words of a one-bit round, D elements
/// of an all-reduce.  `server` matters only to a parameter server.
HopSchedule hop_schedule(RoundKind kind, MarParadigm paradigm,
                         std::size_t torus_cols, std::size_t members,
                         std::size_t units,
                         PsServer server = PsServer::kMember0);

/// Applies fold hop `hop` of the round seeded `round_seed` at its
/// receiver: `resident` becomes the ⊙ of `arriving` and `resident` in the
/// hop's operand order.
void fold_hop(const Hop& hop, std::uint64_t round_seed,
              std::span<const std::uint64_t> arriving,
              std::span<std::uint64_t> resident);

/// Runs member transport.rank()'s side of one-bit `schedule` for round
/// `round`.  `words` holds this member's sign plane on entry and the
/// aggregate on exit.  Returns the payload bytes this member sent.
double execute_hop_schedule(Transport& transport, const HopSchedule& schedule,
                            std::size_t round, std::uint64_t round_seed,
                            std::span<std::uint64_t> words);

/// The float fold of hop `hop` at its receiver: `resident` becomes the sum
/// of `arriving` and `resident` in the hop's operand order.
void fold_hop(const Hop& hop, std::span<const float> arriving,
              std::span<float> resident);

/// Runs member transport.rank()'s side of all-reduce `schedule` for round
/// `round`, folding floats.  `values` holds this member's contribution on
/// entry and the sum on exit.  Returns the payload bytes this member sent.
double execute_hop_schedule(Transport& transport, const HopSchedule& schedule,
                            std::size_t round, std::span<float> values);

/// Prices `schedule` on `net` (its fault plan included) in `wire`'s format.
///
/// A fold hop carries wire.reduce_bits(elements, arriving_weight) and a copy
/// hop wire.gather_bits(elements), where elements = count × unit_elements,
/// so sign-sums grow hop by hop.  A member's first send leaves once it has
/// packed that hop's elements, and every hop leaves once its sender holds
/// its units.  A fold hop's receiver is then busy for
/// wire.serial_seconds_per_element × elements (cascading's recompress, a
/// sign-sum add, the PS server's tally of each push), starting once the
/// arrival has landed and its earlier work is done.  The round completes
/// when the last node is ready and has unpacked the whole payload.
///
/// Compression seconds are member 0's.  Serial: the pack of its first send,
/// the serial work on the fold hops it receives, and the final unpack.
/// Overlapped: the rest of its pack and the overlapped work on those fold
/// hops.  With equal segments these are the closed forms of ring, torus, PS
/// and tree all-reduce.  Retransmitted bits and retries are the network's
/// delta over the call; under corruption every delivered message also
/// carries a CRC footer in total_wire_bits.  Emits one "phase" trace span
/// per HopPhase.
CollectiveTiming price_hop_schedule(const HopSchedule& schedule,
                                    const WireFormat& wire, NetworkSim& net);

}  // namespace marsit
