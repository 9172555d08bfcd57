// Versioned run-state checkpoints over the snapshot primitives.
//
// A checkpoint captures the complete state of a training run at a round
// boundary — everything needed to resume bit-identically (DESIGN.md §11):
//
//   meta       round counter, shape (param/worker counts), the three root
//              seeds (trainer / strategy / fault plan) and the strategy
//              name.  The seeds double as the RNG stream positions: every
//              stream in marsit is keyed by (seed, round, entity), so
//              (seeds, round) IS the cursor of every stream, including the
//              FaultPlan's membership and link-fault draws.
//   params     the model parameters: the one vector every worker views
//              (the MAR invariant keeps the workers' models identical).
//   optimizer  per-worker local-optimizer state (momentum velocity, Adam
//              moments + step), written by LocalOptimizer::save_state.
//   strategy   cross-round strategy state (the round counter, Marsit
//              compensation, EF residuals), written by
//              SyncStrategy::save_state.
//   trainer    cumulative accounting (simulated seconds, wire bits, phase
//              totals, fault/rejoin counters, evaluation history, η_l).
//
// The optimizer/strategy/trainer sections are opaque byte blobs here: their
// layouts belong to the layers that own the state, and this module only
// guarantees framing, versioning, and integrity.  Restore sites must reject
// a checkpoint whose meta does not match the live run (see the always-on
// checks in DistributedTrainer plus validate::snapshot_header under
// MARSIT_VALIDATE).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace marsit::ckpt {

/// Current checkpoint format version.  Bump on any layout change; readers
/// reject versions they do not understand rather than guessing.
inline constexpr std::uint32_t kFormatVersion = 1;

struct CheckpointMeta {
  /// Rounds completed when the snapshot was taken == the next round index
  /// to run on resume.
  std::uint64_t round = 0;
  std::uint64_t param_count = 0;
  std::uint64_t num_workers = 0;
  std::uint64_t trainer_seed = 0;
  std::uint64_t strategy_seed = 0;
  /// FaultPlan root seed; with `round` this is the fault cursor (the plan's
  /// draws are pure functions of (seed, round, entity)).
  std::uint64_t fault_seed = 0;
  std::string strategy_name;
};

struct Checkpoint {
  CheckpointMeta meta;
  std::vector<float> params;
  std::vector<std::uint8_t> optimizer_state;
  std::vector<std::uint8_t> strategy_state;
  std::vector<std::uint8_t> trainer_state;
  /// Format version the file on disk carried (set by load_checkpoint;
  /// kFormatVersion when assembled in-process).
  std::uint32_t version = kFormatVersion;
  /// Payload integrity digest of the file on disk (set by load_checkpoint).
  std::uint64_t payload_digest = 0;
};

/// Serializes and writes `checkpoint` to `path` (atomic overwrite of the
/// final bytes; the payload digest is computed here).
void save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Reads, integrity-checks (magic / version / truncation / digest) and
/// parses a checkpoint.  Throws CheckError on any violation.
Checkpoint load_checkpoint(const std::string& path);

/// Expands every "{round}" in a checkpoint path template to the round
/// number, so a cadenced writer can either overwrite one file (no
/// placeholder) or keep a per-round history (including round-numbered
/// directories like "{round}/ckpt-{round}.bin").
std::string expand_checkpoint_path(const std::string& path_template,
                                   std::uint64_t round);

}  // namespace marsit::ckpt
