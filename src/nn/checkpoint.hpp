// Epoch-granular training checkpoints: the durable half of the fault model.
//
// A Checkpoint is a named bag of tensors (parameters, optimizer state),
// blobs (serialized RNG engines — dropout streams must resume exactly for
// bit-identical restarts) and scalars, stamped with the epoch it was taken
// *after*.  The on-disk format is a small self-describing binary record:
//
//   magic "SGSMCKPT" | u32 version | u64 epoch | u64 payload_bytes
//   | u64 fnv1a64(payload) | payload
//
// save_checkpoint writes to "<path>.tmp" and renames into place, so a
// preemption mid-write leaves either the previous complete file or a stray
// tmp — never a torn checkpoint under the final name.  load_checkpoint
// classifies truncation/corruption as kDataLoss; load_latest_checkpoint
// scans a directory and falls back to the newest *loadable* file, which is
// exactly the recovery path the fault-matrix test exercises by truncating
// the newest file on purpose.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "mem/buffer.hpp"
#include "runtime/status.hpp"
#include "tensor/tensor.hpp"

namespace sagesim::nn {

struct Param;
class Optimizer;

/// Where a checkpointed tensor lived at save time, so restore can put it
/// back (format v2; v1 files load with host placement for everything).
struct TensorPlacement {
  mem::Placement placement{mem::Placement::kHost};
  std::int32_t device{-1};  ///< device ordinal, -1 for host
};

struct Checkpoint {
  std::uint64_t epoch{0};  ///< completed epochs at save time
  std::map<std::string, tensor::Tensor> tensors;
  std::map<std::string, TensorPlacement> placements;
  std::map<std::string, std::string> blobs;
  std::map<std::string, double> scalars;

  /// The blessed snapshot path: records @p t's placement and stores an
  /// explicit host copy (accounted D2H when @p t is device-resident) —
  /// checkpoints never silently read device memory.
  void put(const std::string& name, const tensor::Tensor& t);

  /// Placement recorded for @p name (host when absent, e.g. v1 files).
  TensorPlacement placement_of(const std::string& name) const;
};

/// Atomic save (tmp + rename).  I/O failures come back as kInternal.
Status save_checkpoint(const std::string& path, const Checkpoint& ckpt);

/// Loads one checkpoint file.  A missing file is kUnavailable (retryable —
/// an older checkpoint may exist); a short, corrupt or checksum-failing
/// file is kDataLoss.
Expected<Checkpoint> load_checkpoint(const std::string& path);

/// "<dir>/<prefix>_epoch<N>.ckpt" — the naming scheme the scan understands.
std::string checkpoint_path(const std::string& dir, const std::string& prefix,
                            std::uint64_t epoch);

/// Loads the newest loadable "<prefix>_epoch*.ckpt" under @p dir, skipping
/// corrupt files (newest-first).  kUnavailable when none loads.
Expected<Checkpoint> load_latest_checkpoint(const std::string& dir,
                                            const std::string& prefix);

/// mt19937_64 engine state round-trip for Checkpoint::blobs.
std::string serialize_engine(const std::mt19937_64& engine);
Status deserialize_engine(const std::string& blob, std::mt19937_64& engine);

// --- training state: the codec every trainer checkpoints through ---------
//
// A replica's state sits under a key prefix ("" in the GCN trainers,
// "r<rank>." in ddp::DataParallelTrainer): <prefix>param<i>, <prefix>opt<s>
// in Optimizer::state() order, <prefix>opt_n and <prefix>opt_t.  The GCN
// trainers add rng<r> blobs and loss.<i> scalars.  A loaded checkpoint is
// outside input, so every take_* validates everything before it writes.

/// Scalar @p key as an exact integer in [0, 2^53]: kFailedPrecondition when
/// missing, non-finite, fractional or out of range, checked before any cast.
Expected<std::uint64_t> scalar_count(const Checkpoint& ckpt,
                                     const std::string& key);

void put_replica_state(Checkpoint& ckpt, const std::string& prefix,
                       std::span<Param* const> params, const Optimizer& opt);

/// Restores @p params (as host tensors) and @p opt.  Each param<i> must
/// have its parameter's shape, opt_n must be 0 or
/// opt.state_per_param() * P, opt<s> must have the shape of parameter
/// s mod P, and opt_n/opt_t must pass scalar_count; otherwise
/// kFailedPrecondition, with nothing written.
Status take_replica_state(const Checkpoint& ckpt, const std::string& prefix,
                          std::span<Param* const> params, Optimizer& opt);

void put_rng(Checkpoint& ckpt, std::size_t replica,
             const std::mt19937_64& engine);
Status take_rng(const Checkpoint& ckpt, std::size_t replica,
                std::mt19937_64& engine);

void put_losses(Checkpoint& ckpt, const std::vector<double>& losses);
/// Reads ckpt.epoch entries; kFailedPrecondition when one is missing.
Status take_losses(const Checkpoint& ckpt, std::vector<double>& losses);

}  // namespace sagesim::nn
