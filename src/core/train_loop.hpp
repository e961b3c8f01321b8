// The fault-tolerant loop both GCN trainers run, over epochs
// (try_train_distributed_gcn) or optimizer steps (try_train_sampled_gcn),
// and the replica set they share.  A trainer supplies run_chunk and
// on_ranks_lost; the loop owns option checks, resume on entry, checkpoints,
// retries and restores.  With fault tolerance off it is one
// run_chunk(0, total) and no checkpoint I/O.  DESIGN.md §2 has the key
// layout and why restoring the dropout engines keeps recovery bit-identical.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/distributed_gcn.hpp"  // GcnFaultOptions
#include "ddp/grad_sync.hpp"
#include "nn/optim.hpp"

namespace sagesim::core {

/// k Gcn replicas with momentum Sgd, broadcast-equivalent init, and a
/// GradientSynchronizer when k > 1.
struct GcnReplicas {
  std::vector<std::unique_ptr<nn::Gcn>> models;
  std::vector<std::unique_ptr<nn::Sgd>> optimizers;
  std::unique_ptr<ddp::GradientSynchronizer> sync;  ///< null when k == 1
  /// Replica r trains on rank rank_of_part[r]; identity until a remap.
  std::vector<int> rank_of_part;

  std::size_t size() const { return models.size(); }
  /// Replica r's backward hook: DDP buckets fire on the comm streams while
  /// the rest of backward runs.  Empty (a plain backward) when k == 1.
  nn::ParamReadyHook grad_ready_hook(std::size_t r) const;
};

/// One replica per entry of @p adjacency (its initial graph operator).
GcnReplicas make_gcn_replicas(
    gpu::DeviceManager& devices,
    const std::vector<const graph::NormalizedAdjacency*>& adjacency,
    const nn::Gcn::Config& config, float learning_rate,
    std::size_t bucket_bytes, bool overlap);

/// Moves @p model's parameters and gradients to @p dev (accounted H2D);
/// tensors already there are left alone.
Status place_replica(nn::Gcn& model, gpu::Device& dev);

/// Throws std::invalid_argument ("<who>: ...") for enabled fault tolerance
/// without a checkpoint_dir or with a cadence or attempt count below 1.
void validate_fault_options(const GcnFaultOptions& fault, const char* who);

struct TrainLoopCounts {
  std::size_t chunk_restarts{0};
  std::size_t checkpoints_written{0};
  std::size_t checkpoints_restored{0};  ///< includes the resume on entry
};

struct TrainLoop {
  const GcnFaultOptions& fault;
  const char* who;  ///< prefix of the loop's error messages
  dflow::Cluster& cluster;
  GcnReplicas& replicas;
  std::vector<double>& losses;  ///< one entry per completed unit
  /// Trains units [begin, end) and appends their losses, on a quiescent
  /// cluster.  After a restore the parameters are host tensors to re-place.
  std::function<Status(std::size_t begin, std::size_t end)> run_chunk;
  /// After a retryable failure that left a rank of replicas.rank_of_part
  /// unavailable; @p survivors is Cluster::active_ranks().
  std::function<Status(const std::vector<int>& survivors)> on_ranks_lost;

  /// Trains units [0, total).
  Expected<TrainLoopCounts> run(std::size_t total) const;
};

}  // namespace sagesim::core
