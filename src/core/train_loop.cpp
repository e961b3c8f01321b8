#include "core/train_loop.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/checkpoint.hpp"

namespace sagesim::core {

GcnReplicas make_gcn_replicas(
    gpu::DeviceManager& devices,
    const std::vector<const graph::NormalizedAdjacency*>& adjacency,
    const nn::Gcn::Config& config, float learning_rate,
    std::size_t bucket_bytes, bool overlap) {
  GcnReplicas set;
  const int k = static_cast<int>(adjacency.size());
  for (int r = 0; r < k; ++r) {
    set.models.push_back(std::make_unique<nn::Gcn>(
        adjacency[static_cast<std::size_t>(r)], config));
    set.optimizers.push_back(std::make_unique<nn::Sgd>(learning_rate, 0.9f));
    set.rank_of_part.push_back(r);
  }
  if (k > 1) {
    // Replicas share the init seed, so their parameters start identical;
    // the broadcast charges the wire cost of making them so.
    std::vector<std::vector<nn::Param*>> param_sets;
    param_sets.reserve(set.models.size());
    for (auto& m : set.models) param_sets.push_back(m->params());
    ddp::broadcast_params(devices, param_sets);
    set.sync = std::make_unique<ddp::GradientSynchronizer>(
        devices, param_sets,
        ddp::SyncOptions{.bucket_bytes = bucket_bytes, .overlap = overlap});
  }
  return set;
}

nn::ParamReadyHook GcnReplicas::grad_ready_hook(std::size_t r) const {
  if (!sync) return {};
  return [this, r](nn::Param* p) { sync->notify_grad_ready(r, p); };
}

Status place_replica(nn::Gcn& model, gpu::Device& dev) {
  for (nn::Param* p : model.params()) {
    Status s = p->value.to_device(dev);
    if (!s.ok()) return s;
    s = p->grad.to_device(dev);
    if (!s.ok()) return s;
  }
  return {};
}

void validate_fault_options(const GcnFaultOptions& fault, const char* who) {
  if (!fault.enabled) return;
  const std::string w(who);
  if (fault.checkpoint_dir.empty())
    throw std::invalid_argument(w +
                                ": fault tolerance needs a checkpoint_dir");
  if (fault.checkpoint_every < 1)
    throw std::invalid_argument(w + ": checkpoint_every must be >= 1");
  if (fault.max_chunk_attempts < 1)
    throw std::invalid_argument(w + ": max_chunk_attempts must be >= 1");
}

Expected<TrainLoopCounts> TrainLoop::run(std::size_t total) const {
  TrainLoopCounts counts;
  if (!fault.enabled) {
    const Status s = run_chunk(0, total);
    if (!s.ok()) return s;
    return counts;
  }
  const std::string& dir = fault.checkpoint_dir;
  const std::string& prefix = fault.checkpoint_prefix;

  auto save = [&](std::size_t unit) -> Status {
    nn::Checkpoint ckpt;
    ckpt.epoch = unit;
    ckpt.scalars["k"] = static_cast<double>(replicas.size());
    nn::put_replica_state(ckpt, "", replicas.models[0]->params(),
                          *replicas.optimizers[0]);
    for (std::size_t r = 0; r < replicas.size(); ++r)
      nn::put_rng(ckpt, r, replicas.models[r]->rng().engine());
    nn::put_losses(ckpt, losses);
    const Status s =
        nn::save_checkpoint(nn::checkpoint_path(dir, prefix, unit), ckpt);
    if (s.ok()) ++counts.checkpoints_written;
    return s;
  };

  // Rewinds to the newest checkpoint and returns its unit.  On entry
  // (@p resuming) a missing checkpoint or one from another k means a fresh
  // run: unit 0.  After a shrink the checkpoint predates the shard layout:
  // parameters and optimizer state carry over, the RNG engines do not
  // (bit-identity is abandoned, as GcnFaultOptions::allow_shrink says).
  // One past @p max_unit was not written by this run: another run left it
  // in the directory, and resuming from it would train the wrong units.
  auto restore_latest = [&](bool resuming,
                            std::size_t max_unit) -> Expected<std::size_t> {
    const Expected<nn::Checkpoint> ckpt =
        nn::load_latest_checkpoint(dir, prefix);
    if (!ckpt) {
      if (resuming) return std::size_t{0};
      return ckpt.status();
    }
    const Expected<std::uint64_t> k = nn::scalar_count(*ckpt, "k");
    if (!k) return k.status();
    const bool same_k = *k == replicas.size();
    if (resuming && !same_k) return std::size_t{0};
    if (ckpt->epoch > max_unit)
      return Status::failed_precondition(
          std::string(who) + ": checkpoint at unit " +
          std::to_string(ckpt->epoch) + " is past unit " +
          std::to_string(max_unit) + " of this run");
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      Status s = nn::take_replica_state(*ckpt, "", replicas.models[r]->params(),
                                        *replicas.optimizers[r]);
      if (s.ok() && same_k)
        s = nn::take_rng(*ckpt, r, replicas.models[r]->rng().engine());
      if (!s.ok()) return s;
    }
    if (const Status s = nn::take_losses(*ckpt, losses); !s.ok()) return s;
    ++counts.checkpoints_restored;
    return static_cast<std::size_t>(ckpt->epoch);
  };

  const Expected<std::size_t> resumed =
      restore_latest(/*resuming=*/true, total);
  if (!resumed) return resumed.status();
  std::size_t done = *resumed;
  // The unit-0 checkpoint makes a failure in the very first chunk recover
  // through the same path as any other.
  if (done == 0) {
    if (const Status s = save(0); !s.ok()) return s;
  }
  const auto every = static_cast<std::size_t>(fault.checkpoint_every);
  while (done < total) {
    Status failure;
    for (int attempt = 0;; ++attempt) {
      if (attempt == fault.max_chunk_attempts)
        return Status::unavailable(
            std::string(who) + ": chunk at unit " + std::to_string(done) +
            " failed after " + std::to_string(attempt) +
            " attempts: " + failure.message());
      const std::size_t end = std::min(done + every, total);
      failure = run_chunk(done, end);
      if (failure.ok()) {
        done = end;
        break;
      }
      if (!failure.retryable()) return failure;
      ++counts.chunk_restarts;
      if (std::any_of(replicas.rank_of_part.begin(),
                      replicas.rank_of_part.end(),
                      [&](int r) { return !cluster.rank_available(r); })) {
        const Status s = on_ranks_lost(cluster.active_ranks());
        if (!s.ok())
          return Status::error(s.code(),
                               s.message() + ": " + failure.message(),
                               s.retryable());
      }
      const Expected<std::size_t> back =
          restore_latest(/*resuming=*/false, done);
      if (!back) return back.status();
      done = *back;
    }
    if (const Status s = save(done); !s.ok()) return s;
  }
  return counts;
}

}  // namespace sagesim::core
