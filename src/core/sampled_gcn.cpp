#include "core/sampled_gcn.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/train_loop.hpp"
#include "graph/prefetch.hpp"
#include "graph/sampler.hpp"
#include "mem/pool.hpp"
#include "nn/gcn.hpp"
#include "nn/loss.hpp"
#include "prof/report.hpp"
#include "runtime/scheduler.hpp"
#include "tensor/ops.hpp"

namespace sagesim::core {

Expected<SampledGcnResult> try_train_sampled_gcn(
    const graph::OocGraphMeta& meta, const graph::OocFeatureSpec& features,
    dflow::Cluster& cluster, const SampledGcnConfig& config) {
  constexpr const char* kWho = "train_sampled_gcn";
  const int k = config.num_ranks;
  if (k < 1)
    throw std::invalid_argument("train_sampled_gcn: num_ranks must be >= 1");
  if (k > cluster.world_size())
    throw std::invalid_argument(
        "train_sampled_gcn: more ranks than cluster workers");
  if (config.epochs < 1)
    throw std::invalid_argument("train_sampled_gcn: epochs must be >= 1");
  if (config.batch_size == 0)
    throw std::invalid_argument("train_sampled_gcn: batch_size must be >= 1");
  if (config.grad_accum_steps == 0)
    throw std::invalid_argument(
        "train_sampled_gcn: grad_accum_steps must be >= 1");
  if (config.prefetch_depth == 0)
    throw std::invalid_argument(
        "train_sampled_gcn: prefetch_depth must be >= 1");
  validate_fault_options(config.fault, kWho);

  auto& devices = cluster.devices();
  const double sim_t0 = devices.now_s();
  // Start the high-water mark at current residency, so the reported peak
  // measures what *this run* added (shards, batches, activations).
  mem::reset_process_peak_resident_bytes();

  Expected<graph::ShardStore> opened =
      graph::ShardStore::open(meta, config.max_resident_shards);
  if (!opened) return opened.status();
  graph::ShardStore store = std::move(*opened);

  // --- Rank node ranges: streaming degree-balanced partition. --------------
  const auto ranges = graph::degree_balanced_ranges(store.degrees(), k);

  const std::size_t accum = config.grad_accum_steps;
  std::size_t micro_per_epoch = SIZE_MAX;
  for (const auto& [begin, end] : ranges)
    micro_per_epoch = std::min(
        micro_per_epoch, graph::batches_per_epoch(begin, end,
                                                  config.batch_size));
  std::size_t steps_per_epoch = micro_per_epoch / accum;
  if (config.max_steps_per_epoch != 0)
    steps_per_epoch = std::min(steps_per_epoch, config.max_steps_per_epoch);
  if (steps_per_epoch == 0)
    throw std::invalid_argument(
        "train_sampled_gcn: batch_size * grad_accum_steps exceeds the "
        "smallest rank's node range");
  const std::size_t bpe = steps_per_epoch * accum;  // micro-batches / epoch
  const std::size_t total_steps =
      static_cast<std::size_t>(config.epochs) * steps_per_epoch;

  // --- Replicas, optimizers, DDP synchronizer (broadcast-equivalent init).
  nn::Gcn::Config model_cfg;
  model_cfg.in_features = features.dim;
  model_cfg.hidden = config.hidden;
  model_cfg.num_classes = static_cast<std::size_t>(features.num_classes);
  model_cfg.dropout = config.dropout;
  model_cfg.seed = config.seed;

  // Replicas need *some* operator at construction; every forward installs
  // the current mini-batch's adjacency first.
  const graph::CsrGraph placeholder_graph = graph::CsrGraph::from_edges(1, {});
  const graph::NormalizedAdjacency placeholder =
      graph::normalized_adjacency(placeholder_graph);

  GcnReplicas set = make_gcn_replicas(
      devices,
      std::vector<const graph::NormalizedAdjacency*>(
          static_cast<std::size_t>(k), &placeholder),
      model_cfg, config.learning_rate, config.ddp_bucket_bytes,
      config.ddp_overlap);

  auto place_params = [&]() -> Status {
    for (std::size_t r = 0; r < set.size(); ++r) {
      const Status s = place_replica(
          *set.models[r],
          devices.device(static_cast<std::size_t>(set.rank_of_part[r])));
      if (!s.ok()) return s;
    }
    return {};
  };
  if (const Status s = place_params(); !s.ok()) return s;

  // --- Samplers and prefetch pipelines. ------------------------------------
  // Per-rank seed streams are disjoint (mix64 over the rank) and the store
  // is shared: one LRU cache, one resident bound, concurrent pins.
  std::vector<graph::NeighborSampler> samplers;
  samplers.reserve(static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r)
    samplers.emplace_back(
        store, features,
        graph::SamplerConfig{
            config.fanouts,
            graph::mix64(config.seed, static_cast<std::uint64_t>(r))});

  // Staging runs on its own small pool: lookahead tasks must keep making
  // progress while every cluster lane is occupied by a pinned training task
  // blocked on its pipeline head — sharing the cluster's scheduler would
  // deadlock exactly there.
  runtime::Scheduler stage_pool(
      static_cast<unsigned>(std::max(2, k)));

  std::vector<std::unique_ptr<graph::PrefetchPipeline>> pipelines(
      static_cast<std::size_t>(k));
  auto rebuild_pipelines = [&](std::size_t start_step) {
    for (std::size_t r = 0; r < pipelines.size(); ++r) {
      pipelines[r].reset();  // drain any in-flight lookahead first
      const auto [begin, end] = ranges[r];
      const std::uint64_t rank_seed =
          graph::mix64(config.seed, static_cast<std::uint64_t>(r));
      pipelines[r] = std::make_unique<graph::PrefetchPipeline>(
          samplers[r],
          [begin, end, rank_seed, bs = config.batch_size](
              std::uint64_t epoch, std::uint64_t index) {
            return graph::schedule_seeds(begin, end, bs, rank_seed, epoch,
                                         index);
          },
          static_cast<std::uint64_t>(config.epochs), bpe, start_step * accum,
          &devices.device(static_cast<std::size_t>(set.rank_of_part[r])),
          stage_pool,
          graph::PrefetchOptions{.depth = config.prefetch_depth,
                                 .enabled = config.prefetch});
    }
  };

  SampledGcnResult result;
  std::vector<std::size_t> rank_batches(static_cast<std::size_t>(k), 0);
  std::vector<graph::EdgeIdx> rank_edges(static_cast<std::size_t>(k), 0);
  std::vector<std::size_t> rank_h2d(static_cast<std::size_t>(k), 0);

  // --- One optimizer step: per-rank accumulate -> all-reduce -> update. ----
  auto run_chunk = [&](std::size_t s0, std::size_t s1) -> Status {
    // Restored parameters come back as host tensors and a remap moves
    // ranks; a failed attempt consumed pipeline batches.  Re-place, then
    // re-enter the batch schedule at the chunk's first batch.
    if (const Status ps = place_params(); !ps.ok()) return ps;
    rebuild_pipelines(s0);
    if (set.sync) set.sync->reset_pending();
    for (std::size_t s = s0; s < s1; ++s) {
      std::vector<dflow::Future> grads;
      grads.reserve(static_cast<std::size_t>(k));
      for (int r = 0; r < k; ++r) {
        grads.push_back(cluster.submit(
            "sampled_gcn_step:" + std::to_string(r),
            [&, r](dflow::WorkerCtx& ctx) -> std::any {
              const auto ri = static_cast<std::size_t>(r);
              auto& model = *set.models[ri];
              model.zero_grad();
              double loss_sum = 0.0;
              for (std::size_t a = 0; a < accum; ++a) {
                Expected<graph::StagedBatch> next = pipelines[ri]->next();
                next.status().throw_if_error();
                graph::StagedBatch staged = std::move(*next);
                // Fence: compute (stream 0) waits for this batch's staged
                // copies on the transfer stream before touching them.
                if (config.prefetch && staged.on_device &&
                    ctx.device != nullptr)
                  ctx.device->wait_event(0, staged.ready);
                model.set_adjacency(&staged.batch.adj);
                tensor::Tensor logits = model.forward(
                    ctx.device, staged.batch.features, /*train=*/true);
                auto loss = nn::masked_softmax_cross_entropy(
                    ctx.device, logits, staged.batch.labels,
                    staged.batch.seed_rows);
                loss_sum += loss.loss;
                if (accum > 1)
                  // Every micro-batch masks the same number of seed rows, so
                  // the accumulated gradient is the uniform mean.
                  tensor::ops::scale(ctx.device, loss.dlogits,
                                     1.0f / static_cast<float>(accum));
                // Sync hooks fire only on the final micro-batch: earlier
                // backwards accumulate locally instead of triggering a
                // partial all-reduce.
                model.backward(ctx.device, loss.dlogits,
                               a + 1 == accum ? set.grad_ready_hook(ri)
                                              : nn::ParamReadyHook{});
                model.set_adjacency(&placeholder);
                ++rank_batches[ri];
                rank_edges[ri] += staged.batch.sampled_edges;
                rank_h2d[ri] += staged.batch.h2d_bytes();
              }
              return loss_sum / static_cast<double>(accum);
            },
            {}, set.rank_of_part[static_cast<std::size_t>(r)]));
      }

      dflow::Future reduced = cluster.submit(
          "sampled_allreduce",
          [&](dflow::WorkerCtx&) -> std::any {
            if (set.sync) set.sync->sync();
            return {};
          },
          grads, /*rank=*/-1);

      std::vector<dflow::Future> updates;
      updates.reserve(static_cast<std::size_t>(k));
      for (int r = 0; r < k; ++r) {
        updates.push_back(cluster.submit(
            "sampled_optim:" + std::to_string(r),
            [&, r](dflow::WorkerCtx& ctx) -> std::any {
              const auto ri = static_cast<std::size_t>(r);
              auto params = set.models[ri]->params();
              set.optimizers[ri]->step(ctx.device, params);
              return {};
            },
            {reduced}, set.rank_of_part[static_cast<std::size_t>(r)]));
      }

      Status first{};
      for (const auto& f : updates) {
        const Status st = f.wait_status();
        if (!st.ok() && first.ok()) first = st;
      }
      if (!first.ok()) return first;

      double step_loss = 0.0;
      for (const auto& f : grads) {
        Expected<double> v = f.result<double>();
        if (!v) return v.status();
        step_loss += *v;
      }
      result.step_losses.push_back(step_loss / static_cast<double>(k));
    }
    return {};
  };

  // Ranks reclaimed for good: remap every training range onto the survivors
  // (ranges are storage-free, so a remap moves parameters, not graph data).
  // Fewer survivors than ranks is fatal — sampled ranges are never
  // re-partitioned.
  auto on_ranks_lost = [&](const std::vector<int>& survivors) -> Status {
    if (static_cast<int>(survivors.size()) < k)
      return Status::unavailable("train_sampled_gcn: only " +
                                 std::to_string(survivors.size()) + " of " +
                                 std::to_string(k) + " ranks available");
    set.rank_of_part.assign(survivors.begin(), survivors.begin() + k);
    return {};
  };

  const Expected<TrainLoopCounts> counts =
      TrainLoop{.fault = config.fault,
                .who = kWho,
                .cluster = cluster,
                .replicas = set,
                .losses = result.step_losses,
                .run_chunk = run_chunk,
                .on_ranks_lost = on_ranks_lost}
          .run(total_steps);
  // Drain lookahead before reading any counter the staging tasks touch.
  for (auto& p : pipelines) p.reset();
  if (!counts) return counts.status();
  result.chunk_restarts = counts->chunk_restarts;
  result.checkpoints_written = counts->checkpoints_written;
  result.checkpoints_restored = counts->checkpoints_restored;

  result.train_sim_seconds = devices.now_s() - sim_t0;
  for (int r = 0; r < k; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    result.batches += rank_batches[ri];
    result.sampled_edges += rank_edges[ri];
    result.h2d_bytes += rank_h2d[ri];
  }
  const graph::ShardStoreStats st = store.stats();
  result.shard_loads = st.loads;
  result.shard_evictions = st.evictions;
  result.peak_resident_bytes = mem::process_peak_resident_bytes();

  std::vector<int> used = set.rank_of_part;
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  double h2d_s = 0.0;
  double hidden_s = 0.0;
  for (const int rank : used) {
    const prof::TransferOverlap ov =
        prof::transfer_overlap(devices.timeline(), rank);
    h2d_s += ov.h2d_s;
    hidden_s += ov.hidden_s;
  }
  result.h2d_hidden_frac = h2d_s > 0.0 ? hidden_s / h2d_s : 0.0;

  // The trained model leaves the cluster (accounted D2H), then one fixed
  // eval batch — dropout off, no RNG advance — gives a deterministic
  // held-out loss.
  nn::Gcn& model0 = *set.models[0];
  for (nn::Param* p : model0.params()) {
    const Status s = p->value.to_host();
    if (!s.ok()) return s;
  }
  const std::vector<graph::NodeId> eval_seeds = graph::schedule_seeds(
      ranges[0].first, ranges[0].second, config.batch_size,
      graph::mix64(config.seed, 0), static_cast<std::uint64_t>(config.epochs),
      0);
  Expected<graph::MiniBatch> eval_batch = samplers[0].sample(
      static_cast<std::uint64_t>(config.epochs), 0, eval_seeds);
  if (!eval_batch) return eval_batch.status();
  model0.set_adjacency(&eval_batch->adj);
  const tensor::Tensor logits = model0.forward(
      &devices.device(0), eval_batch->features, /*train=*/false);
  result.eval_loss = nn::masked_softmax_cross_entropy(
                         &devices.device(0), logits, eval_batch->labels,
                         eval_batch->seed_rows)
                         .loss;
  model0.set_adjacency(&placeholder);

  result.final_world = k;
  return result;
}

}  // namespace sagesim::core
