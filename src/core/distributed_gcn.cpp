#include "core/distributed_gcn.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/train_loop.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "prof/report.hpp"

namespace sagesim::core {

const char* to_string(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kMetis: return "metis";
    case PartitionStrategy::kRandom: return "random";
    case PartitionStrategy::kBlock: return "block";
  }
  return "?";
}

namespace {

/// Per-worker shard: local graph operator, features, labels, train rows.
struct Shard {
  graph::Subgraph sub;
  graph::NormalizedAdjacency adj;
  tensor::Tensor features;
  std::vector<int> labels;
  std::vector<std::uint32_t> train_rows;
};

Shard make_shard(const graph::Dataset& dataset,
                 const std::vector<graph::NodeId>& nodes) {
  Shard shard;
  shard.sub = graph::induced_subgraph(dataset.graph, nodes);
  shard.adj = graph::normalized_adjacency(shard.sub.graph);

  const std::size_t n = shard.sub.global_ids.size();
  const std::size_t d = dataset.features.cols();
  shard.features = tensor::Tensor(n, d);
  shard.labels.resize(n);
  std::unordered_map<graph::NodeId, std::uint32_t> local_of;
  for (std::uint32_t i = 0; i < n; ++i) {
    const graph::NodeId g = shard.sub.global_ids[i];
    std::copy(dataset.features.data() + g * d,
              dataset.features.data() + (g + 1) * d,
              shard.features.data() + i * d);
    shard.labels[i] = dataset.labels[g];
    local_of.emplace(g, i);
  }
  for (const graph::NodeId g : dataset.train_nodes) {
    auto it = local_of.find(g);
    if (it != local_of.end()) shard.train_rows.push_back(it->second);
  }
  return shard;
}

graph::Partition build_partition(const graph::Dataset& dataset,
                                 const DistributedGcnConfig& config, int k) {
  graph::Partition part;
  if (k == 1) {
    part.num_parts = 1;
    part.assignment.assign(dataset.graph.num_nodes(), 0);
    return part;
  }
  switch (config.strategy) {
    case PartitionStrategy::kMetis: {
      graph::MetisOptions opts;
      opts.seed = config.seed;
      part = graph::metis_like(dataset.graph, k, opts);
      break;
    }
    case PartitionStrategy::kRandom: {
      stats::Rng prng(config.seed);
      part = graph::random_partition(dataset.graph, k, prng);
      break;
    }
    case PartitionStrategy::kBlock:
      part = graph::block_partition(dataset.graph, k);
      break;
  }
  return part;
}

std::vector<Shard> build_shards(const graph::Dataset& dataset,
                                const graph::Partition& part, int k,
                                std::size_t& cut_edges_dropped) {
  const auto part_nodes = part.part_nodes();
  std::vector<Shard> shards;
  shards.reserve(static_cast<std::size_t>(k));
  cut_edges_dropped = 0;
  for (int p = 0; p < k; ++p) {
    if (part_nodes[static_cast<std::size_t>(p)].empty())
      throw std::runtime_error("train_distributed_gcn: empty partition " +
                               std::to_string(p));
    shards.push_back(
        make_shard(dataset, part_nodes[static_cast<std::size_t>(p)]));
    cut_edges_dropped += shards.back().sub.cut_edges_dropped;
    if (shards.back().train_rows.empty())
      throw std::runtime_error(
          "train_distributed_gcn: partition without train nodes");
  }
  return shards;
}

}  // namespace

Expected<DistributedGcnResult> try_train_distributed_gcn(
    const graph::Dataset& dataset, dflow::Cluster& cluster,
    const DistributedGcnConfig& config) {
  constexpr const char* kWho = "train_distributed_gcn";
  const int k = config.num_partitions;
  if (k < 1)
    throw std::invalid_argument("train_distributed_gcn: k must be >= 1");
  if (k > cluster.world_size())
    throw std::invalid_argument(
        "train_distributed_gcn: more partitions than cluster workers");
  if (config.epochs < 1)
    throw std::invalid_argument("train_distributed_gcn: epochs must be >= 1");
  validate_fault_options(config.fault, kWho);

  auto& devices = cluster.devices();
  const double sim_t0 = devices.now_s();

  // --- Algorithm 1, lines 2-3: Â and the k-way partition. ------------------
  graph::Partition part = build_partition(dataset, config, k);

  DistributedGcnResult result;
  result.partition = graph::evaluate_partition(dataset.graph, part);

  // --- Lines 5-6: build and distribute shards. -----------------------------
  std::vector<Shard> shards =
      build_shards(dataset, part, k, result.cut_edges_dropped);

  // --- Lines 7-8: global model, broadcast θ. -------------------------------
  nn::Gcn::Config model_cfg;
  model_cfg.in_features = dataset.features.cols();
  model_cfg.hidden = config.hidden;
  model_cfg.num_classes = static_cast<std::size_t>(dataset.num_classes);
  model_cfg.dropout = config.dropout;
  model_cfg.seed = config.seed;

  auto build_replicas = [&]() {
    std::vector<const graph::NormalizedAdjacency*> adjacency;
    for (const Shard& shard : shards) adjacency.push_back(&shard.adj);
    return make_gcn_replicas(devices, adjacency, model_cfg,
                             config.learning_rate, config.ddp_bucket_bytes,
                             config.ddp_overlap);
  };
  GcnReplicas set = build_replicas();

  // Line 4, "Distribute Gi, Xi, Yi to worker i", as explicit placement:
  // every shard's features and adjacency plus its replica's parameters and
  // gradients move to the owning rank's device through accounted H2D
  // transfers.  Kernels compute the same bits at either placement (device
  // storage is host-reachable), so this changes the transfer ledger — a
  // pinned, testable quantity — and nothing else.  Idempotent: tensors
  // already on the right device are left alone, so re-running after a remap
  // or restore only uploads what actually moved.
  auto place_all = [&]() -> Status {
    for (std::size_t p = 0; p < shards.size(); ++p) {
      auto& dev = devices.device(
          static_cast<std::size_t>(set.rank_of_part[p]));
      Status s = shards[p].features.to_device(dev);
      if (!s.ok()) return s;
      s = shards[p].adj.to_device(dev);
      if (!s.ok()) return s;
      s = place_replica(*set.models[p], dev);
      if (!s.ok()) return s;
    }
    return {};
  };
  if (const Status s = place_all(); !s.ok()) return s;

  // --- Lines 9-14: synchronized epochs, expressed as task DAGs. ------------
  // Per epoch and rank r:  loss[e][r] -> allreduce[e] -> step[e][r], and
  // loss[e+1][r] depends on step[e][r].  Loss/step tasks are pinned to their
  // rank (device affinity); the gradient all-reduce is unpinned and runs on
  // whichever worker frees up first.
  double scheduler_s = 0.0;
  auto submit_epoch =
      [&](std::vector<dflow::Future>& prev) -> std::vector<dflow::Future> {
    const int kw = static_cast<int>(shards.size());
    std::vector<dflow::Future> losses;
    losses.reserve(static_cast<std::size_t>(kw));
    for (int r = 0; r < kw; ++r) {
      losses.push_back(cluster.submit(
          "gcn_epoch",
          [&, r](dflow::WorkerCtx& ctx) -> std::any {
            auto& shard = shards[static_cast<std::size_t>(r)];
            auto& model = *set.models[static_cast<std::size_t>(r)];
            model.zero_grad();
            tensor::Tensor logits =
                model.forward(ctx.device, shard.features, /*train=*/true);
            auto loss = nn::masked_softmax_cross_entropy(
                ctx.device, logits, shard.labels, shard.train_rows);
            model.backward(ctx.device, loss.dlogits,
                           set.grad_ready_hook(static_cast<std::size_t>(r)));
            return loss.loss;
          },
          {prev[static_cast<std::size_t>(r)]},
          set.rank_of_part[static_cast<std::size_t>(r)]));
    }

    dflow::Future reduced = cluster.submit(
        "grad_allreduce",
        [&](dflow::WorkerCtx&) -> std::any {
          if (set.sync) set.sync->sync();
          return {};
        },
        losses, /*rank=*/-1);

    for (int r = 0; r < kw; ++r) {
      prev[static_cast<std::size_t>(r)] = cluster.submit(
          "sgd_step",
          [&, r](dflow::WorkerCtx& ctx) -> std::any {
            const auto ri = static_cast<std::size_t>(r);
            auto params = set.models[ri]->params();
            set.optimizers[ri]->step(ctx.device, params);
            return {};
          },
          {reduced}, set.rank_of_part[static_cast<std::size_t>(r)]);
    }

    // Dask control plane: dispatch of the epoch's 2k+1 tasks is serialized
    // on the scheduler — the overhead that erases most of the wall-clock
    // win for course-scale graphs.  Re-run chunks pay it again, which is
    // exactly the recovery overhead the preemption bench measures.
    scheduler_s += 2.0 * static_cast<double>(kw) * config.scheduler_overhead_s;
    return losses;
  };

  // Submits epochs [begin_e, end_e) as one DAG, waits out all of it, and
  // folds the per-epoch mean losses into the result.  Any task failure
  // (injected preemption, reclaimed rank, real exception) surfaces as the
  // Status of the first failed step; nothing is appended to epoch_losses in
  // that case and — because every future has been waited — no in-flight
  // task still references the shard/replica state the loop may now rebuild.
  auto run_chunk = [&](std::size_t begin_e, std::size_t end_e) -> Status {
    // Restored parameters come back as host tensors, and a remap or
    // re-shard moves partitions: (re-)place before submitting.
    if (const Status ps = place_all(); !ps.ok()) return ps;
    // Quiescent on entry (any prior chunk's futures were waited out): drop
    // readiness state an aborted attempt may have left behind, so a re-run
    // never mixes stale notifications with fresh ones.
    if (set.sync) set.sync->reset_pending();
    const int kw = static_cast<int>(shards.size());
    std::vector<dflow::Future> prev(static_cast<std::size_t>(kw));
    for (auto& f : prev) f = dflow::Future::immediate({});
    std::vector<std::vector<dflow::Future>> chunk_losses;
    chunk_losses.reserve(end_e - begin_e);
    for (std::size_t e = begin_e; e < end_e; ++e)
      chunk_losses.push_back(submit_epoch(prev));

    Status first{};
    for (auto& f : prev) {
      const Status s = f.wait_status();
      if (!s.ok() && first.ok()) first = s;
    }
    if (!first.ok()) return first;

    for (const auto& losses : chunk_losses) {
      double epoch_loss = 0.0;
      for (const auto& f : losses) {
        Expected<double> v = f.result<double>();
        if (!v) return v.status();
        epoch_loss += *v;
      }
      result.epoch_losses.push_back(epoch_loss / static_cast<double>(kw));
    }
    return {};
  };

  // Elastic step: ranks reclaimed for good get their partitions moved to
  // survivors; if there are not enough survivors, shrink the world by
  // re-partitioning METIS across what is left (when allowed).
  auto on_ranks_lost = [&](const std::vector<int>& survivors) -> Status {
    if (survivors.empty())
      return Status::unavailable(
          "train_distributed_gcn: every rank is preempted");
    const int cur_k = static_cast<int>(shards.size());
    if (static_cast<int>(survivors.size()) >= cur_k) {
      set.rank_of_part.assign(survivors.begin(), survivors.begin() + cur_k);
      return {};
    }
    if (!config.fault.allow_shrink)
      return Status::unavailable(
          "train_distributed_gcn: rank lost with allow_shrink=false");
    const int new_k = static_cast<int>(survivors.size());
    try {
      part = build_partition(dataset, config, new_k);
      result.partition = graph::evaluate_partition(dataset.graph, part);
      shards = build_shards(dataset, part, new_k, result.cut_edges_dropped);
      set = build_replicas();
    } catch (const std::exception& e) {
      return Status::failed_precondition(
          std::string("train_distributed_gcn: re-shard failed: ") + e.what());
    }
    set.rank_of_part = survivors;
    ++result.reshards;
    return {};
  };

  const Expected<TrainLoopCounts> counts =
      TrainLoop{.fault = config.fault,
                .who = kWho,
                .cluster = cluster,
                .replicas = set,
                .losses = result.epoch_losses,
                .run_chunk = run_chunk,
                .on_ranks_lost = on_ranks_lost}
          .run(static_cast<std::size_t>(config.epochs));
  if (!counts) return counts.status();
  result.chunk_restarts = counts->chunk_restarts;
  result.checkpoints_written = counts->checkpoints_written;
  result.checkpoints_restored = counts->checkpoints_restored;

  prof::TraceEvent sched;
  sched.name = "dask_scheduler";
  sched.kind = prof::EventKind::kScheduler;
  sched.start_s = sim_t0;
  sched.duration_s = scheduler_s;
  devices.timeline().record(std::move(sched));

  result.train_sim_seconds = (devices.now_s() - sim_t0) + scheduler_s;

  // The trained model leaves the cluster: replica 0's parameters come back
  // to the host (accounted D2H) before evaluation consumes them.
  for (nn::Param* prm : set.models[0]->params())
    prm->value.to_host().throw_if_error();

  // Evaluation: full-graph forward with replica 0's weights.
  const graph::NormalizedAdjacency full_adj =
      graph::normalized_adjacency(dataset.graph);
  set.models[0]->set_adjacency(&full_adj);
  const tensor::Tensor logits = set.models[0]->forward(
      &devices.device(0), dataset.features, /*train=*/false);
  result.test_accuracy =
      nn::masked_accuracy(logits, dataset.labels, dataset.test_nodes);
  set.models[0]->set_adjacency(&shards[0].adj);

  for (const int rank : set.rank_of_part)
    result.gpu_utilization.push_back(
        prof::kernel_utilization(devices.timeline(), rank));
  result.final_world = static_cast<int>(shards.size());
  return result;
}

}  // namespace sagesim::core
