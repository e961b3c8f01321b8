// ooc_train — out-of-core sampled GCN training: repeated two-rank
// try_train_sampled_gcn calls over an on-disk sharded RMAT graph with more
// shards than the ShardStore keeps resident, prefetch on and a wide hidden
// layer.  One operation is one sampled mini-batch.  Step losses are a pure
// function of the config, so every call must return the same ones.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "common.hpp"
#include "core/sampled_gcn.hpp"
#include "dflow/cluster.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/ooc.hpp"
#include "graph/sampler.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace sagesim;

namespace {

constexpr int kRanks = 2;
constexpr int kSetups = 5;
constexpr std::size_t kScale = 16;          // 65,536 nodes
constexpr std::size_t kNodesPerShard = 2048;  // 32 shards on disk
constexpr std::size_t kResidentShards = 8;
constexpr std::size_t kBatch = 128;
constexpr std::size_t kStepsPerCall = 16;

core::SampledGcnConfig config(std::uint64_t seed) {
  core::SampledGcnConfig c;
  c.num_ranks = kRanks;
  c.epochs = 1;
  c.batch_size = kBatch;
  c.fanouts = {10, 5};
  c.max_steps_per_epoch = kStepsPerCall;
  c.hidden = 128;
  c.max_resident_shards = kResidentShards;
  c.prefetch = true;
  c.seed = seed;
  return c;
}

struct Call {
  bool ok{false};
  double host_s{0.0};
  core::SampledGcnResult result;
};

}  // namespace

void run_ooc_train(const Args& args, Tracer& tracer, Report& report) {
  // --- setup: spill the sharded graph to disk --------------------------------
  const std::filesystem::path dir =
      std::filesystem::path(args.work_dir) /
      ("ooc-" + std::to_string(::getpid()));
  graph::OocRmatParams p;
  p.scale = kScale;
  p.edge_factor = 8;
  p.seed = args.seed;
  p.nodes_per_shard = kNodesPerShard;
  p.dir = dir.string();
  std::vector<double> setup_s;
  graph::OocGraphMeta meta;
  for (int i = 0; i < kSetups; ++i) {
    std::filesystem::remove_all(dir);
    setup_s.push_back(setup_step(tracer, "graph.build_sharded_rmat", [&] {
      meta = graph::build_sharded_rmat(p).value();
    }));
  }
  graph::OocFeatureSpec features;
  features.dim = 64;
  features.seed = args.seed;
  const auto cfg = config(args.seed);
  std::printf("ooc_train: %zu nodes, %llu directed edges, %zu shards (%zu "
              "resident), %d ranks, %zu steps of %zu seeds per call\n",
              meta.num_nodes,
              static_cast<unsigned long long>(meta.num_directed_edges),
              meta.num_shards, kResidentShards, kRanks, kStepsPerCall, kBatch);

  // --- timed calls ----------------------------------------------------------
  std::vector<Call> calls;
  TrainingTrace trace;
  std::vector<double> hidden_frac;
  double shard_loads = 0, shard_evictions = 0, sampled_edges = 0;
  auto one_call = [&](bool traced) -> double {
    gpu::DeviceManager dm(kRanks, gpu::spec::t4());
    dflow::Cluster cluster(dm);
    const DataPlane before = DataPlane::now();
    const double t0 = tracer.now();
    auto r = core::try_train_sampled_gcn(meta, features, cluster, cfg);
    const double t1 = tracer.now();
    Call c;
    c.ok = r.has_value();
    c.host_s = t1 - t0;
    if (r) c.result = std::move(*r);
    const double ops = static_cast<double>(c.result.batches);
    if (traced) {
      tracer.span("core.try_train_sampled_gcn", t0, t1);
      trace.add_call(ops, c.host_s, c.result.train_sim_seconds,
                     cluster.completed_tasks(), before, DataPlane::now(),
                     device_counters(dm), task_busy_s(cluster.scheduler()),
                     kRanks * c.host_s);
      hidden_frac.push_back(c.result.h2d_hidden_frac);
      shard_loads += static_cast<double>(c.result.shard_loads);
      shard_evictions += static_cast<double>(c.result.shard_evictions);
      sampled_edges += static_cast<double>(c.result.sampled_edges);
    }
    calls.push_back(std::move(c));
    return ops;
  };

  one_call(false);  // warm-up: pools and lazy set-up fill before timing
  calls.clear();    // and the cold call is no result
  const Measured run = measure(args.seconds, tracer.enabled(), one_call);

  // --- output checks --------------------------------------------------------
  const std::size_t planned = kRanks * kStepsPerCall;  // batches per call
  std::size_t failed_calls = 0;
  for (const Call& c : calls) failed_calls += c.ok ? 0 : 1;
  report.add_ops(calls.size() * planned, failed_calls * planned);
  report.check(failed_calls == 0, "every training call succeeds");
  const auto& first = calls.front().result;
  bool same = true;
  for (const Call& c : calls)
    same = same && c.result.step_losses == first.step_losses &&
           c.result.batches == planned;
  report.check(same, "every call trains the planned batches and returns the "
                     "same step losses bit for bit");
  const double ln_classes = std::log(static_cast<double>(features.num_classes));
  report.check(std::isfinite(first.eval_loss) && first.eval_loss < ln_classes,
               "eval loss is finite and below ln(num_classes)");
  const double f1 = cfg.fanouts[0], f2 = cfg.fanouts[1];
  report.check(static_cast<double>(first.sampled_edges) <=
                   static_cast<double>(first.batches * kBatch) *
                       (f1 + f1 * f2),
               "sampled edges stay within batches x batch x (f1 + f1 f2)");
  std::printf("ooc_train: %zu calls, eval loss %.4f (ln C = %.4f), %llu "
              "sampled edges per call, %.1f batches per wall second\n",
              calls.size(), first.eval_loss, ln_classes,
              static_cast<unsigned long long>(first.sampled_edges),
              run.untraced.ops_per_wall_s());

  if (!tracer.enabled()) {
    std::vector<double> sim_ms_per_op, sim_wait_h, cost;
    for (const Call& c : calls) {
      const double ops = static_cast<double>(c.result.batches);
      sim_ms_per_op.push_back(1e3 * c.result.train_sim_seconds / ops);
      sim_wait_h.push_back(c.result.train_sim_seconds / 3600.0);
      cost.push_back(c.result.train_sim_seconds / 3600.0 * kRanks *
                     gpu_node_usd_per_h());
    }
    report.set("setup_s", median(setup_s), "s");
    report.set("ops_per_cpu_s", run.untraced.ops_per_cpu_s(), "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("sim_ms_per_op", median(sim_ms_per_op), "ms");
    report.set("sim_wait_p99_h", percentile(sim_wait_h, 99), "h",
               "modeled training time of one call (the wait for a trained "
               "model), p99 over calls");
    report.set("sim_cost_usd", median(cost), "USD",
               "modeled training time of one call x 2 ranks x the "
               "g4dn.xlarge on-demand rate, median over calls");
    std::filesystem::remove_all(dir);
    return;
  }

  // --- per-layer metrics (traced run) ---------------------------------------
  trace.report(report);
  report_overhead(report, run.untraced.ops_per_cpu_s(),
                  run.traced.ops_per_cpu_s());
  report.set("graph.shard_build_s", median(setup_s), "s");
  report.set("graph.sampled_edges_per_op", sampled_edges / trace.ops, "count");
  report.set("graph.shard_loads_per_op", shard_loads / trace.ops, "count");
  report.set("graph.shard_evictions_per_op", shard_evictions / trace.ops,
             "count");
  report.set("graph.h2d_hidden_frac", median(hidden_frac), "frac");
  report.set("mem.peak_resident_mb",
             mb(static_cast<double>(first.peak_resident_bytes)), "MB");

  // Layer probes, each timed apart from the training calls.
  {
    gpu::DeviceManager dm(kRanks, gpu::spec::t4());
    dflow::Cluster cluster(dm);
    report.set("runtime.handoff_us", handoff_us(cluster.scheduler()), "us");
  }
  auto store = graph::ShardStore::open(meta, kResidentShards).value();
  graph::NeighborSampler sampler(store, features,
                                 graph::SamplerConfig{cfg.fanouts, args.seed});
  std::uint64_t index = 0;
  report.set("graph.sample_ms_per_batch", median_us(16, [&] {
               const auto seeds = graph::schedule_seeds(
                   0, static_cast<graph::NodeId>(meta.num_nodes), kBatch,
                   args.seed, 0, index);
               timed(tracer, "graph.NeighborSampler::sample", [&] {
                 (void)sampler.sample(0, index++, seeds).value();
               });
             }) / 1e3,
             "ms");

  // The largest GEMM of a step: a sampled batch's gathered features times
  // the first layer's weights (batch nodes x feature dim x hidden).
  const graph::MiniBatch batch = sampler.sample(0, index, graph::schedule_seeds(
      0, static_cast<graph::NodeId>(meta.num_nodes), kBatch, args.seed, 0,
      index)).value();
  const std::size_t n = batch.features.rows();
  gpu::DeviceManager dm(1, gpu::spec::t4());
  tensor::Tensor w(features.dim, cfg.hidden), out(n, cfg.hidden);
  const double gemm_us = median_us(3, [&] {
    tensor::ops::gemm(&dm.device(0), batch.features, w, out);
  });
  report.set("gpusim.device_gemm_gflops",
             2.0 * static_cast<double>(n * features.dim * cfg.hidden) /
                 gemm_us / 1e3,
             "GFLOP/s");
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
