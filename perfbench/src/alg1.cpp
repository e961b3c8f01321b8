// alg1 — the paper's Algorithm 1: repeated k=4 METIS distributed GCN
// training calls on a PubMed-like planted-partition graph.  One operation
// is one epoch across all ranks; every call trains the same model from
// scratch, so the calls must agree bit for bit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common.hpp"
#include "core/distributed_gcn.hpp"
#include "dflow/cluster.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/csr.hpp"
#include "graph/metis_like.hpp"
#include "graph/spmm.hpp"
#include "stats/rng.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace sagesim;

namespace {

constexpr int kRanks = 4;
constexpr int kEpochs = 40;
constexpr double kGraphScale = 0.08;  // ~1.6k nodes, 500 features
constexpr int kSetups = 9;

core::DistributedGcnConfig config(std::uint64_t seed) {
  core::DistributedGcnConfig c;
  c.num_partitions = kRanks;
  c.strategy = core::PartitionStrategy::kMetis;
  c.epochs = kEpochs;
  c.hidden = 16;
  c.dropout = 0.3f;
  c.learning_rate = 0.05f;
  c.seed = seed;
  return c;
}

/// Share of the test nodes carrying the most common test label: the
/// accuracy of always guessing one class.
double majority_share(const graph::Dataset& ds) {
  std::map<int, std::size_t> count;
  for (graph::NodeId u : ds.test_nodes) ++count[ds.labels[u]];
  std::size_t best = 0;
  for (const auto& [label, n] : count) best = std::max(best, n);
  return static_cast<double>(best) / static_cast<double>(ds.test_nodes.size());
}

struct Call {
  bool ok{false};
  double host_s{0.0};
  core::DistributedGcnResult result;
};

}  // namespace

void run_alg1(const Args& args, Tracer& tracer, Report& report) {
  // --- setup: dataset generation ------------------------------------------
  std::vector<double> setup_s;
  graph::Dataset ds;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.push_back(setup_step(tracer, "graph.pubmed_like", [&] {
      stats::Rng rng(args.seed);
      ds = graph::pubmed_like(rng, kGraphScale);
    }));
  }
  const auto cfg = config(args.seed);
  std::printf("alg1: %zu nodes, %zu edges, %zu features, %d classes, k=%d, "
              "%d epochs per call\n",
              ds.graph.num_nodes(), ds.graph.num_edges(), ds.features.cols(),
              ds.num_classes, kRanks, kEpochs);

  // --- timed calls ----------------------------------------------------------
  std::vector<Call> calls;
  TrainingTrace trace;
  auto one_call = [&](bool traced) -> double {
    gpu::DeviceManager dm(kRanks, gpu::spec::t4());
    dflow::Cluster cluster(dm);
    const DataPlane before = DataPlane::now();
    const double t0 = tracer.now();
    auto r = core::try_train_distributed_gcn(ds, cluster, cfg);
    const double t1 = tracer.now();
    Call c;
    c.ok = r.has_value();
    c.host_s = t1 - t0;
    if (r) c.result = std::move(*r);
    if (traced) {
      tracer.span("core.try_train_distributed_gcn", t0, t1);
      trace.add_call(kEpochs, c.host_s, c.result.train_sim_seconds,
                     cluster.completed_tasks(), before, DataPlane::now(),
                     device_counters(dm), task_busy_s(cluster.scheduler()),
                     kRanks * c.host_s);
    }
    calls.push_back(std::move(c));
    return kEpochs;
  };

  one_call(false);  // warm-up: pools and lazy set-up fill before timing
  calls.clear();    // and the cold call is no result
  const Measured run = measure(args.seconds, tracer.enabled(), one_call);

  // --- output checks --------------------------------------------------------
  std::size_t failed_calls = 0;
  for (const Call& c : calls) failed_calls += c.ok ? 0 : 1;
  report.add_ops(calls.size() * kEpochs, failed_calls * kEpochs);
  report.check(failed_calls == 0, "every training call succeeds");
  const Call& first = calls.front();
  bool same = true;
  for (const Call& c : calls)
    same = same && c.result.epoch_losses == first.result.epoch_losses;
  report.check(same, "every call returns the same loss sequence bit for bit");
  const auto& losses = first.result.epoch_losses;
  const double ln_classes = std::log(static_cast<double>(ds.num_classes));
  report.check(!losses.empty() && losses.back() < ln_classes,
               "final loss is below ln(num_classes)");
  const double majority = majority_share(ds);
  report.check(first.result.test_accuracy > majority,
               "test accuracy beats the majority-class share");
  std::printf("alg1: %zu calls, final loss %.4f (ln C = %.4f), test accuracy "
              "%.3f vs majority share %.3f, %.1f epochs per wall second\n",
              calls.size(), losses.empty() ? 0.0 : losses.back(), ln_classes,
              first.result.test_accuracy, majority,
              run.untraced.ops_per_wall_s());

  const double sim_s = first.result.train_sim_seconds;
  if (!tracer.enabled()) {
    std::vector<double> sim_wait_h;
    for (const Call& c : calls)
      sim_wait_h.push_back(c.result.train_sim_seconds / 3600.0);
    report.set("setup_s", median(setup_s), "s");
    report.set("ops_per_cpu_s", run.untraced.ops_per_cpu_s(), "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("sim_ms_per_op", 1e3 * sim_s / kEpochs, "ms");
    report.set("sim_wait_p99_h", percentile(sim_wait_h, 99), "h",
               "modeled training time of one call (the wait for a trained "
               "model), p99 over calls");
    report.set("sim_cost_usd", sim_s / 3600.0 * kRanks * gpu_node_usd_per_h(),
               "USD",
               "modeled training time of one call x 4 ranks x the "
               "g4dn.xlarge on-demand rate");
    return;
  }

  // --- per-layer metrics (traced run) ---------------------------------------
  trace.report(report);
  report_overhead(report, run.untraced.ops_per_cpu_s(),
                  run.traced.ops_per_cpu_s());
  report.set("graph.edge_cut",
             static_cast<double>(first.result.partition.edge_cut), "count");
  report.set("mem.peak_resident_mb",
             mb(static_cast<double>(mem::process_peak_resident_bytes())),
             "MB");

  // Layer probes, each timed apart from the training calls.
  gpu::DeviceManager dm(kRanks, gpu::spec::t4());
  dflow::Cluster cluster(dm);
  gpu::Device& dev = dm.device(0);
  report.set("runtime.handoff_us", handoff_us(cluster.scheduler()), "us");
  report.set("gpusim.launch_us", median_us(500, [&] {
               dev.launch("perfbench_empty", gpu::Dim3{1, 1, 1},
                          gpu::Dim3{1, 1, 1}, [](const gpu::ThreadCtx&) {});
             }),
             "us");

  // The largest GEMM of a call: the full-graph evaluation's first layer,
  // nodes x features times features x hidden.
  const std::size_t n = ds.graph.num_nodes(), f = ds.features.cols();
  tensor::Tensor w(f, cfg.hidden), xw(n, cfg.hidden);
  const double gemm_us = median_us(
      5, [&] { tensor::ops::gemm(&dev, ds.features, w, xw); });
  report.set("gpusim.device_gemm_gflops", 2.0 * n * f * cfg.hidden / gemm_us / 1e3,
             "GFLOP/s");

  const graph::NormalizedAdjacency adj = graph::normalized_adjacency(ds.graph);
  tensor::Tensor ax(n, cfg.hidden);
  report.set("graph.device_spmm_ms",
             median_us(20, [&] { graph::spmm(&dev, adj, xw, ax); }) / 1e3,
             "ms");

  graph::MetisOptions mo;
  mo.seed = cfg.seed;
  report.set("graph.partition_ms", median_us(9, [&] {
               timed(tracer, "graph.metis_like",
                     [&] { (void)graph::metis_like(ds.graph, kRanks, mo); });
             }) / 1e3,
             "ms");
}

}  // namespace perfbench
