// Algorithm 1 end-to-end: partition a citation-style graph with the
// METIS-like partitioner, train a 2-layer GCN across simulated GPUs with a
// Dask-style cluster, and compare against the sequential baseline —
// the paper's post-midterm capstone workload.  The final block replays the
// METIS run under injected spot preemptions (checkpoint/restart) and shows
// the losses match bit-identically.
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/distributed_gcn.hpp"
#include "mem/buffer.hpp"
#include "mem/pool.hpp"
#include "prof/report.hpp"
#include "runtime/knobs.hpp"

using namespace sagesim;

int main() {
  // A PubMed-like dataset at 5% scale (see DESIGN.md for the substitution).
  stats::Rng rng(2025);
  const auto dataset = graph::pubmed_like(rng, 0.05);
  std::printf("dataset: %zu nodes, %zu edges, %zu features, %d classes\n",
              dataset.graph.num_nodes(), dataset.graph.num_edges(),
              dataset.features.cols(), dataset.num_classes);

  core::DistributedGcnConfig cfg;
  cfg.epochs = 40;
  cfg.hidden = 16;
  cfg.dropout = 0.3f;
  // Tiny model, tiny buckets: conv2's gradients get their own bucket, so its
  // allreduce rides the comm streams under conv1's backward (the expensive
  // SpMM).  Bucketing never changes the averaged bits, only the schedule.
  cfg.ddp_bucket_bytes = 256;

  // Sequential baseline (k = 1).
  {
    gpu::DeviceManager dm(1, gpu::spec::t4());
    dflow::Cluster cluster(dm);
    cfg.num_partitions = 1;
    const auto r = core::try_train_distributed_gcn(dataset, cluster, cfg).value();
    std::printf("\nsequential  : loss %.3f -> %.3f, test acc %.1f%%, "
                "sim time %.3fs\n",
                r.epoch_losses.front(), r.epoch_losses.back(),
                100.0 * r.test_accuracy, r.train_sim_seconds);
  }

  // Distributed (k = 4, METIS) — Algorithm 1 proper.  The result stays in
  // scope: the fault-tolerance block below must reproduce it exactly.
  core::DistributedGcnResult metis;
  {
    gpu::DeviceManager dm(4, gpu::spec::t4());
    dflow::Cluster cluster(dm);
    cfg.num_partitions = 4;
    cfg.strategy = core::PartitionStrategy::kMetis;
    mem::reset_transfer_ledger();  // per-run data-movement numbers
    metis = core::try_train_distributed_gcn(dataset, cluster, cfg).value();
    const auto& r = metis;
    std::printf("metis k=4   : loss %.3f -> %.3f, test acc %.1f%%, "
                "sim time %.3fs, edge cut %zu, halo lost %zu\n",
                r.epoch_losses.front(), r.epoch_losses.back(),
                100.0 * r.test_accuracy, r.train_sim_seconds,
                r.partition.edge_cut, r.cut_edges_dropped);
    std::printf("per-GPU kernel utilization:");
    for (double u : r.gpu_utilization) std::printf(" %.0f%%", 100.0 * u);
    std::printf("\n");

    // Data-plane accounting for the run: explicit placement makes every
    // H2D/D2H byte show up here, deterministically.
    std::printf("\ntransfers (metis k=4):\n%s",
                prof::transfer_table(dm.timeline()).c_str());
    std::printf("%s", mem::ledger_report().c_str());
    std::printf("\n%s", mem::pool_report().c_str());

    // Gradient-communication overlap: how much of the bucketed allreduce
    // ran under backward compute (hidden) vs stalled the step (exposed).
    std::printf("\ncomm overlap (metis k=4):\n%s",
                prof::comm_overlap_table(dm.timeline()).c_str());
  }

  // The baseline students try first: random partitioning.
  {
    gpu::DeviceManager dm(4, gpu::spec::t4());
    dflow::Cluster cluster(dm);
    cfg.strategy = core::PartitionStrategy::kRandom;
    const auto r = core::try_train_distributed_gcn(dataset, cluster, cfg).value();
    std::printf("random k=4  : test acc %.1f%%, edge cut %zu, halo lost %zu "
                "(compare with METIS above)\n",
                100.0 * r.test_accuracy, r.partition.edge_cut,
                r.cut_edges_dropped);
  }

  // The same METIS run under injected spot preemptions.  20% of epoch tasks
  // fail with a simulated 2-minute-warning reclaim; the run recovers through
  // epoch checkpoints and must land on bit-identical losses.  Override the
  // fault pattern with SAGESIM_FAULT_SEED (and optionally SAGESIM_FAULT_RATE).
  {
    dflow::ClusterOptions opts;
    runtime::FaultConfig faults = runtime::FaultConfig::from_env();
    if (runtime::knob("SAGESIM_FAULT_SEED").empty()) {
      faults.seed = 2026;
      faults.preempt_probability = 0.2;
    }
    faults.name_filter = "gcn_epoch";
    opts.faults = faults;

    gpu::DeviceManager dm(4, gpu::spec::t4());
    dflow::Cluster cluster(dm, opts);
    cfg.strategy = core::PartitionStrategy::kMetis;
    // Chunks must be short enough to outrun the injector: a chunk commits
    // only if all k * checkpoint_every epoch tasks dodge the 20% coin.
    cfg.fault.enabled = true;
    cfg.fault.checkpoint_every = 2;
    cfg.fault.max_chunk_attempts = 64;
    cfg.fault.checkpoint_dir =
        (std::filesystem::temp_directory_path() / "sagesim_example_gcn_ckpt")
            .string();
    std::filesystem::remove_all(cfg.fault.checkpoint_dir);

    const auto r = core::try_train_distributed_gcn(dataset, cluster, cfg);
    if (!r) {
      std::printf("fault run   : FAILED — %s\n", r.status().to_string().c_str());
      return 1;
    }
    const double drift =
        r->epoch_losses.back() - metis.epoch_losses.back();
    std::printf("\npreempted k=4 (p=%.2f, seed %llu): loss %.3f -> %.3f, "
                "test acc %.1f%%\n",
                faults.preempt_probability,
                static_cast<unsigned long long>(faults.seed),
                r->epoch_losses.front(), r->epoch_losses.back(),
                100.0 * r->test_accuracy);
    std::printf("  %zu chunk restarts, %zu checkpoints written, "
                "%zu restored; final-loss drift vs fault-free %.1e%s\n",
                r->chunk_restarts, r->checkpoints_written,
                r->checkpoints_restored, drift,
                std::abs(drift) < 1e-6 ? " (bit-identical recovery)" : "");
  }
  return 0;
}
