// Checkpoint/restart through the shared training loop (core/train_loop) and
// the replica-state codec (nn/checkpoint), pinned from the outside.  Every
// checkpoint here is written by hand, key by key, through
// nn::save_checkpoint:
//
//  - a well-formed one must resume and reproduce an uninterrupted run
//    bit-identically, which pins the on-disk key layout;
//  - tampered ones (a misshapen optimizer tensor, a huge, non-representable
//    or mismatched opt_n, a bogus k/world or epoch) must come back
//    kFailedPrecondition from both GCN trainers and from
//    ddp::DataParallelTrainer::restore_latest — never a crash, an escaped
//    exception, or a run that silently resumes from corrupt state.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/distributed_gcn.hpp"
#include "core/sampled_gcn.hpp"
#include "ddp/trainer.hpp"
#include "dflow/cluster.hpp"
#include "gpusim/device_manager.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/ooc.hpp"
#include "nn/checkpoint.hpp"
#include "nn/dense.hpp"
#include "runtime/fault.hpp"

namespace fs = std::filesystem;
namespace core = sagesim::core;
namespace ddp = sagesim::ddp;
namespace dflow = sagesim::dflow;
namespace gpu = sagesim::gpu;
namespace graph = sagesim::graph;
namespace nn = sagesim::nn;
namespace tensor = sagesim::tensor;
using sagesim::ErrorCode;
using sagesim::Expected;
using sagesim::stats::Rng;

namespace {

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("sagesim_loop_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string key(const std::string& stem, std::size_t i) {
  return stem + std::to_string(i);
}

/// Both GCN trainers' replicas: two GcnConv layers, weight + bias each.
constexpr std::size_t kGcnParams = 4;
constexpr std::size_t kRanks = 2;

/// Copies @p ref into a fresh checkpoint under the literal GCN layout —
/// k, param<i>, opt<s>, opt_n, opt_t, loss.<e>, rng<r> — and checks that
/// the layout is all @p ref holds.  A renamed key on the writing side
/// throws out of .at(); one on the reading side fails the resume.
nn::Checkpoint gcn_layout_copy(const nn::Checkpoint& ref) {
  nn::Checkpoint c;
  c.epoch = ref.epoch;
  c.scalars["k"] = ref.scalars.at("k");
  for (std::size_t p = 0; p < kGcnParams; ++p)
    c.tensors[key("param", p)] = ref.tensors.at(key("param", p));
  const auto opt_n = static_cast<std::size_t>(ref.scalars.at("opt_n"));
  EXPECT_EQ(opt_n, kGcnParams);  // momentum Sgd: one velocity per param
  for (std::size_t s = 0; s < opt_n; ++s)
    c.tensors[key("opt", s)] = ref.tensors.at(key("opt", s));
  c.scalars["opt_n"] = static_cast<double>(opt_n);
  c.scalars["opt_t"] = ref.scalars.at("opt_t");
  for (std::uint64_t e = 0; e < ref.epoch; ++e)
    c.scalars[key("loss.", e)] = ref.scalars.at(key("loss.", e));
  for (std::size_t r = 0; r < kRanks; ++r)
    c.blobs[key("rng", r)] = ref.blobs.at(key("rng", r));
  EXPECT_EQ(c.tensors.size(), ref.tensors.size());
  EXPECT_EQ(c.scalars.size(), ref.scalars.size());
  EXPECT_EQ(c.blobs.size(), ref.blobs.size());
  return c;
}

/// One way to corrupt a replica's state under key prefix @p pre.
struct Tamper {
  const char* what;
  void (*apply)(nn::Checkpoint& c, const std::string& pre);
};

/// Cases every reader of the replica codec must refuse.
const Tamper kReplicaTampers[] = {
    {"opt0 is 1x1",
     [](nn::Checkpoint& c, const std::string& pre) {
       c.tensors[pre + "opt0"] = tensor::Tensor(1, 1);
     }},
    {"opt_n = 1e18",
     [](nn::Checkpoint& c, const std::string& pre) {
       c.scalars[pre + "opt_n"] = 1e18;
     }},
    {"opt_n = 1e300",
     [](nn::Checkpoint& c, const std::string& pre) {
       c.scalars[pre + "opt_n"] = 1e300;
     }},
    {"opt_n = 3",
     [](nn::Checkpoint& c, const std::string& pre) {
       c.scalars[pre + "opt_n"] = 3;
     }},
};

/// Cases only the GCN loop's own keys can carry.
const Tamper kGcnTampers[] = {
    {"k = 1e300",
     [](nn::Checkpoint& c, const std::string&) { c.scalars["k"] = 1e300; }},
    {"k is NaN",
     [](nn::Checkpoint& c, const std::string&) {
       c.scalars["k"] = std::numeric_limits<double>::quiet_NaN();
     }},
    {"epoch past the loss history",
     [](nn::Checkpoint& c, const std::string&) { c.epoch = 1ull << 60; }},
};

/// Every case a GCN trainer must refuse.
std::vector<Tamper> gcn_tampers() {
  std::vector<Tamper> cases(std::begin(kReplicaTampers),
                            std::end(kReplicaTampers));
  cases.insert(cases.end(), std::begin(kGcnTampers), std::end(kGcnTampers));
  return cases;
}

/// Writes @p ckpt as the only "<prefix>_epoch<N>" checkpoint of a new
/// directory named @p tag and returns the directory.
std::string write_alone(const std::string& tag, const std::string& prefix,
                        std::uint64_t epoch, const nn::Checkpoint& ckpt) {
  const std::string dir = scratch_dir(tag);
  EXPECT_TRUE(
      nn::save_checkpoint(nn::checkpoint_path(dir, prefix, epoch), ckpt).ok());
  return dir;
}

// --- Algorithm 1 -------------------------------------------------------------

graph::Dataset small_dataset() {
  Rng rng(77);
  graph::PlantedPartitionParams p;
  p.num_nodes = 240;
  p.num_classes = 3;
  p.feature_dim = 16;
  p.intra_edge_prob = 0.06;
  p.inter_edge_prob = 0.003;
  p.feature_noise_sd = 1.0;
  return graph::planted_partition(p, rng);
}

core::DistributedGcnConfig gcn_config(const std::string& dir, int epochs,
                                      int k = static_cast<int>(kRanks)) {
  core::DistributedGcnConfig cfg;
  cfg.num_partitions = k;
  cfg.epochs = epochs;
  cfg.hidden = 8;
  cfg.dropout = 0.1f;
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_dir = dir;
  cfg.fault.checkpoint_every = 4;
  cfg.fault.max_chunk_attempts = 64;
  return cfg;
}

Expected<core::DistributedGcnResult> train_gcn(const graph::Dataset& ds,
                                               const std::string& dir,
                                               int epochs) {
  gpu::DeviceManager dm(kRanks, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  return core::try_train_distributed_gcn(ds, cluster, gcn_config(dir, epochs));
}

// --- out-of-core sampled GCN -------------------------------------------------

graph::OocGraphMeta small_graph(const std::string& tag) {
  graph::OocRmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 42;
  p.nodes_per_shard = 256;
  p.block_edges = 2048;
  p.dir = scratch_dir(tag);
  auto meta = graph::build_sharded_rmat(p);
  EXPECT_TRUE(meta) << meta.status().to_string();
  return *meta;
}

/// 4 steps per epoch, a checkpoint every 2.
Expected<core::SampledGcnResult> train_sampled(const graph::OocGraphMeta& meta,
                                               const std::string& dir,
                                               int epochs) {
  gpu::DeviceManager dm(kRanks, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  core::SampledGcnConfig cfg;
  cfg.num_ranks = static_cast<int>(kRanks);
  cfg.epochs = epochs;
  cfg.batch_size = 16;
  cfg.fanouts = {4, 3};
  cfg.grad_accum_steps = 2;
  cfg.max_steps_per_epoch = 4;
  cfg.hidden = 8;
  cfg.max_resident_shards = 2;
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_dir = dir;
  cfg.fault.checkpoint_every = 2;
  return core::try_train_sampled_gcn(meta, graph::OocFeatureSpec{}, cluster,
                                     cfg);
}

// --- DataParallelTrainer -----------------------------------------------------

std::unique_ptr<nn::Sequential> make_mlp() {
  Rng rng(5);
  auto m = std::make_unique<nn::Sequential>();
  m->emplace<nn::Dense>(4, 8, rng);
  m->emplace<nn::ReLU>();
  m->emplace<nn::Dense>(8, 2, rng);
  return m;
}

std::unique_ptr<nn::Optimizer> make_momentum_sgd() {
  return std::make_unique<nn::Sgd>(0.1f, 0.9f);
}

}  // namespace

TEST(TrainLoop, HandWrittenCheckpointResumesAlg1BitIdentically) {
  const auto ds = small_dataset();
  const auto full = train_gcn(ds, scratch_dir("gcn_full"), 8);
  ASSERT_TRUE(full) << full.status().to_string();

  const std::string src = scratch_dir("gcn_src");
  ASSERT_TRUE(train_gcn(ds, src, 4));
  const auto ref = nn::load_checkpoint(nn::checkpoint_path(src, "gcn", 4));
  ASSERT_TRUE(ref) << ref.status().to_string();
  ASSERT_EQ(ref->epoch, 4u);

  const std::string dir =
      write_alone("gcn_hand", "gcn", 4, gcn_layout_copy(*ref));
  const auto resumed = train_gcn(ds, dir, 8);
  ASSERT_TRUE(resumed) << resumed.status().to_string();
  EXPECT_EQ(resumed->checkpoints_restored, 1u);
  EXPECT_EQ(resumed->epoch_losses, full->epoch_losses);  // bit-identical
  EXPECT_EQ(resumed->test_accuracy, full->test_accuracy);
}

TEST(TrainLoop, HandWrittenCheckpointResumesSampledGcnBitIdentically) {
  const auto meta = small_graph("graph_resume");
  const auto full = train_sampled(meta, scratch_dir("sampled_full"), 2);
  ASSERT_TRUE(full) << full.status().to_string();

  const std::string src = scratch_dir("sampled_src");
  ASSERT_TRUE(train_sampled(meta, src, 1));
  const auto ref = nn::load_checkpoint(nn::checkpoint_path(src, "gcn", 4));
  ASSERT_TRUE(ref) << ref.status().to_string();

  const std::string dir =
      write_alone("sampled_hand", "gcn", 4, gcn_layout_copy(*ref));
  const auto resumed = train_sampled(meta, dir, 2);
  ASSERT_TRUE(resumed) << resumed.status().to_string();
  EXPECT_EQ(resumed->checkpoints_restored, 1u);
  EXPECT_EQ(resumed->step_losses, full->step_losses);  // bit-identical
  EXPECT_EQ(resumed->eval_loss, full->eval_loss);
}

TEST(TrainLoop, Alg1RefusesTamperedCheckpoints) {
  const auto ds = small_dataset();
  const std::string src = scratch_dir("gcn_tamper_src");
  ASSERT_TRUE(train_gcn(ds, src, 4));
  const auto ref = nn::load_checkpoint(nn::checkpoint_path(src, "gcn", 4));
  ASSERT_TRUE(ref) << ref.status().to_string();

  for (const Tamper& t : gcn_tampers()) {
    SCOPED_TRACE(t.what);
    nn::Checkpoint c = gcn_layout_copy(*ref);
    t.apply(c, "");
    const auto run = train_gcn(ds, write_alone("gcn_tamper", "gcn", 4, c), 8);
    ASSERT_FALSE(run);
    EXPECT_EQ(run.status().code(), ErrorCode::kFailedPrecondition)
        << run.status().to_string();
  }
}

TEST(TrainLoop, RefusesCheckpointsPastThisRun) {
  // A checkpoint directory reused across runs: a 12-epoch run leaves
  // gcn_epoch12 behind.  An 8-epoch run must neither resume from it (same
  // k: it would report 12 epochs) nor restore it after a preemption (other
  // k: it would jump past its own end).
  const auto ds = small_dataset();
  const std::string dir = scratch_dir("gcn_reused");
  ASSERT_TRUE(train_gcn(ds, dir, 12));

  const auto same_k = train_gcn(ds, dir, 8);
  ASSERT_FALSE(same_k);
  EXPECT_EQ(same_k.status().code(), ErrorCode::kFailedPrecondition)
      << same_k.status().to_string();

  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  dflow::ClusterOptions opts;
  sagesim::runtime::FaultConfig faults;
  faults.seed = 3;
  faults.preempt_probability = 0.3;
  faults.name_filter = "gcn_epoch";
  opts.faults = faults;
  dflow::Cluster cluster(dm, opts);
  const auto other_k =
      core::try_train_distributed_gcn(ds, cluster, gcn_config(dir, 8, 1));
  ASSERT_FALSE(other_k);
  EXPECT_EQ(other_k.status().code(), ErrorCode::kFailedPrecondition)
      << other_k.status().to_string();
  EXPECT_GT(cluster.fault_injector()->preemptions(), 0u);
}

TEST(TrainLoop, SampledGcnRefusesTamperedCheckpoints) {
  const auto meta = small_graph("graph_tamper");
  const std::string src = scratch_dir("sampled_tamper_src");
  ASSERT_TRUE(train_sampled(meta, src, 1));
  const auto ref = nn::load_checkpoint(nn::checkpoint_path(src, "gcn", 4));
  ASSERT_TRUE(ref) << ref.status().to_string();

  for (const Tamper& t : gcn_tampers()) {
    SCOPED_TRACE(t.what);
    nn::Checkpoint c = gcn_layout_copy(*ref);
    t.apply(c, "");
    const auto run =
        train_sampled(meta, write_alone("sampled_tamper", "gcn", 4, c), 2);
    ASSERT_FALSE(run);
    EXPECT_EQ(run.status().code(), ErrorCode::kFailedPrecondition)
        << run.status().to_string();
  }
}

TEST(TrainLoop, DdpRestoreRefusesTamperedCheckpoints) {
  gpu::DeviceManager dm(kRanks, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  const std::size_t n = 16;
  tensor::Tensor x(n, 4);
  std::vector<int> y(n);
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t f = 0; f < 4; ++f)
      x.at(i, f) = static_cast<float>(rng.normal(y[i] == 0 ? -1 : 1, 1));
  }

  ddp::TrainerOptions opts;
  opts.checkpoint_dir = scratch_dir("ddp_src");
  ddp::DataParallelTrainer a(cluster, make_mlp, make_momentum_sgd, opts);
  for (int s = 0; s < 2; ++s) ASSERT_TRUE(a.try_step(x, y));
  ASSERT_TRUE(a.save_checkpoint(2).ok());
  const auto ref =
      nn::load_checkpoint(nn::checkpoint_path(opts.checkpoint_dir, "ddp", 2));
  ASSERT_TRUE(ref) << ref.status().to_string();
  // The DDP layout: "world" plus the replica codec under "r<rank>.".
  EXPECT_EQ(ref->scalars.at("world"), 2.0);
  EXPECT_EQ(ref->scalars.at("r1.opt_n"), 4.0);
  EXPECT_EQ(ref->scalars.count("r1.opt_t"), 1u);
  EXPECT_EQ(ref->tensors.count("r1.opt3"), 1u);

  std::vector<Tamper> cases(std::begin(kReplicaTampers),
                            std::end(kReplicaTampers));
  cases.push_back({"world = 1e300", [](nn::Checkpoint& c, const std::string&) {
                     c.scalars["world"] = 1e300;
                   }});
  for (const Tamper& t : cases) {
    SCOPED_TRACE(t.what);
    nn::Checkpoint c = *ref;
    t.apply(c, "r0.");
    ddp::TrainerOptions tampered = opts;
    tampered.checkpoint_dir = write_alone("ddp_tamper", "ddp", 2, c);
    ddp::DataParallelTrainer b(cluster, make_mlp, make_momentum_sgd,
                               tampered);
    const auto restored = b.restore_latest();
    ASSERT_FALSE(restored);
    EXPECT_EQ(restored.status().code(), ErrorCode::kFailedPrecondition)
        << restored.status().to_string();
  }
}

// --- the checkpoint decoder --------------------------------------------------

TEST(CheckpointDecode, TensorLargerThanItsPayloadIsDataLoss) {
  // A correctly checksummed file whose one tensor claims more elements than
  // its payload holds must fail to load before anything is allocated:
  // 2^31 x 2^31 floats overflow the byte count to zero, 2^20 x 2^20 ask for
  // 4 TiB.
  for (const std::uint64_t dim : {1ull << 31, 1ull << 20}) {
    SCOPED_TRACE(dim);
    std::string payload;
    auto append = [](std::string& out, auto v) {
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    append(payload, std::uint32_t{1});  // one tensor
    append(payload, std::uint32_t{6});
    payload += "param0";
    append(payload, dim);                // rows
    append(payload, dim);                // cols
    append(payload, std::uint8_t{0});    // host placement
    append(payload, std::int32_t{-1});
    append(payload, std::uint32_t{0});   // no blobs
    append(payload, std::uint32_t{0});   // no scalars
    std::uint64_t fnv = 1469598103934665603ull;
    for (const char c : payload) {
      fnv ^= static_cast<unsigned char>(c);
      fnv *= 1099511628211ull;
    }
    std::string file = "SGSMCKPT";
    append(file, std::uint32_t{2});      // format version
    append(file, std::uint64_t{0});      // epoch
    append(file, static_cast<std::uint64_t>(payload.size()));
    append(file, fnv);
    file += payload;

    const std::string path =
        nn::checkpoint_path(scratch_dir("oversized"), "gcn", 0);
    std::ofstream(path, std::ios::binary) << file;
    const auto loaded = nn::load_checkpoint(path);
    ASSERT_FALSE(loaded);
    EXPECT_EQ(loaded.status().code(), ErrorCode::kDataLoss);
  }
}
