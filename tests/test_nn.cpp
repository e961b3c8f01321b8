// Unit tests for nn: layers (incl. numeric gradient checks), GCN, losses,
// optimizers, metrics, Sequential.
#include <gtest/gtest.h>

#include <cmath>

#include "gpusim/device_manager.hpp"
#include "graph/generators.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/gcn.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optim.hpp"
#include "nn/sequential.hpp"

namespace nn = sagesim::nn;
namespace tensor = sagesim::tensor;
namespace graph = sagesim::graph;
using sagesim::stats::Rng;

namespace {

/// Central-difference gradient check of dL/dx for a layer, where
/// L = sum(forward(x) * w_out) with fixed random w_out.
void check_input_gradient(nn::Layer& layer, tensor::Tensor x,
                          float tol = 2e-2f) {
  Rng rng(7);
  tensor::Tensor out = layer.forward(nullptr, x, /*train=*/false);
  tensor::Tensor w_out(out.rows(), out.cols());
  w_out.init_uniform(rng, -1.0f, 1.0f);

  // Analytic: dL/d(out) = w_out, backprop to dx.
  layer.forward(nullptr, x, false);  // refresh caches
  const tensor::Tensor dx = layer.backward(nullptr, w_out);

  auto loss_at = [&](tensor::Tensor& input) {
    const tensor::Tensor o = layer.forward(nullptr, input, false);
    double l = 0.0;
    for (std::size_t i = 0; i < o.size(); ++i)
      l += static_cast<double>(o[i]) * w_out[i];
    return l;
  };

  const float eps = 1e-2f;
  // Probe a handful of coordinates.
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(1, x.size() / 7)) {
    const float saved = x[i];
    x[i] = saved + eps;
    const double hi = loss_at(x);
    x[i] = saved - eps;
    const double lo = loss_at(x);
    x[i] = saved;
    const double numeric = (hi - lo) / (2.0 * eps);
    ASSERT_NEAR(dx[i], numeric, tol) << "coordinate " << i;
  }
}

}  // namespace

// --- Dense -------------------------------------------------------------------

TEST(Dense, ForwardMatchesManual) {
  Rng rng(1);
  nn::Dense layer(2, 2, rng);
  layer.weight().value = tensor::Tensor::of({{1, 2}, {3, 4}});
  layer.bias().value = tensor::Tensor::of({{10, 20}});
  const auto y =
      layer.forward(nullptr, tensor::Tensor::of({{1, 1}}), false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 14.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 26.0f);
}

TEST(Dense, InputGradientIsCorrect) {
  Rng rng(2);
  nn::Dense layer(5, 4, rng);
  tensor::Tensor x(3, 5);
  x.init_uniform(rng, -1, 1);
  check_input_gradient(layer, x);
}

TEST(Dense, WeightGradientIsCorrect) {
  Rng rng(3);
  nn::Dense layer(3, 2, rng);
  tensor::Tensor x(4, 3);
  x.init_uniform(rng, -1, 1);

  tensor::Tensor w_out(4, 2);
  w_out.init_uniform(rng, -1, 1);
  layer.weight().zero_grad();
  layer.forward(nullptr, x, false);
  layer.backward(nullptr, w_out);
  const tensor::Tensor analytic = layer.weight().grad;

  auto loss = [&] {
    const auto o = layer.forward(nullptr, x, false);
    double l = 0.0;
    for (std::size_t i = 0; i < o.size(); ++i)
      l += static_cast<double>(o[i]) * w_out[i];
    return l;
  };
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    float& w = layer.weight().value[i];
    const float saved = w;
    w = saved + eps;
    const double hi = loss();
    w = saved - eps;
    const double lo = loss();
    w = saved;
    ASSERT_NEAR(analytic[i], (hi - lo) / (2.0 * eps), 2e-2);
  }
}

TEST(Dense, RejectsWrongInputWidth) {
  Rng rng(4);
  nn::Dense layer(5, 2, rng);
  tensor::Tensor x(1, 3);
  EXPECT_THROW(layer.forward(nullptr, x, false), std::invalid_argument);
  nn::Dense fresh(3, 2, rng);
  EXPECT_THROW(fresh.backward(nullptr, x), std::logic_error);
}

// --- ReLU / Dropout -------------------------------------------------------------

TEST(ReluLayer, GradientCheck) {
  Rng rng(5);
  nn::ReLU layer;
  tensor::Tensor x(3, 4);
  x.init_uniform(rng, 0.2f, 1.0f);  // away from the kink
  check_input_gradient(layer, x);
}

TEST(DropoutLayer, InferenceIsIdentity) {
  nn::Dropout layer(0.5f, 9);
  const auto x = tensor::Tensor::of({{1, 2, 3}});
  const auto y = layer.forward(nullptr, x, /*train=*/false);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[2], 3.0f);
}

TEST(DropoutLayer, TrainZeroesSomeAndRescales) {
  nn::Dropout layer(0.4f, 10);
  tensor::Tensor x(20, 20);
  x.fill(1.0f);
  const auto y = layer.forward(nullptr, x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f)
      ++zeros;
    else
      EXPECT_NEAR(y[i], 1.0f / 0.6f, 1e-5f);
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 400.0, 0.4, 0.08);
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  nn::Dropout layer(0.5f, 11);
  tensor::Tensor x(10, 10);
  x.fill(1.0f);
  const auto y = layer.forward(nullptr, x, true);
  tensor::Tensor dy(10, 10);
  dy.fill(1.0f);
  const auto dx = layer.backward(nullptr, dy);
  for (std::size_t i = 0; i < dx.size(); ++i)
    EXPECT_FLOAT_EQ(dx[i], y[i]);  // both are mask/keep
}

// --- Conv2d / MaxPool -------------------------------------------------------------

TEST(Conv2d, ForwardKnownKernel) {
  Rng rng(12);
  nn::Conv2d conv(1, 3, 3, 1, 3, 0, rng);  // 3x3 input, 3x3 kernel, valid
  conv.weight().value.fill(1.0f);
  conv.bias().value.fill(0.5f);
  tensor::Tensor x(1, 9);
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  const auto y = conv.forward(nullptr, x, false);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 36.0f + 0.5f);  // sum(0..8) + bias
}

TEST(Conv2d, PaddingPreservesSpatialDims) {
  Rng rng(13);
  nn::Conv2d conv(2, 6, 6, 3, 3, 1, rng);
  EXPECT_EQ(conv.out_height(), 6u);
  EXPECT_EQ(conv.out_width(), 6u);
  tensor::Tensor x(2, 2 * 36);
  x.init_uniform(rng, -1, 1);
  const auto y = conv.forward(nullptr, x, false);
  EXPECT_EQ(y.cols(), 3u * 36u);
}

TEST(Conv2d, InputGradientCheck) {
  Rng rng(14);
  nn::Conv2d conv(1, 4, 4, 2, 3, 1, rng);
  tensor::Tensor x(2, 16);
  x.init_uniform(rng, -1, 1);
  check_input_gradient(conv, x, 3e-2f);
}

TEST(Conv2d, DeviceMatchesHost) {
  Rng rng(15);
  sagesim::gpu::DeviceManager dm(1, sagesim::gpu::spec::test_tiny());
  nn::Conv2d conv(2, 5, 5, 3, 3, 1, rng);
  tensor::Tensor x(3, 2 * 25);
  x.init_uniform(rng, -1, 1);
  const auto host = conv.forward(nullptr, x, false);
  const auto dev = conv.forward(&dm.device(0), x, false);
  for (std::size_t i = 0; i < host.size(); ++i)
    ASSERT_NEAR(host[i], dev[i], 1e-5f);
}

TEST(MaxPool, ForwardPicksMaxAndRoutesGradient) {
  nn::MaxPool2x2 pool(1, 4, 4);
  tensor::Tensor x(1, 16);
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  const auto y = pool.forward(nullptr, x, false);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[3], 15.0f);

  tensor::Tensor dy(1, 4);
  dy.fill(1.0f);
  const auto dx = pool.backward(nullptr, dy);
  EXPECT_FLOAT_EQ(dx[5], 1.0f);
  EXPECT_FLOAT_EQ(dx[15], 1.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  float total = 0.0f;
  for (std::size_t i = 0; i < 16; ++i) total += dx[i];
  EXPECT_FLOAT_EQ(total, 4.0f);
}

TEST(MaxPool, RejectsOddDims) {
  EXPECT_THROW(nn::MaxPool2x2(1, 5, 4), std::invalid_argument);
}

// --- losses ------------------------------------------------------------------------

TEST(Loss, CrossEntropyKnownValue) {
  // Uniform logits over 4 classes: loss = ln(4).
  tensor::Tensor logits(2, 4);
  logits.fill(0.0f);
  const std::vector<int> labels{0, 3};
  const auto r = nn::softmax_cross_entropy(nullptr, logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-6);
  // Gradient rows sum to zero.
  for (std::size_t row = 0; row < 2; ++row) {
    float s = 0.0f;
    for (std::size_t c = 0; c < 4; ++c) s += r.dlogits.at(row, c);
    EXPECT_NEAR(s, 0.0f, 1e-6f);
  }
}

TEST(Loss, CrossEntropyGradientCheck) {
  Rng rng(16);
  tensor::Tensor logits(3, 5);
  logits.init_uniform(rng, -2, 2);
  const std::vector<int> labels{1, 4, 0};
  const auto r = nn::softmax_cross_entropy(nullptr, logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); i += 3) {
    const float saved = logits[i];
    logits[i] = saved + eps;
    const double hi = nn::softmax_cross_entropy(nullptr, logits, labels).loss;
    logits[i] = saved - eps;
    const double lo = nn::softmax_cross_entropy(nullptr, logits, labels).loss;
    logits[i] = saved;
    ASSERT_NEAR(r.dlogits[i], (hi - lo) / (2.0 * eps), 1e-3);
  }
}

TEST(Loss, MaskedVariantZeroesOtherRows) {
  tensor::Tensor logits(4, 3);
  logits.fill(1.0f);
  const std::vector<int> labels{0, 1, 2, 0};
  const std::vector<std::uint32_t> rows{1, 3};
  const auto r =
      nn::masked_softmax_cross_entropy(nullptr, logits, labels, rows);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(r.dlogits.at(0, c), 0.0f);
    EXPECT_FLOAT_EQ(r.dlogits.at(2, c), 0.0f);
  }
  EXPECT_NE(r.dlogits.at(1, 1), 0.0f);
}

TEST(Loss, ValidatesInputs) {
  tensor::Tensor logits(2, 3);
  const std::vector<int> wrong_count{0};
  EXPECT_THROW(nn::softmax_cross_entropy(nullptr, logits, wrong_count),
               std::invalid_argument);
  const std::vector<int> bad_label{0, 7};
  EXPECT_THROW(nn::softmax_cross_entropy(nullptr, logits, bad_label),
               std::out_of_range);
}

TEST(Loss, MaskedMseTargetsOnly) {
  tensor::Tensor pred(2, 3);
  pred.fill(1.0f);
  const std::vector<nn::MseTarget> targets{{0, 1, 3.0f}, {1, 2, 1.0f}};
  const auto r = nn::masked_mse(nullptr, pred, targets);
  EXPECT_NEAR(r.loss, 0.5 * (4.0 + 0.0) / 2.0, 1e-6);
  EXPECT_FLOAT_EQ(r.dlogits.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r.dlogits.at(0, 1), -1.0f);  // (1-3)/2
}

// --- optimizers -----------------------------------------------------------------------

TEST(Optim, SgdStepsDownhill) {
  nn::Param p(1, 1);
  p.value[0] = 5.0f;
  p.grad[0] = 2.0f;
  nn::Sgd opt(0.1f);
  nn::Param* params[] = {&p};
  opt.step(nullptr, params);
  EXPECT_NEAR(p.value[0], 4.8f, 1e-6f);
}

TEST(Optim, SgdMomentumAccumulates) {
  nn::Param p(1, 1);
  p.value[0] = 0.0f;
  nn::Sgd opt(1.0f, 0.5f);
  nn::Param* params[] = {&p};
  p.grad[0] = 1.0f;
  opt.step(nullptr, params);  // v=1, w=-1
  opt.step(nullptr, params);  // v=1.5, w=-2.5
  EXPECT_NEAR(p.value[0], -2.5f, 1e-6f);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  // minimize (w - 3)^2 via its gradient.
  nn::Param p(1, 1);
  p.value[0] = -4.0f;
  nn::Adam opt(0.2f);
  nn::Param* params[] = {&p};
  for (int i = 0; i < 300; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step(nullptr, params);
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.1f);
}

TEST(Optim, RejectsBadHyperparams) {
  EXPECT_THROW(nn::Sgd(0.0f), std::invalid_argument);
  EXPECT_THROW(nn::Sgd(0.1f, 1.5f), std::invalid_argument);
  EXPECT_THROW(nn::Adam(-1.0f), std::invalid_argument);
}

// --- metrics --------------------------------------------------------------------------

TEST(Metrics, AccuracyCountsArgmaxMatches) {
  const auto logits = tensor::Tensor::of({{3, 1}, {0, 2}, {5, 4}});
  const std::vector<int> labels{0, 1, 1};
  EXPECT_NEAR(nn::accuracy(logits, labels), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, ConfusionMatrixDiagonal) {
  const auto logits = tensor::Tensor::of({{3, 1}, {0, 2}, {5, 4}, {1, 9}});
  const std::vector<int> labels{0, 1, 0, 1};
  const auto m = nn::confusion_matrix(logits, labels, 2);
  EXPECT_EQ(m[0][0], 2u);
  EXPECT_EQ(m[1][1], 2u);
  EXPECT_EQ(m[0][1], 0u);
}

// --- Sequential / end-to-end learning ---------------------------------------------------

TEST(Sequential, MlpLearnsXorLikeSeparation) {
  Rng rng(17);
  nn::Sequential model;
  model.emplace<nn::Dense>(2, 16, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(16, 2, rng);
  nn::Adam opt(0.02f);

  tensor::Tensor x(200, 2);
  std::vector<int> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    const float a = static_cast<float>(rng.uniform(-1, 1));
    const float b = static_cast<float>(rng.uniform(-1, 1));
    x.at(i, 0) = a;
    x.at(i, 1) = b;
    y[i] = (a * b > 0) ? 1 : 0;  // XOR-ish quadrant task
  }
  double first = 0.0, last = 0.0;
  for (int epoch = 0; epoch < 150; ++epoch) {
    model.zero_grad();
    const auto logits = model.forward(nullptr, x, true);
    const auto loss = nn::softmax_cross_entropy(nullptr, logits, y);
    model.backward(nullptr, loss.dlogits);
    auto params = model.params();
    opt.step(nullptr, params);
    if (epoch == 0) first = loss.loss;
    last = loss.loss;
  }
  EXPECT_LT(last, 0.5 * first);
  EXPECT_GT(nn::accuracy(model.forward(nullptr, x, false), y), 0.9);
}

TEST(Sequential, CopyParamsFromMakesModelsAgree) {
  Rng rng(18);
  nn::Sequential a, b;
  a.emplace<nn::Dense>(3, 4, rng);
  b.emplace<nn::Dense>(3, 4, rng);
  b.copy_params_from(a);
  tensor::Tensor x(2, 3);
  x.init_uniform(rng, -1, 1);
  const auto ya = a.forward(nullptr, x, false);
  const auto yb = b.forward(nullptr, x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

// --- GCN ------------------------------------------------------------------------------

TEST(Gcn, LearnsPlantedCommunities) {
  Rng rng(19);
  graph::PlantedPartitionParams params;
  params.num_nodes = 300;
  params.num_classes = 3;
  params.feature_dim = 24;
  params.intra_edge_prob = 0.05;
  params.inter_edge_prob = 0.002;
  params.feature_noise_sd = 1.2;
  const auto ds = graph::planted_partition(params, rng);
  const auto adj = graph::normalized_adjacency(ds.graph);

  nn::Gcn::Config cfg;
  cfg.in_features = params.feature_dim;
  cfg.hidden = 16;
  cfg.num_classes = 3;
  cfg.dropout = 0.2f;
  nn::Gcn model(&adj, cfg);
  nn::Sgd opt(0.2f, 0.9f);

  double first = 0.0, last = 0.0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    model.zero_grad();
    const auto logits = model.forward(nullptr, ds.features, true);
    const auto loss = nn::masked_softmax_cross_entropy(
        nullptr, logits, ds.labels, ds.train_nodes);
    model.backward(nullptr, loss.dlogits);
    auto params2 = model.params();
    opt.step(nullptr, params2);
    if (epoch == 0) first = loss.loss;
    last = loss.loss;
  }
  EXPECT_LT(last, 0.5 * first);
  const auto logits = model.forward(nullptr, ds.features, false);
  EXPECT_GT(nn::masked_accuracy(logits, ds.labels, ds.test_nodes), 0.8);
}

TEST(Gcn, GcnConvValidatesShapes) {
  Rng rng(20);
  const auto g = graph::grid_2d(3, 3);
  const auto adj = graph::normalized_adjacency(g);
  nn::GcnConv conv(&adj, 4, 2, rng);
  tensor::Tensor wrong_rows(5, 4);
  EXPECT_THROW(conv.forward(nullptr, wrong_rows, false),
               std::invalid_argument);
  tensor::Tensor wrong_cols(9, 3);
  EXPECT_THROW(conv.forward(nullptr, wrong_cols, false),
               std::invalid_argument);
  EXPECT_THROW(nn::GcnConv(nullptr, 4, 2, rng), std::invalid_argument);
}

TEST(Gcn, SameSeedGivesIdenticalReplicas) {
  Rng rng(21);
  const auto g = graph::grid_2d(4, 4);
  const auto adj = graph::normalized_adjacency(g);
  nn::Gcn::Config cfg;
  cfg.in_features = 8;
  cfg.num_classes = 2;
  cfg.seed = 77;
  nn::Gcn a(&adj, cfg), b(&adj, cfg);
  tensor::Tensor x(16, 8);
  x.init_uniform(rng, -1, 1);
  const auto ya = a.forward(nullptr, x, false);
  const auto yb = b.forward(nullptr, x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) ASSERT_FLOAT_EQ(ya[i], yb[i]);
}

// --- extended metrics ----------------------------------------------------------------

TEST(Metrics, PerClassPrecisionRecallF1) {
  // confusion: class0 {TP 8, FN 2}, class1 {TP 5, FN 0}, preds to 0: 8+0=8..
  const std::vector<std::vector<std::size_t>> m{{8, 2}, {0, 5}};
  const auto pm = nn::per_class_metrics(m);
  ASSERT_EQ(pm.size(), 2u);
  EXPECT_DOUBLE_EQ(pm[0].precision, 1.0);      // 8 / (8 + 0)
  EXPECT_DOUBLE_EQ(pm[0].recall, 0.8);         // 8 / 10
  EXPECT_NEAR(pm[0].f1, 2 * 1.0 * 0.8 / 1.8, 1e-12);
  EXPECT_NEAR(pm[1].precision, 5.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(pm[1].recall, 1.0);
}

TEST(Metrics, MacroF1PerfectClassifier) {
  const std::vector<std::vector<std::size_t>> m{{10, 0}, {0, 10}};
  EXPECT_DOUBLE_EQ(nn::macro_f1(m), 1.0);
  const std::vector<std::vector<std::size_t>> ragged{{1, 2}, {1}};
  EXPECT_THROW(nn::per_class_metrics(ragged), std::invalid_argument);
}

TEST(Metrics, ZeroDivisionHandledAsZero) {
  // Class 1 never predicted and never true.
  const std::vector<std::vector<std::size_t>> m{{10, 0}, {0, 0}};
  const auto pm = nn::per_class_metrics(m);
  EXPECT_DOUBLE_EQ(pm[1].precision, 0.0);
  EXPECT_DOUBLE_EQ(pm[1].recall, 0.0);
  EXPECT_DOUBLE_EQ(pm[1].f1, 0.0);
}
