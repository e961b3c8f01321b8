// Optimizers: SGD (with momentum and weight decay) and Adam.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gpusim/device.hpp"
#include "nn/layer.hpp"

namespace sagesim::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update step to @p params from their accumulated gradients,
  /// then the caller typically zero_grad()s.  Per-parameter state is keyed
  /// by position, so the same parameter list must be passed every step.
  virtual void step(gpu::Device* dev, std::span<Param* const> params) = 0;

  // --- checkpointing hooks: per-parameter state in a stable order ---------

  /// Snapshot of the optimizer's state tensors (empty when stateless or not
  /// yet initialized by a first step()).
  virtual std::vector<tensor::Tensor> state() const { return {}; }

  /// Restores a snapshot taken by state().  Passing a vector whose layout
  /// does not match this optimizer is a programmer error (throws).
  virtual void set_state(std::vector<tensor::Tensor> state) {
    if (!state.empty())
      throw std::invalid_argument("Optimizer::set_state: stateless optimizer");
  }

  /// Tensors state() holds per parameter once initialized (0 when
  /// stateless) — what a checkpoint restore validates a snapshot against.
  virtual std::size_t state_per_param() const { return 0; }

  /// Monotonic step counter (bias correction etc.); 0 when untracked.
  virtual std::uint64_t step_count() const { return 0; }
  virtual void set_step_count(std::uint64_t /*t*/) {}
};

class Sgd final : public Optimizer {
 public:
  explicit Sgd(float lr, float momentum = 0.0f, float weight_decay = 0.0f);
  void step(gpu::Device* dev, std::span<Param* const> params) override;

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

  std::vector<tensor::Tensor> state() const override { return velocity_; }
  std::size_t state_per_param() const override {
    return momentum_ > 0.0f ? 1 : 0;
  }
  void set_state(std::vector<tensor::Tensor> state) override {
    velocity_ = std::move(state);
  }

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<tensor::Tensor> velocity_;
};

class Adam final : public Optimizer {
 public:
  explicit Adam(float lr = 1e-3f, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f, float weight_decay = 0.0f);
  void step(gpu::Device* dev, std::span<Param* const> params) override;

  /// m tensors followed by v tensors (even total size).
  std::vector<tensor::Tensor> state() const override;
  void set_state(std::vector<tensor::Tensor> state) override;
  std::size_t state_per_param() const override { return 2; }
  std::uint64_t step_count() const override { return t_; }
  void set_step_count(std::uint64_t t) override { t_ = t; }

 private:
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  std::uint64_t t_{0};
  std::vector<tensor::Tensor> m_, v_;
};

}  // namespace sagesim::nn
