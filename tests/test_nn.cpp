#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "nn/checkpoint.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/zoo.hpp"

// Counts every plain operator new, so a test can assert that a steady-state
// training step allocates nothing. Array and nothrow forms route through
// this pair in libstdc++, and GCC cannot see that the malloc/free pair
// matches.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
std::atomic<std::size_t> g_allocs{0};
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using of::nn::Model;
using of::nn::Module;
using of::nn::Parameter;
using of::tensor::Rng;
using of::tensor::Tensor;

// Scalar loss L = Σ (weights ⊙ module(x)); returns L and drives backward.
float weighted_loss_and_backward(Module& m, const Tensor& x, const Tensor& weights,
                                 Tensor* dx_out = nullptr) {
  const Tensor y = m.forward(x);
  float loss = y.dot(weights);
  Tensor dx = m.backward(weights);
  if (dx_out) *dx_out = dx;
  return loss;
}

float weighted_loss_only(Module& m, const Tensor& x, const Tensor& weights) {
  return m.forward(x).dot(weights);
}

// Central-difference gradient check against the analytic backward pass, for
// both inputs and every parameter of the module.
void check_gradients(Module& m, std::size_t in_dim, std::size_t batch, Rng& rng,
                     float tol = 2e-2f) {
  const Tensor x = Tensor::randn({batch, in_dim}, rng);
  const Tensor probe = m.forward(x);
  const Tensor weights = Tensor::randn(probe.shape(), rng);

  std::vector<Parameter*> params;
  m.collect_parameters(params);
  for (auto* p : params) p->grad.zero_();

  Tensor dx;
  (void)weighted_loss_and_backward(m, x, weights, &dx);

  const float eps = 1e-3f;
  // Input gradient.
  for (std::size_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float lp = weighted_loss_only(m, xp, weights);
    const float lm = weighted_loss_only(m, xm, weights);
    const float num = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dx[i], num, tol * std::max(1.0f, std::fabs(num)))
        << "input grad mismatch at " << i << " in " << m.name();
  }
  // Parameter gradients (a subsample for large layers).
  for (auto* p : params) {
    const std::size_t stride = std::max<std::size_t>(1, p->value.numel() / 16);
    for (std::size_t i = 0; i < p->value.numel(); i += stride) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const float lp = weighted_loss_only(m, x, weights);
      p->value[i] = orig - eps;
      const float lm = weighted_loss_only(m, x, weights);
      p->value[i] = orig;
      const float num = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad[i], num, tol * std::max(1.0f, std::fabs(num)))
          << "param grad mismatch in " << p->name << '[' << i << ']';
    }
  }
}

TEST(GradCheck, Linear) {
  Rng rng(1);
  of::nn::Linear layer(5, 4, rng);
  check_gradients(layer, 5, 3, rng);
}

TEST(GradCheck, ReLU) {
  Rng rng(2);
  of::nn::ReLU layer;
  check_gradients(layer, 6, 2, rng);
}

TEST(GradCheck, Tanh) {
  Rng rng(3);
  of::nn::Tanh layer;
  check_gradients(layer, 4, 3, rng);
}

TEST(GradCheck, HardSwish) {
  Rng rng(4);
  of::nn::HardSwish layer;
  check_gradients(layer, 6, 3, rng);
}

TEST(GradCheck, BatchNormTrainingMode) {
  Rng rng(5);
  of::nn::BatchNorm1d layer(4);
  // BatchNorm's batch statistics change with perturbed inputs — the
  // analytic backward accounts for that, which is exactly what we check.
  check_gradients(layer, 4, 6, rng, 5e-2f);
}

TEST(GradCheck, BatchNormEvalMode) {
  Rng rng(6);
  of::nn::BatchNorm1d layer(4);
  // Prime running stats, then check gradients in eval mode.
  Tensor warm = Tensor::randn({8, 4}, rng);
  (void)layer.forward(warm);
  layer.set_training(false);
  check_gradients(layer, 4, 3, rng);
}

TEST(GradCheck, ResidualBlock) {
  Rng rng(7);
  of::nn::ResidualBlock layer(6, rng);
  check_gradients(layer, 6, 4, rng, 5e-2f);
}

TEST(GradCheck, SequentialStack) {
  Rng rng(8);
  of::nn::Sequential seq;
  seq.emplace<of::nn::Linear>(5, 8, rng);
  seq.emplace<of::nn::Tanh>();
  seq.emplace<of::nn::Linear>(8, 3, rng);
  check_gradients(seq, 5, 2, rng);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(9);
  const Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<std::size_t> labels{1, 4, 0};
  const auto lg = of::nn::softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float num = (of::nn::softmax_cross_entropy(lp, labels).loss -
                       of::nn::softmax_cross_entropy(lm, labels).loss) /
                      (2 * eps);
    EXPECT_NEAR(lg.grad[i], num, 1e-2f);
  }
}

// --- loss semantics -----------------------------------------------------------

TEST(Loss, SoftmaxRowsSumToOne) {
  Rng rng(10);
  const Tensor p = of::nn::softmax(Tensor::randn({4, 7}, rng));
  for (std::size_t r = 0; r < 4; ++r) {
    float s = 0.0f;
    for (std::size_t c = 0; c < 7; ++c) s += p(r, c);
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Loss, CrossEntropyOfPerfectPrediction) {
  Tensor logits({1, 3}, std::vector<float>{100.0f, 0.0f, 0.0f});
  const auto lg = of::nn::softmax_cross_entropy(logits, {0});
  EXPECT_NEAR(lg.loss, 0.0f, 1e-4f);
}

TEST(Loss, CrossEntropyOfUniformIsLogK) {
  Tensor logits({1, 4});
  const auto lg = of::nn::softmax_cross_entropy(logits, {2});
  EXPECT_NEAR(lg.loss, std::log(4.0f), 1e-5f);
}

TEST(Loss, BadLabelThrows) {
  Tensor logits({1, 3});
  EXPECT_THROW(of::nn::softmax_cross_entropy(logits, {3}), std::runtime_error);
}

TEST(Loss, Accuracy) {
  Tensor logits({2, 2}, std::vector<float>{1, 0, 0, 1});
  EXPECT_FLOAT_EQ(of::nn::accuracy(logits, {0, 1}), 1.0f);
  EXPECT_FLOAT_EQ(of::nn::accuracy(logits, {1, 1}), 0.5f);
}

TEST(Loss, MseZeroAtTarget) {
  Rng rng(11);
  const Tensor t = Tensor::randn({5}, rng);
  const auto lg = of::nn::mse_loss(t, t);
  EXPECT_FLOAT_EQ(lg.loss, 0.0f);
}

// --- Dropout -------------------------------------------------------------------

TEST(Dropout, EvalIsIdentity) {
  of::nn::Dropout d(0.5f, 99);
  d.set_training(false);
  Rng rng(12);
  const Tensor x = Tensor::randn({3, 4}, rng);
  EXPECT_TRUE(d.forward(x).allclose(x, 0.0f, 0.0f));
}

TEST(Dropout, TrainZeroesRoughlyPFraction) {
  of::nn::Dropout d(0.25f, 99);
  const Tensor x = Tensor::ones({10000});
  const Tensor y = d.forward(x);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i)
    if (y[i] == 0.0f) ++zeros;
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.25, 0.03);
  // Surviving units are scaled by 1/(1-p).
  for (std::size_t i = 0; i < y.numel(); ++i)
    if (y[i] != 0.0f) EXPECT_FLOAT_EQ(y[i], 1.0f / 0.75f);
}

TEST(Dropout, BackwardUsesSameMask) {
  of::nn::Dropout d(0.5f, 7);
  const Tensor x = Tensor::ones({100});
  const Tensor y = d.forward(x);
  const Tensor g = d.backward(Tensor::ones({100}));
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FLOAT_EQ(g[i], y[i]);
}

// --- BatchNorm statistics -------------------------------------------------------

TEST(BatchNorm, NormalizesBatch) {
  Rng rng(13);
  of::nn::BatchNorm1d bn(3);
  const Tensor x = Tensor::randn({64, 3}, rng, 5.0f, 3.0f);
  const Tensor y = bn.forward(x);
  for (std::size_t j = 0; j < 3; ++j) {
    double mean = 0.0, var = 0.0;
    for (std::size_t b = 0; b < 64; ++b) mean += y(b, j);
    mean /= 64;
    for (std::size_t b = 0; b < 64; ++b) var += (y(b, j) - mean) * (y(b, j) - mean);
    var /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConverge) {
  Rng rng(14);
  of::nn::BatchNorm1d bn(2, /*momentum=*/0.5f);
  for (int i = 0; i < 32; ++i) (void)bn.forward(Tensor::randn({128, 2}, rng, 2.0f, 1.0f));
  EXPECT_NEAR(bn.running_mean()[0], 2.0f, 0.2f);
  EXPECT_NEAR(bn.running_var()[0], 1.0f, 0.2f);
}

TEST(BatchNorm, RunningVarUsesUnbiasedEstimate) {
  // Golden check against the torch.nn.BatchNorm1d convention: the EMA tracks
  // the *unbiased* batch variance (n/(n-1) correction) even though the
  // normalization itself uses the biased one. Mirrors the exact float casts.
  of::nn::BatchNorm1d bn(1, /*momentum=*/0.1f);
  const Tensor x = Tensor::from_vector({1.0f, 2.0f, 3.0f, 6.0f}).reshape({4, 1});
  (void)bn.forward(x);

  const double mean = (1.0 + 2.0 + 3.0 + 6.0) / 4.0;  // 3.0
  double var = 0.0;
  for (const double v : {1.0, 2.0, 3.0, 6.0}) var += (v - mean) * (v - mean);
  var /= 4.0;                                 // biased: 3.5
  const double unbiased = var * 4.0 / 3.0;    // unbiased: 14/3
  const float expect_mean = 0.9f * 0.0f + 0.1f * static_cast<float>(mean);
  const float expect_var = 0.9f * 1.0f + 0.1f * static_cast<float>(unbiased);
  EXPECT_FLOAT_EQ(bn.running_mean()[0], expect_mean);
  EXPECT_FLOAT_EQ(bn.running_var()[0], expect_var);
}

TEST(BatchNorm, ParamsTaggedForFedBN) {
  Rng rng(15);
  of::nn::BatchNorm1d bn(2);
  std::vector<Parameter*> ps;
  bn.collect_parameters(ps);
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_TRUE(ps[0]->is_batchnorm);
  EXPECT_TRUE(ps[1]->is_batchnorm);
}

// --- optimizers -----------------------------------------------------------------

TEST(Optimizer, SgdPlainStep) {
  Parameter p("w", Tensor::from_vector({1.0f}));
  p.grad[0] = 0.5f;
  of::nn::SGD opt({&p}, 0.1f);
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 1.0f - 0.1f * 0.5f);
}

TEST(Optimizer, SgdWeightDecay) {
  Parameter p("w", Tensor::from_vector({2.0f}));
  of::nn::SGD opt({&p}, 0.1f, 0.0f, /*weight_decay=*/0.5f);
  opt.step();  // grad = 0 + 0.5*2 = 1 → w -= 0.1
  EXPECT_FLOAT_EQ(p.value[0], 1.9f);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  Parameter p("w", Tensor::from_vector({0.0f}));
  of::nn::SGD opt({&p}, 1.0f, /*momentum=*/0.9f);
  p.grad[0] = 1.0f;
  opt.step();  // v=1, w=-1
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
  p.grad[0] = 1.0f;
  opt.step();  // v=1.9, w=-2.9
  EXPECT_FLOAT_EQ(p.value[0], -2.9f);
}

TEST(Optimizer, ZeroGradClears) {
  Parameter p("w", Tensor::from_vector({0.0f}));
  p.grad[0] = 3.0f;
  of::nn::SGD opt({&p}, 0.1f);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // minimize f(w) = (w-3)²
  Parameter p("w", Tensor::from_vector({0.0f}));
  of::nn::Adam opt({&p}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(Optimizer, AdamWDecayIsDecoupled) {
  // With zero gradient AdamW still shrinks weights; classic Adam with
  // L2 coupling moves them through the moment estimates instead.
  Parameter p("w", Tensor::from_vector({1.0f}));
  of::nn::AdamW opt({&p}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  p.grad[0] = 0.0f;
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.01f * 0.1f * 1.0f, 1e-6f);
}

TEST(Optimizer, SgdConvergesOnQuadratic) {
  Parameter p("w", Tensor::from_vector({-4.0f}));
  of::nn::SGD opt({&p}, 0.1f, 0.9f);
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 1.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 1.0f, 0.05f);
}

TEST(Scheduler, MultiStepDecays) {
  Parameter p("w", Tensor::from_vector({0.0f}));
  of::nn::SGD opt({&p}, 1.0f);
  of::nn::MultiStepLR sched(opt, {2, 4}, 0.1f);
  sched.on_epoch(0);
  EXPECT_FLOAT_EQ(opt.lr(), 1.0f);
  sched.on_epoch(2);
  EXPECT_FLOAT_EQ(opt.lr(), 0.1f);
  sched.on_epoch(4);
  EXPECT_NEAR(opt.lr(), 0.01f, 1e-7f);
  sched.on_epoch(1);  // going back re-derives from the base LR
  EXPECT_FLOAT_EQ(opt.lr(), 1.0f);
}

TEST(Scheduler, StepLrDecays) {
  Parameter p("w", Tensor::from_vector({0.0f}));
  of::nn::SGD opt({&p}, 0.8f);
  of::nn::StepLR sched(opt, 3, 0.5f);
  sched.on_epoch(2);
  EXPECT_FLOAT_EQ(opt.lr(), 0.8f);
  sched.on_epoch(3);
  EXPECT_FLOAT_EQ(opt.lr(), 0.4f);
  sched.on_epoch(7);
  EXPECT_FLOAT_EQ(opt.lr(), 0.2f);
}

// --- Model + zoo -----------------------------------------------------------------

TEST(Model, FlatParameterRoundtrip) {
  Model m = of::nn::zoo::make_model("mlp_tiny", 8, 3, 1);
  const Tensor flat = m.flat_parameters();
  EXPECT_EQ(flat.numel(), m.num_scalars());
  Tensor changed = flat;
  changed.scale_(2.0f);
  m.set_flat_parameters(changed);
  EXPECT_TRUE(m.flat_parameters().allclose(changed, 0.0f, 0.0f));
}

TEST(Model, SameSeedSameInit) {
  Model a = of::nn::zoo::make_model("resnet18_mini", 16, 4, 99);
  Model b = of::nn::zoo::make_model("resnet18_mini", 16, 4, 99);
  EXPECT_TRUE(a.flat_parameters().allclose(b.flat_parameters(), 0.0f, 0.0f));
}

TEST(Model, DifferentSeedDifferentInit) {
  Model a = of::nn::zoo::make_model("mlp_tiny", 16, 4, 1);
  Model b = of::nn::zoo::make_model("mlp_tiny", 16, 4, 2);
  EXPECT_FALSE(a.flat_parameters().allclose(b.flat_parameters()));
}

TEST(Model, CloneIsDeepAndFaithful) {
  Rng rng(16);
  Model a = of::nn::zoo::make_model("resnet18_mini", 16, 4, 5);
  (void)a.forward(Tensor::randn({8, 16}, rng));  // move BN running stats
  Model b = a.clone();
  EXPECT_TRUE(a.flat_parameters().allclose(b.flat_parameters(), 0.0f, 0.0f));
  // Mutating the clone leaves the original untouched.
  Tensor flat = b.flat_parameters();
  flat.scale_(0.0f);
  b.set_flat_parameters(flat);
  EXPECT_GT(a.flat_parameters().l2_norm(), 0.0f);
  // Buffers copied too.
  a.set_training(false);
  Model c = a.clone();
  c.set_training(false);
  Rng rng2(17);
  const Tensor x = Tensor::randn({4, 16}, rng2);
  EXPECT_TRUE(a.forward(x).allclose(c.forward(x), 1e-5f, 1e-5f));
}

TEST(Model, FeaturesMatchManualSplit) {
  Model m = of::nn::zoo::make_model("mlp_tiny", 8, 3, 11);
  Rng rng(18);
  const Tensor x = Tensor::randn({2, 8}, rng);
  const Tensor z = m.features(x);
  EXPECT_EQ(z.size(1), 32u);  // hidden width of mlp_tiny
}

TEST(Zoo, AllModelsForwardAndBackward) {
  Rng rng(19);
  for (const auto& name : of::nn::zoo::model_names()) {
    // 64 = 8×8 so the convolutional model can interpret it as an image.
    Model m = of::nn::zoo::make_model(name, 64, 5, 3);
    const Tensor x = Tensor::randn({4, 64}, rng);
    const Tensor y = m.forward(x);
    EXPECT_EQ(y.size(1), 5u) << name;
    const auto lg = of::nn::softmax_cross_entropy(y, {0, 1, 2, 3});
    m.zero_grad();
    m.backward(lg.grad);
    EXPECT_GT(m.flat_gradients().l2_norm(), 0.0f) << name;
  }
}

TEST(Zoo, ParameterCountOrderingMatchesPaper) {
  // Table 3b cost ordering requires VGG > Alex > Res > Mob.
  auto scalars = [](const char* n) {
    Model m = of::nn::zoo::make_model(n, 64, 10, 1);
    return m.num_scalars();
  };
  const auto vgg = scalars("vgg11_mini");
  const auto alex = scalars("alexnet_mini");
  const auto res = scalars("resnet18_mini");
  const auto mob = scalars("mobilenetv3_mini");
  EXPECT_GT(vgg, alex);
  EXPECT_GT(alex, res);
  EXPECT_GT(res, mob);
}

TEST(Zoo, HeadParametersTagged) {
  Model m = of::nn::zoo::make_model("vgg11_mini", 16, 4, 1);
  std::size_t head = 0, base = 0;
  for (auto* p : m.parameters()) (p->is_head ? head : base) += 1;
  EXPECT_EQ(head, 2u);  // weight + bias of the head Linear
  EXPECT_GT(base, 0u);
}

TEST(Zoo, UnknownModelThrows) {
  EXPECT_THROW(of::nn::zoo::make_model("resnet152", 8, 2, 1), std::runtime_error);
}

// --- convolutional layers ---------------------------------------------------------

TEST(GradCheck, Conv2dWithPadding) {
  Rng rng(50);
  of::nn::Conv2d layer({2, 5, 5}, 3, 3, 1, rng);
  check_gradients(layer, 2 * 5 * 5, 2, rng, 3e-2f);
}

TEST(GradCheck, Conv2dNoPadding) {
  Rng rng(51);
  of::nn::Conv2d layer({1, 6, 6}, 2, 3, 0, rng);
  check_gradients(layer, 36, 2, rng, 3e-2f);
}

TEST(GradCheck, MaxPool2d) {
  Rng rng(52);
  of::nn::MaxPool2d layer({2, 6, 6});
  check_gradients(layer, 72, 2, rng);
}

TEST(GradCheck, LayerNorm) {
  Rng rng(53);
  of::nn::LayerNorm layer(10);
  check_gradients(layer, 10, 3, rng, 5e-2f);
}

TEST(Conv2d, KnownValueIdentityKernel) {
  // A single 1×1 kernel with weight 1, bias 0 is the identity map.
  Rng rng(54);
  of::nn::Conv2d layer({1, 3, 3}, 1, 1, 0, rng);
  std::vector<of::nn::Parameter*> ps;
  layer.collect_parameters(ps);
  ps[0]->value.fill_(1.0f);
  ps[1]->value.fill_(0.0f);
  const Tensor x = Tensor::randn({2, 9}, rng);
  EXPECT_TRUE(layer.forward(x).allclose(x, 1e-6f, 1e-6f));
}

TEST(Conv2d, OutputGeometry) {
  Rng rng(55);
  of::nn::Conv2d same({3, 8, 8}, 16, 3, 1, rng);
  EXPECT_EQ(same.out_geom().height, 8u);
  EXPECT_EQ(same.out_geom().channels, 16u);
  of::nn::Conv2d valid({3, 8, 8}, 4, 3, 0, rng);
  EXPECT_EQ(valid.out_geom().height, 6u);
}

TEST(MaxPool2d, SelectsMaxima) {
  of::nn::MaxPool2d pool({1, 2, 2});
  Tensor x({1, 4}, std::vector<float>{1, 5, 2, 3});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  const Tensor g = pool.backward(Tensor::ones({1, 1}));
  EXPECT_FLOAT_EQ(g(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(g(0, 0), 0.0f);
}

TEST(LayerNorm, NormalizesEachRow) {
  Rng rng(56);
  of::nn::LayerNorm ln(16);
  const Tensor y = ln.forward(Tensor::randn({4, 16}, rng, 3.0f, 2.0f));
  for (std::size_t b = 0; b < 4; ++b) {
    double mean = 0.0;
    for (std::size_t j = 0; j < 16; ++j) mean += y(b, j);
    EXPECT_NEAR(mean / 16.0, 0.0, 1e-4);
  }
}

TEST(Zoo, CnnMiniTrainsOnImageLikeInput) {
  Model m = of::nn::zoo::make_model("cnn_mini", 64, 4, 9);
  Rng rng(57);
  Tensor x({32, 64});
  std::vector<std::size_t> y(32);
  for (std::size_t i = 0; i < 32; ++i) {
    y[i] = i % 4;
    for (std::size_t d = 0; d < 64; ++d)
      x(i, d) = static_cast<float>(rng.gaussian()) + 2.0f * static_cast<float>(y[i]);
  }
  of::nn::SGD opt(m.parameters(), 0.05f);
  float first = 0.0f, last = 0.0f;
  for (int epoch = 0; epoch < 15; ++epoch) {
    m.zero_grad();
    const auto lg = of::nn::softmax_cross_entropy(m.forward(x), y);
    m.backward(lg.grad);
    opt.step();
    if (epoch == 0) first = lg.loss;
    last = lg.loss;
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(Zoo, CnnMiniRejectsNonSquareInput) {
  EXPECT_THROW(of::nn::zoo::make_model("cnn_mini", 60, 4, 1), std::runtime_error);
}

// --- checkpointing ----------------------------------------------------------------

TEST(Checkpoint, RoundtripRestoresParamsAndBuffers) {
  Rng rng(40);
  Model a = of::nn::zoo::make_model("resnet18_mini", 16, 4, 9);
  (void)a.forward(Tensor::randn({8, 16}, rng));  // move BN running stats
  const auto blob = of::nn::save_checkpoint(a);

  Model b = of::nn::zoo::make_model("resnet18_mini", 16, 4, 777);  // different init
  of::nn::load_checkpoint(b, blob);
  EXPECT_TRUE(b.flat_parameters().allclose(a.flat_parameters(), 0.0f, 0.0f));
  a.set_training(false);
  b.set_training(false);
  Rng rng2(41);
  const Tensor x = Tensor::randn({4, 16}, rng2);
  EXPECT_TRUE(a.forward(x).allclose(b.forward(x), 1e-6f, 1e-6f));
}

TEST(Checkpoint, RejectsArchitectureMismatch) {
  Model a = of::nn::zoo::make_model("mlp_tiny", 16, 4, 1);
  const auto blob = of::nn::save_checkpoint(a);
  Model wrong_arch = of::nn::zoo::make_model("vgg11_mini", 16, 4, 1);
  EXPECT_THROW(of::nn::load_checkpoint(wrong_arch, blob), std::runtime_error);
  Model wrong_dims = of::nn::zoo::make_model("mlp_tiny", 8, 4, 1);
  EXPECT_THROW(of::nn::load_checkpoint(wrong_dims, blob), std::runtime_error);
}

TEST(Checkpoint, RejectsCorruptBlob) {
  Model a = of::nn::zoo::make_model("mlp_tiny", 8, 2, 1);
  auto blob = of::nn::save_checkpoint(a);
  blob[0] ^= 0xFF;  // break the magic
  EXPECT_THROW(of::nn::load_checkpoint(a, blob), std::runtime_error);
  auto truncated = of::nn::save_checkpoint(a);
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(of::nn::load_checkpoint(a, truncated), std::runtime_error);
}

TEST(Checkpoint, FileRoundtrip) {
  Model a = of::nn::zoo::make_model("mlp_tiny", 8, 2, 3);
  const std::string path = ::testing::TempDir() + "of_ckpt_test.bin";
  of::nn::save_checkpoint_file(a, path);
  Model b = of::nn::zoo::make_model("mlp_tiny", 8, 2, 99);
  of::nn::load_checkpoint_file(b, path);
  EXPECT_TRUE(b.flat_parameters().allclose(a.flat_parameters(), 0.0f, 0.0f));
  EXPECT_THROW(of::nn::load_checkpoint_file(b, path + ".missing"), std::runtime_error);
}

// What one training step makes visible: the logits, the input gradient and
// every parameter gradient.
struct StepBytes {
  Tensor logits, dx, grads;
};

StepBytes train_step(Model& m, const Tensor& x, const std::vector<std::size_t>& y) {
  m.zero_grad();
  StepBytes s;
  s.logits = m.forward(x);
  const auto lg = of::nn::softmax_cross_entropy(s.logits, y);
  s.dx = m.backward(lg.grad);
  s.grads = m.flat_gradients();
  return s;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(Buffers, ReusedBuffersMatchFreshOnesAcrossBatchSizes) {
  // Layers keep their activation and gradient buffers across steps and
  // resize them to each batch. A model whose buffers last held another
  // batch size must give the same bytes as a clone with fresh buffers (and
  // the same parameters and BatchNorm statistics), shrinking and growing.
  struct Spec {
    const char* name;
    std::size_t classes;
  };
  for (const Spec spec : {Spec{"resnet18_mini", 10}, Spec{"vgg11_mini", 100},
                          Spec{"mobilenetv3_mini", 10}, Spec{"cnn_mini", 10}}) {
    Model reused = of::nn::zoo::make_model(spec.name, 64, spec.classes, 3);
    Rng rng(21);
    for (std::size_t batch : {32u, 1u, 32u, 5u}) {
      const Tensor x = Tensor::randn({batch, 64}, rng);
      std::vector<std::size_t> y(batch);
      for (std::size_t i = 0; i < batch; ++i) y[i] = (i * 7) % spec.classes;
      Model fresh = reused.clone();
      const StepBytes want = train_step(fresh, x, y);
      const StepBytes got = train_step(reused, x, y);
      EXPECT_TRUE(same_bytes(got.logits, want.logits)) << spec.name << " batch " << batch;
      EXPECT_TRUE(same_bytes(got.dx, want.dx)) << spec.name << " batch " << batch;
      EXPECT_TRUE(same_bytes(got.grads, want.grads)) << spec.name << " batch " << batch;
    }
  }
}

TEST(Buffers, SteadyStateStepAllocatesNothing) {
  // Once every buffer has held the largest batch, forward, loss, backward
  // and the optimizer step allocate nothing, whatever the batch size.
  for (const char* name : {"resnet18_mini", "vgg11_mini"}) {
    Model m = of::nn::zoo::make_model(name, 64, 10, 4);
    of::nn::SGD opt(m.parameters(), 0.01f, 0.9f, 1e-4f);
    Rng rng(22);
    const Tensor x32 = Tensor::randn({32, 64}, rng);
    const Tensor x1 = Tensor::randn({1, 64}, rng);
    const std::vector<std::size_t> y32(32, 3), y1(1, 2);
    Tensor grad;
    const auto step = [&](const Tensor& x, const std::vector<std::size_t>& y) {
      m.zero_grad();
      (void)of::nn::softmax_cross_entropy_into(m.forward(x), y, grad);
      m.backward(grad);
      opt.step();
    };
    step(x32, y32);
    step(x1, y1);
    const std::size_t before = g_allocs.load();
    step(x32, y32);
    step(x1, y1);
    step(x32, y32);
    EXPECT_EQ(g_allocs.load() - before, 0u) << name;
  }
}

TEST(Zoo, TrainingReducesLoss) {
  // Single-node sanity: a few SGD epochs on a separable blob task.
  Model m = of::nn::zoo::make_model("mlp_tiny", 8, 2, 7);
  Rng rng(20);
  Tensor x({64, 8});
  std::vector<std::size_t> y(64);
  for (std::size_t i = 0; i < 64; ++i) {
    const bool pos = i % 2 == 0;
    y[i] = pos ? 1 : 0;
    for (std::size_t d = 0; d < 8; ++d)
      x(i, d) = static_cast<float>(rng.gaussian()) + (pos ? 2.0f : -2.0f);
  }
  of::nn::SGD opt(m.parameters(), 0.1f);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int epoch = 0; epoch < 20; ++epoch) {
    m.zero_grad();
    const auto lg = of::nn::softmax_cross_entropy(m.forward(x), y);
    m.backward(lg.grad);
    opt.step();
    if (epoch == 0) first_loss = lg.loss;
    last_loss = lg.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.3f);
}

}  // namespace
