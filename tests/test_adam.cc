// Tests for opt/adam.h.

#include "opt/adam.h"

#include <gtest/gtest.h>

#include <cmath>

namespace least {
namespace {

TEST(Adam, FirstStepMovesByLearningRate) {
  // Bias correction makes the very first Adam step ~= lr * sign(grad).
  Adam adam(1, {.learning_rate = 0.1});
  std::vector<double> p = {1.0};
  std::vector<double> g = {4.0};
  adam.Step(p, g);
  EXPECT_NEAR(p[0], 1.0 - 0.1, 1e-6);
}

TEST(Adam, MinimizesQuadratic) {
  // f(x) = (x - 3)^2, gradient 2(x - 3).
  Adam adam(1, {.learning_rate = 0.05});
  std::vector<double> p = {-5.0};
  for (int t = 0; t < 2000; ++t) {
    std::vector<double> g = {2.0 * (p[0] - 3.0)};
    adam.Step(p, g);
  }
  EXPECT_NEAR(p[0], 3.0, 1e-3);
}

TEST(Adam, MinimizesMultiDimQuadratic) {
  const std::vector<double> target = {1.0, -2.0, 0.5, 4.0};
  Adam adam(4, {.learning_rate = 0.1});
  std::vector<double> p(4, 0.0), g(4);
  for (int t = 0; t < 2000; ++t) {
    for (int i = 0; i < 4; ++i) g[i] = 2.0 * (p[i] - target[i]);
    adam.Step(p, g);
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(p[i], target[i], 1e-3);
}

TEST(Adam, StepCountIncrements) {
  Adam adam(2);
  std::vector<double> p(2), g(2, 1.0);
  EXPECT_EQ(adam.step_count(), 0);
  adam.Step(p, g);
  adam.Step(p, g);
  EXPECT_EQ(adam.step_count(), 2);
}

TEST(Adam, ResetClearsState) {
  Adam adam(1, {.learning_rate = 0.1});
  std::vector<double> p = {0.0}, g = {1.0};
  adam.Step(p, g);
  adam.Reset();
  EXPECT_EQ(adam.step_count(), 0);
  // After reset the next step behaves like a first step again.
  std::vector<double> q = {0.0};
  adam.Step(q, g);
  EXPECT_NEAR(q[0], -0.1, 1e-6);
}

TEST(Adam, CompactKeepsSelectedMoments) {
  Adam adam(4, {.learning_rate = 0.1});
  std::vector<double> p = {0, 0, 0, 0};
  std::vector<double> g = {1, 2, 3, 4};
  adam.Step(p, g);
  // Keep entries 1 and 3.
  adam.Compact({1, 3});
  EXPECT_EQ(adam.size(), 2u);
  // Stepping the compacted state matches stepping a fresh 2-param Adam that
  // saw gradients {2, 4} on its first step.
  Adam fresh(2, {.learning_rate = 0.1});
  std::vector<double> pf = {0, 0}, gf = {2, 4};
  fresh.Step(pf, gf);
  // fresh is at t=1 while adam is at t=2; align by a second fresh step.
  std::vector<double> pc = {p[1], p[3]};
  adam.Step(pc, gf);
  fresh.Step(pf, gf);
  EXPECT_NEAR(pc[0], pf[0], 1e-9);
  EXPECT_NEAR(pc[1], pf[1], 1e-9);
}

TEST(Adam, AdaptsPerCoordinate) {
  // Large-gradient coordinates get normalized steps: both coordinates move
  // about equally despite a 100x gradient ratio.
  Adam adam(2, {.learning_rate = 0.1});
  std::vector<double> p = {0.0, 0.0};
  std::vector<double> g = {100.0, 1.0};
  adam.Step(p, g);
  EXPECT_NEAR(p[0], p[1], 1e-4);
}

TEST(Adam, SnapshotRestoreContinuesBitIdentically) {
  // Drive two optimizers through the same noisy trajectory; hand one of
  // them off through a Snapshot/Restore mid-way. Every subsequent step must
  // match bit-for-bit — the invariant checkpoint/resume is built on.
  const auto grad_at = [](const std::vector<double>& p, int t) {
    std::vector<double> g(p.size());
    for (size_t i = 0; i < p.size(); ++i) {
      g[i] = 2.0 * (p[i] - 1.0) + 0.01 * ((t * 7 + static_cast<int>(i)) % 5);
    }
    return g;
  };
  Adam reference(3, {.learning_rate = 0.05});
  std::vector<double> p_ref = {4.0, -2.0, 0.5};
  Adam first_half(3, {.learning_rate = 0.05});
  std::vector<double> p_half = p_ref;
  for (int t = 0; t < 17; ++t) {
    reference.Step(p_ref, grad_at(p_ref, t));
    first_half.Step(p_half, grad_at(p_half, t));
  }
  Adam second_half(3, {.learning_rate = 0.05});
  second_half.Restore(first_half.Snapshot());
  EXPECT_EQ(second_half.step_count(), 17);
  for (int t = 17; t < 40; ++t) {
    reference.Step(p_ref, grad_at(p_ref, t));
    second_half.Step(p_half, grad_at(p_half, t));
  }
  EXPECT_EQ(p_half, p_ref);
}

TEST(Adam, SnapshotAfterCompactIsAsSparseAsTheParameters) {
  Adam adam(4, {.learning_rate = 0.1});
  std::vector<double> p = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> g = {0.1, -0.2, 0.3, -0.4};
  adam.Step(p, g);
  adam.Compact({0, 2});
  const AdamState state = adam.Snapshot();
  EXPECT_EQ(state.m.size(), 2u);
  EXPECT_EQ(state.v.size(), 2u);
  EXPECT_EQ(state.t, 1);
  // A fresh CSR-sized optimizer restores the compacted snapshot exactly.
  Adam resumed(2, {.learning_rate = 0.1});
  resumed.Restore(state);
  std::vector<double> p2 = {p[0], p[2]};
  std::vector<double> g2 = {g[0], g[2]};
  std::vector<double> p3 = p2;
  adam.Step(p2, g2);
  resumed.Step(p3, g2);
  EXPECT_EQ(p2, p3);
}

}  // namespace
}  // namespace least
