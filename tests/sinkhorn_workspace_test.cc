// Tests for the SinkhornWorkspace hot path: agreement with the reference
// solver, independence from the workspace's earlier solves, zero-allocation
// steady state, the log-domain fallback, and the workspace-threaded
// Wasserstein penalty.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autodiff/ops.h"
#include "linalg/ops.h"
#include "ot/ipm.h"
#include "ot/sinkhorn.h"
#include "util/rng.h"

namespace cerl::ot {
namespace {

using autodiff::Tape;
using autodiff::Var;
using linalg::Matrix;

Matrix RandomMatrix(Rng* rng, int rows, int cols, double shift = 0.0) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Normal(shift, 1.0);
  }
  return m;
}

// Mimics one SGD step's representation drift.
void Drift(Rng* rng, Matrix* reps, double scale) {
  for (int64_t i = 0; i < reps->size(); ++i) {
    reps->data()[i] += rng->Normal(0.0, scale);
  }
}

Matrix CostOf(const Matrix& a, const Matrix& b) {
  return linalg::PairwiseSquaredDistances(a, b);
}

TEST(SinkhornWorkspaceTest, ColdSolveMatchesReferenceSolver) {
  Rng rng(1);
  Matrix a = RandomMatrix(&rng, 13, 5);
  Matrix b = RandomMatrix(&rng, 9, 5, 0.7);
  Matrix cost = CostOf(a, b);
  SinkhornConfig config;

  auto reference = SolveSinkhorn(cost, config);
  ASSERT_TRUE(reference.ok());

  SinkhornWorkspace ws;
  auto info = SolveSinkhorn(cost, config, &ws);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().used_log_domain);
  EXPECT_NEAR(info.value().cost, reference.value().cost,
              1e-6 * (1.0 + std::fabs(reference.value().cost)));
  EXPECT_LT(Matrix::MaxAbsDiff(ws.plan(), reference.value().plan), 1e-6);
}

TEST(SinkhornWorkspaceTest, SteadyStateAllocatesNothing) {
  Rng rng(4);
  Matrix a = RandomMatrix(&rng, 20, 6);
  Matrix b = RandomMatrix(&rng, 15, 6, 0.4);
  SinkhornConfig config;

  SinkhornWorkspace ws;
  ASSERT_TRUE(SolveSinkhorn(CostOf(a, b), config, &ws).ok());
  const int64_t after_first = ws.allocations();
  EXPECT_GT(after_first, 0);
  for (int step = 0; step < 10; ++step) {
    Drift(&rng, &a, 1e-3);
    ASSERT_TRUE(SolveSinkhorn(CostOf(a, b), config, &ws).ok());
    EXPECT_EQ(ws.allocations(), after_first);
  }
}

TEST(SinkhornWorkspaceTest, ShapesBelowHighWaterReuseBuffers) {
  Rng rng(5);
  SinkhornConfig config;
  SinkhornWorkspace ws;
  // Establish the high-water shape, then alternate smaller/transposed
  // shapes: no further growth is allowed.
  Matrix big_a = RandomMatrix(&rng, 32, 6);
  Matrix big_b = RandomMatrix(&rng, 32, 6, 0.3);
  ASSERT_TRUE(SolveSinkhorn(CostOf(big_a, big_b), config, &ws).ok());
  const int64_t high_water = ws.allocations();
  for (int step = 0; step < 6; ++step) {
    const int n1 = 8 + 4 * (step % 3);
    const int n2 = 32 - 4 * (step % 3);
    Matrix a = RandomMatrix(&rng, n1, 6);
    Matrix b = RandomMatrix(&rng, n2, 6, 0.3);
    auto info = SolveSinkhorn(CostOf(a, b), config, &ws);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(ws.allocations(), high_water);
  }
}

TEST(SinkhornWorkspaceTest, LogDomainFallbackAndWarmStartDrop) {
  Rng rng(7);
  Matrix a = RandomMatrix(&rng, 15, 3);
  Matrix b = RandomMatrix(&rng, 15, 3, 5.0);  // Large costs.
  SinkhornConfig config;
  // Small enough that the scaling iteration cannot reach the tolerance
  // (verified against the reference solver, which also falls back here).
  config.reg_fraction = 0.002;

  SinkhornWorkspace ws;
  auto info = SolveSinkhorn(CostOf(a, b), config, &ws);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().used_log_domain);
  EXPECT_TRUE(std::isfinite(info.value().cost));
  EXPECT_GT(info.value().cost, 0.0);
  // The workspace stays usable after a log-domain solve.
  auto next = SolveSinkhorn(CostOf(a, b), config, &ws);
  ASSERT_TRUE(next.ok());
}

// A solve's result depends only on its cost matrix: one workspace that has
// already solved problems of other (larger, smaller and equal) shapes must
// return the same bits as a fresh workspace.
TEST(SinkhornWorkspaceTest, SolveIsIndependentOfWorkspaceHistory) {
  Rng rng(14);
  SinkhornConfig config;
  SinkhornWorkspace ws;
  const int shapes[][2] = {{20, 12}, {32, 24}, {8, 30}, {20, 12},
                           {20, 12}, {5, 5},   {32, 24}};
  for (const auto& s : shapes) {
    Matrix a = RandomMatrix(&rng, s[0], 6);
    Matrix b = RandomMatrix(&rng, s[1], 6, 0.5);
    const Matrix cost = CostOf(a, b);
    auto seasoned = SolveSinkhorn(cost, config, &ws);
    SinkhornWorkspace fresh_ws;
    auto fresh = SolveSinkhorn(cost, config, &fresh_ws);
    ASSERT_TRUE(seasoned.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(seasoned.value().cost, fresh.value().cost)
        << s[0] << "x" << s[1];
    EXPECT_EQ(seasoned.value().iterations, fresh.value().iterations);
    ASSERT_EQ(ws.plan().rows(), fresh_ws.plan().rows());
    ASSERT_EQ(ws.plan().cols(), fresh_ws.plan().cols());
    EXPECT_EQ(std::memcmp(ws.plan().data(), fresh_ws.plan().data(),
                          ws.plan().size() * sizeof(double)),
              0)
        << s[0] << "x" << s[1];
  }
}

TEST(SinkhornWorkspaceTest, EmptyCostRejected) {
  SinkhornWorkspace ws;
  SinkhornConfig config;
  EXPECT_FALSE(SolveSinkhorn(Matrix(0, 3), config, &ws).ok());
  EXPECT_FALSE(SolveSinkhorn(Matrix(3, 0), config, &ws).ok());
}

TEST(WassersteinPenaltyWorkspaceTest, MatchesLegacyValueAndGradient) {
  Rng rng(8);
  SinkhornConfig config;
  Matrix fixed = RandomMatrix(&rng, 12, 4);
  Matrix moving_init = RandomMatrix(&rng, 10, 4, 1.5);

  autodiff::Parameter legacy_param(moving_init, "legacy");
  autodiff::Parameter ws_param(moving_init, "ws");
  SinkhornWorkspace ws;

  Tape legacy_tape;
  Var legacy_pen = WassersteinPenalty(legacy_tape.Param(&legacy_param),
                                      legacy_tape.Constant(fixed), config);
  legacy_param.ZeroGrad();
  legacy_tape.Backward(legacy_pen);

  Tape ws_tape;
  Var ws_pen = WassersteinPenalty(ws_tape.Param(&ws_param),
                                  ws_tape.Constant(fixed), config, &ws);
  ws_param.ZeroGrad();
  ws_tape.Backward(ws_pen);

  EXPECT_NEAR(ws_pen.scalar(), legacy_pen.scalar(),
              1e-6 * (1.0 + std::fabs(legacy_pen.scalar())));
  EXPECT_LT(Matrix::MaxAbsDiff(ws_param.grad, legacy_param.grad), 1e-5);
}

TEST(WassersteinPenaltyWorkspaceTest, SteadyStateStepIsZeroChurn) {
  Rng rng(9);
  SinkhornConfig config;
  Matrix fixed = RandomMatrix(&rng, 14, 4);
  autodiff::Parameter moving(RandomMatrix(&rng, 14, 4, 2.0), "m");

  Tape tape;
  SinkhornWorkspace ws;
  int64_t tape_allocs = -1, ws_allocs = -1;
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 12; ++step) {
    tape.Reset();
    Var pen = WassersteinPenalty(tape.Param(&moving),
                                 tape.ConstantView(&fixed), config, &ws);
    if (step == 0) first = pen.scalar();
    last = pen.scalar();
    moving.ZeroGrad();
    tape.Backward(pen);
    for (int64_t i = 0; i < moving.value.size(); ++i) {
      moving.value.data()[i] -= 0.05 * moving.grad.data()[i];
    }
    if (step == 0) {
      tape_allocs = tape.arena_allocations();
      ws_allocs = ws.allocations();
    } else {
      // Fixed batch shape => neither the tape arena nor the Sinkhorn
      // workspace may allocate after the first step.
      EXPECT_EQ(tape.arena_allocations(), tape_allocs) << "step " << step;
      EXPECT_EQ(ws.allocations(), ws_allocs) << "step " << step;
    }
  }
  // And the optimization still works (the groups move together).
  EXPECT_LT(last, first);
}

TEST(WassersteinPenaltyWorkspaceTest, IpmPenaltyDispatchThreadsWorkspace) {
  Rng rng(10);
  SinkhornConfig config;
  Tape tape;
  SinkhornWorkspace ws;
  Var a = tape.Constant(RandomMatrix(&rng, 6, 3));
  Var b = tape.Constant(RandomMatrix(&rng, 8, 3, 1.0));
  EXPECT_GT(
      IpmPenalty(IpmKind::kWasserstein, a, b, config, &ws).scalar(), 0.0);
  EXPECT_EQ(ws.plan().rows(), 6);
  EXPECT_EQ(ws.plan().cols(), 8);
  // The MMD branch must ignore (and not disturb) the workspace.
  EXPECT_GT(IpmPenalty(IpmKind::kLinearMmd, a, b, config, &ws).scalar(), 0.0);
  EXPECT_EQ(ws.plan().rows(), 6);
  EXPECT_EQ(ws.plan().cols(), 8);
}

}  // namespace
}  // namespace cerl::ot
