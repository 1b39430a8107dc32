// Tests for the shared mini-batch training engine: early-stopping snapshot
// restore, patience accounting, full per-epoch sample coverage including
// the tail batch (regression: the pre-extraction loops dropped up to
// batch_size-1 samples per epoch), gathered-row minibatch assembly, and
// allocation-free steady-state steps, also when the batch content changes
// the loss graph's shapes every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "autodiff/ops.h"
#include "train/train_loop.h"

// Counting replacements of the global allocation functions: every operator
// new in this binary (array and nothrow forms included, which forward here)
// bumps the counter, so a test can assert that a code region allocates
// nothing at all, not only nothing from one arena.
namespace {
std::atomic<int64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cerl::train {
namespace {

using autodiff::Parameter;
using autodiff::Tape;
using autodiff::Var;

// Minimizes w^2 on a 1x1 parameter; every batch makes the same step so the
// parameter trajectory is strictly decreasing in |w|.
Var QuadraticLoss(Tape* tape, Parameter* w) {
  return autodiff::Sum(autodiff::Square(tape->Param(w)));
}

TEST(TrainLoopTest, EarlyStoppingRestoresBestValidationSnapshot) {
  Parameter w(linalg::Matrix(1, 1, 5.0), "w");
  LoopOptions options;
  options.epochs = 100;
  options.batch_size = 4;
  options.patience = 3;

  // Scripted validation losses: initial 10, best after epoch 0, then only
  // worse. The engine must restore the parameter value it had when the
  // best validation loss was observed.
  const std::vector<double> script = {10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<double> w_at_call;
  size_t call = 0;
  auto valid_loss = [&]() {
    w_at_call.push_back(w.value(0, 0));
    const double v = script[std::min(call, script.size() - 1)];
    ++call;
    return v;
  };

  TrainLoop loop(options, {&w});
  TrainStats stats = loop.Run(
      /*n=*/8, [&](Tape* tape, IndexSpan) {
        return QuadraticLoss(tape, &w);
      },
      valid_loss);

  EXPECT_DOUBLE_EQ(stats.best_valid_loss, 1.0);
  // Best was the call right after epoch 0; the restored parameter must be
  // bit-identical to its value at that call, not the later (smaller) ones.
  EXPECT_DOUBLE_EQ(w.value(0, 0), w_at_call[1]);
  EXPECT_NE(w.value(0, 0), w_at_call.back());
}

TEST(TrainLoopTest, EpochCountRespectsPatience) {
  Parameter w(linalg::Matrix(1, 1, 1.0), "w");
  LoopOptions options;
  options.epochs = 200;
  options.batch_size = 2;
  options.patience = 7;

  // Validation never improves on the initial loss, so the loop must stop
  // after exactly `patience` epochs.
  TrainLoop loop(options, {&w});
  TrainStats stats = loop.Run(
      /*n=*/6, [&](Tape* tape, IndexSpan) {
        return QuadraticLoss(tape, &w);
      },
      [&]() { return 1.0; });

  EXPECT_EQ(stats.epochs_run, options.patience);
  EXPECT_DOUBLE_EQ(stats.best_valid_loss, 1.0);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST(TrainLoopTest, EveryEpochVisitsAllSamplesIncludingTailBatch) {
  Parameter w(linalg::Matrix(1, 1, 1.0), "w");
  const int n = 10;
  LoopOptions options;
  options.epochs = 3;
  options.batch_size = 4;  // 10 % 4 != 0: tail batch of 2 must not be dropped
  options.patience = 100;

  std::vector<std::vector<int>> epoch_visits(options.epochs);
  int steps = 0;
  TrainLoop loop(options, {&w});
  TrainStats stats = loop.Run(
      n,
      [&](Tape* tape, IndexSpan idx) {
        const int epoch = steps / 3;  // ceil(10/4) = 3 steps per epoch
        epoch_visits[epoch].insert(epoch_visits[epoch].end(), idx.begin(),
                                   idx.end());
        ++steps;
        return QuadraticLoss(tape, &w);
      },
      [&]() { return 1.0; });

  EXPECT_EQ(stats.epochs_run, options.epochs);
  EXPECT_EQ(stats.steps, static_cast<int64_t>(options.epochs) * 3);
  EXPECT_EQ(stats.samples_seen, static_cast<int64_t>(options.epochs) * n);
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (auto& visits : epoch_visits) {
    std::sort(visits.begin(), visits.end());
    EXPECT_EQ(visits, all);  // every sample exactly once per epoch
  }
}

TEST(TrainLoopTest, BatchSizeLargerThanDatasetIsOneFullBatch) {
  Parameter w(linalg::Matrix(1, 1, 1.0), "w");
  LoopOptions options;
  options.epochs = 2;
  options.batch_size = 128;
  options.patience = 100;

  std::vector<size_t> batch_sizes;
  TrainLoop loop(options, {&w});
  TrainStats stats = loop.Run(
      /*n=*/5,
      [&](Tape* tape, IndexSpan idx) {
        batch_sizes.push_back(idx.size());
        return QuadraticLoss(tape, &w);
      },
      [&]() { return 1.0; });

  EXPECT_EQ(stats.steps, 2);
  for (size_t b : batch_sizes) EXPECT_EQ(b, 5u);
}

TEST(TrainLoopTest, ConvergesOnQuadratic) {
  Parameter w(linalg::Matrix(1, 1, 3.0), "w");
  LoopOptions options;
  options.epochs = 400;
  options.batch_size = 8;
  options.patience = 400;
  options.learning_rate = 5e-2;

  TrainLoop loop(options, {&w});
  loop.Run(
      /*n=*/8, [&](Tape* tape, IndexSpan) {
        return QuadraticLoss(tape, &w);
      },
      // Validation tracks the true objective, so the best snapshot is the
      // most converged iterate.
      [&]() { return w.value(0, 0) * w.value(0, 0); });

  EXPECT_NEAR(w.value(0, 0), 0.0, 1e-2);
}

// The assembled-minibatch path must hand the loss exactly the batch's rows
// of every registered gather source (sources of different widths, gathered
// into one matrix each), including the short tail batch (n = 23, batch 4),
// after which the next epoch's full batches refill the same matrices.
TEST(TrainLoopAssemblyTest, GatheredRowsMatchBatchIndices) {
  const int n = 23, dx = 5, dy = 2;
  linalg::Matrix x(n, dx), y(n, dy);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < dx; ++c) x(r, c) = 100.0 * r + c;
    for (int c = 0; c < dy; ++c) y(r, c) = -1000.0 * r - c;
  }
  const linalg::Matrix* sources[] = {&x, &y};
  Parameter w(linalg::Matrix(1, 1, 1.0), "w");
  LoopOptions options;
  options.epochs = 3;
  options.batch_size = 4;
  options.patience = 100;

  int steps = 0;
  TrainLoop loop(options, {&w});
  loop.Run(
      n, {&x, &y},
      [&](Tape* tape, IndexSpan idx,
          const std::vector<linalg::Matrix>& gathered) {
        ++steps;
        EXPECT_EQ(gathered.size(), 2u);
        for (size_t s = 0; s < gathered.size() && s < 2; ++s) {
          const linalg::Matrix& src = *sources[s];
          EXPECT_EQ(gathered[s].rows(), idx.size()) << "source " << s;
          EXPECT_EQ(gathered[s].cols(), src.cols()) << "source " << s;
          for (int i = 0; i < idx.size(); ++i)
            for (int c = 0; c < src.cols(); ++c)
              EXPECT_EQ(gathered[s](i, c), src(idx[i], c))
                  << "source " << s << " row " << i;
        }
        return QuadraticLoss(tape, &w);
      },
      [&]() { return 1.0; });
  EXPECT_EQ(steps, 3 * 6);  // five full batches + the tail, per epoch
}

// Once the first epoch has warmed the tape, the gather matrices and the
// Adam moments, nothing from one batch-loss call to the next — the loss
// graph, Backward, the optimizer step and the next batch's gathers — may
// touch the heap. Two parameters and two gather sources of different
// widths, with a tail batch (n = 23, batch 4) so the gather matrices shrink
// to the tail shape inside every epoch.
TEST(TrainLoopAllocationTest, SteadyStateStepsDoNotAllocate) {
  const int n = 23, dx = 5, dy = 2, batch = 4, epochs = 4;
  linalg::Matrix x(n, dx), y(n, dy);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < dx; ++c) x(r, c) = 0.01 * r - 0.1 * c;
    for (int c = 0; c < dy; ++c) y(r, c) = 0.02 * c - 0.01 * r;
  }
  Parameter wx(linalg::Matrix(dx, 1, 0.1), "wx");
  Parameter wy(linalg::Matrix(dy, 1, -0.1), "wy");
  LoopOptions options;
  options.epochs = epochs;
  options.batch_size = batch;
  options.patience = 100;
  const int steps_per_epoch = (n + batch - 1) / batch;

  int calls = 0;
  int checked = 0;
  int64_t at_previous_call = 0;
  int64_t steady_allocations = 0;
  TrainLoop loop(options, {&wx, &wy});
  loop.Run(
      n, {&x, &y},
      [&](Tape* tape, IndexSpan, const std::vector<linalg::Matrix>& gathered) {
        const int64_t now =
            g_heap_allocations.load(std::memory_order_relaxed);
        // Consecutive calls within one epoch, after the first epoch (the
        // epoch boundary draws a permutation and validates, which may
        // allocate).
        if (calls >= steps_per_epoch && calls % steps_per_epoch != 0) {
          steady_allocations += now - at_previous_call;
          ++checked;
        }
        at_previous_call = now;
        ++calls;
        Var px = autodiff::MatMul(tape->ConstantView(&gathered[0]),
                                  tape->Param(&wx));
        Var py = autodiff::MatMul(tape->ConstantView(&gathered[1]),
                                  tape->Param(&wy));
        return autodiff::Add(autodiff::Sum(autodiff::Square(px)),
                             autodiff::Sum(autodiff::Square(py)));
      },
      [&]() { return 1.0; });
  EXPECT_EQ(calls, epochs * steps_per_epoch);
  EXPECT_EQ(checked, (epochs - 1) * (steps_per_epoch - 1));
  EXPECT_EQ(steady_allocations, 0);
}

// A loss whose graph depends on the batch content, as BuildFactualLoss's
// treated/control split does: each batch's rows are split by a per-sample
// label into two groups with their own nodes, and an empty group records
// none. The split changes node shapes (and, with an empty group, the
// topology) from step to step; the loop keeps one tape and is given no
// shape hint. The first step records both groups at the full batch size,
// which lifts every node position to its largest shape; after that no
// step may touch the heap.
TEST(TrainLoopAllocationTest, ContentSplitStepsDoNotAllocate) {
  const int n = 23, dx = 5, batch = 4, epochs = 4;
  linalg::Matrix x(n, dx);
  std::vector<int> label(n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < dx; ++c) x(r, c) = 0.01 * r - 0.1 * c;
    label[r] = (r % 5 < 2) ? 1 : 0;
  }
  Parameter w1(linalg::Matrix(dx, 1, 0.1), "w1");
  Parameter w0(linalg::Matrix(dx, 1, -0.1), "w0");
  const linalg::Matrix zero(1, 1, 0.0);
  LoopOptions options;
  options.epochs = epochs;
  options.batch_size = batch;
  options.patience = 100;
  const int steps_per_epoch = (n + batch - 1) / batch;

  std::vector<int> group1, group0;
  int calls = 0;
  int checked = 0;
  int checked_empty_group = 0;
  int64_t at_previous_call = 0;
  int64_t steady_allocations = 0;
  TrainLoop loop(options, {&w1, &w0});
  loop.Run(
      n, {&x},
      [&](Tape* tape, IndexSpan idx,
          const std::vector<linalg::Matrix>& gathered) {
        const int64_t now =
            g_heap_allocations.load(std::memory_order_relaxed);
        const bool steady =
            calls >= steps_per_epoch && calls % steps_per_epoch != 0;
        if (steady) {
          steady_allocations += now - at_previous_call;
          ++checked;
        }
        at_previous_call = now;
        const bool warm_up = calls == 0;
        ++calls;
        group1.clear();
        group0.clear();
        for (int i = 0; i < idx.size(); ++i) {
          if (warm_up || label[idx[i]] == 1) group1.push_back(i);
          if (warm_up || label[idx[i]] == 0) group0.push_back(i);
        }
        if (steady && (group1.empty() || group0.empty())) {
          ++checked_empty_group;
        }
        Var xb = tape->ConstantView(&gathered[0]);
        Var loss = tape->ConstantView(&zero);
        if (!group1.empty()) {
          Var p1 = autodiff::MatMul(autodiff::GatherRows(xb, group1),
                                    tape->Param(&w1));
          loss = autodiff::Add(loss, autodiff::Sum(autodiff::Square(p1)));
        }
        if (!group0.empty()) {
          Var p0 = autodiff::MatMul(autodiff::GatherRows(xb, group0),
                                    tape->Param(&w0));
          loss = autodiff::Add(loss, autodiff::Sum(autodiff::Square(p0)));
        }
        return loss;
      },
      [&]() { return 1.0; });
  EXPECT_EQ(calls, epochs * steps_per_epoch);
  EXPECT_EQ(checked, (epochs - 1) * (steps_per_epoch - 1));
  EXPECT_GT(checked_empty_group, 0) << "no steady step had an empty group";
  EXPECT_EQ(steady_allocations, 0);
}

TEST(TrainLoopSnapshotTest, SnapshotRestoreRoundTrips) {
  Parameter a(linalg::Matrix(2, 3, 1.5), "a");
  Parameter b(linalg::Matrix(1, 1, -2.0), "b");
  std::vector<Parameter*> params = {&a, &b};
  std::vector<linalg::Matrix> snapshot;
  SnapshotValues(params, &snapshot);
  a.value.Fill(9.0);
  b.value.Fill(9.0);
  RestoreValues(params, snapshot);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(a.value(i, j), 1.5);
  EXPECT_DOUBLE_EQ(b.value(0, 0), -2.0);
}

}  // namespace
}  // namespace cerl::train
