// Tape arena reuse: Reset() + re-record must be bit-identical to a fresh
// tape (same values, same gradients) for every hot op, must tolerate shape
// and topology changes between passes, and must perform zero tape-node
// Matrix allocations in steady state — also when every pass changes the
// node shapes, since node buffers keep their capacity. Also grad-checks
// (central differences) the in-place backward rewrites on composite
// expressions that chain every touched op.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "autodiff/composite.h"
#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "grad_check.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "util/rng.h"

namespace cerl::autodiff {
namespace {

using linalg::Matrix;

Matrix RandomMatrix(Rng* rng, int rows, int cols) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-1.5, 1.5);
  return m;
}

// A loss expression over two leaves; every rewritten-in-place backward op
// appears: MatMul/MatMulBt, Add/Sub/Mul, broadcasts, scalar ops, the
// elementwise family, reductions, Transpose/ConcatRows/GatherRows.
Var EveryOpLoss(Tape* tape, Var a, Var b) {
  Var cat = ConcatRows(a, b);                       // 6 x 4
  Var picked = GatherRows(cat, {0, 5, 2, 2});       // reuse a row
  Var prod = MatMul(Transpose(picked), picked);     // 4 x 4
  Var sym = MatMulBt(prod, prod);                   // 4 x 4
  Var bias = tape->Constant(Matrix(1, 4, 0.25));
  Var shifted = AddRowBroadcast(sym, bias);
  Var scaled = MulColBroadcast(shifted, RowSum(Tanh(sym)));
  Var mixed = Mul(Sub(scaled, prod), Add(prod, prod));
  Var acts = Add(Sigmoid(mixed), Elu(ScalarMul(mixed, 0.5)));
  Var pos = ScalarAdd(Square(acts), 1.0);
  Var logs = Add(Log(pos), Sqrt(pos));
  Var more = Add(Add(Exp(ScalarMul(logs, 0.1)), Reciprocal(pos)), Abs(mixed));
  Var red = Add(Add(Sum(more), Mean(more)), Sum(ColSum(more)));
  return red;
}

TEST(TapeReuseTest, EveryOpGradCheck) {
  Rng rng(40);
  CheckGradients(
      {RandomMatrix(&rng, 3, 4), RandomMatrix(&rng, 3, 4)},
      [](Tape* tape, const std::vector<Var>& v) {
        return EveryOpLoss(tape, v[0], v[1]);
      },
      1e-4, 1e-6);
}

// Runs `build` on a fresh tape and on a dirtied-then-Reset tape; values and
// leaf gradients must match bit for bit.
void ExpectReuseBitIdentical(
    const std::vector<Matrix>& inputs,
    const std::function<Var(Tape*, const std::vector<Var>&)>& build) {
  auto run = [&](Tape* tape, Matrix* loss, std::vector<Matrix>* grads) {
    std::vector<Var> leaves;
    for (const auto& m : inputs) leaves.push_back(tape->Leaf(m));
    Var out = build(tape, leaves);
    tape->Backward(out);
    *loss = out.value();
    grads->clear();
    for (const Var& leaf : leaves) grads->push_back(leaf.grad());
  };

  Matrix fresh_loss;
  std::vector<Matrix> fresh_grads;
  {
    Tape fresh;
    run(&fresh, &fresh_loss, &fresh_grads);
  }

  Tape reused;
  {
    // Dirty the arena with a different topology and different shapes first.
    Rng rng(7);
    Var x = reused.Leaf(RandomMatrix(&rng, 5, 3));
    reused.Backward(Sum(Relu(MatMulBt(x, x))));
  }
  for (int pass = 0; pass < 3; ++pass) {
    reused.Reset();
    Matrix loss;
    std::vector<Matrix> grads;
    run(&reused, &loss, &grads);
    ASSERT_EQ(loss.rows(), fresh_loss.rows());
    EXPECT_EQ(loss(0, 0), fresh_loss(0, 0)) << "pass " << pass;
    ASSERT_EQ(grads.size(), fresh_grads.size());
    for (size_t i = 0; i < grads.size(); ++i) {
      ASSERT_TRUE(grads[i].SameShape(fresh_grads[i]));
      for (int64_t e = 0; e < grads[i].size(); ++e) {
        ASSERT_EQ(grads[i].data()[e], fresh_grads[i].data()[e])
            << "pass " << pass << " input " << i << " element " << e;
      }
    }
  }
}

TEST(TapeReuseTest, ReusedTapeBitIdenticalToFreshEveryOp) {
  Rng rng(41);
  ExpectReuseBitIdentical(
      {RandomMatrix(&rng, 3, 4), RandomMatrix(&rng, 3, 4)},
      [](Tape* tape, const std::vector<Var>& v) {
        return EveryOpLoss(tape, v[0], v[1]);
      });
}

TEST(TapeReuseTest, ReusedTapeBitIdenticalToFreshMlpStyleLoss) {
  Rng rng(42);
  ExpectReuseBitIdentical(
      {RandomMatrix(&rng, 6, 5), RandomMatrix(&rng, 5, 3),
       RandomMatrix(&rng, 1, 3), RandomMatrix(&rng, 6, 3)},
      [](Tape*, const std::vector<Var>& v) {
        Var h = Elu(AddRowBroadcast(MatMul(v[0], v[1]), v[2]));
        return MseLoss(h, v[3]);
      });
}

TEST(TapeReuseTest, ParamBindingAccumulatesAcrossResets) {
  Parameter p(Matrix(2, 2, 3.0), "w");
  Tape tape;
  for (int pass = 0; pass < 3; ++pass) {
    tape.Reset();
    Var w1 = tape.Param(&p);
    Var w2 = tape.Param(&p);
    Var loss = Add(Sum(Square(w1)), Sum(w2));  // d/dw = 2w + 1 = 7
    p.ZeroGrad();
    tape.Backward(loss);
    for (int64_t i = 0; i < p.grad.size(); ++i) {
      EXPECT_DOUBLE_EQ(p.grad.data()[i], 7.0) << "pass " << pass;
    }
  }
}

TEST(TapeReuseTest, ShapeChangeAcrossResetsStaysCorrect) {
  Rng rng(43);
  Tape tape;
  for (int rows : {8, 3, 8, 5}) {
    Matrix m = RandomMatrix(&rng, rows, 4);
    tape.Reset();
    Var x = tape.Leaf(m);
    Var loss = Sum(Square(x));
    tape.Backward(loss);
    double expect = 0.0;
    for (int64_t i = 0; i < m.size(); ++i) expect += m.data()[i] * m.data()[i];
    EXPECT_DOUBLE_EQ(loss.scalar(), expect);
    for (int64_t i = 0; i < m.size(); ++i) {
      EXPECT_DOUBLE_EQ(x.grad().data()[i], 2.0 * m.data()[i]);
    }
  }
}

TEST(TapeReuseTest, GatherIndicesChangePerPass) {
  Rng rng(44);
  Matrix m = RandomMatrix(&rng, 6, 3);
  Tape tape;
  for (int shift = 0; shift < 3; ++shift) {
    tape.Reset();
    std::vector<int> idx = {shift, shift + 1, shift};
    Var x = tape.Leaf(m);
    Var g = GatherRows(x, idx);
    tape.Backward(Sum(g));
    for (int r = 0; r < 6; ++r) {
      const double expected = (r == shift) ? 2.0 : (r == shift + 1 ? 1.0 : 0.0);
      for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(x.grad()(r, c), expected);
    }
  }
}

// The zero-churn acceptance property: after warm-up, a fixed-topology
// training step performs no tape-node Matrix allocations at all.
TEST(TapeReuseTest, SteadyStateTrainingStepAllocatesNothing) {
  Rng rng(45);
  nn::MlpConfig config;
  config.dims = {20, 12, 4, 1};
  nn::Mlp mlp(&rng, config);
  nn::Adam opt(mlp.Parameters(), 1e-3);
  Matrix x = RandomMatrix(&rng, 16, 20);
  Matrix y = RandomMatrix(&rng, 16, 1);

  Tape tape;
  auto step = [&] {
    tape.Reset();
    Var out = mlp.Forward(&tape, tape.ConstantView(&x));
    Var loss = MseLoss(out, tape.ConstantView(&y));
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
  };

  step();  // warm-up allocates the arena
  step();  // second pass settles any lazily-created grad buffers
  const int64_t warm = tape.arena_allocations();
  EXPECT_GT(warm, 0);
  for (int i = 0; i < 50; ++i) step();
  EXPECT_EQ(tape.arena_allocations(), warm)
      << "steady-state steps must not allocate tape-node matrices";
}

// A factual-style graph (CFR's Eq. 4 shape): a shared representation of
// the batch, split into treated and control rows that each feed their own
// head, both sums of squared errors added onto a zero seed, plus a
// treated x control cross term (the shape of an IPM cost matrix). A group
// that is empty records no nodes, as in BuildFactualLoss, so the split
// changes both node shapes and the topology.
struct FactualStyleNets {
  nn::Mlp rep, head_treated, head_control;
  std::vector<Parameter*> params;

  explicit FactualStyleNets(Rng* rng)
      : rep(rng, RepConfig()), head_treated(rng, HeadConfig()),
        head_control(rng, HeadConfig()) {
    for (nn::Mlp* net : {&rep, &head_treated, &head_control}) {
      for (Parameter* p : net->Parameters()) params.push_back(p);
    }
  }
  static nn::MlpConfig RepConfig() {
    nn::MlpConfig c;
    c.dims = {5, 8, 4};
    return c;
  }
  static nn::MlpConfig HeadConfig() {
    nn::MlpConfig c;
    c.dims = {4, 6, 1};
    return c;
  }

  Var Loss(Tape* tape, const Matrix& x, const Matrix& y,
           const std::vector<int>& treated,
           const std::vector<int>& control) {
    static const Matrix kZero(1, 1, 0.0);
    Var rep_all = rep.Forward(tape, tape->ConstantView(&x));
    Var y_all = tape->ConstantView(&y);
    Var sse = tape->ConstantView(&kZero);
    Var rep_t, rep_c;
    if (!treated.empty()) {
      rep_t = GatherRows(rep_all, treated);
      Var err = Sub(head_treated.Forward(tape, rep_t),
                    GatherRows(y_all, treated));
      sse = Add(sse, Sum(Square(err)));
    }
    if (!control.empty()) {
      rep_c = GatherRows(rep_all, control);
      Var err = Sub(head_control.Forward(tape, rep_c),
                    GatherRows(y_all, control));
      sse = Add(sse, Sum(Square(err)));
    }
    if (rep_t.valid() && rep_c.valid()) {
      sse = Add(sse, ScalarMul(Mean(MatMulBt(rep_t, rep_c)), 0.1));
    }
    return ScalarMul(sse, 1.0 / x.rows());
  }
};

// One tape re-records the factual-style graph with a different split on
// every pass, empty groups included. Once a warm-up pass has recorded both
// groups at the full batch size, no pass may allocate a node buffer, and
// every pass's loss and parameter gradients must equal, bit for bit, the
// same pass recorded on a fresh tape (which catches an op reading stale
// contents of a shrunk buffer).
TEST(TapeReuseTest, VaryingSplitsReuseCapacityBitIdentically) {
  Rng rng(46);
  FactualStyleNets nets(&rng);
  const int n = 12;
  const Matrix x = RandomMatrix(&rng, n, 5);
  const Matrix y = RandomMatrix(&rng, n, 1);

  auto record = [&](Tape* tape, const std::vector<int>& treated,
                    const std::vector<int>& control, double* loss,
                    std::vector<Matrix>* grads) {
    for (Parameter* p : nets.params) p->ZeroGrad();
    Var out = nets.Loss(tape, x, y, treated, control);
    tape->Backward(out);
    *loss = out.scalar();
    grads->clear();
    for (const Parameter* p : nets.params) grads->push_back(p->grad);
  };

  Tape tape;
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  double loss = 0.0;
  std::vector<Matrix> grads;
  record(&tape, all, all, &loss, &grads);  // warm-up: both groups full size
  const int64_t warm = tape.arena_allocations();
  EXPECT_GT(warm, 0);

  const std::vector<int> treated_counts = {5, 0, 12, 1, 11, 7, 0, 3, 12, 6};
  for (size_t pass = 0; pass < treated_counts.size(); ++pass) {
    // A random membership with the pass's treated count.
    const std::vector<int> order = rng.Permutation(n);
    std::vector<int> treated, control;
    for (int i = 0; i < n; ++i) {
      (order[i] < treated_counts[pass] ? treated : control).push_back(i);
    }

    tape.Reset();
    record(&tape, treated, control, &loss, &grads);
    EXPECT_EQ(tape.arena_allocations(), warm) << "pass " << pass;

    Tape fresh;
    double fresh_loss = 0.0;
    std::vector<Matrix> fresh_grads;
    record(&fresh, treated, control, &fresh_loss, &fresh_grads);
    EXPECT_EQ(loss, fresh_loss) << "pass " << pass;
    ASSERT_EQ(grads.size(), fresh_grads.size());
    for (size_t i = 0; i < grads.size(); ++i) {
      ASSERT_TRUE(grads[i].SameShape(fresh_grads[i]));
      for (int64_t e = 0; e < grads[i].size(); ++e) {
        ASSERT_EQ(grads[i].data()[e], fresh_grads[i].data()[e])
            << "pass " << pass << " parameter " << i << " element " << e;
      }
    }
  }
}

TEST(TapeReuseTest, ConstantViewAliasesWithoutCopy) {
  Matrix m(2, 2, 1.0);
  Tape tape;
  Var v = tape.ConstantView(&m);
  m(0, 0) = 42.0;  // visible through the alias: no snapshot was taken
  EXPECT_DOUBLE_EQ(v.value()(0, 0), 42.0);
}

}  // namespace
}  // namespace cerl::autodiff
