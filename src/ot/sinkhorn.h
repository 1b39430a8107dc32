// Entropic-regularized optimal transport between two empirical distributions
// with uniform marginals (Cuturi 2013). Produces the transport plan used by
// the Wasserstein IPM penalty (Eq. 3): the plan is computed on detached
// values and gradients flow through the cost matrix only — the estimator
// CFR (Shalit et al. 2017) uses.
//
// Two solver entry points share the same math:
//  - SolveSinkhorn(cost, config): the original allocate-per-call scalar
//    solver, kept as the reference implementation (and the owner of the
//    log-domain fallback for small regularization);
//  - SolveSinkhorn(cost, config, workspace): the training hot path. All
//    kernel/plan/dual/scratch buffers live in a caller-owned
//    SinkhornWorkspace (the same arena pattern autodiff::Tape uses), so
//    steady-state solves allocate nothing, and the K·v / Kᵀ·u products and
//    Gibbs-kernel exp run as whole-panel SIMD kernels on the calling thread
//    with a fixed reduction order. Every solve starts cold (u = v = 1): a
//    minibatch holds different units in a new order each step, so duals
//    kept from an earlier solve describe other units and save no
//    iterations. A solve's result depends only on its cost matrix.
#pragma once

#include <cstdint>

#include "linalg/matrix.h"
#include "util/status.h"

namespace cerl::ot {

/// Sinkhorn solver settings.
struct SinkhornConfig {
  /// Entropic regularization as a fraction of the mean cost (scale free).
  double reg_fraction = 0.1;
  int max_iterations = 200;
  double tolerance = 1e-6;  ///< stop when marginal violation is below this
};

/// Solution: the transport plan and the resulting OT cost <plan, cost>.
struct SinkhornResult {
  linalg::Matrix plan;  ///< n1 x n2, rows sum to 1/n1, cols to 1/n2
  double cost = 0.0;
  int iterations = 0;
};

/// Outcome of a workspace solve. The plan itself stays in the workspace
/// (SinkhornWorkspace::plan()) so the steady state copies nothing.
struct SinkhornSolveInfo {
  double cost = 0.0;             ///< <plan, cost>
  int iterations = 0;            ///< dual updates performed
  bool used_log_domain = false;  ///< scaling degenerated; log-domain fallback
};

class SinkhornWorkspace;

/// Workspace overload: solves into the workspace's buffers. Steady-state
/// solves with non-growing shapes perform zero heap allocations (asserted
/// via SinkhornWorkspace::allocations()). Starts cold, like the reference
/// solver, and falls back to the log-domain solver on numerical
/// degeneration.
Result<SinkhornSolveInfo> SolveSinkhorn(const linalg::Matrix& cost,
                                        const SinkhornConfig& config,
                                        SinkhornWorkspace* workspace);

/// Reusable arena for SolveSinkhorn: the Gibbs kernel, the transport plan,
/// the scaling duals u/v and the iteration scratch. Buffers grow to the
/// high-water shape and are then reused; no state carries from one solve to
/// the next. Not thread-safe: one workspace per concurrent solver (each
/// loss builder owns one for its training run).
class SinkhornWorkspace {
 public:
  SinkhornWorkspace() = default;
  SinkhornWorkspace(const SinkhornWorkspace&) = delete;
  SinkhornWorkspace& operator=(const SinkhornWorkspace&) = delete;

  /// Transport plan of the last successful solve (n1 x n2). Stable storage:
  /// overwritten only by the next solve, so tape constants may alias it for
  /// the duration of a training step.
  const linalg::Matrix& plan() const { return plan_; }

  /// Buffer (re)allocations performed since construction. Flat across
  /// steady-state solves of non-growing shapes; tests assert this the same
  /// way Tape::arena_allocations() proves the tape arena is zero-churn.
  int64_t allocations() const { return allocations_; }

 private:
  friend Result<SinkhornSolveInfo> SolveSinkhorn(const linalg::Matrix&,
                                                 const SinkhornConfig&,
                                                 SinkhornWorkspace*);

  /// Sizes every buffer for an n1 x n2 problem, counting the buffers that
  /// actually had to grow beyond their high-water capacity.
  void Reserve(int n1, int n2);

  linalg::Matrix kernel_;  ///< exp(-C / reg)
  linalg::Matrix plan_;    ///< diag(u) K diag(v)
  linalg::Vector u_, v_;   ///< scaling duals
  linalg::Vector kv_, ktu_, row_scratch_;
  int64_t allocations_ = 0;
  int64_t mat_high_water_ = 0;
  int row_high_water_ = 0, col_high_water_ = 0;
};

/// Solves OT with uniform marginals for the given cost matrix (entries >= 0,
/// at least one row and column). Log-domain stabilized. Reference
/// implementation: allocates its outputs per call and always starts cold.
Result<SinkhornResult> SolveSinkhorn(const linalg::Matrix& cost,
                                     const SinkhornConfig& config);

/// Convenience: squared-Euclidean Sinkhorn distance between point sets
/// (rows of a and b).
Result<double> SinkhornDistance(const linalg::Matrix& a,
                                const linalg::Matrix& b,
                                const SinkhornConfig& config);

}  // namespace cerl::ot
