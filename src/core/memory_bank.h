// The CERL memory M_d (§III-A2): a bounded set of *feature representations*
// with their observed outcomes and treatments — never raw covariates. After
// each continual stage the bank is transformed into the new representation
// space (phi) and reduced back to capacity with herding, balanced across
// treatment groups:
//   M_d = Herding({R_d, Y_d, T_d} ∪ phi_{d-1->d}(M_{d-1})).
//
// Concurrency contract (stream engine): the mutating operations (Append,
// Transform, Reduce, Clear) lock an internal mutex, so stage-completion
// tasks finishing on different pool workers are safe against each other and
// publish their writes. Readers are deliberately lock-free: a stream's
// stage pipeline (TaskGroup) guarantees no mutator runs while the bank is
// being read (training-time SampleBatch/reps), and cross-stream access
// never shares a bank — each stream owns its own.
#pragma once

#include <functional>
#include <mutex>
#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace cerl::core {

/// Bounded store of (representation, outcome, treatment) triples.
class MemoryBank {
 public:
  MemoryBank() = default;
  MemoryBank(const MemoryBank&) = delete;
  MemoryBank& operator=(const MemoryBank&) = delete;

  /// Appends units (reps rows aligned with y and t).
  void Append(const linalg::Matrix& reps, const linalg::Vector& y,
              const std::vector<int>& t);

  /// Maps all stored representations through `f` (the trained phi).
  void Transform(
      const std::function<linalg::Matrix(const linalg::Matrix&)>& f);

  /// Shrinks to at most `capacity` units, selecting the same number per
  /// treatment group (paper §III-A2). `use_herding` selects by greedy mean
  /// matching; otherwise random subsampling (the w/o-herding ablation).
  void Reduce(int capacity, bool use_herding, Rng* rng);

  /// Drops every stored unit (checkpoint restore starts from empty).
  void Clear();

  bool empty() const { return y_.empty(); }
  int size() const { return static_cast<int>(y_.size()); }
  int num_treated() const;
  int rep_dim() const { return reps_.cols(); }

  const linalg::Matrix& reps() const { return reps_; }
  const linalg::Vector& y() const { return y_; }
  const std::vector<int>& t() const { return t_; }

  /// Uniform-with-replacement batch of indices, written into `out`
  /// (resized; a retained vector is reused without allocating).
  void SampleBatch(int batch_size, Rng* rng, std::vector<int>* out) const;

 private:
  // Serializes mutators (see the concurrency contract above). Reads during
  // training are protected by per-stream stage serialization instead.
  std::mutex mutate_mutex_;
  linalg::Matrix reps_;
  linalg::Vector y_;
  std::vector<int> t_;
};

}  // namespace cerl::core
