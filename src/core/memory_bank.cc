#include "core/memory_bank.h"

#include <numeric>

#include "causal/herding.h"
#include "util/check.h"

namespace cerl::core {

void MemoryBank::Append(const linalg::Matrix& reps, const linalg::Vector& y,
                        const std::vector<int>& t) {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  const int n = reps.rows();
  CERL_CHECK_EQ(static_cast<int>(y.size()), n);
  CERL_CHECK_EQ(static_cast<int>(t.size()), n);
  if (empty()) {
    reps_ = reps;
    y_ = y;
    t_ = t;
    return;
  }
  CERL_CHECK_EQ(reps.cols(), reps_.cols());
  linalg::Matrix merged(reps_.rows() + n, reps_.cols());
  for (int r = 0; r < reps_.rows(); ++r) {
    std::copy(reps_.row(r), reps_.row(r) + reps_.cols(), merged.row(r));
  }
  for (int r = 0; r < n; ++r) {
    std::copy(reps.row(r), reps.row(r) + reps.cols(),
              merged.row(reps_.rows() + r));
  }
  reps_ = std::move(merged);
  y_.insert(y_.end(), y.begin(), y.end());
  t_.insert(t_.end(), t.begin(), t.end());
}

void MemoryBank::Transform(
    const std::function<linalg::Matrix(const linalg::Matrix&)>& f) {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  if (empty()) return;
  linalg::Matrix mapped = f(reps_);
  CERL_CHECK_EQ(mapped.rows(), reps_.rows());
  reps_ = std::move(mapped);
}

int MemoryBank::num_treated() const {
  return static_cast<int>(std::accumulate(t_.begin(), t_.end(), 0));
}

void MemoryBank::Clear() {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  reps_ = linalg::Matrix();
  y_.clear();
  t_.clear();
}

void MemoryBank::Reduce(int capacity, bool use_herding, Rng* rng) {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  CERL_CHECK_GE(capacity, 0);
  if (size() <= capacity) return;

  std::vector<int> treated_idx, control_idx;
  for (int i = 0; i < size(); ++i) {
    (t_[i] == 1 ? treated_idx : control_idx).push_back(i);
  }
  // Same number per group, clamped by group availability; leftover budget
  // goes to the larger group so capacity is not wasted.
  int per_group = capacity / 2;
  int take_t = std::min<int>(per_group, treated_idx.size());
  int take_c = std::min<int>(per_group, control_idx.size());
  int leftover = capacity - take_t - take_c;
  if (leftover > 0) {
    const int extra_t = std::min<int>(
        leftover, static_cast<int>(treated_idx.size()) - take_t);
    take_t += extra_t;
    leftover -= extra_t;
    take_c += std::min<int>(leftover,
                            static_cast<int>(control_idx.size()) - take_c);
  }

  auto select = [&](const std::vector<int>& group, int count) {
    std::vector<int> chosen;
    if (count <= 0 || group.empty()) return chosen;
    if (use_herding) {
      const linalg::Matrix group_reps = reps_.GatherRows(group);
      for (int local : causal::HerdingSelect(group_reps, count)) {
        chosen.push_back(group[local]);
      }
    } else {
      for (int local :
           causal::RandomSelect(static_cast<int>(group.size()), count, rng)) {
        chosen.push_back(group[local]);
      }
    }
    return chosen;
  };

  std::vector<int> keep = select(treated_idx, take_t);
  for (int i : select(control_idx, take_c)) keep.push_back(i);

  linalg::Matrix new_reps = reps_.GatherRows(keep);
  linalg::Vector new_y;
  std::vector<int> new_t;
  new_y.reserve(keep.size());
  new_t.reserve(keep.size());
  for (int i : keep) {
    new_y.push_back(y_[i]);
    new_t.push_back(t_[i]);
  }
  reps_ = std::move(new_reps);
  y_ = std::move(new_y);
  t_ = std::move(new_t);
}

void MemoryBank::SampleBatch(int batch_size, Rng* rng,
                             std::vector<int>* out) const {
  CERL_CHECK(!empty());
  out->resize(batch_size);
  for (int& v : *out) v = static_cast<int>(rng->UniformInt(size()));
}

}  // namespace cerl::core
