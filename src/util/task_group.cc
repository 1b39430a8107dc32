#include "util/task_group.h"

#include <utility>

#include "util/check.h"

namespace cerl {

TaskGroup::TaskGroup(WorkStealingPool* pool) : pool_(pool) {
  CERL_CHECK(pool != nullptr);
}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Submit(TaskFn task) {
  bool start_pump = false;
  ExecOptions options;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(std::move(task));
    ++submitted_;
    if (!pump_active_) {
      pump_active_ = true;
      start_pump = true;
      options = exec_options_;
    }
  }
  if (start_pump) pool_->Execute([this] { Pump(); }, options);
}

void TaskGroup::SetExecOptions(const ExecOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  exec_options_ = options;
}

void TaskGroup::Pump() {
  TaskFn task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The pump is only ever scheduled with work pending; pending_ can only
    // be consumed by the single active pump, so it is non-empty here.
    CERL_CHECK(!pending_.empty());
    task = std::move(pending_.front());
    pending_.pop_front();
  }
  task();
  bool more = false;
  ExecOptions options;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    more = !pending_.empty();
    if (more) {
      options = exec_options_;
    } else {
      pump_active_ = false;
      cv_idle_.notify_all();
    }
  }
  // Re-submit instead of looping: the worker returns to the pool between
  // group tasks, so many groups sharing few workers interleave (per the
  // pool's policy) instead of one group monopolizing a worker until its
  // queue drains. The re-read exec_options_ is what lets a cost-aware
  // engine re-prioritize a stream between stages.
  if (more) pool_->Execute([this] { Pump(); }, options);
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return !pump_active_ && pending_.empty(); });
}

int64_t TaskGroup::submitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return submitted_;
}

int64_t TaskGroup::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

}  // namespace cerl
