// Crash recovery under a real SIGKILL. A forked child runs a WAL-attached
// engine (fsync on every append) while a second thread snapshots it back to
// back, and acknowledges every accepted domain over a pipe. The parent
// kills the child after a seeded number of acknowledgements, recovers
// snapshot + WAL into a fresh engine, and checks "accepted implies
// recoverable": every acknowledged domain is trained after recovery, and
// each tenant's trainer is bitwise the serial trainer over the same domains.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "stream/stream_engine.h"
#include "util/rng.h"

namespace cerl::stream {
namespace {

using core::CerlConfig;
using core::CerlTrainer;
using data::CausalDataset;
using data::DataSplit;
using linalg::Matrix;

constexpr int kFeatures = 6;
constexpr int kStreams = 3;
constexpr int kDomains = 6;
constexpr int kTrials = 4;

CausalDataset Toy(Rng* rng, int n, double shift) {
  CausalDataset d;
  d.x = Matrix(n, kFeatures);
  d.t.resize(n);
  d.y.resize(n);
  d.mu0.resize(n);
  d.mu1.resize(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < kFeatures; ++j) d.x(i, j) = rng->Normal(shift, 1.0);
    const double tau = 1.0 + std::sin(d.x(i, 0));
    d.mu0[i] = std::sin(d.x(i, 1));
    d.mu1[i] = d.mu0[i] + tau;
    d.t[i] = rng->Uniform() < 0.5 ? 1 : 0;
    d.y[i] = (d.t[i] == 1 ? d.mu1[i] : d.mu0[i]) + rng->Normal(0, 0.1);
  }
  return d;
}

CerlConfig FastConfig(uint64_t seed) {
  CerlConfig c;
  c.net.rep_hidden = {12};
  c.net.rep_dim = 6;
  c.net.head_hidden = {6};
  c.train.epochs = 6;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 6;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  c.memory_capacity = 50;
  return c;
}

struct Workload {
  std::vector<CerlConfig> configs;
  std::vector<std::vector<DataSplit>> domains;
};

Workload MakeWorkload() {
  Workload w;
  for (int s = 0; s < kStreams; ++s) {
    w.configs.push_back(FastConfig(610 + 29 * s));
    Rng rng(70 + s);
    w.domains.emplace_back();
    for (int d = 0; d < kDomains; ++d) {
      w.domains[s].push_back(
          data::SplitDataset(Toy(&rng, 180, (0.3 + 0.2 * s) * d), &rng));
    }
  }
  return w;
}

// The child's whole life: ingest every domain round-robin over the tenants,
// acknowledge each accepted push with the tenant id, and let the parent's
// SIGKILL end it. At most two domains per tenant are outstanding, so the
// snapshots capture trained and pending domains alike. Exits without
// unwinding (no destructors, no atexit).
[[noreturn]] void RunChild(const Workload& w, const std::string& dir,
                           int ack_fd) {
  StreamEngineOptions options;
  options.num_workers = 2;
  options.wal_path = dir + "/engine.wal";
  options.wal_fsync = true;
  StreamEngine engine(options);
  if (!engine.OpenStorage().ok()) _exit(2);
  for (int s = 0; s < kStreams; ++s) {
    engine.AddStream("tenant-" + std::to_string(s), w.configs[s], kFeatures);
  }
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) (void)engine.SaveSnapshot(dir + "/engine.snap");
  });
  for (int d = 0; d < kDomains; ++d) {
    for (int s = 0; s < kStreams; ++s) {
      if (!engine.PushDomain(s, w.domains[s][d]).ok()) _exit(3);
      const uint8_t ack = static_cast<uint8_t>(s);
      if (::write(ack_fd, &ack, 1) != 1) _exit(4);
    }
    for (int s = 0; s < kStreams; ++s) {
      while (engine.sched_stats(s).queue_depth > 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  engine.Drain();
  stop = true;
  snapshotter.join();
  _exit(0);
}

TEST(CrashRecoveryTest, AcknowledgedDomainsSurviveSigkill) {
  const Workload w = MakeWorkload();
  Rng kill_rng(2024);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string dir =
        ::testing::TempDir() + "/crash_trial_" + std::to_string(trial);
    ::mkdir(dir.c_str(), 0755);
    for (const char* file : {"/engine.wal", "/engine.snap"}) {
      std::remove((dir + file).c_str());
    }
    const int kill_after =
        1 + static_cast<int>(kill_rng.UniformInt(kStreams * kDomains));

    // Fork while this process runs no other thread: every engine of the
    // previous trial is destroyed, and serial training starts no threads.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(fds[0]);
      RunChild(w, dir, fds[1]);
    }
    ::close(fds[1]);
    std::vector<int> acked(kStreams, 0);
    int total = 0;
    uint8_t ack = 0;
    while (total < kill_after && ::read(fds[0], &ack, 1) == 1) {
      ASSERT_LT(ack, kStreams);
      ++acked[ack];
      ++total;
    }
    ::kill(pid, SIGKILL);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
    ::close(fds[0]);
    ASSERT_EQ(total, kill_after)
        << "trial " << trial << ": the child died before the kill point";

    StreamEngineOptions options;
    options.num_workers = 2;
    options.wal_path = dir + "/engine.wal";
    StreamEngine recovered(options);
    const Status status = recovered.Recover(dir + "/engine.snap");
    ASSERT_TRUE(status.ok()) << "trial " << trial << ": "
                             << status.ToString();
    recovered.Drain();
    ASSERT_EQ(recovered.num_streams(), kStreams) << "trial " << trial;
    for (int s = 0; s < kStreams; ++s) {
      const std::string tag =
          "trial " + std::to_string(trial) + " stream " + std::to_string(s);
      const int stages = recovered.trainer(s).stages_seen();
      EXPECT_GE(stages, acked[s]) << tag << ": an acknowledged domain is lost";
      ASSERT_LE(stages, kDomains) << tag;
      CerlTrainer serial(w.configs[s], kFeatures);
      for (int d = 0; d < stages; ++d) serial.ObserveDomain(w.domains[s][d]);
      std::string want, got;
      ASSERT_TRUE(serial.SerializeCheckpoint(&want).ok()) << tag;
      ASSERT_TRUE(recovered.trainer(s).SerializeCheckpoint(&got).ok()) << tag;
      EXPECT_TRUE(want == got) << tag << ": recovered trainer is not bitwise "
                               << "the serial one after " << stages
                               << " domains";
    }
  }
}

}  // namespace
}  // namespace cerl::stream
