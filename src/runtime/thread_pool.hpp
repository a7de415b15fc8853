// Fixed-size worker pool for replication-level parallelism.
//
// The simulator itself is strictly single-threaded; what parallelises is
// the *experiment* layer: every paper figure aggregates 5-10 independent
// (scenario, seed) replications, and each replication owns its whole
// Simulation (clock, RNG, trace sink), so runs share no mutable state. The
// pool is deliberately minimal — a locked queue feeding N workers — since
// tasks are seconds-long simulations, not microsecond work items.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace emptcp::runtime {

/// Worker count used when none is requested: EMPTCP_JOBS if set (0 or
/// unset means "all cores"), capped to hardware_concurrency, at least 1.
std::size_t default_worker_count();

class ThreadPool {
 public:
  /// Starts `workers` threads (0 = default_worker_count()).
  explicit ThreadPool(std::size_t workers = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  /// Enqueues a task. Tasks may not submit further tasks during shutdown.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

 private:
  void worker_loop(std::size_t index);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// Phase-synchronised work on a ThreadPool: N long-lived parties, each
/// re-running its callback once per epoch.
///
/// The shard engine's barrier loop runs thousands of short epochs; paying
/// submit()'s queue mutation and closure allocation N times per epoch would
/// dominate the fine-grained ones. An EpochGroup submits each party task to
/// the pool exactly once; the tasks then park on a generation counter and
/// every run() call is one notify + one wait on that counter — no
/// per-epoch enqueue at all.
///
/// run() blocks until every party has finished the epoch, which gives the
/// caller a full barrier: party writes in epoch k happen-before the
/// caller's reads after run() returns, and those happen-before party reads
/// in epoch k+1. Exceptions thrown by a party are captured and the first
/// one is rethrown from run() after the barrier completes.
class EpochGroup {
 public:
  /// Occupies `parties` workers of `pool` (clamped to its worker count;
  /// at least 1). `fn(party)` runs once per party per run() call.
  EpochGroup(ThreadPool& pool, std::size_t parties,
             std::function<void(std::size_t)> fn);

  EpochGroup(const EpochGroup&) = delete;
  EpochGroup& operator=(const EpochGroup&) = delete;

  /// Releases the parked party tasks back to the pool.
  ~EpochGroup();

  /// Runs one epoch: every party executes fn(party) concurrently; returns
  /// when all have finished. Rethrows the first party exception.
  void run();

  [[nodiscard]] std::size_t parties() const { return parties_; }

  /// Per-party wall-clock accounting, populated only while
  /// runtime::Telemetry is enabled (all-zero otherwise). busy_s is time
  /// inside fn(); wait_s is time parked between epochs — at a barrier or
  /// waiting for the driver to plan the next window. Read only between
  /// run() calls (the barrier provides the happens-before edge).
  struct PartyStats {
    double busy_s = 0.0;
    double wait_s = 0.0;
    std::uint64_t epochs = 0;
  };
  [[nodiscard]] const std::vector<PartyStats>& party_stats() const {
    return stats_;
  }

 private:
  void party_loop(std::size_t party);

  std::function<void(std::size_t)> fn_;
  std::size_t parties_;

  std::mutex mu_;
  std::condition_variable epoch_cv_;  ///< parties wait for a new generation
  std::condition_variable done_cv_;   ///< run() waits for all parties
  std::uint64_t generation_ = 0;      ///< bumped by run() to start an epoch
  std::size_t remaining_ = 0;         ///< parties still inside this epoch
  bool shutdown_ = false;
  std::size_t parked_ = 0;  ///< parties alive inside party_loop
  std::exception_ptr first_error_;
  std::vector<PartyStats> stats_;  ///< each entry written by its own party
};

}  // namespace emptcp::runtime
