// Work-stealing thread pool: the task-level parallel execution substrate
// shared by the DPR flow (parallel OoC synthesis + strategy-shaped P&R
// fan-out), the WAMI stage pipeline and the row-tiled kernels.
//
// Topology: one deque per worker plus an external injection queue. A
// worker pops from the back of its own deque (LIFO: cache-warm subtasks
// first) and, when empty, steals from the front of a sibling's deque
// (FIFO: oldest, usually largest work) or the injection queue. Threads
// submitting from outside the pool land in the injection queue.
//
// Each per-worker deque is a std::deque guarded by the worker's own
// mutex: the owner and a thief only meet on one victim's lock. Victims are
// visited in topology order — same-NUMA-node workers first — and workers
// are best-effort pinned to CPUs when the host has enough of them
// (exec/topology.hpp).
//
// Wake protocol: an idle worker yields and retries a few times, then —
// like a blocked wait_idle() — counts itself in sleepers_ and only then
// re-checks the queues before sleeping; a submit publishes its task and
// then reads the count, and only takes wake_mutex_ to notify when someone
// is parked. Either the sleeper's re-check sees the task, or the submit
// sees the sleeper — so a busy pool submits without touching any shared
// lock but the target queue's.
//
// Determinism contract: the pool never promises an execution *order*, so
// tasks must be data-independent (or ordered via TaskGraph dependencies)
// and reductions must combine partial results in a task-index order chosen
// by the caller. parallel_for() supports this by making chunk boundaries a
// pure function of (range, grain) — never of the worker count — so a
// chunk-indexed partial-sum reduction is bit-identical at 1, 2 or N
// threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/trace.hpp"

namespace presp::exec {

class ThreadPool {
 public:
  struct Options {
    int threads = 1;
    /// Pin workers round-robin to CPUs (no-op when the host has fewer
    /// CPUs than workers, or off Linux).
    bool pin_workers = true;
  };

  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads) : ThreadPool(make_options(threads)) {}
  explicit ThreadPool(const Options& options);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return static_cast<int>(threads_.size()); }

  /// Enqueues one task. Callable from any thread, including from inside a
  /// running task (the subtask lands in the submitting worker's own deque).
  void submit(std::function<void()> fn);

  /// Runs one queued task on the calling thread if any is available
  /// (own deque first, then steals). Returns false when nothing was found.
  /// This is the help-while-waiting primitive TaskGroup/TaskGraph use so a
  /// blocked submitter contributes cycles instead of sleeping.
  bool run_one();

  /// Blocks until every submitted task has finished, helping in the
  /// meantime. Must not be called from inside a pool task (the running
  /// task itself would never count as finished); use TaskGroup for nested
  /// fork-join.
  void wait_idle();

  struct Stats {
    std::uint64_t executed = 0;  // tasks run to completion
    std::uint64_t stolen = 0;    // tasks taken from another worker's deque
    /// Steal probes that found the victim's deque empty.
    std::uint64_t steal_failures = 0;
    /// Times a worker went to sleep on the wake cv / was woken from it.
    std::uint64_t parks = 0;
    std::uint64_t unparks = 0;
    std::uint64_t max_queue_depth = 0;  // peak in-flight (queued+running)
  };
  Stats stats() const;

  /// Index of the calling thread within this pool's workers, or -1 when
  /// called from outside (used to label per-task trace spans).
  int current_worker() const;

 private:
  using Task = std::function<void()>;

  static Options make_options(int threads) {
    Options options;
    options.threads = threads;
    return options;
  }

  /// One per worker, cache-line separated so a worker's own-counter
  /// updates never bounce a line a sibling is spinning on. Threads outside
  /// the pool share one more slot, external_, whose deque is the
  /// injection queue.
  struct alignas(64) Worker {
    std::mutex mutex;
    std::deque<Task*> deque;  // owner pops the back, thieves the front
    /// Victim visitation order, same-NUMA-node first (topology.hpp).
    std::vector<int> steal_order;
    // Per-slot counters, aggregated by stats(). A worker's are written by
    // its own thread only; external_'s by any outside thread (relaxed).
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> steal_failures{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> unparks{0};
  };

  Worker& slot(int worker) {
    return worker >= 0 ? *workers_[static_cast<std::size_t>(worker)]
                       : external_;
  }
  void worker_loop(int index);
  /// Pops the newest (back) or oldest (front) task of `from`'s deque.
  static Task* pop(Worker& from, bool newest);
  /// Takes a task: own deque back (worker >= 0), else injection front,
  /// else steal from sibling fronts. Returns nullptr if none. Steals and
  /// failed probes are charged to slot(worker)'s counters; no tracing
  /// happens in here — counters are published from the park slow path
  /// (see publish_trace_counters).
  Task* take(int worker);
  void execute(Task* task, int worker);
  /// Slow-path-only trace emission: aggregates the per-worker counters
  /// into the exec.steals / exec.steal_failures / exec.parks counters.
  void publish_trace_counters();

  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  Worker external_;

  // Sleep/wake protocol (see the file comment): epoch_ increments under
  // wake_mutex_ only when a submit finds sleepers_ non-zero, and a sleeper
  // waits for it to move past the value it read before its re-check.
  std::atomic<int> sleepers_{0};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;

  std::atomic<std::uint64_t> unfinished_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
};

/// Fork-join group for nested parallelism: tasks spawned through a group
/// can be waited on from inside another pool task (unlike
/// ThreadPool::wait_idle). wait() helps execute queued tasks while the
/// group drains.
class TaskGroup {
 public:
  /// `pool` may be null: run() then executes inline (serial mode).
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup() { wait(); }

  void run(std::function<void()> fn);
  void wait();

 private:
  ThreadPool* pool_;
  std::atomic<std::uint64_t> remaining_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Deterministically-chunked parallel loop: splits [begin, end) into
/// chunks of exactly `grain` iterations (last chunk may be short) and runs
/// `body(chunk_begin, chunk_end)` for each. Chunk boundaries depend only
/// on (begin, end, grain) — never on the pool's thread count — so
/// chunk-indexed reductions are bit-identical in serial and parallel.
/// With a null pool (or a single chunk) the chunks run inline, in order.
template <typename Body>
void parallel_for(ThreadPool* pool, long long begin, long long end,
                  long long grain, const Body& body) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  if (pool == nullptr || pool->threads() <= 1 || end - begin <= grain) {
    for (long long lo = begin; lo < end; lo += grain)
      body(lo, lo + grain < end ? lo + grain : end);
    return;
  }
  TaskGroup group(pool);
  for (long long lo = begin; lo < end; lo += grain) {
    const long long hi = lo + grain < end ? lo + grain : end;
    group.run([&body, lo, hi] {
      const trace::TraceScope span(trace::Category::kExec, "task:tile");
      body(lo, hi);
    });
  }
  group.wait();
}

}  // namespace presp::exec
