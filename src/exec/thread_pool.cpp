#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "exec/topology.hpp"
#include "trace/trace.hpp"

namespace presp::exec {

namespace {
/// Index of the pool worker the current thread is, or -1 for external
/// threads. One pool is expected per scope (flow run, pipeline, bench);
/// nested pools would each see their own workers, so a plain thread_local
/// index keyed by pool pointer keeps stealing correct even then.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_worker = -1;

/// Failed take() sweeps a worker retries (yielding in between) before it
/// announces itself as a sleeper.
constexpr int kParkSpins = 4;
}  // namespace

ThreadPool::ThreadPool(const Options& options) : options_(options) {
  const int n = std::max(1, options.threads);
  options_.threads = n;
  const Topology topo = Topology::detect();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->steal_order = steal_order(topo, i, n);
    external_.steal_order.push_back(i);
  }
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back([this, i, topo] {
      if (options_.pin_workers)
        pin_worker(topo, i, static_cast<int>(workers_.size()));
      worker_loop(i);
    });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // All tasks have completed (wait_idle), so no queued Task* remain.
}

void ThreadPool::submit(std::function<void()> fn) {
  const std::uint64_t depth =
      unfinished_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > peak && !max_queue_depth_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
  if (trace::enabled(trace::Category::kExec)) {
    trace::counter(trace::Category::kExec, "exec.queue_depth",
                   static_cast<double>(depth));
  }
  Task* task = new Task(std::move(fn));
  {
    Worker& target = slot(current_worker());
    std::lock_guard<std::mutex> lock(target.mutex);
    target.deque.push_back(task);
  }
  // Pairs with the sleeper's increment-then-re-check (worker_loop,
  // wait_idle): either its re-check sees this task or this load sees it.
  // The queue mutex orders the same hand-off for TSan, which ignores
  // fences.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    ++epoch_;
  }
  wake_cv_.notify_one();
  idle_cv_.notify_all();
}

ThreadPool::Task* ThreadPool::pop(Worker& from, bool newest) {
  std::lock_guard<std::mutex> lock(from.mutex);
  if (from.deque.empty()) return nullptr;
  Task* task = newest ? from.deque.back() : from.deque.front();
  if (newest)
    from.deque.pop_back();
  else
    from.deque.pop_front();
  return task;
}

ThreadPool::Task* ThreadPool::take(int worker) {
  // 1. Own deque, newest first (cache-warm subtasks).
  if (worker >= 0) {
    if (Task* task = pop(slot(worker), true)) return task;
  }
  // 2. Injection queue, oldest first.
  if (Task* task = pop(external_, false)) return task;
  // 3. Steal from siblings, oldest first (largest remaining work),
  // same-NUMA-node victims first. No tracing in here: this is the hot
  // probe path and takes no lock but the deque mutexes it probes.
  Worker& self = slot(worker);
  for (const int victim : self.steal_order) {
    if (Task* task = pop(*workers_[static_cast<std::size_t>(victim)],
                         false)) {
      self.stolen.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
    self.steal_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

void ThreadPool::execute(Task* task, int worker) {
  (*task)();
  delete task;
  slot(worker).executed.fetch_add(1, std::memory_order_relaxed);
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    idle_cv_.notify_all();
  }
}

bool ThreadPool::run_one() {
  const int worker = current_worker();
  Task* task = take(worker);
  if (task == nullptr) return false;
  execute(task, worker);
  return true;
}

void ThreadPool::publish_trace_counters() {
  if (!trace::enabled(trace::Category::kExec)) return;
  const Stats s = stats();
  trace::counter(trace::Category::kExec, "exec.steals",
                 static_cast<double>(s.stolen));
  trace::counter(trace::Category::kExec, "exec.steal_failures",
                 static_cast<double>(s.steal_failures));
  trace::counter(trace::Category::kExec, "exec.parks",
                 static_cast<double>(s.parks));
}

void ThreadPool::worker_loop(int index) {
  t_pool = this;
  t_worker = index;
  trace::set_thread_name("worker-" + std::to_string(index));
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  while (true) {
    Task* found = take(index);
    // Yield and retry a few times before parking: a submitter that is
    // only momentarily behind refills the queues without paying for a
    // wake, and a pool whose workers stay awake submits without one.
    for (int spin = 0; found == nullptr && spin < kParkSpins; ++spin) {
      std::this_thread::yield();
      found = take(index);
    }
    if (found != nullptr) {
      execute(found, index);
      continue;
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_) return;
    const std::uint64_t seen = epoch_;
    lock.unlock();
    // Late re-check, now that submit() can see us: a task pushed before
    // the increment is found here, one pushed after it moves the epoch.
    if (Task* task = take(index)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      execute(task, index);
      continue;
    }
    // About to park: this is the slow path, so trace emission (which may
    // allocate a buffer chunk) is safe here — never in take().
    publish_trace_counters();
    self.parks.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    wake_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    lock.unlock();
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    self.unparks.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::wait_idle() {
  const int worker = current_worker();
  while (true) {
    if (run_one()) continue;
    if (unfinished_.load(std::memory_order_acquire) == 0) break;
    // Same park protocol as worker_loop, so a submit while we sleep wakes
    // us to help instead of leaving the task to busy workers.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lock(wake_mutex_);
    const std::uint64_t seen = epoch_;
    lock.unlock();
    if (Task* task = take(worker)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      execute(task, worker);
      continue;
    }
    lock.lock();
    idle_cv_.wait(lock, [&] {
      return unfinished_.load(std::memory_order_acquire) == 0 ||
             epoch_ != seen;
    });
    lock.unlock();
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  publish_trace_counters();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  const auto add = [&s](const Worker& from) {
    s.executed += from.executed.load(std::memory_order_relaxed);
    s.stolen += from.stolen.load(std::memory_order_relaxed);
    s.steal_failures += from.steal_failures.load(std::memory_order_relaxed);
    s.parks += from.parks.load(std::memory_order_relaxed);
    s.unparks += from.unparks.load(std::memory_order_relaxed);
  };
  add(external_);
  for (const auto& worker : workers_) add(*worker);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  return s;
}

int ThreadPool::current_worker() const {
  return t_pool == this ? t_worker : -1;
}

// ---------------------------------------------------------------- TaskGroup

void TaskGroup::run(std::function<void()> fn) {
  if (pool_ == nullptr || pool_->threads() <= 1) {
    fn();  // serial mode: run inline, in submission order
    return;
  }
  remaining_.fetch_add(1, std::memory_order_relaxed);
  pool_->submit([this, fn = std::move(fn)] {
    fn();
    // The decrement must happen under mutex_: wait() re-acquires the mutex
    // after observing zero, which then cannot succeed until this thread has
    // released cv_ and the lock — so the caller cannot destroy the group
    // while we are still touching it.
    std::lock_guard<std::mutex> lock(mutex_);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      cv_.notify_all();
  });
}

void TaskGroup::wait() {
  if (pool_ == nullptr) return;
  while (remaining_.load(std::memory_order_acquire) != 0) {
    if (pool_->run_one()) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    // The queued tasks are all running elsewhere; sleep until the group
    // drains (short timeout re-checks the queues for late arrivals).
    cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  // Handshake with the final completion, whose decrement-to-zero runs under
  // mutex_: once we hold the lock, that task has fully left cv_/mutex_ and
  // destroying the group is safe.
  std::lock_guard<std::mutex> lock(mutex_);
}

}  // namespace presp::exec
