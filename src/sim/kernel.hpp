// Discrete-event simulation kernel.
//
// Components of the SoC model (NoC routers, DMA engines, the ICAP, the
// reconfiguration manager's workqueue thread, accelerator datapaths) are
// written as C++20 coroutines ("processes") that co_await simulated delays
// and synchronization primitives. The kernel advances a virtual clock,
// measured in cycles of the SoC main clock (78 MHz on the paper's VC707
// configuration), and executes events in deterministic order: (time,
// insertion sequence).
//
// Ownership: coroutine frames are self-owning fire-and-forget processes.
// A process must not outlive its kernel. A suspended process is referenced
// from exactly one place — the kernel event that will resume it (Delay and
// every post-trigger/send/release hop go through schedule_resume) or one
// primitive's waiter list — so teardown destroys each still-suspended
// frame exactly once: Kernel's destructor destroys the frames of pending
// resume events without running them, and SimEvent/Semaphore/Mailbox
// destructors destroy the frames of their remaining waiters.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "trace/trace.hpp"
#include "util/error.hpp"

namespace presp::sim {

/// Virtual time in clock cycles.
using Time = std::uint64_t;

class Kernel {
 public:
  Kernel() = default;
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Time now() const { return now_; }

  /// Schedules a callback at now()+delay. Returns an id usable with cancel().
  std::uint64_t schedule(Time delay, std::function<void()> fn);

  /// Schedules a coroutine resume at now()+delay. Unlike a callback that
  /// captures the handle, the kernel knows this event owns a suspended
  /// frame and destroys it if the kernel is torn down first.
  std::uint64_t schedule_resume(Time delay, std::coroutine_handle<> co);

  /// Cancels a pending event; returns false if it already fired or was
  /// cancelled.
  bool cancel(std::uint64_t event_id);

  /// Runs until the event queue drains. Returns the final time.
  Time run();

  /// Runs events with time <= deadline; clock lands on deadline if the queue
  /// drains earlier.
  Time run_until(Time deadline);

  /// Number of events executed since construction (for tests/metrics).
  std::uint64_t events_executed() const { return executed_; }
  bool empty() const { return live_events_ == 0; }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    std::uint64_t id;
    std::function<void()> fn;
    std::coroutine_handle<> co{};  // exclusive with fn
    bool cancelled = false;
    bool popped = false;  // left the queue; the slot is on free_
  };
  struct Order {
    bool operator()(const Event* a, const Event* b) const {
      if (a->at != b->at) return a->at > b->at;
      return a->seq > b->seq;
    }
  };

  /// Queues a fresh event in a recycled (or new) pool slot.
  Event& push_event(Time delay);
  void pop_and_run();

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t live_events_ = 0;
  // Event slots. A popped slot is recycled through free_, so the pool
  // holds at most the peak number of queued events even when the queue
  // never drains (a fleet shard always has a watchdog timer queued).
  std::deque<Event> pool_;
  std::vector<Event*> free_;
  std::priority_queue<Event*, std::vector<Event*>, Order> queue_;
};

// ---------------------------------------------------------------------------
// Coroutine process type

/// Fire-and-forget simulation process. The coroutine starts running
/// immediately upon call (eager start) and its frame self-destructs when it
/// finishes. The returned Process object is an optional observer handle.
class Process {
 public:
  struct promise_type {
    Process get_return_object() {
      return Process{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { throw; }
  };

  Process() = default;

 private:
  explicit Process(std::coroutine_handle<promise_type>) {}
};

/// Awaitable that suspends the current process for `delay` cycles.
class Delay {
 public:
  Delay(Kernel& kernel, Time delay) : kernel_(kernel), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) {
    if (trace::enabled(trace::Category::kSim)) {
      trace::sim_instant(trace::Category::kSim, "process.suspend",
                         kernel_.now(), trace::kTrackSimKernel,
                         static_cast<double>(delay_));
    }
    kernel_.schedule_resume(delay_, handle);
  }
  void await_resume() const noexcept {}

 private:
  Kernel& kernel_;
  Time delay_;
};

/// One-shot broadcast event: processes co_await wait(); trigger() resumes
/// all current and future waiters (future waiters resume immediately).
class SimEvent {
 public:
  explicit SimEvent(Kernel& kernel) : kernel_(&kernel) {}
  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;
  ~SimEvent() {
    const auto waiters = std::move(waiters_);
    for (const auto handle : waiters) handle.destroy();
  }

  bool triggered() const { return triggered_; }

  void trigger();

  /// Resets to the non-triggered state (waiters must be empty).
  void reset() {
    PRESP_ASSERT_MSG(waiters_.empty(), "reset with pending waiters");
    triggered_ = false;
  }

  auto wait() {
    struct Awaiter {
      SimEvent& event;
      bool await_ready() const noexcept { return event.triggered_; }
      void await_suspend(std::coroutine_handle<> handle) {
        event.waiters_.push_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Kernel* kernel_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore for modeling exclusive/limited resources (e.g. the
/// single ICAP port, a memory-controller channel).
class Semaphore {
 public:
  Semaphore(Kernel& kernel, std::uint32_t initial)
      : kernel_(&kernel), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;
  ~Semaphore() {
    const auto waiters = std::move(waiters_);
    for (const auto handle : waiters) handle.destroy();
  }

  std::uint32_t available() const { return count_; }

  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() {
        if (sem.count_ > 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> handle) {
        sem.waiters_.push_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release();

 private:
  Kernel* kernel_;
  std::uint32_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel between processes. Receivers block when empty;
/// receive_for() races the delivery against a simulated-clock deadline —
/// the watchdog primitive the runtime manager builds its recovery on.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Kernel& kernel) : kernel_(&kernel) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;
  ~Mailbox() {
    const auto waiters = std::move(waiters_);
    for (Waiter* waiter : waiters) {
      if (waiter->timer_id != 0) kernel_->cancel(waiter->timer_id);
      waiter->handle.destroy();
    }
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  void send(T item) {
    items_.push_back(std::move(item));
    if (!waiters_.empty()) {
      Waiter* waiter = waiters_.front();
      waiters_.pop_front();
      if (waiter->timer_id != 0) {
        // The waiter is still queued, so its timeout has not fired yet;
        // cancelling must succeed (single-threaded kernel).
        const bool cancelled = kernel_->cancel(waiter->timer_id);
        PRESP_ASSERT_MSG(cancelled, "mailbox timeout raced with delivery");
        waiter->timer_id = 0;
      }
      // Resume through the kernel so the receiver runs after the sender's
      // current event completes (deterministic, avoids reentrancy).
      kernel_->schedule_resume(0, waiter->handle);
    }
  }

  /// Non-blocking receive (e.g. draining stale interrupts after a
  /// watchdog recovery).
  std::optional<T> try_receive() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  auto receive() {
    struct Awaiter {
      Mailbox& box;
      Waiter waiter{};
      bool await_ready() const noexcept { return !box.items_.empty(); }
      void await_suspend(std::coroutine_handle<> handle) {
        waiter.handle = handle;
        box.waiters_.push_back(&waiter);
      }
      T await_resume() {
        PRESP_ASSERT_MSG(!box.items_.empty(),
                         "mailbox resumed without an item");
        T item = std::move(box.items_.front());
        box.items_.pop_front();
        return item;
      }
    };
    return Awaiter{*this};
  }

  /// Receive racing a timeout: resumes with the item, or with nullopt
  /// once `timeout` cycles elapse with nothing delivered. Timed-out
  /// waiters leave the queue, so a later send is kept for the next
  /// receiver instead of being lost.
  auto receive_for(Time timeout) {
    struct Awaiter {
      Mailbox& box;
      Time timeout;
      Waiter waiter{};
      bool await_ready() const noexcept { return !box.items_.empty(); }
      void await_suspend(std::coroutine_handle<> handle) {
        waiter.handle = handle;
        box.waiters_.push_back(&waiter);
        Waiter* w = &waiter;
        Mailbox* b = &box;
        waiter.timer_id = box.kernel_->schedule(timeout, [b, w] {
          w->timed_out = true;
          w->timer_id = 0;
          b->remove_waiter(w);
          w->handle.resume();
        });
      }
      std::optional<T> await_resume() {
        if (waiter.timed_out) return std::nullopt;
        PRESP_ASSERT_MSG(!box.items_.empty(),
                         "mailbox resumed without an item");
        T item = std::move(box.items_.front());
        box.items_.pop_front();
        return item;
      }
    };
    return Awaiter{*this, timeout};
  }

 private:
  /// Waiter record living in the suspended awaiter (stable address).
  struct Waiter {
    std::coroutine_handle<> handle{};
    std::uint64_t timer_id = 0;  // 0 = no timeout armed
    bool timed_out = false;
  };

  void remove_waiter(Waiter* waiter) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == waiter) {
        waiters_.erase(it);
        return;
      }
    }
  }

  Kernel* kernel_;
  std::deque<T> items_;
  std::deque<Waiter*> waiters_;
};

}  // namespace presp::sim
