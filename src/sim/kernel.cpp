#include "sim/kernel.hpp"

namespace presp::sim {

Kernel::~Kernel() {
  // Pending resume events own suspended coroutine frames; destroy them
  // without running them. Frame destructors may cascade (a dying frame's
  // local primitives destroy their own waiters) but never re-enter the
  // kernel, so draining the queue releases every frame exactly once.
  while (!queue_.empty()) {
    Event* ev = queue_.top();
    queue_.pop();
    if (ev->co) ev->co.destroy();
  }
}

Kernel::Event& Kernel::push_event(Time delay) {
  Event* ev = nullptr;
  if (free_.empty()) {
    ev = &pool_.emplace_back();
  } else {
    ev = free_.back();
    free_.pop_back();
  }
  *ev = Event{now_ + delay, seq_++, next_id_++, nullptr};
  queue_.push(ev);
  ++live_events_;
  return *ev;
}

std::uint64_t Kernel::schedule(Time delay, std::function<void()> fn) {
  Event& ev = push_event(delay);
  ev.fn = std::move(fn);
  return ev.id;
}

std::uint64_t Kernel::schedule_resume(Time delay, std::coroutine_handle<> co) {
  Event& ev = push_event(delay);
  ev.co = co;
  return ev.id;
}

bool Kernel::cancel(std::uint64_t event_id) {
  // Ids are unique, and the pool holds only the queued events plus free
  // slots, so a scan is short.
  for (Event& ev : pool_) {
    if (ev.id != event_id) continue;
    if (ev.popped || ev.cancelled) return false;
    if (ev.co) {
      ev.co.destroy();
      ev.co = nullptr;
    }
    ev.cancelled = true;
    --live_events_;
    return true;
  }
  return false;
}

void Kernel::pop_and_run() {
  Event* ev = queue_.top();
  queue_.pop();
  // Nothing below touches *ev after taking its callback or coroutine, so
  // the slot may be reused by the events this one schedules.
  ev->popped = true;
  free_.push_back(ev);
  if (!ev->cancelled) {
    now_ = ev->at;
    --live_events_;
    ++executed_;
    if (trace::enabled(trace::Category::kSim)) {
      trace::sim_instant(trace::Category::kSim,
                         ev->co ? "process.resume" : "event.fire", now_,
                         trace::kTrackSimKernel);
    }
    if (ev->co) {
      const auto co = ev->co;
      ev->co = nullptr;
      try {
        co.resume();
      } catch (...) {
        // The process died by exception: its locals were unwound before
        // unhandled_exception rethrew, leaving a dead frame suspended at
        // the final suspend point. Free it, then let the exception
        // surface from run().
        co.destroy();
        throw;
      }
    } else {
      auto fn = std::move(ev->fn);
      ev->fn = nullptr;
      fn();
    }
  } else {
    // Cancelled events do not advance the clock: a cancelled watchdog
    // timeout must leave the simulated time exactly as if it had never
    // been armed.
    ev->fn = nullptr;
  }
}

Time Kernel::run() {
  while (!queue_.empty()) pop_and_run();
  return now_;
}

Time Kernel::run_until(Time deadline) {
  while (!queue_.empty() && queue_.top()->at <= deadline) pop_and_run();
  if (now_ < deadline) now_ = deadline;
  return now_;
}

void SimEvent::trigger() {
  if (triggered_) return;
  triggered_ = true;
  auto waiters = std::move(waiters_);
  waiters_.clear();
  for (const auto handle : waiters) {
    kernel_->schedule_resume(0, handle);
  }
}

void Semaphore::release() {
  if (!waiters_.empty()) {
    const auto handle = waiters_.front();
    waiters_.pop_front();
    // The token passes directly to the waiter; count_ stays unchanged.
    kernel_->schedule_resume(0, handle);
  } else {
    ++count_;
  }
}

}  // namespace presp::sim
