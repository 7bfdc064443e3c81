#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/kernel.hpp"

namespace presp::sim {
namespace {

TEST(KernelTest, EventsRunInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule(30, [&] { order.push_back(3); });
  k.schedule(10, [&] { order.push_back(1); });
  k.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(k.run(), 30u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(KernelTest, SameTimeEventsRunInScheduleOrder) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) k.schedule(5, [&order, i] { order.push_back(i); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(KernelTest, NestedSchedulingAdvancesClock) {
  Kernel k;
  Time second = 0;
  k.schedule(10, [&] { k.schedule(15, [&] { second = k.now(); }); });
  k.run();
  EXPECT_EQ(second, 25u);
}

TEST(KernelTest, CancelPreventsExecution) {
  Kernel k;
  bool ran = false;
  const auto id = k.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(k.cancel(id));
  EXPECT_FALSE(k.cancel(id));  // second cancel is a no-op
  k.run();
  EXPECT_FALSE(ran);
}

TEST(KernelTest, CancelFindsAPendingEventBehindFiredOnes) {
  // A queue that never drains: one far timeout stays pending while many
  // short events fire (and leave the pool) around it.
  Kernel k;
  bool timed_out = false;
  const auto timeout = k.schedule(1'000'000, [&] { timed_out = true; });
  std::uint64_t fired_id = 0;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 1'000) fired_id = k.schedule(10, tick);
  };
  fired_id = k.schedule(10, tick);
  const auto early = k.schedule(5, [] {});
  EXPECT_EQ(k.run_until(20'000), 20'000u);
  EXPECT_EQ(ticks, 1'000);
  EXPECT_FALSE(k.cancel(early));
  EXPECT_FALSE(k.cancel(fired_id));
  EXPECT_TRUE(k.cancel(timeout));
  EXPECT_TRUE(k.empty());
  k.run();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(k.now(), 20'000u);
}

TEST(KernelTest, RunUntilStopsAtDeadline) {
  Kernel k;
  int ran = 0;
  k.schedule(10, [&] { ++ran; });
  k.schedule(100, [&] { ++ran; });
  EXPECT_EQ(k.run_until(50), 50u);
  EXPECT_EQ(ran, 1);
  k.run();
  EXPECT_EQ(ran, 2);
}

TEST(KernelTest, EmptyReflectsPendingWork) {
  Kernel k;
  EXPECT_TRUE(k.empty());
  const auto id = k.schedule(1, [] {});
  EXPECT_FALSE(k.empty());
  k.cancel(id);
  EXPECT_TRUE(k.empty());
}

TEST(ProcessTest, DelaySuspendsAndResumes) {
  Kernel k;
  std::vector<Time> stamps;
  auto proc = [&]() -> Process {
    stamps.push_back(k.now());
    co_await Delay(k, 10);
    stamps.push_back(k.now());
    co_await Delay(k, 5);
    stamps.push_back(k.now());
  };
  proc();
  k.run();
  EXPECT_EQ(stamps, (std::vector<Time>{0, 10, 15}));
}

TEST(ProcessTest, EventWakesAllWaiters) {
  Kernel k;
  SimEvent ev(k);
  int woken = 0;
  auto waiter = [&]() -> Process {
    co_await ev.wait();
    ++woken;
  };
  waiter();
  waiter();
  k.schedule(50, [&] { ev.trigger(); });
  k.run();
  EXPECT_EQ(woken, 2);
  EXPECT_TRUE(ev.triggered());
}

TEST(ProcessTest, TriggeredEventDoesNotBlock) {
  Kernel k;
  SimEvent ev(k);
  ev.trigger();
  Time when = 123;
  auto waiter = [&]() -> Process {
    co_await ev.wait();
    when = k.now();
  };
  waiter();
  k.run();
  EXPECT_EQ(when, 0u);
}

TEST(ProcessTest, SemaphoreSerializesResource) {
  Kernel k;
  Semaphore sem(k, 1);
  std::vector<std::pair<int, Time>> log;
  auto user = [&](int id) -> Process {
    co_await sem.acquire();
    log.emplace_back(id, k.now());
    co_await Delay(k, 10);
    sem.release();
  };
  user(1);
  user(2);
  user(3);
  k.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<int, Time>{1, 0}));
  EXPECT_EQ(log[1], (std::pair<int, Time>{2, 10}));
  EXPECT_EQ(log[2], (std::pair<int, Time>{3, 20}));
}

TEST(ProcessTest, SemaphoreCountingAllowsConcurrency) {
  Kernel k;
  Semaphore sem(k, 2);
  std::vector<Time> starts;
  auto user = [&]() -> Process {
    co_await sem.acquire();
    starts.push_back(k.now());
    co_await Delay(k, 10);
    sem.release();
  };
  user();
  user();
  user();
  k.run();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[1], 0u);
  EXPECT_EQ(starts[2], 10u);
}

TEST(ProcessTest, MailboxDeliversInFifoOrder) {
  Kernel k;
  Mailbox<int> box(k);
  std::vector<int> got;
  auto receiver = [&]() -> Process {
    for (int i = 0; i < 3; ++i) got.push_back(co_await box.receive());
  };
  receiver();
  k.schedule(5, [&] { box.send(1); });
  k.schedule(5, [&] { box.send(2); });
  k.schedule(9, [&] { box.send(3); });
  k.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(ProcessTest, MailboxBuffersWhenNoReceiver) {
  Kernel k;
  Mailbox<int> box(k);
  box.send(7);
  box.send(8);
  EXPECT_EQ(box.size(), 2u);
  int first = 0;
  auto receiver = [&]() -> Process { first = co_await box.receive(); };
  receiver();
  k.run();
  EXPECT_EQ(first, 7);
  EXPECT_EQ(box.size(), 1u);
}

TEST(ProcessTest, TwoReceiversShareOneMailbox) {
  Kernel k;
  Mailbox<int> box(k);
  std::vector<int> got;
  auto receiver = [&]() -> Process { got.push_back(co_await box.receive()); };
  receiver();
  receiver();
  k.schedule(1, [&] { box.send(10); });
  k.schedule(2, [&] { box.send(20); });
  k.run();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
}

}  // namespace
}  // namespace presp::sim
