// SSE fan-out hub: the bridge between the ops server's snapshot pump
// (one producer thread) and its subscribed clients (one consumer thread
// each, a server worker writing to a socket).
//
// Isolation contract — the whole point of this file: a slow or stuck
// client must never block the pump or starve other clients. Each client
// owns a bounded single-producer/single-consumer ring; the pump's
// publish() pushes into every ring lock-free and, when a ring is full,
// drops the event for that client and counts it (the same overflow
// semantics as trace::TraceBuffer). The only locks are the subscriber
// list (contended solely by subscribe/unsubscribe, never by slow
// consumers) and each client's wakeup mutex, which the producer never
// acquires — it uses a bare notify after the lock-free push.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace presp::ops {

struct SseEvent {
  std::string event;  // SSE "event:" field ("metrics", "breaker", "lint")
  std::string data;   // payload (JSON; may span lines)
  std::uint64_t id = 0;
};

/// Bounded SPSC ring of SseEvents. push() is the producer side (the
/// pump), pop() the consumer side (the client's server worker); neither
/// blocks. Indices are monotonically increasing; slot = index % capacity.
class SseRing {
 public:
  explicit SseRing(std::size_t capacity);

  /// False (and counts a drop) when the ring is full.
  bool push(SseEvent event);
  /// False when the ring is empty.
  bool pop(SseEvent* out);

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<SseEvent> slots_;
  /// Producer-written publish cursor; consumer acquires it.
  std::atomic<std::uint64_t> head_{0};
  /// Consumer-written consume cursor; producer acquires it (full check).
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// One subscriber: its ring plus the wakeup channel its consumer sleeps
/// on. The producer only ever touches `ring` and `cv.notify_one()`.
struct SseClient {
  explicit SseClient(std::size_t capacity) : ring(capacity) {}

  SseRing ring;
  std::mutex wake_mutex;
  std::condition_variable wake_cv;
  /// Cleared by the hub on close_all() so blocked consumers exit.
  std::atomic<bool> open{true};

  /// Blocks the consumer until an event arrives, the client is closed,
  /// or `timeout_ms` passes. Returns true when an event was popped.
  bool wait_pop(SseEvent* out, int timeout_ms);
};

class SseHub {
 public:
  explicit SseHub(std::size_t ring_capacity) : capacity_(ring_capacity) {}

  std::shared_ptr<SseClient> subscribe();
  void unsubscribe(const std::shared_ptr<SseClient>& client);
  /// Pushes one event to every subscriber (drop-and-count per full
  /// ring) and wakes their consumers. Producer-side only.
  void publish(std::string event, std::string data);
  /// Marks every client closed and wakes its consumer (shutdown path).
  void close_all();

  int clients() const;
  std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  /// Events dropped across all subscribers, including already-departed
  /// ones (their tallies are folded in at unsubscribe).
  std::uint64_t dropped() const;

 private:
  std::size_t capacity_;
  mutable std::mutex clients_mutex_;
  std::vector<std::shared_ptr<SseClient>> clients_;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> departed_dropped_{0};
  std::atomic<std::uint64_t> next_id_{1};
};

/// Renders one event in SSE wire framing:
///   id: <id>\nevent: <event>\ndata: <line 1>\n...data: <line n>\n\n
/// A multi-line payload takes one data line per line, as the SSE spec
/// requires; SseParser joins them back with \n.
std::string sse_frame(const SseEvent& event);

/// Incremental parser for an SSE byte stream (test/bench client side).
/// Feed raw socket bytes; complete events come back in arrival order.
class SseParser {
 public:
  void feed(const char* data, std::size_t size);
  bool next(SseEvent* out);

 private:
  std::string buffer_;
};

}  // namespace presp::ops
