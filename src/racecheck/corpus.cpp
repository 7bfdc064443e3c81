#include "racecheck/corpus.hpp"

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "exec/task_graph.hpp"
#include "exec/thread_pool.hpp"
#include "fleet/fleet.hpp"
#include "ops/events.hpp"
#include "racecheck/annot.hpp"
#include "racecheck/session.hpp"
#include "runtime/bitstream_source.hpp"
#include "util/error.hpp"

namespace presp::racecheck {

namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------ racy workloads

// Unsynchronized counter: N tasks increment one location with no lock,
// no graph edge and no publish/consume. The canonical write/write race.
void racy_counter() {
  exec::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&counter] {
      const annot::Scope scope("corpus.racy-counter");
      PRESP_RC_WRITE(&counter, "corpus.counter");
      counter.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
}

// One writer task, one reader task, nothing ordering them.
void racy_read_write() {
  exec::ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.submit([&value] {
    const annot::Scope scope("corpus.writer");
    PRESP_RC_WRITE(&value, "corpus.value");
    value.store(1, std::memory_order_relaxed);
  });
  pool.submit([&value] {
    const annot::Scope scope("corpus.reader");
    PRESP_RC_READ(&value, "corpus.value");
    (void)value.load(std::memory_order_relaxed);
  });
  pool.wait_idle();
}

// The producer publishes correctly, but the consumer spins on the raw
// flag and never calls AtomicConsume: the half-annotated hand-off.
void racy_publish_no_consume() {
  exec::ThreadPool pool(2);
  std::atomic<int> flag{0};
  std::atomic<int> payload{0};
  pool.submit([&] {
    const annot::Scope scope("corpus.producer");
    PRESP_RC_WRITE(&payload, "corpus.payload");
    payload.store(42, std::memory_order_relaxed);
    annot::AtomicPublish(&flag, "corpus.flag");
    flag.store(1, std::memory_order_release);
  });
  pool.submit([&] {
    const annot::Scope scope("corpus.consumer");
    while (flag.load(std::memory_order_acquire) != 1)
      std::this_thread::yield();
    // BUG: missing annot::AtomicConsume(&flag, "corpus.flag").
    PRESP_RC_READ(&payload, "corpus.payload");
    (void)payload.load(std::memory_order_relaxed);
  });
  pool.wait_idle();
}

// Two phases, structurally ordered (wait_idle between them), each
// guarding the variable with a DIFFERENT lock. No data race today, but
// the lock discipline is inconsistent: the lockset intersection is
// empty, so one refactor away from a real race.
void racy_two_locks() {
  exec::ThreadPool pool(2);
  std::mutex lock_a;
  std::mutex lock_b;
  std::atomic<int> data{0};
  pool.submit([&] {
    const annot::LockGuard<std::mutex> guard(lock_a, "corpus.lock-a");
    PRESP_RC_WRITE(&data, "corpus.split-guarded");
    data.fetch_add(1, std::memory_order_relaxed);
  });
  pool.wait_idle();
  pool.submit([&] {
    const annot::LockGuard<std::mutex> guard(lock_b, "corpus.lock-b");
    PRESP_RC_WRITE(&data, "corpus.split-guarded");
    data.fetch_add(1, std::memory_order_relaxed);
  });
  pool.wait_idle();
}

// The PR 2 TaskGroup bug, resurrected at annotation level: the original
// wait() returned as soon as the bare counter hit zero, so the waiter
// could destroy the group while the last task was still inside
// notify — here the waiter spins on the counter (real acquire/release,
// so the binary is sound) and "destroys" without any annotated edge
// ordering it after the task's final group touch.
void racy_group_destroy_notify() {
  exec::ThreadPool pool(2);
  struct BuggyGroup {
    std::atomic<int> remaining{1};
  } group;
  pool.submit([&group] {
    const annot::Scope scope("corpus.group-task");
    PRESP_RC_WRITE(&group, "corpus.group");  // last touch before "notify"
    group.remaining.store(0, std::memory_order_release);
  });
  while (group.remaining.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  {
    const annot::Scope scope("corpus.group-destroy");
    PRESP_RC_WRITE(&group, "corpus.group");  // the premature destroy
  }
  pool.wait_idle();
}

// Conflicting acquisition orders across two (structurally ordered, so
// never actually deadlocking) tasks: the lock-order pass must flag the
// a -> b -> a cycle even though the deadlock never fired.
void racy_lock_order() {
  exec::ThreadPool pool(2);
  std::mutex lock_a;
  std::mutex lock_b;
  pool.submit([&] {
    const annot::LockGuard<std::mutex> outer(lock_a, "corpus.order-a");
    const annot::LockGuard<std::mutex> inner(lock_b, "corpus.order-b");
  });
  pool.wait_idle();
  pool.submit([&] {
    const annot::LockGuard<std::mutex> outer(lock_b, "corpus.order-b");
    const annot::LockGuard<std::mutex> inner(lock_a, "corpus.order-a");
  });
  pool.wait_idle();
}

// ----------------------------------------------------- clean workloads

// Same counter as racy_counter, consistently guarded by one lock.
void clean_counter_locked() {
  exec::ThreadPool pool(3);
  std::mutex mutex;
  int counter = 0;
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      const annot::LockGuard<std::mutex> guard(mutex,
                                               "corpus.counter-lock");
      PRESP_RC_WRITE(&counter, "corpus.locked-counter");
      ++counter;
    });
  }
  pool.wait_idle();
  PRESP_RC_READ(&counter, "corpus.locked-counter");
  PRESP_REQUIRE(counter == 8, "clean-counter-locked lost an increment");
}

// The fully-annotated publish/consume hand-off racy_publish_no_consume
// gets wrong.
void clean_publish_consume() {
  exec::ThreadPool pool(2);
  std::atomic<int> chan{0};
  int payload = 0;
  pool.submit([&] {
    const annot::Scope scope("corpus.producer");
    PRESP_RC_WRITE(&payload, "corpus.handoff");
    payload = 7;
    annot::AtomicPublish(&chan, "corpus.chan");
    chan.store(1, std::memory_order_release);
  });
  pool.submit([&] {
    const annot::Scope scope("corpus.consumer");
    while (chan.load(std::memory_order_acquire) != 1)
      std::this_thread::yield();
    annot::AtomicConsume(&chan, "corpus.chan");
    PRESP_RC_READ(&payload, "corpus.handoff");
    PRESP_REQUIRE(payload == 7, "clean-publish-consume lost the payload");
  });
  pool.wait_idle();
}

// A dependency chain through TaskGraph: graph edges are happens-before
// edges, so serial mutation along the chain is clean.
void clean_graph_chain() {
  exec::ThreadPool pool(2);
  exec::TaskGraph graph;
  int acc = 0;
  const exec::TaskId a = graph.add("a", [&acc] {
    PRESP_RC_WRITE(&acc, "corpus.chain");
    acc = 1;
  });
  const exec::TaskId b = graph.add(
      "b",
      [&acc] {
        PRESP_RC_WRITE(&acc, "corpus.chain");
        acc += 2;
      },
      {a});
  graph.add(
      "c",
      [&acc] {
        PRESP_RC_READ(&acc, "corpus.chain");
        PRESP_REQUIRE(acc == 3, "clean-graph-chain saw a stale value");
      },
      {b});
  graph.run(&pool);
}

// Deterministically-chunked parallel_for with per-chunk partials: each
// chunk owns its slot, the group join orders the final reduction.
void clean_parallel_for() {
  exec::ThreadPool pool(3);
  std::vector<long long> partial(8, 0);
  exec::parallel_for(&pool, 0, 64, 8,
                     [&partial](long long lo, long long hi) {
                       long long* slot = &partial[lo / 8];
                       PRESP_RC_WRITE(slot, "corpus.partial");
                       for (long long i = lo; i < hi; ++i) *slot += i;
                     });
  long long total = 0;
  for (long long& slot : partial) {
    PRESP_RC_READ(&slot, "corpus.partial");
    total += slot;
  }
  PRESP_REQUIRE(total == 64 * 63 / 2, "clean-parallel-for wrong sum");
}

// The async bitstream store path: store + pool-backed fetch with the
// library's own Scope/publish annotations, consumed by the waiter.
void clean_store_read() {
  const fs::path dir =
      fs::temp_directory_path() / "presp-racecheck-store";
  fs::create_directories(dir);
  exec::ThreadPool pool(2);
  runtime::FileBitstreamSource source(dir.string(), pool);
  source.store(0, "corpus_mod", std::vector<std::uint8_t>(256, 0xAB));
  auto future = source.fetch(0, "corpus_mod");
  const std::vector<std::uint8_t> data = future.get();
  annot::AtomicConsume(&source, "store.read");
  PRESP_REQUIRE(data.size() == 256 && data[0] == 0xAB,
                "clean-store-read bad payload");
  pool.wait_idle();
  fs::remove_all(dir);
}

// A few fleet quanta on the (single-threaded-by-contract) manager: all
// annotated fleet.state accesses land on one logical thread.
void clean_fleet_quantum() {
  static const char* kSoc = R"(
[soc]
name = racecheck_fleet
device = vc707
rows = 2
cols = 3

[tiles]
r0c0 = cpu
r0c1 = mem
r0c2 = aux
r1c0 = reconf:acc_a
r1c1 = empty
r1c2 = empty
)";
  soc::AcceleratorRegistry registry;
  soc::AcceleratorSpec spec;
  spec.name = "acc_a";
  spec.luts = 12'000;
  spec.latency.items_per_beat = 1;
  spec.latency.ii = 2;
  spec.latency.startup_cycles = 30;
  spec.latency.words_in_per_item = 1.0;
  spec.latency.words_out_per_item = 0.5;
  registry.add(spec);

  fleet::FleetTopology topo;
  topo.shards = 1;
  topo.quantum_cycles = 4'000;
  topo.classes[0] = {8.0, 4.0, 8.0, 16, 600};
  topo.classes[1] = {4.0, 4.0, 16.0, 32, 2'000};
  topo.classes[2] = {1.0, 4.0, 32.0, 64, 8'000};

  fleet::FleetManager manager(topo, netlist::SocConfig::parse(kSoc),
                              registry);
  manager.add_module("acc_a", 140'000);
  fleet::FleetRequest request;
  request.id = 1;
  request.module = "acc_a";
  request.items = 64;
  manager.submit(std::move(request));
  // Drain to idle: an in-flight reconfiguration owns live coroutine
  // frames inside the runtime manager, so stopping mid-run would leak
  // them (and LeakSanitizer rightly objects).
  for (int i = 0; i < 200 && !manager.idle(); ++i) manager.run_quanta(1);
  PRESP_REQUIRE(manager.idle(), "fleet workload did not drain");
}

// The ops plane's SPSC event ring: pump-side pushes carry their own
// publish annotation, consumer-side pops the matching consume, so the
// non-atomic payload strings hand over cleanly. The consumer treats
// producer-side drops as delivered (the ring's overflow contract).
void clean_ops_sse_ring() {
  exec::ThreadPool pool(2);
  ops::SseRing ring(4);
  constexpr int kEvents = 64;
  pool.submit([&ring] {
    const annot::Scope scope("corpus.sse-pump");
    for (int i = 0; i < kEvents; ++i) {
      ops::SseEvent event;
      event.id = static_cast<std::uint64_t>(i + 1);
      event.event = "metrics";
      event.data = std::to_string(i);
      ring.push(std::move(event));  // full ring drops-and-counts
    }
  });
  pool.submit([&ring] {
    const annot::Scope scope("corpus.sse-consumer");
    ops::SseEvent out;
    std::uint64_t received = 0;
    while (received + ring.dropped() <
           static_cast<std::uint64_t>(kEvents)) {
      if (ring.pop(&out))
        ++received;
      else
        std::this_thread::yield();
    }
    PRESP_REQUIRE(received > 0, "sse consumer received nothing");
  });
  pool.wait_idle();
  PRESP_REQUIRE(ring.dropped() < static_cast<std::uint64_t>(kEvents),
                "sse ring dropped every event");
}

}  // namespace

const std::vector<Workload>& corpus() {
  static const std::vector<Workload> kCorpus = {
      {"racy-counter", "unsynchronized multi-task counter increments",
       true, "race.data-race", racy_counter},
      {"racy-read-write", "unordered writer and reader tasks", true,
       "race.data-race", racy_read_write},
      {"racy-publish-no-consume",
       "publish without the matching consume on the hand-off", true,
       "race.data-race", racy_publish_no_consume},
      {"racy-two-locks",
       "same variable guarded by two different locks in two phases",
       true, "race.lockset", racy_two_locks},
      {"racy-group-destroy-notify",
       "PR 2 TaskGroup destroy-while-notify bug at annotation level",
       true, "race.data-race", racy_group_destroy_notify},
      {"racy-lock-order",
       "conflicting lock acquisition orders that never deadlocked", true,
       "race.lock-order", racy_lock_order},
      {"clean-counter-locked", "counter consistently guarded by one lock",
       false, "", clean_counter_locked},
      {"clean-publish-consume", "fully annotated publish/consume hand-off",
       false, "", clean_publish_consume},
      {"clean-graph-chain", "TaskGraph dependency chain mutation", false,
       "", clean_graph_chain},
      {"clean-parallel-for", "chunked parallel_for with per-chunk slots",
       false, "", clean_parallel_for},
      {"clean-store-read", "async bitstream store fetch through the pool",
       false, "", clean_store_read},
      {"clean-fleet-quantum", "single-threaded fleet quanta", false, "",
       clean_fleet_quantum},
      {"clean-ops-sse-ring",
       "ops SSE ring publish/consume with slot reuse and drops", false,
       "", clean_ops_sse_ring},
  };
  return kCorpus;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : corpus())
    if (workload.name == name) return &workload;
  return nullptr;
}

CorpusRun run_workload(const Workload& workload, std::uint64_t seed) {
  Session::Options options;
  options.fuzz = true;
  options.seed = seed;
  Session session(options);
  PRESP_REQUIRE(session.install(),
                "racecheck: another session is already installed");
  workload.fn();
  CorpusRun run;
  run.seed = seed;
  run.diags = session.finish();
  run.stats = session.stats();
  return run;
}

bool has_rule(const std::vector<lint::Diagnostic>& diags,
              const std::string& rule) {
  for (const lint::Diagnostic& diag : diags)
    if (diag.rule == rule) return true;
  return false;
}

}  // namespace presp::racecheck
