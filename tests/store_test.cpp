// Pipelined bitstream-store tests: fetch/program overlap (request N+1's
// DMA fetch runs while request N streams through the ICAP, and never
// with a single staging credit), staging credits sized to the DFXC's
// staging slots, LRU cache accounting and pin-blocking, fault isolation
// between the two pipeline stages, bit-identical WAMI output with
// prefetch on/off, and the asynchronous file-backed source round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "runtime/manager.hpp"
#include "trace/trace.hpp"
#include "wami/app.hpp"

namespace presp::runtime {
namespace {

const char* kSocText = R"(
[soc]
name = store_sim
device = vc707
rows = 2
cols = 3

[tiles]
r0c0 = cpu
r0c1 = mem
r0c2 = aux
r1c0 = reconf:acc_a,acc_b
r1c1 = reconf:acc_a,acc_c
r1c2 = empty
)";

soc::AcceleratorRegistry test_registry() {
  soc::AcceleratorRegistry registry;
  for (const char* name : {"acc_a", "acc_b", "acc_c"}) {
    soc::AcceleratorSpec spec;
    spec.name = name;
    spec.luts = 15'000;
    spec.latency.items_per_beat = 1;
    spec.latency.ii = 3;
    spec.latency.startup_cycles = 40;
    spec.latency.words_in_per_item = 1.0;
    spec.latency.words_out_per_item = 0.5;
    registry.add(spec);
  }
  return registry;
}

constexpr std::size_t kPbsBytes = 250'000;

/// The two-reconfigurable-tile SoC with every module registered.
struct StoreRig {
  explicit StoreRig(ManagerOptions options = {},
                    soc::SocOptions soc_options = {})
      : registry_(test_registry()),
        soc_(netlist::SocConfig::parse(kSocText), registry_, soc_options),
        store_(soc_.memory()),
        manager_(soc_, store_, options) {
    for (const int tile : {3, 4})
      for (const char* module : {"acc_a", "acc_b", "acc_c"})
        store_.add(tile, module, kPbsBytes);
  }

  /// Loads one module on each reconfigurable tile, both requests issued
  /// in the same cycle, and runs the kernel dry.
  void load_two_tiles(Completion& d1, Completion& d2) {
    manager_.ensure_module(3, "acc_a", d1);
    manager_.ensure_module(4, "acc_c", d2);
    soc_.kernel().run();
  }

  soc::AcceleratorRegistry registry_;
  soc::Soc soc_;
  BitstreamStore store_;
  ReconfigurationManager manager_;
};

class StoreFixture : public ::testing::Test, public StoreRig {};

ManagerOptions one_credit_options() {
  ManagerOptions options;
  options.pipelined = false;
  return options;
}

// ------------------------------------------------- fetch/program overlap

/// Runs the two-tile load and returns the total simulated time.
sim::Time run_two_tile_workload(bool pipelined) {
  StoreRig rig(pipelined ? ManagerOptions{} : one_credit_options());
  Completion d1(rig.soc_.kernel());
  Completion d2(rig.soc_.kernel());
  rig.load_two_tiles(d1, d2);
  EXPECT_TRUE(d1.ok());
  EXPECT_TRUE(d2.ok());
  EXPECT_EQ(rig.manager_.stats().pipelined_fetches, 2u);
  return rig.soc_.kernel().now();
}

TEST(StorePipelineTest, PipelinedModeBeatsSerialOnConcurrentRequests) {
  // "Serial" is the one-staging-credit baseline: same stages, no overlap.
  const sim::Time serial = run_two_tile_workload(false);
  const sim::Time pipelined = run_two_tile_workload(true);
  EXPECT_LT(pipelined, serial);
}

TEST(StorePipelineTest, StagingCreditsFollowTheDfxcSlots) {
  // A 1-slot DFXC nacks a second fetch while its staging buffer is full.
  // The manager must not issue one: with one credit per slot, two
  // concurrent requests on a fault-free SoC see no retries at all.
  soc::SocOptions soc_options;
  soc_options.dfxc_staging_slots = 1;
  StoreRig rig({}, soc_options);
  Completion d1(rig.soc_.kernel());
  Completion d2(rig.soc_.kernel());
  rig.load_two_tiles(d1, d2);
  EXPECT_EQ(d1.status(), RequestStatus::kOk);
  EXPECT_EQ(d2.status(), RequestStatus::kOk);
  EXPECT_EQ(rig.manager_.stats().dropped_trigger_retries, 0u);
  EXPECT_EQ(rig.manager_.stats().watchdog_fires, 0u);
  EXPECT_EQ(rig.manager_.health().stats().failures, 0u);
  EXPECT_EQ(rig.manager_.health().consecutive_failures(3), 0);
  EXPECT_EQ(rig.manager_.health().consecutive_failures(4), 0);
}

/// Per tile track of a traced two-tile load: when its first fetch span
/// opens and when its last ICAP span closes.
struct StageSpans {
  std::map<std::uint32_t, std::uint64_t> fetch_begin;
  std::map<std::uint32_t, std::uint64_t> icap_end;
};

StageSpans trace_two_tile_load(StoreRig& rig) {
  trace::TraceConfig config;
  config.categories = static_cast<std::uint32_t>(trace::Category::kRuntime);
  trace::TraceSession::instance().start(config);
  Completion d1(rig.soc_.kernel());
  Completion d2(rig.soc_.kernel());
  rig.load_two_tiles(d1, d2);
  const trace::TraceReport report = trace::TraceSession::instance().stop();
  EXPECT_TRUE(d1.ok());
  EXPECT_TRUE(d2.ok());

  StageSpans spans;
  for (const trace::TraceEvent& event : report.events) {
    if (event.clock != trace::ClockDomain::kSim) continue;
    if (event.name == "fetch" && event.phase == trace::Phase::kBegin &&
        spans.fetch_begin.find(event.track) == spans.fetch_begin.end()) {
      spans.fetch_begin[event.track] = event.timestamp;
    }
    if (event.name == "icap" && event.phase == trace::Phase::kEnd) {
      spans.icap_end[event.track] = event.timestamp;
    }
  }
  EXPECT_EQ(spans.fetch_begin.size(), 2u);
  EXPECT_EQ(spans.icap_end.size(), 2u);
  return spans;
}

/// Request N = the one whose ICAP finishes first: its track and end time.
std::pair<std::uint32_t, std::uint64_t> first_program_end(
    const StageSpans& spans) {
  const auto first = std::min_element(
      spans.icap_end.begin(), spans.icap_end.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return *first;
}

TEST_F(StoreFixture, NextRequestFetchStartsBeforePreviousProgramEnds) {
  // The pipeline must have started request N+1's DMA fetch strictly
  // before request N's programming completed.
  const StageSpans spans = trace_two_tile_load(*this);
  ASSERT_EQ(spans.icap_end.size(), 2u);
  const auto [first_track, first_end] = first_program_end(spans);
  for (const auto& [track, begin] : spans.fetch_begin) {
    if (track == first_track) continue;
    EXPECT_LT(begin, first_end)
        << "tile track " << track
        << " did not overlap its fetch with the in-flight program stage";
  }
  EXPECT_EQ(manager_.stats().pipelined_fetches, 2u);

  // With a single staging credit nothing overlaps: request N+1's fetch
  // waits for request N's program stage to end.
  StoreRig one_credit(one_credit_options());
  const StageSpans serial = trace_two_tile_load(one_credit);
  ASSERT_EQ(serial.icap_end.size(), 2u);
  const auto [serial_track, serial_end] = first_program_end(serial);
  for (const auto& [track, begin] : serial.fetch_begin) {
    if (track == serial_track) continue;
    EXPECT_GE(begin, serial_end)
        << "tile track " << track
        << " fetched while another request held the only staging credit";
  }
}

// ----------------------------------------------------- fault isolation

TEST_F(StoreFixture, FaultInjectedMidFetchLeavesInFlightProgramUntouched) {
  // Corrupt tile 4's bitstream: its fetch-stage CRC check trips once
  // while tile 3's program stage is in flight. Tile 4 must recover by
  // re-fetching; tile 3 must complete as if nothing happened.
  soc_.memory().corrupt_blob(store_.get(4, "acc_c").address);

  Completion d1(soc_.kernel());
  Completion d2(soc_.kernel());
  load_two_tiles(d1, d2);

  EXPECT_TRUE(d1.ok());
  EXPECT_TRUE(d2.ok());
  EXPECT_EQ(manager_.stats().crc_retries, 1u);
  EXPECT_EQ(manager_.stats().reconfigurations, 2u);
  EXPECT_EQ(manager_.stats().reconfigurations_failed, 0u);
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_a");
  EXPECT_EQ(soc_.reconf_tile(4).module(), "acc_c");
}

// ------------------------------------------------------ LRU accounting

TEST(StoreCacheTest, LruEvictionHitAccountingAndPinBlocking) {
  sim::Kernel kernel;
  soc::MainMemory memory;
  StoreOptions options;
  options.cache_slots = 2;
  BitstreamStore store(memory, options);

  constexpr std::size_t kBytes = 4096;
  std::map<std::string, std::vector<std::uint8_t>> payloads;
  for (const char* module : {"acc_a", "acc_b", "acc_c"}) {
    std::vector<std::uint8_t> payload(kBytes);
    for (std::size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<std::uint8_t>((i * 7 + module[4]) & 0xff);
    store.add(0, module, kBytes, payload);
    payloads[module] = std::move(payload);
  }

  StoreTicket blocked(kernel);
  bool driver_done = false;
  auto driver = [&]() -> sim::Process {
    // Miss: acc_a fills slot 0; the payload must land in DRAM verbatim.
    StoreTicket t1(kernel);
    store.acquire(kernel, 0, "acc_a", t1);
    co_await t1.done.wait();
    const auto bytes = memory.bytes(t1.image.address, kBytes);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                           payloads["acc_a"].begin()));
    store.release(0, "acc_a");

    // Hit: still resident, no second fetch.
    StoreTicket t2(kernel);
    store.acquire(kernel, 0, "acc_a", t2);
    co_await t2.done.wait();
    store.release(0, "acc_a");
    EXPECT_EQ(store.stats().hits, 1u);

    // Misses pinning both slots: acc_c must evict the LRU (acc_a).
    StoreTicket t3(kernel);
    StoreTicket t4(kernel);
    store.acquire(kernel, 0, "acc_b", t3);
    co_await t3.done.wait();
    store.acquire(kernel, 0, "acc_c", t4);
    co_await t4.done.wait();
    EXPECT_FALSE(store.resident(0, "acc_a"));
    EXPECT_TRUE(store.resident(0, "acc_b"));
    EXPECT_TRUE(store.resident(0, "acc_c"));
    EXPECT_EQ(store.stats().evictions, 1u);

    // Both slots pinned: a further acquire must block on a slot credit.
    store.acquire(kernel, 0, "acc_a", blocked);
    co_await sim::Delay(kernel, 1'000'000);
    EXPECT_FALSE(blocked.done.triggered());

    // Unpinning acc_b frees a credit; the blocked acquire evicts it.
    store.release(0, "acc_b");
    co_await blocked.done.wait();
    EXPECT_TRUE(store.resident(0, "acc_a"));
    EXPECT_FALSE(store.resident(0, "acc_b"));
    store.release(0, "acc_a");
    store.release(0, "acc_c");
    driver_done = true;
  };
  driver();
  kernel.run();

  ASSERT_TRUE(driver_done);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().misses, 4u);
  EXPECT_EQ(store.stats().evictions, 2u);
  EXPECT_EQ(store.stats().source_fetches, 4u);
  EXPECT_EQ(store.stats().source_bytes, 4u * kBytes);
}

// --------------------------------------------------- WAMI prefetch parity

TEST(StoreWamiTest, PrefetchProducesBitIdenticalOutput) {
  wami::WamiAppOptions options;
  options.frames = 2;
  options.workload = {64, 64};
  options.store.cache_slots = 4;

  options.prefetch_next_kernel = false;
  const auto baseline = [&] {
    wami::WamiApp app('Y', options);
    return app.run();
  }();

  options.prefetch_next_kernel = true;
  wami::WamiApp prefetching('Y', options);
  const auto warmed = prefetching.run();

  EXPECT_TRUE(baseline.all_verified);
  EXPECT_TRUE(warmed.all_verified);
  EXPECT_EQ(warmed.params, baseline.params);
  EXPECT_EQ(warmed.frames.size(), baseline.frames.size());
  // Prefetch actually warmed the cache: some acquisitions became hits.
  EXPECT_GT(prefetching.store().stats().hits, 0u);
}

// ------------------------------------------------- file-backed source

TEST(BitstreamSourceTest, FileSourceAsyncRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "presp_store_test_pbs";
  fs::remove_all(dir);

  std::vector<std::uint8_t> payload(8192);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>((i * 31) & 0xff);

  {
    // Thread-pool path: the read really happens on a pool worker.
    exec::ThreadPool pool(2);
    FileBitstreamSource source(dir.string(), pool);
    source.store(3, "acc_a", payload);
    EXPECT_EQ(source.fetch(3, "acc_a").get(), payload);
    EXPECT_EQ(source.reads(), 1u);
    EXPECT_GT(source.latency_cycles(payload.size()),
              source.latency_cycles(0));
  }

  // Cache miss through the store performs the real file read while the
  // simulated clock models seek + streaming latency.
  sim::Kernel kernel;
  soc::MainMemory memory;
  exec::ThreadPool pool(2);
  FileBitstreamSource source(dir.string(), pool);
  StoreOptions options;
  options.cache_slots = 1;
  BitstreamStore store(memory, options, &source);
  store.add(3, "acc_a", payload.size(), payload);

  bool checked = false;
  auto driver = [&]() -> sim::Process {
    StoreTicket ticket(kernel);
    const sim::Time before = kernel.now();
    store.acquire(kernel, 3, "acc_a", ticket);
    co_await ticket.done.wait();
    EXPECT_GE(kernel.now() - before,
              source.latency_cycles(payload.size()));
    const auto bytes = memory.bytes(ticket.image.address, payload.size());
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), payload.begin()));
    store.release(3, "acc_a");
    checked = true;
  };
  driver();
  kernel.run();
  ASSERT_TRUE(checked);
  EXPECT_GE(source.reads(), 1u);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace presp::runtime
