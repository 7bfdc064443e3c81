// Google-benchmark microbenchmarks of the PR-ESP engines: floorplanner
// candidate enumeration, annealing placer, negotiated-congestion router,
// NoC packet transport, bitstream compression, and the WAMI kernels.
//
// `bench_micro --exec-compare [out.json]` skips google-benchmark and runs
// the parallel-vs-serial comparison for the execution engine instead: the
// full DPR flow at 1 vs 8 pool threads and the WAMI per-frame pipeline at
// 1 vs 8 threads, cross-checking result checksums and emitting a
// machine-readable BENCH_exec.json (speedup, efficiency, task count).
//
// `bench_micro --store-compare [out.json]` runs a repeated-accelerator
// reconfiguration workload (two tiles cycling modules on one DFXC) under
// the one-staging-credit baseline (fetch and program never overlap;
// reported as the "serial" row and fields), the pipelined fetch/program
// flow, and pipelined + LRU bitstream cache, comparing total simulated
// cycles and emitting BENCH_store.json (speedup, cache hit rate).
//
// `bench_micro --contention [out.json]` measures fine-grained task
// throughput of the work-stealing pool at 1/2/8 threads (tasks/s; the
// 8-thread figure is emitted as tasks_per_s_at_8), plus a cold/warm/
// one-module-modified flow cache comparison on the Table VI SoC_X; both
// sections also ride along inside BENCH_exec.json when --exec-compare
// runs.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "core/calibration.hpp"
#include "core/flow.hpp"
#include "exec/thread_pool.hpp"
#include "trace/metrics.hpp"
#include "floorplan/floorplanner.hpp"
#include "noc/noc.hpp"
#include "pnr/engine.hpp"
#include "runtime/api.hpp"
#include "util/log.hpp"
#include "wami/accelerators.hpp"
#include "wami/frame_generator.hpp"
#include "wami/kernels.hpp"
#include "wami/pipeline.hpp"

using namespace presp;

namespace {

void BM_FloorplanCandidates(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  const floorplan::Floorplanner planner(device);
  const fabric::ResourceVec demand{
      state.range(0), state.range(0), 16, 64};
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.candidates(demand));
  }
}
BENCHMARK(BM_FloorplanCandidates)->Arg(5'000)->Arg(30'000);

void BM_FloorplanPlanFourPartitions(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  const floorplan::Floorplanner planner(device);
  std::vector<floorplan::PartitionRequest> reqs;
  for (int i = 0; i < 4; ++i)
    reqs.push_back({"RT_" + std::to_string(i), {25'000, 25'000, 16, 64}});
  floorplan::FloorplanOptions opt;
  opt.refine_iterations = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(reqs, {83'000, 83'000, 100, 50},
                                          opt));
  }
}
BENCHMARK(BM_FloorplanPlanFourPartitions);

netlist::Netlist scrambled_netlist(int cells) {
  netlist::Netlist nl("bench");
  for (int i = 0; i < cells; ++i)
    nl.add_cell({"c" + std::to_string(i),
                 netlist::CellKind::kLogic,
                 {180, 180, 0, 0},
                 ""});
  for (int i = 0; i < cells; ++i) {
    const int j = (i * 53 + 17) % cells;
    if (j == i) continue;
    nl.add_net({"n" + std::to_string(i), static_cast<netlist::CellId>(i),
                {static_cast<netlist::CellId>(j)}, 32});
  }
  return nl;
}

void BM_PlacerAnneal(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  const auto nl = scrambled_netlist(static_cast<int>(state.range(0)));
  pnr::PlacerOptions opt;
  opt.temperature_steps = 10;
  opt.moves_per_cell = 2;
  const pnr::Placer placer(device, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placer.place(nl, {}));
  }
}
BENCHMARK(BM_PlacerAnneal)->Arg(100)->Arg(400);

void BM_RouterNegotiation(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  const auto nl = scrambled_netlist(300);
  pnr::PlacerOptions popt;
  popt.temperature_steps = 4;
  popt.moves_per_cell = 1;
  const auto placed = pnr::Placer(device, popt).place(nl, {});
  const pnr::Router router(device);
  for (auto _ : state) {
    pnr::RoutingState rs(device);
    benchmark::DoNotOptimize(router.route(nl, placed.placement, rs));
  }
}
BENCHMARK(BM_RouterNegotiation);

void BM_NocTransport(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    noc::Noc noc(kernel, 3, 3);
    auto sink = [&]() -> sim::Process {
      while (true) (void)co_await noc.rx(8, noc::Plane::kDmaRsp).receive();
    };
    sink();
    for (int i = 0; i < 1'000; ++i)
      noc.send({noc::Plane::kDmaRsp, 0, 8, 64, 0, 0});
    kernel.run();
    benchmark::DoNotOptimize(noc.stats(noc::Plane::kDmaRsp).flits);
  }
}
BENCHMARK(BM_NocTransport);

void BM_RleCompress(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::uint32_t> words(100'000);
  for (auto& w : words)
    w = rng.next_bool(0.25) ? static_cast<std::uint32_t>(rng.next_u64() | 1)
                            : 0u;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitstream::rle_compress(words));
  }
}
BENCHMARK(BM_RleCompress);

void BM_WamiLucasKanadeStep(benchmark::State& state) {
  wami::FrameGenerator gen(
      wami::SceneOptions{static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(0)), 1.0, -0.5, 2, 6,
                         2.0, 1.0, 5});
  const auto f0 = wami::grayscale(wami::debayer(gen.next_frame()));
  const auto f1 = wami::grayscale(wami::debayer(gen.next_frame()));
  for (auto _ : state) {
    wami::AffineParams p{};
    benchmark::DoNotOptimize(wami::lucas_kanade_step(f0, f1, p));
  }
}
BENCHMARK(BM_WamiLucasKanadeStep)->Arg(64)->Arg(128);

void BM_CalibrationFit(benchmark::State& state) {
  const auto device = fabric::Device::vc707();
  core::RuntimeModelConstants truth;
  truth.ts1 = 0.8;
  truth.m1 = 0.3;
  std::vector<core::Observation> observations;
  for (const long long s : {40'000LL, 80'000LL, 95'000LL}) {
    core::Observation serial;
    serial.static_luts = s;
    serial.static_region_luts = 260'000 - s;
    serial.groups = {{37'000, 31'000, 21'000}};
    serial.serial = true;
    serial.measured_minutes =
        core::predict_observation(device, truth, serial);
    observations.push_back(serial);
    core::Observation par = serial;
    par.serial = false;
    par.groups = {{37'000}, {31'000}, {21'000}};
    par.measured_minutes = core::predict_observation(device, truth, par);
    observations.push_back(par);
  }
  core::CalibrationOptions opt;
  opt.sweeps = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::fit_constants(device, observations, {}, opt));
  }
}
BENCHMARK(BM_CalibrationFit);

void BM_RuntimeReconfigurationSwap(benchmark::State& state) {
  // Simulated cost is fixed; this measures the *host* cost of simulating
  // one module swap + run through the full manager/NoC/DFXC path.
  const auto registry =
      wami::wami_accelerator_registry(wami::WamiWorkload{64, 64});
  for (auto _ : state) {
    soc::Soc soc(wami::table6_soc('X'), registry);
    runtime::BitstreamStore store(soc.memory());
    runtime::ReconfigurationManager manager(soc, store);
    const int tile = soc.reconf_tiles()[0]->index();
    store.add(tile, "debayer", 300'000);
    store.add(tile, "warp", 300'000);
    const auto buf = soc.memory().allocate("b", 1 << 20);
    soc::AccelTask task;
    task.src = buf;
    task.dst = buf + (1 << 19);
    task.items = 1'000;
    auto job = [&]() -> sim::Process {
      for (const char* m : {"debayer", "warp", "debayer"}) {
        sim::SimEvent done(soc.kernel());
        manager.run(tile, m, task, done);
        co_await done.wait();
      }
    };
    job();
    soc.kernel().run();
    benchmark::DoNotOptimize(soc.kernel().events_executed());
  }
}
BENCHMARK(BM_RuntimeReconfigurationSwap);

void BM_WamiGoldenFrame(benchmark::State& state) {
  wami::FrameGenerator gen(wami::SceneOptions{});
  const auto bayer = gen.next_frame();
  wami::GmmState gmm(128, 128);
  wami::AffineParams p{};
  for (auto _ : state) {
    const auto rgb = wami::debayer(bayer);
    const auto gray = wami::grayscale(rgb);
    wami::lucas_kanade_step(gray, gray, p);
    benchmark::DoNotOptimize(wami::change_detection(gray, gmm));
  }
}
BENCHMARK(BM_WamiGoldenFrame);

void BM_WamiChangeDetection(benchmark::State& state) {
  wami::FrameGenerator gen(wami::SceneOptions{});
  const auto frame = wami::grayscale(wami::debayer(gen.next_frame()));
  wami::GmmState gmm(frame.width(), frame.height());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wami::change_detection(frame, gmm));
  }
}
BENCHMARK(BM_WamiChangeDetection);

// ------------------------------------------------------ --exec-compare

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::uint64_t flow_checksum(const core::FlowResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = mix(h, bits_of(r.achieved_fmax_mhz));
  h = mix(h, static_cast<std::uint64_t>(r.full_bitstream_bytes));
  h = mix(h, bits_of(r.synth_makespan_minutes));
  h = mix(h, bits_of(r.pnr_total_minutes));
  for (const auto& m : r.modules) {
    h = mix(h, static_cast<std::uint64_t>(m.pbs_raw_bytes));
    h = mix(h, static_cast<std::uint64_t>(m.pbs_compressed_bytes));
    h = mix(h, static_cast<std::uint64_t>(m.utilization.luts));
    h = mix(h, m.routed ? 1u : 0u);
  }
  return h;
}

std::uint64_t wami_checksum(
    const std::vector<wami::PipelineFrameResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& r : results) {
    for (const double p : r.params) h = mix(h, bits_of(p));
    h = mix(h, bits_of(r.residual));
    h = mix(h, static_cast<std::uint64_t>(r.changed_pixels));
    for (const float v : r.stabilized.pixels())
      h = mix(h, bits_of(static_cast<double>(v)));
  }
  return h;
}

struct ExecCompareRow {
  const char* name = "";
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  std::size_t tasks = 0;
  std::uint64_t steals = 0;           // parallel run's work-steal count
  std::uint64_t steal_failures = 0;   // parallel run's empty/lost probes
  std::uint64_t parks = 0;            // parallel run's worker sleeps
  std::uint64_t max_queue_depth = 0;  // parallel run's queue high-water
  bool checksum_match = false;
  double speedup() const {
    return parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  }
};

constexpr int kCompareThreads = 8;

ExecCompareRow compare_flow(double* model_speedup) {
  const auto device = fabric::Device::vc707();
  const auto lib = wami::wami_library();
  const auto run = [&](int threads, double* seconds) {
    core::FlowOptions opt;
    opt.exec_threads = threads;
    const core::PrEspFlow flow(device, lib, opt);
    const auto t0 = std::chrono::steady_clock::now();
    auto result = flow.run(wami::table4_soc('A'));
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    return result;
  };
  ExecCompareRow row;
  row.name = "flow_pnr_parallel_strategy";
  const auto serial = run(1, &row.serial_seconds);
  const auto parallel = run(kCompareThreads, &row.parallel_seconds);
  row.tasks = parallel.exec.tasks;
  row.steals = parallel.exec.steals;
  row.steal_failures = parallel.exec.steal_failures;
  row.parks = parallel.exec.parks;
  row.max_queue_depth = parallel.exec.max_queue_depth;
  row.checksum_match = flow_checksum(serial) == flow_checksum(parallel);
  *model_speedup = parallel.exec.model_speedup;
  return row;
}

ExecCompareRow compare_wami() {
  wami::SceneOptions scene;
  scene.width = 192;
  scene.height = 192;
  wami::FrameGenerator gen(scene);
  std::vector<wami::ImageU16> frames;
  for (int i = 0; i < 8; ++i) frames.push_back(gen.next_frame());
  const auto run = [&](int threads, double* seconds,
                       exec::ThreadPool::Stats* stats) {
    wami::PipelineOptions options;
    options.threads = threads;
    wami::WamiPipeline pipeline(options);
    const auto t0 = std::chrono::steady_clock::now();
    auto results = pipeline.process_batch(frames);
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    *stats = pipeline.pool_stats();
    return results;
  };
  ExecCompareRow row;
  row.name = "wami_pipeline";
  exec::ThreadPool::Stats serial_stats;
  exec::ThreadPool::Stats parallel_stats;
  const auto serial = run(1, &row.serial_seconds, &serial_stats);
  const auto parallel =
      run(kCompareThreads, &row.parallel_seconds, &parallel_stats);
  row.tasks = frames.size();
  row.steals = parallel_stats.stolen;
  row.steal_failures = parallel_stats.steal_failures;
  row.parks = parallel_stats.parks;
  row.max_queue_depth = parallel_stats.max_queue_depth;
  row.checksum_match = wami_checksum(serial) == wami_checksum(parallel);
  return row;
}

// ----------------------------------------------------- --store-compare

const char* kStoreSocText = R"(
[soc]
name = store_bench
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

soc::AcceleratorRegistry store_bench_registry() {
  soc::AcceleratorRegistry registry;
  for (const char* name : {"acc_a", "acc_b", "acc_c"}) {
    soc::AcceleratorSpec spec;
    spec.name = name;
    spec.luts = 15'000;
    spec.latency.items_per_beat = 1;
    spec.latency.ii = 3;
    spec.latency.startup_cycles = 40;
    registry.add(spec);
  }
  return registry;
}

sim::Process store_worker(soc::Soc& soc,
                          runtime::ReconfigurationManager& manager,
                          int tile, std::vector<std::string> modules,
                          int rounds) {
  for (int r = 0; r < rounds; ++r) {
    runtime::Completion done(soc.kernel());
    manager.ensure_module(
        tile, modules[static_cast<std::size_t>(r) % modules.size()], done);
    co_await done.wait();
  }
}

struct StoreRunResult {
  sim::Time cycles = 0;
  runtime::StoreStats store;
  std::uint64_t reconfigurations = 0;
  std::uint64_t pipelined_fetches = 0;
  double hit_rate() const {
    const double total = static_cast<double>(store.hits + store.misses);
    return total > 0.0 ? static_cast<double>(store.hits) / total : 0.0;
  }
};

constexpr std::size_t kStorePbsBytes = 250'000;
constexpr int kStoreRounds = 6;

/// Two tiles interleave reconfiguration requests on the single DFXC,
/// cycling modules (five distinct images total, so a 4-slot cache sees
/// both reuse hits and LRU evictions).
StoreRunResult run_store_workload(bool pipelined, int cache_slots) {
  auto registry = store_bench_registry();
  soc::Soc soc(netlist::SocConfig::parse(kStoreSocText), registry);
  runtime::StoreOptions store_options;
  store_options.cache_slots = cache_slots;
  runtime::BitstreamStore store(soc.memory(), store_options);
  runtime::ManagerOptions manager_options;
  manager_options.pipelined = pipelined;
  runtime::ReconfigurationManager manager(soc, store, manager_options);
  for (const int tile : {3, 4})
    for (const char* m : {"acc_a", "acc_b", "acc_c"})
      store.add(tile, m, kStorePbsBytes);
  store_worker(soc, manager, 3, {"acc_a", "acc_b"}, kStoreRounds);
  store_worker(soc, manager, 4, {"acc_a", "acc_c", "acc_b"}, kStoreRounds);
  soc.kernel().run();
  StoreRunResult result;
  result.cycles = soc.kernel().now();
  result.store = store.stats();
  result.reconfigurations = manager.stats().reconfigurations;
  result.pipelined_fetches = manager.stats().pipelined_fetches;
  return result;
}

int run_store_compare(const std::string& out_path) {
  presp::set_log_level(presp::LogLevel::kWarn);
  const StoreRunResult serial = run_store_workload(false, 0);
  const StoreRunResult pipelined = run_store_workload(true, 0);
  const StoreRunResult cached = run_store_workload(true, 4);
  const auto speedup = [&](const StoreRunResult& r) {
    return r.cycles > 0
               ? static_cast<double>(serial.cycles) /
                     static_cast<double>(r.cycles)
               : 0.0;
  };
  std::printf("store-compare: %d reconfigurations per tile x 2 tiles, "
              "%zu-byte images\n",
              kStoreRounds, kStorePbsBytes);
  std::printf("  %-22s %12s %10s\n", "variant", "sim cycles", "speedup");
  std::printf("  %-22s %12llu %9.2fx  (one staging credit, no overlap)\n",
              "serial", static_cast<unsigned long long>(serial.cycles), 1.0);
  std::printf("  %-22s %12llu %9.2fx  (%llu staged fetches)\n", "pipelined",
              static_cast<unsigned long long>(pipelined.cycles),
              speedup(pipelined),
              static_cast<unsigned long long>(pipelined.pipelined_fetches));
  std::printf("  %-22s %12llu %9.2fx  (hit rate %.2f, %llu evictions)\n",
              "pipelined+cache(4)",
              static_cast<unsigned long long>(cached.cycles),
              speedup(cached), cached.hit_rate(),
              static_cast<unsigned long long>(cached.store.evictions));
  std::ofstream json(out_path);
  json << "{\n  \"rounds_per_tile\": " << kStoreRounds
       << ",\n  \"pbs_bytes\": " << kStorePbsBytes
       << ",\n  \"serial_cycles\": " << serial.cycles
       << ",\n  \"pipelined_cycles\": " << pipelined.cycles
       << ",\n  \"cached_cycles\": " << cached.cycles
       << ",\n  \"speedup\": " << speedup(pipelined)
       << ",\n  \"cached_speedup\": " << speedup(cached)
       << ",\n  \"pipelined_fetches\": " << pipelined.pipelined_fetches
       << ",\n  \"cache_slots\": 4"
       << ",\n  \"cache_hits\": " << cached.store.hits
       << ",\n  \"cache_misses\": " << cached.store.misses
       << ",\n  \"cache_evictions\": " << cached.store.evictions
       << ",\n  \"cache_hit_rate\": " << cached.hit_rate() << "\n}\n";
  std::printf("store-compare: wrote %s\n", out_path.c_str());
  const bool ok = pipelined.cycles < serial.cycles;
  if (!ok)
    std::printf("store-compare: PIPELINED FLOW NOT FASTER THAN THE "
                "NO-OVERLAP BASELINE\n");
  return ok ? 0 : 1;
}

// --------------------------------------------------------- --contention
//
// Fine-grained throughput: one root task submits every tiny task, so the
// other threads live on the take/park/wake path. Pool throughput at
// 1/2/8 threads.

constexpr int kContentionTasks = 100'000;
constexpr int kContentionRounds = 3;

double contention_round(int threads, exec::ThreadPool::Stats* stats) {
  exec::ThreadPool pool(threads);
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = std::chrono::steady_clock::now();
  pool.submit([&] {
    for (int i = 0; i < kContentionTasks; ++i)
      pool.submit(
          [&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
  });
  pool.wait_idle();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  *stats = pool.stats();
  if (sink.load() != kContentionTasks)
    std::fprintf(stderr, "contention: LOST TASKS (%llu of %d ran)\n",
                 static_cast<unsigned long long>(sink.load()),
                 kContentionTasks);
  return seconds;
}

struct ContentionRow {
  int threads = 0;
  double seconds = 0.0;
  std::uint64_t steals = 0;
  std::uint64_t steal_failures = 0;
  double tasks_per_s() const {
    return seconds > 0.0 ? kContentionTasks / seconds : 0.0;
  }
};

ContentionRow contention_sweep_at(int threads) {
  ContentionRow row;
  row.threads = threads;
  // Best-of-N to shave scheduler noise; stats come from the best round.
  for (int round = 0; round < kContentionRounds; ++round) {
    exec::ThreadPool::Stats stats;
    const double seconds = contention_round(threads, &stats);
    if (round == 0 || seconds < row.seconds) {
      row.seconds = seconds;
      row.steals = stats.stolen;
      row.steal_failures = stats.steal_failures;
    }
  }
  return row;
}

std::vector<ContentionRow> run_contention_sweep() {
  std::vector<ContentionRow> rows;
  std::printf("contention: %d tasks submitted from one task, best of %d "
              "rounds (hardware threads: %u)\n",
              kContentionTasks, kContentionRounds,
              std::thread::hardware_concurrency());
  for (const int threads : {1, 2, 8}) {
    rows.push_back(contention_sweep_at(threads));
    const ContentionRow& row = rows.back();
    std::printf("  %d threads: %9.0f tasks/s  steals %llu  failed probes "
                "%llu\n",
                row.threads, row.tasks_per_s(),
                static_cast<unsigned long long>(row.steals),
                static_cast<unsigned long long>(row.steal_failures));
  }
  return rows;
}

void contention_json(std::ostream& json,
                     const std::vector<ContentionRow>& rows) {
  json << "{\n    \"tasks\": " << kContentionTasks
       << ",\n    \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ContentionRow& row = rows[i];
    json << "      {\"threads\": " << row.threads
         << ", \"seconds\": " << row.seconds
         << ", \"tasks_per_s\": " << row.tasks_per_s()
         << ", \"steals\": " << row.steals
         << ", \"steal_failures\": " << row.steal_failures << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "    ],\n    \"tasks_per_s_at_8\": "
       << rows.back().tasks_per_s() << "\n  }";
}

// ------------------------------------------------- warm/cold flow cache
//
// Cold run of the Table VI SoC_X into a fresh cache directory, a warm
// re-run (everything hits), and a warm re-run after modifying one OoC
// module's footprint (everything else still hits).

struct FlowCacheBenchResult {
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  double modified_seconds = 0.0;
  core::FlowCacheStats warm;
  core::FlowCacheStats modified;
  bool warm_matches_cold = false;
  double warm_reduction() const {
    return cold_seconds > 0.0 ? 1.0 - warm_seconds / cold_seconds : 0.0;
  }
  double modified_reduction() const {
    return cold_seconds > 0.0 ? 1.0 - modified_seconds / cold_seconds
                              : 0.0;
  }
};

constexpr const char* kFlowCacheModifiedModule = "warp";

FlowCacheBenchResult run_flow_cache_compare() {
  const auto device = fabric::Device::vc707();
  const auto lib = wami::wami_library();
  const auto soc = wami::table6_soc('X');
  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() / "presp_bench_flow_cache";
  std::filesystem::remove_all(cache_dir);

  core::FlowOptions opt;
  opt.cache.dir = cache_dir.string();
  const auto timed = [&](const netlist::ComponentLibrary& with_lib,
                         double* seconds) {
    const core::PrEspFlow flow(device, with_lib, opt);
    const auto t0 = std::chrono::steady_clock::now();
    auto result = flow.run(soc);
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    return result;
  };

  FlowCacheBenchResult out;
  const auto cold = timed(lib, &out.cold_seconds);
  const auto warm = timed(lib, &out.warm_seconds);
  out.warm = warm.cache;
  out.warm_matches_cold = flow_checksum(cold) == flow_checksum(warm);

  // Grow one module's LUT footprint slightly — small enough that the
  // floorplanner's column-quantized pblocks stay put (a demand jump that
  // moves the floorplan legitimately invalidates every P&R key).
  auto modified_lib = lib;
  netlist::BlockModel block = modified_lib.get(kFlowCacheModifiedModule);
  block.resources.luts += 16;
  modified_lib.register_block(block);
  const auto modified = timed(modified_lib, &out.modified_seconds);
  out.modified = modified.cache;

  std::filesystem::remove_all(cache_dir);
  std::printf("flow-cache: soc_x cold %.3fs, warm %.3fs (-%.0f%%, "
              "%llu hits), one module modified %.3fs (-%.0f%%, %llu "
              "hits / %llu misses), checksums %s\n",
              out.cold_seconds, out.warm_seconds,
              out.warm_reduction() * 100,
              static_cast<unsigned long long>(out.warm.hits),
              out.modified_seconds, out.modified_reduction() * 100,
              static_cast<unsigned long long>(out.modified.hits),
              static_cast<unsigned long long>(out.modified.misses),
              out.warm_matches_cold ? "match" : "DIFFER");
  return out;
}

void flow_cache_json(std::ostream& json,
                     const FlowCacheBenchResult& r) {
  json << "{\n    \"design\": \"soc_x\""
       << ",\n    \"modified_module\": \"" << kFlowCacheModifiedModule
       << "\",\n    \"cold_seconds\": " << r.cold_seconds
       << ",\n    \"warm_seconds\": " << r.warm_seconds
       << ",\n    \"modified_seconds\": " << r.modified_seconds
       << ",\n    \"warm_hits\": " << r.warm.hits
       << ",\n    \"warm_misses\": " << r.warm.misses
       << ",\n    \"modified_hits\": " << r.modified.hits
       << ",\n    \"modified_misses\": " << r.modified.misses
       << ",\n    \"warm_wall_reduction\": " << r.warm_reduction()
       << ",\n    \"modified_wall_reduction\": " << r.modified_reduction()
       << ",\n    \"warm_matches_cold\": "
       << (r.warm_matches_cold ? "true" : "false") << "\n  }";
}

int run_contention(const std::string& out_path) {
  presp::set_log_level(presp::LogLevel::kWarn);
  const auto rows = run_contention_sweep();
  const auto cache = run_flow_cache_compare();
  std::ofstream json(out_path);
  json << "{\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n  \"contention\": ";
  contention_json(json, rows);
  json << ",\n  \"flow_cache\": ";
  flow_cache_json(json, cache);
  json << "\n}\n";
  std::printf("contention: wrote %s\n", out_path.c_str());
  const bool ok = cache.warm_matches_cold && cache.warm.misses == 0;
  if (!ok) std::printf("contention: WARM RUN DID NOT FULLY REUSE CACHE\n");
  return ok ? 0 : 1;
}

int run_exec_compare(const std::string& out_path) {
  presp::set_log_level(presp::LogLevel::kWarn);
  std::printf("exec-compare: serial vs %d pool threads (hardware threads: "
              "%u)\n",
              kCompareThreads, std::thread::hardware_concurrency());
  double model_speedup = 1.0;
  const ExecCompareRow rows[] = {compare_flow(&model_speedup),
                                 compare_wami()};
  const auto contention_rows = run_contention_sweep();
  const auto flow_cache = run_flow_cache_compare();
  bool ok = flow_cache.warm_matches_cold && flow_cache.warm.misses == 0;
  std::ofstream json(out_path);
  json << "{\n  \"threads\": " << kCompareThreads
       << ",\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency()
       << ",\n  \"flow_model_speedup\": " << model_speedup
       << ",\n  \"cases\": [\n";
  // The same counters land in the metrics registry so the JSON carries a
  // uniform snapshot next to the per-case rows (run_bench.sh surfaces it).
  auto& registry = trace::MetricsRegistry::global();
  registry.reset();
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& row = rows[i];
    ok = ok && row.checksum_match;
    const double efficiency = row.speedup() / kCompareThreads;
    std::printf("  %-28s serial %8.3fs  parallel %8.3fs  speedup %5.2fx  "
                "tasks %zu  steals %llu  maxq %llu  checksums %s\n",
                row.name, row.serial_seconds, row.parallel_seconds,
                row.speedup(), row.tasks,
                static_cast<unsigned long long>(row.steals),
                static_cast<unsigned long long>(row.max_queue_depth),
                row.checksum_match ? "match" : "DIFFER");
    json << "    {\"name\": \"" << row.name << "\", \"serial_seconds\": "
         << row.serial_seconds << ", \"parallel_seconds\": "
         << row.parallel_seconds << ", \"speedup\": " << row.speedup()
         << ", \"efficiency\": " << efficiency << ", \"tasks\": "
         << row.tasks << ", \"steals\": " << row.steals
         << ", \"steal_failures\": " << row.steal_failures
         << ", \"parks\": " << row.parks
         << ", \"max_queue_depth\": " << row.max_queue_depth
         << ", \"checksum_match\": "
         << (row.checksum_match ? "true" : "false") << "}"
         << (i + 1 < 2 ? "," : "") << "\n";
    const std::string prefix = std::string("exec.") + row.name;
    registry.counter(prefix + ".steals").add(row.steals);
    registry.gauge(prefix + ".max_queue_depth")
        .set(static_cast<double>(row.max_queue_depth));
    registry.counter(prefix + ".steal_failures").add(row.steal_failures);
    registry.counter(prefix + ".parks").add(row.parks);
  }
  // Bitstream-cache snapshot rides along so one artifact carries every
  // field the bench workflow asserts on (its runtime.store.* counters
  // land in the same metrics registry).
  const StoreRunResult cached = run_store_workload(true, 4);
  json << "  ],\n  \"contention\": ";
  contention_json(json, contention_rows);
  json << ",\n  \"flow_cache\": ";
  flow_cache_json(json, flow_cache);
  json << ",\n  \"cache_hit_rate\": " << cached.hit_rate()
       << ",\n  \"metrics\": " << registry.snapshot_json() << "\n}\n";
  std::printf("exec-compare: store cache hit rate %.2f\n",
              cached.hit_rate());
  std::printf("exec-compare: wrote %s\n", out_path.c_str());
  if (!ok) std::printf("exec-compare: CHECKSUM MISMATCH\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--exec-compare")
    return run_exec_compare(argc > 2 ? argv[2] : "BENCH_exec.json");
  if (argc > 1 && std::string(argv[1]) == "--store-compare")
    return run_store_compare(argc > 2 ? argv[2] : "BENCH_store.json");
  if (argc > 1 && std::string(argv[1]) == "--contention")
    return run_contention(argc > 2 ? argv[2] : "BENCH_contention.json");
  presp::set_log_level(presp::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
