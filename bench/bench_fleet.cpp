// Fleet soak: an open-loop synthetic tenant population against a
// sharded DPR fleet (src/fleet) under injected shard stalls, burst
// overloads and accelerator hangs. Exercises the full robustness
// surface: token-bucket admission, deadline shedding, request
// coalescing, software fallback and the shard/tile circuit breakers.
//
// Hard acceptance criteria (the bench exits non-zero on violation):
//   - zero lost completions: every submitted request reaches a terminal
//     outcome (completed, fallback or a typed shed) on every seed;
//   - zero unexplained sheds: every shed carries a FleetError reason;
//   - the injected stalls actually freeze shards and at least one
//     circuit breaker opens (traffic demonstrably diverted);
//   - re-running the first seed reproduces an identical digest.
//
// Emits BENCH_fleet.json (exact p50/p99/p999 completion latency, shed
// rate, coalesce rate, breaker transition counts) for the bench
// workflow's required-field gate. tools/run_tier1.sh's `fleet` stage
// runs a short configuration of this soak.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/load.hpp"
#include "netlist/netlist.hpp"
#include "ops/http.hpp"
#include "ops/server.hpp"
#include "ops/sources.hpp"
#include "soc/accelerator.hpp"

using namespace presp;
using namespace presp::fleet;

namespace {

// One shard: the smallest SoC with a reconfiguration controller and two
// reconfigurable tiles (grid indices 3 and 4) sharing both modules, so
// routing always has a sibling to divert to.
const char* kShardSocText = R"(
[soc]
name = fleet_shard
device = vc707
rows = 2
cols = 3

[tiles]
r0c0 = cpu
r0c1 = mem
r0c2 = aux
r1c0 = reconf:acc_a,acc_b
r1c1 = reconf:acc_a,acc_b
r1c2 = empty
)";

soc::AcceleratorRegistry make_registry() {
  soc::AcceleratorRegistry registry;
  for (const char* name : {"acc_a", "acc_b"}) {
    soc::AcceleratorSpec spec;
    spec.name = name;
    spec.luts = 12'000;
    spec.latency.items_per_beat = 1;
    spec.latency.ii = 2;
    spec.latency.startup_cycles = 30;
    spec.latency.words_in_per_item = 1.0;
    spec.latency.words_out_per_item = 0.5;
    registry.add(spec);
  }
  return registry;
}

/// --repack: run the soak with each shard's background repacker live
/// (DESIGN.md defrag). The determinism replay reuses the same
/// topology, so the digest equality then also covers migrations.
bool g_repack = false;

FleetTopology soak_topology() {
  FleetTopology topo;
  topo.shards = 4;
  topo.quantum_cycles = 4'000;
  topo.repack = g_repack;
  topo.repack_interval_cycles = 2 * topo.quantum_cycles;
  topo.repack_frag_threshold = 0.0;
  topo.coalesce_limit = 4;
  topo.service_estimate_cycles = 90'000;
  topo.fallback_latency_cycles = 200'000;
  topo.stall_cycles = 240'000;  // 60 quanta per injected stall
  topo.burst_multiplier = 6;
  // Deadlines tight enough that a stalled shard visibly misses them; the
  // best-effort class is squeezed (short deadline, shallow queue) so its
  // software-fallback degradation path shows up in the soak.
  topo.classes[static_cast<int>(QosClass::kRealtime)].deadline_quanta = 60;
  topo.classes[static_cast<int>(QosClass::kStandard)].deadline_quanta = 150;
  topo.classes[static_cast<int>(QosClass::kBestEffort)].deadline_quanta = 100;
  topo.classes[static_cast<int>(QosClass::kBestEffort)].queue_bound = 48;
  topo.breaker.window = 8;
  topo.breaker.failure_threshold = 0.5;
  topo.breaker.open_base_cycles = 40'000;
  topo.breaker.open_max_cycles = 640'000;
  topo.breaker.half_open_probes = 2;
  return topo;
}

struct SeedOutcome {
  std::uint64_t seed = 0;
  FleetStats stats;
  std::vector<long long> latencies;  // hardware completions, cycles
  bool drained = false;
  std::string digest;
};

/// Hand-off between the soak loop and the ops server's /health source:
/// run_seed() points it at the live fleet for the duration of one seed;
/// the server worker snapshots it under the same mutex, so the fleet can
/// never be torn down with a snapshot in flight.
struct FleetHandle {
  std::mutex mutex;
  FleetManager* fleet = nullptr;

  void set(FleetManager* f) {
    std::lock_guard<std::mutex> lock(mutex);
    fleet = f;
  }
  std::string health_json() {
    std::lock_guard<std::mutex> lock(mutex);
    if (fleet == nullptr) return "{\"health\":null}";
    return ops::fleet_health_json(fleet->ops_snapshot());
  }
};

/// Seeded chaos plan for one soak run: two chained stalls wedge one
/// shard long enough for its breaker to open, a later stall hits a
/// second shard, two burst windows overload admission and a handful of
/// accelerator hangs exercise the watchdog/quarantine path underneath
/// the tile breakers.
void arm_chaos(fault::FaultInjector& injector, std::uint64_t seed,
               int quanta, int shards) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const auto within = [&](int lo, int hi) {
    return static_cast<std::uint64_t>(
        lo + static_cast<int>(rng.next_below(
                 static_cast<std::uint64_t>(hi - lo))));
  };
  const int victim = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(shards)));
  // kShardStall is consulted once per quantum per non-stalled shard, so
  // trigger_count N fires at quantum N; a count-1 spec armed behind it
  // re-fires on the next consultation, chaining the stall.
  injector.arm({fault::FaultSite::kShardStall, victim, -1,
                within(10, quanta / 4 + 11)});
  injector.arm({fault::FaultSite::kShardStall, victim, -1, 1});
  injector.arm({fault::FaultSite::kShardStall, (victim + 1) % shards, -1,
                within(quanta / 2, quanta * 3 / 4 + 1)});
  // kBurstOverload is consulted once per quantum by the load generator.
  injector.arm({fault::FaultSite::kBurstOverload, -1, -1,
                within(5, quanta / 3 + 6)});
  injector.arm({fault::FaultSite::kBurstOverload, -1, -1,
                within(quanta / 3, quanta / 2 + 1)});
  for (int i = 0; i < 4; ++i)
    injector.arm({fault::FaultSite::kAccelHang, 3 + (i % 2), -1,
                  within(1, 16)});
}

SeedOutcome run_seed(std::uint64_t seed, int quanta,
                     FleetHandle* handle = nullptr) {
  const FleetTopology topo = soak_topology();
  fault::FaultInjector injector;
  arm_chaos(injector, seed, quanta, topo.shards);

  const netlist::SocConfig config = netlist::SocConfig::parse(kShardSocText);
  const soc::AcceleratorRegistry registry = make_registry();
  runtime::ManagerOptions manager_options;
  manager_options.watchdog_run_cycles = 200'000;  // hang recovery: 50 quanta
  FleetManager fleet(topo, config, registry, seed, &injector,
                     manager_options);
  if (handle != nullptr) handle->set(&fleet);
  fleet.add_module("acc_a", 140'000);
  fleet.add_module("acc_b", 150'000);

  LoadOptions load_options;
  load_options.seed = seed;
  load_options.arrivals_per_quantum = 1.0;
  load_options.modules = {"acc_a", "acc_b"};
  SyntheticLoad load(load_options);

  for (int q = 0; q < quanta; ++q) {
    std::vector<FleetRequest> batch =
        load.generate(fleet.now(), topo.burst_multiplier, &injector);
    if (load.burst_active())
      fleet.note_burst_arrivals(batch.size());
    for (FleetRequest& request : batch) fleet.submit(std::move(request));
    fleet.step();
  }

  SeedOutcome out;
  out.seed = seed;
  // Budget covers the chained stalls plus every open->half-open backoff.
  out.drained = fleet.drain(4 * quanta + 2'000);
  out.stats = fleet.stats();
  for (const FleetOutcome& outcome : fleet.outcomes()) {
    if (outcome.kind == OutcomeKind::kOk ||
        outcome.kind == OutcomeKind::kCoalescedOk)
      out.latencies.push_back(static_cast<long long>(outcome.latency));
  }
  std::ostringstream digest;
  digest << fleet.digest() << " generated=" << load.generated()
         << " drained=" << (out.drained ? 1 : 0);
  out.digest = digest.str();
  if (handle != nullptr) handle->set(nullptr);
  return out;
}

/// Exact nearest-rank percentile over a sorted sample vector.
long long percentile(const std::vector<long long>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const auto started = std::chrono::steady_clock::now();
  // bench_fleet [first_seed [num_seeds [quanta]]] [--json out.json]
  //             [--repack]         (background defragmentation live)
  //             [--ops-port <n>]   (0 = ephemeral; serves /metrics,
  //                                /health, /trace/summary, /events and
  //                                soaks them with 8 SSE clients)
  std::string json_path = "BENCH_fleet.json";
  int ops_port = -1;  // < 0: no ops server
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--ops-port" && i + 1 < argc) {
      ops_port = std::atoi(argv[++i]);
    } else if (arg == "--repack") {
      g_repack = true;
    } else {
      positional.push_back(arg);
    }
  }
  const std::uint64_t first_seed =
      positional.size() > 0 ? std::strtoull(positional[0].c_str(), nullptr, 10)
                            : 1;
  const int num_seeds =
      std::max(1, positional.size() > 1 ? std::atoi(positional[1].c_str())
                                        : 4);
  const int quanta =
      std::max(50, positional.size() > 2 ? std::atoi(positional[2].c_str())
                                         : 600);

  bench::header("Fleet soak: sharded DPR service under stalls, bursts and "
                "hangs",
                "fleet robustness layer (DESIGN.md fleet service: admission, "
                "shedding, breakers)");

  // Optional live-ops overlay: serve telemetry from the running soak and
  // hammer it with 8 concurrent SSE subscribers (client 0 deliberately
  // slow, with a shrunken receive window, to force ring drops) plus a
  // GET poller that validates /metrics, /health and /trace/summary
  // mid-soak. The determinism replay at the end runs with no server
  // attached, so digest equality proves the observers perturbed nothing.
  FleetHandle handle;
  std::unique_ptr<ops::OpsServer> server;
  constexpr int kSseClients = 8;
  std::vector<std::thread> sse_threads;
  std::vector<ops::SseStreamResult> sse_results(kSseClients);
  std::thread poller;
  std::atomic<bool> poll_stop{false};
  std::atomic<bool> drain_fast{false};
  std::atomic<std::uint64_t> endpoint_checks{0};
  std::atomic<std::uint64_t> endpoint_failures{0};
  if (ops_port >= 0) {
    ops::OpsOptions options;
    options.enabled = true;
    options.bind = "127.0.0.1";
    options.port = ops_port;
    options.workers = kSseClients + 4;
    options.max_connections = kSseClients + 8;
    options.sse_buffer_events = 8;   // small ring: slow client must drop
    options.publish_interval_ms = 2;
    server = std::make_unique<ops::OpsServer>(options);
    server->set_health_source([&handle] { return handle.health_json(); });
    server->start();
    std::printf("ops server on 127.0.0.1:%d (%d SSE clients, client 0 "
                "slow)\n\n",
                server->port(), kSseClients);
    const int port = server->port();
    for (int c = 0; c < kSseClients; ++c)
      sse_threads.emplace_back([c, port, &sse_results, &drain_fast] {
        // Client 0: 300 ms between reads through a ~1 KiB receive
        // buffer, so the server-side worker blocks and its ring fills.
        // Once the soak is over it drains its backlog at full speed
        // (`drain_fast`) so teardown is not paced by its slowness.
        sse_results[static_cast<std::size_t>(c)] = ops::sse_stream(
            port, "/events", c == 0 ? 300 : 0, 120'000,
            c == 0 ? 1024 : 0, &drain_fast);
      });
    poller = std::thread([port, &poll_stop, &endpoint_checks,
                          &endpoint_failures] {
      const char* targets[] = {"/metrics", "/health", "/trace/summary",
                               "/metrics/prometheus"};
      while (!poll_stop.load(std::memory_order_relaxed)) {
        for (const char* target : targets) {
          int status = 0;
          std::string body;
          const bool ok = ops::http_get(port, target, &status, &body) &&
                          status == 200 && !body.empty();
          const bool json_ok =
              std::string(target) == "/metrics/prometheus" || body[0] == '{';
          endpoint_checks.fetch_add(1, std::memory_order_relaxed);
          if (!ok || !json_ok)
            endpoint_failures.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  TextTable table({"seed", "submitted", "ok", "fallback", "failed", "shed",
                   "coalesced", "opens", "reopens", "stalls", "p99 cycles"});
  FleetStats totals;
  std::vector<long long> latencies;
  std::vector<std::string> digests;
  bool all_conserved = true;
  bool all_explained = true;
  bool all_drained = true;

  for (int i = 0; i < num_seeds; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    SeedOutcome out = run_seed(seed, quanta, server ? &handle : nullptr);
    digests.push_back(out.digest);
    all_conserved = all_conserved && out.stats.conserved();
    all_explained = all_explained && out.stats.sheds_explained();
    all_drained = all_drained && out.drained;

    totals.submitted += out.stats.submitted;
    totals.completed_ok += out.stats.completed_ok;
    totals.completed_fallback += out.stats.completed_fallback;
    totals.completed_failed += out.stats.completed_failed;
    totals.shed_total += out.stats.shed_total;
    for (int e = 0; e < kNumFleetErrors; ++e)
      totals.shed_by_reason[e] += out.stats.shed_by_reason[e];
    totals.coalesced += out.stats.coalesced;
    totals.coalesce_requeues += out.stats.coalesce_requeues;
    totals.deadline_misses += out.stats.deadline_misses;
    totals.breaker_opens += out.stats.breaker_opens;
    totals.breaker_half_opens += out.stats.breaker_half_opens;
    totals.breaker_closes += out.stats.breaker_closes;
    totals.breaker_reopens += out.stats.breaker_reopens;
    totals.stall_quanta += out.stats.stall_quanta;
    totals.burst_arrivals += out.stats.burst_arrivals;
    totals.probe_rehabilitations += out.stats.probe_rehabilitations;

    std::sort(out.latencies.begin(), out.latencies.end());
    table.add_row(
        {TextTable::integer(static_cast<long long>(seed)),
         TextTable::integer(static_cast<long long>(out.stats.submitted)),
         TextTable::integer(static_cast<long long>(out.stats.completed_ok)),
         TextTable::integer(
             static_cast<long long>(out.stats.completed_fallback)),
         TextTable::integer(
             static_cast<long long>(out.stats.completed_failed)),
         TextTable::integer(static_cast<long long>(out.stats.shed_total)),
         TextTable::integer(static_cast<long long>(out.stats.coalesced)),
         TextTable::integer(static_cast<long long>(out.stats.breaker_opens)),
         TextTable::integer(
             static_cast<long long>(out.stats.breaker_reopens)),
         TextTable::integer(static_cast<long long>(out.stats.stall_quanta)),
         TextTable::integer(percentile(out.latencies, 0.99))});
    latencies.insert(latencies.end(), out.latencies.begin(),
                     out.latencies.end());
  }
  std::printf("%s\n", table.render().c_str());

  std::sort(latencies.begin(), latencies.end());
  const long long p50 = percentile(latencies, 0.50);
  const long long p99 = percentile(latencies, 0.99);
  const long long p999 = percentile(latencies, 0.999);
  const double shed_rate =
      totals.submitted == 0
          ? 0.0
          : static_cast<double>(totals.shed_total) /
                static_cast<double>(totals.submitted);
  const double coalesce_rate =
      totals.submitted == 0
          ? 0.0
          : static_cast<double>(totals.coalesced) /
                static_cast<double>(totals.submitted);
  const double miss_rate =
      totals.submitted == 0
          ? 0.0
          : static_cast<double>(totals.deadline_misses) /
                static_cast<double>(totals.submitted);

  TextTable sheds({"shed reason", "count"});
  for (int e = 1; e < kNumFleetErrors; ++e)
    sheds.add_row({to_string(static_cast<FleetError>(e)),
                   TextTable::integer(
                       static_cast<long long>(totals.shed_by_reason[e]))});
  std::printf("%s\n", sheds.render().c_str());

  std::printf("latency (hardware completions, cycles): p50 %lld  p99 %lld  "
              "p999 %lld  (%zu samples)\n",
              p50, p99, p999, latencies.size());
  std::printf("shed rate %.4f  coalesce rate %.4f  deadline miss rate %.4f  "
              "breaker opens %llu (reopens %llu)  stall quanta %llu  "
              "fallbacks %llu\n",
              shed_rate, coalesce_rate, miss_rate,
              static_cast<unsigned long long>(totals.breaker_opens),
              static_cast<unsigned long long>(totals.breaker_reopens),
              static_cast<unsigned long long>(totals.stall_quanta),
              static_cast<unsigned long long>(totals.completed_fallback));

  // Tear down the ops overlay before the determinism replay: the first
  // pass ran under live observers, the replay runs with no server at
  // all, so a digest match means serving telemetry perturbed nothing.
  ops::OpsServer::Stats ops_stats;
  std::uint64_t sse_received = 0;
  std::uint64_t sse_min = 0;
  if (server) {
    // The soak itself usually overflows the slow client's ring; if the
    // timing was merciful, force the issue with a bounded burst of fat
    // probe events (the pump keeps publishing while client 0 sleeps on
    // a full receive window).
    for (int i = 0; i < 2'000 && server->stats().sse_dropped == 0; ++i) {
      server->publish("probe", std::string(4096, 'x'));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    poll_stop.store(true, std::memory_order_relaxed);
    poller.join();
    server->stop();
    drain_fast.store(true, std::memory_order_relaxed);
    for (std::thread& t : sse_threads) t.join();
    ops_stats = server->stats();
    server.reset();
    sse_min = sse_results[0].events;
    for (const ops::SseStreamResult& r : sse_results) {
      sse_received += r.events;
      sse_min = std::min(sse_min, r.events);
    }
    std::printf("ops: %llu requests (%llu rejected)  %llu endpoint checks "
                "(%llu failed)  SSE: %llu published, %llu received across "
                "%d clients (min %llu), %llu dropped at slow consumers\n",
                static_cast<unsigned long long>(ops_stats.requests),
                static_cast<unsigned long long>(ops_stats.rejected),
                static_cast<unsigned long long>(endpoint_checks.load()),
                static_cast<unsigned long long>(endpoint_failures.load()),
                static_cast<unsigned long long>(ops_stats.sse_published),
                static_cast<unsigned long long>(sse_received), kSseClients,
                static_cast<unsigned long long>(sse_min),
                static_cast<unsigned long long>(ops_stats.sse_dropped));
  }

  // Determinism self-check: the first seed, replayed, must reproduce its
  // digest bit-for-bit.
  const SeedOutcome replay = run_seed(first_seed, quanta);
  const bool deterministic = replay.digest == digests.front();
  std::printf("determinism replay (seed %llu): %s\n",
              static_cast<unsigned long long>(first_seed),
              deterministic ? "identical" : "MISMATCH");
  if (!deterministic)
    std::printf("  first : %s\n  replay: %s\n", digests.front().c_str(),
                replay.digest.c_str());

  std::ofstream json(json_path);
  json << "{\n  \"first_seed\": " << first_seed
       << ",\n  \"seeds\": " << num_seeds
       << ",\n  \"quanta_per_seed\": " << quanta
       << ",\n  \"shards\": " << soak_topology().shards
       << ",\n  \"submitted\": " << totals.submitted
       << ",\n  \"completed_ok\": " << totals.completed_ok
       << ",\n  \"completed_fallback\": " << totals.completed_fallback
       << ",\n  \"completed_failed\": " << totals.completed_failed
       << ",\n  \"shed_total\": " << totals.shed_total
       << ",\n  \"shed_rate\": " << shed_rate
       << ",\n  \"coalesced\": " << totals.coalesced
       << ",\n  \"coalesce_rate\": " << coalesce_rate
       << ",\n  \"coalesce_requeues\": " << totals.coalesce_requeues
       << ",\n  \"p50_cycles\": " << p50
       << ",\n  \"p99_cycles\": " << p99
       << ",\n  \"p999_cycles\": " << p999
       << ",\n  \"latency_samples\": " << latencies.size()
       << ",\n  \"deadline_miss_rate\": " << miss_rate
       << ",\n  \"breaker_opens\": " << totals.breaker_opens
       << ",\n  \"breaker_half_opens\": " << totals.breaker_half_opens
       << ",\n  \"breaker_closes\": " << totals.breaker_closes
       << ",\n  \"breaker_reopens\": " << totals.breaker_reopens
       << ",\n  \"stall_quanta\": " << totals.stall_quanta
       << ",\n  \"burst_arrivals\": " << totals.burst_arrivals
       << ",\n  \"probe_rehabilitations\": " << totals.probe_rehabilitations
       << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"ops_enabled\": " << (ops_port >= 0 ? "true" : "false")
       << ",\n  \"ops_requests\": " << ops_stats.requests
       << ",\n  \"ops_rejected\": " << ops_stats.rejected
       << ",\n  \"ops_endpoint_checks\": " << endpoint_checks.load()
       << ",\n  \"ops_endpoint_failures\": " << endpoint_failures.load()
       << ",\n  \"ops_sse_clients\": " << ops_stats.sse_clients
       << ",\n  \"ops_sse_events\": " << ops_stats.sse_published
       << ",\n  \"ops_sse_received\": " << sse_received
       << ",\n  \"ops_sse_dropped\": " << ops_stats.sse_dropped
       << ",\n  \"host\": " << bench::host_json(started) << "\n}\n";
  std::printf("bench_fleet: wrote %s\n", json_path.c_str());

  const bool stalled = totals.stall_quanta > 0;
  const bool diverted = totals.breaker_opens >= 1;
  // With the ops overlay, additionally require: every endpoint probe got
  // valid JSON mid-soak, all 8 SSE clients subscribed and received
  // events, and the slow client's drops were counted (never silent).
  const bool ops_ok =
      ops_port < 0 ||
      (endpoint_failures.load() == 0 && endpoint_checks.load() > 0 &&
       ops_stats.sse_clients >= kSseClients && sse_min > 0 &&
       ops_stats.sse_dropped > 0);
  std::printf("acceptance: zero lost completions: %s  sheds explained: %s  "
              "drained: %s  stalls injected: %s  breaker diverted: %s  "
              "deterministic: %s  ops overlay: %s\n",
              all_conserved ? "yes" : "NO", all_explained ? "yes" : "NO",
              all_drained ? "yes" : "NO", stalled ? "yes" : "NO",
              diverted ? "yes" : "NO", deterministic ? "yes" : "NO",
              ops_port < 0 ? "off" : (ops_ok ? "yes" : "NO"));
  return (all_conserved && all_explained && all_drained && stalled &&
          diverted && deterministic && ops_ok)
             ? 0
             : 1;
}
