// Defrag chaos soak: the same seeded tenant churn is replayed against
// two fleets that differ in exactly one bit — `[fleet] repack` — while
// the repack-enabled run additionally has kRepackAbort faults armed
// against its background repacker. Proves the online-defragmentation
// tentpole end to end:
//
//   - the repacker actually defragments: mean fragmentation ratio after
//     the soak is strictly below the pre-soak ratio, with at least one
//     committed migration;
//   - migrations are invisible to tenants: the terminal workload outcome
//     of every request (hardware-ok / fallback / failed / typed shed,
//     keyed by request id) is bit-identical repacker-on vs repacker-off,
//     even with aborts injected mid-migration;
//   - the whole thing replays: re-running the first repack-on seed
//     reproduces the full fleet digest (which embeds the per-shard
//     frag=[...] and repack=[migrations,aborts,failures] state).
//
// Emits BENCH_defrag.json (frag_before/frag_after, migrations, p99
// completion latency with the repacker on vs off, bit_identical flag)
// for the bench workflow's required-field gate. tools/run_tier1.sh's
// `defrag` stage runs a short configuration of this soak.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/load.hpp"
#include "netlist/netlist.hpp"
#include "soc/accelerator.hpp"

using namespace presp;
using namespace presp::fleet;

namespace {

// One shard: the smallest SoC with a reconfiguration controller and two
// reconfigurable tiles (grid indices 3 and 4) sharing both modules, so
// the repacker always has an idle sibling region to compact.
const char* kShardSocText = R"(
[soc]
name = defrag_shard
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

/// The soak topology, with `repack` as the single variable under test.
/// Deadlines are deliberately generous: the comparison isolates what the
/// repacker changes, so no request may be shed or failed merely because
/// a migration held a tile lock for a few extra cycles.
FleetTopology defrag_topology(bool repack_on) {
  FleetTopology topo;
  topo.shards = 4;
  topo.quantum_cycles = 4'000;
  topo.coalesce_limit = 4;
  topo.service_estimate_cycles = 90'000;
  topo.fallback_latency_cycles = 200'000;
  for (auto& cls : topo.classes) {
    cls.deadline_quanta = 10'000;
    cls.queue_bound = 4'096;
  }
  topo.repack = repack_on;
  // One repack opportunity every other quantum; migrate on any
  // fragmentation at all so a short soak still shows strict improvement.
  topo.repack_interval_cycles = 2 * topo.quantum_cycles;
  topo.repack_frag_threshold = 0.0;
  return topo;
}

struct ConfigOutcome {
  bool repack_on = false;
  FleetStats stats;
  std::vector<long long> latencies;  // hardware completions, cycles
  bool drained = false;
  bool conserved = false;
  bool explained = false;
  double frag_before = 0.0;  // mean over shards, pre-soak
  double frag_after = 0.0;   // mean over shards, post-drain
  std::uint64_t migrations = 0;
  std::uint64_t aborts = 0;
  std::uint64_t failures = 0;
  /// Full fleet digest (includes frag/repack state) — replay equality.
  std::string digest;
  /// Terminal workload outcome of every request, keyed by id and
  /// independent of timing, shard placement and coalescing: the on/off
  /// bit-identical comparison.
  std::string workload_digest;
};

double mean_frag(const FleetManager& fleet) {
  double sum = 0.0;
  for (int s = 0; s < fleet.num_shards(); ++s)
    sum += fleet.dynamic_floorplan(s) == nullptr
               ? 0.0
               : fleet.dynamic_floorplan(s)->fragmentation().ratio();
  return fleet.num_shards() == 0 ? 0.0 : sum / fleet.num_shards();
}

/// Outcome class for the tenant-visible digest. kOk and kCoalescedOk
/// collapse to the same class: whether a completion piggybacked on a
/// sibling's reconfiguration is a scheduling detail, not a result.
const char* outcome_class(const FleetOutcome& outcome) {
  switch (outcome.kind) {
    case OutcomeKind::kOk:
    case OutcomeKind::kCoalescedOk:
      return "ok";
    case OutcomeKind::kFallback:
      return "fallback";
    case OutcomeKind::kFailed:
      return "failed";
    case OutcomeKind::kShed:
      return "shed";
  }
  return "?";
}

ConfigOutcome run_config(std::uint64_t seed, int quanta, bool repack_on) {
  const FleetTopology topo = defrag_topology(repack_on);
  // Chaos plane: aborts are thrown at the repacker mid-migration. They
  // target the repack path only, so the repack-off run (which never
  // consults kRepackAbort) sees the exact same workload either way.
  fault::FaultInjector injector;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  for (int i = 0; i < 3; ++i)
    injector.arm({fault::FaultSite::kRepackAbort, -1, -1,
                  1 + static_cast<std::uint64_t>(rng.next_below(8))});

  const netlist::SocConfig config = netlist::SocConfig::parse(kShardSocText);
  const soc::AcceleratorRegistry registry = make_registry();
  FleetManager fleet(topo, config, registry, seed, &injector);
  fleet.add_module("acc_a", 140'000);
  fleet.add_module("acc_b", 150'000);

  ConfigOutcome out;
  out.repack_on = repack_on;
  out.frag_before = mean_frag(fleet);

  LoadOptions load_options;
  load_options.seed = seed;
  load_options.arrivals_per_quantum = 1.0;
  load_options.modules = {"acc_a", "acc_b"};
  SyntheticLoad load(load_options);

  for (int q = 0; q < quanta; ++q) {
    for (FleetRequest& request :
         load.generate(fleet.now(), topo.burst_multiplier, nullptr))
      fleet.submit(std::move(request));
    fleet.step();
  }
  out.drained = fleet.drain(4 * quanta + 2'000);
  out.stats = fleet.stats();
  out.conserved = out.stats.conserved();
  out.explained = out.stats.sheds_explained();
  out.frag_after = mean_frag(fleet);
  for (int s = 0; s < fleet.num_shards(); ++s) {
    if (fleet.repacker(s) == nullptr) continue;
    out.migrations += fleet.repacker(s)->stats().migrations;
    out.aborts += fleet.repacker(s)->stats().aborts;
    out.failures += fleet.repacker(s)->stats().failures;
  }
  for (const FleetOutcome& outcome : fleet.outcomes()) {
    if (outcome.kind == OutcomeKind::kOk ||
        outcome.kind == OutcomeKind::kCoalescedOk)
      out.latencies.push_back(static_cast<long long>(outcome.latency));
  }
  std::sort(out.latencies.begin(), out.latencies.end());

  // Retirement order is timing-dependent; key by request id so the
  // digest only changes if some request's terminal result changes.
  std::map<std::uint64_t, std::string> by_id;
  for (const FleetOutcome& outcome : fleet.outcomes()) {
    std::ostringstream line;
    line << outcome_class(outcome);
    if (outcome.kind == OutcomeKind::kShed)
      line << ":" << static_cast<int>(outcome.error);
    by_id[outcome.request_id] = line.str();
  }
  std::ostringstream workload;
  for (const auto& [id, cls] : by_id) workload << id << "=" << cls << ";";
  out.workload_digest = workload.str();

  std::ostringstream digest;
  digest << fleet.digest() << " generated=" << load.generated()
         << " drained=" << (out.drained ? 1 : 0);
  out.digest = digest.str();
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
  // bench_defrag [first_seed [num_seeds [quanta]]] [--json out.json]
  std::string json_path = "BENCH_defrag.json";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(arg);
    }
  }
  const std::uint64_t first_seed =
      positional.size() > 0 ? std::strtoull(positional[0].c_str(), nullptr, 10)
                            : 1;
  const int num_seeds =
      std::max(1, positional.size() > 1 ? std::atoi(positional[1].c_str())
                                        : 3);
  const int quanta =
      std::max(40, positional.size() > 2 ? std::atoi(positional[2].c_str())
                                         : 300);

  bench::header(
      "Defrag soak: background repacker vs identical repack-off replay",
      "online fabric defragmentation (DESIGN.md defrag: relocatable "
      "bitstreams, region split/merge, background repacker)");

  TextTable table({"seed", "frag before", "frag after", "migrations",
                   "aborts", "p99 on", "p99 off", "identical"});
  double frag_before_sum = 0.0;
  double frag_after_sum = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t aborts = 0;
  std::uint64_t failures = 0;
  std::vector<long long> lat_on;
  std::vector<long long> lat_off;
  bool all_identical = true;
  bool all_improved = true;
  bool all_sound = true;  // conserved + explained + drained, both runs
  bool chaos_fired = false;
  std::string first_on_digest;

  for (int i = 0; i < num_seeds; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    const ConfigOutcome on = run_config(seed, quanta, true);
    const ConfigOutcome off = run_config(seed, quanta, false);
    if (i == 0) first_on_digest = on.digest;

    const bool identical = on.workload_digest == off.workload_digest;
    all_identical = all_identical && identical;
    all_improved =
        all_improved && on.migrations > 0 && on.frag_after < on.frag_before;
    for (const ConfigOutcome* run : {&on, &off})
      all_sound =
          all_sound && run->conserved && run->explained && run->drained;
    chaos_fired = chaos_fired || on.aborts > 0;
    if (!identical)
      std::printf("seed %llu workload mismatch:\n  on : %s\n  off: %s\n",
                  static_cast<unsigned long long>(seed),
                  on.workload_digest.c_str(), off.workload_digest.c_str());

    frag_before_sum += on.frag_before;
    frag_after_sum += on.frag_after;
    migrations += on.migrations;
    aborts += on.aborts;
    failures += on.failures;
    lat_on.insert(lat_on.end(), on.latencies.begin(), on.latencies.end());
    lat_off.insert(lat_off.end(), off.latencies.begin(), off.latencies.end());
    table.add_row({TextTable::integer(static_cast<long long>(seed)),
                   TextTable::num(on.frag_before, 3),
                   TextTable::num(on.frag_after, 3),
                   TextTable::integer(static_cast<long long>(on.migrations)),
                   TextTable::integer(static_cast<long long>(on.aborts)),
                   TextTable::integer(percentile(on.latencies, 0.99)),
                   TextTable::integer(percentile(off.latencies, 0.99)),
                   identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());

  std::sort(lat_on.begin(), lat_on.end());
  std::sort(lat_off.begin(), lat_off.end());
  const double frag_before = frag_before_sum / num_seeds;
  const double frag_after = frag_after_sum / num_seeds;
  const long long p99_on = percentile(lat_on, 0.99);
  const long long p99_off = percentile(lat_off, 0.99);
  std::printf("fragmentation (mean over shards and seeds): %.4f -> %.4f  "
              "migrations %llu  aborts %llu  failures %llu\n",
              frag_before, frag_after,
              static_cast<unsigned long long>(migrations),
              static_cast<unsigned long long>(aborts),
              static_cast<unsigned long long>(failures));
  std::printf("p99 completion latency: repack on %lld  off %lld  "
              "(delta %+lld cycles)\n",
              p99_on, p99_off, p99_on - p99_off);

  // Determinism self-check: the first repack-on seed, replayed, must
  // reproduce its digest — frag/repack state included — bit-for-bit.
  const ConfigOutcome replay = run_config(first_seed, quanta, true);
  const bool deterministic = replay.digest == first_on_digest;
  std::printf("determinism replay (seed %llu, repack on): %s\n",
              static_cast<unsigned long long>(first_seed),
              deterministic ? "identical" : "MISMATCH");
  if (!deterministic)
    std::printf("  first : %s\n  replay: %s\n", first_on_digest.c_str(),
                replay.digest.c_str());

  std::ofstream json(json_path);
  json << "{\n  \"first_seed\": " << first_seed
       << ",\n  \"seeds\": " << num_seeds
       << ",\n  \"quanta_per_seed\": " << quanta
       << ",\n  \"shards\": " << defrag_topology(true).shards
       << ",\n  \"frag_before\": " << frag_before
       << ",\n  \"frag_after\": " << frag_after
       << ",\n  \"migrations\": " << migrations
       << ",\n  \"repack_aborts\": " << aborts
       << ",\n  \"repack_failures\": " << failures
       << ",\n  \"p99_cycles_on\": " << p99_on
       << ",\n  \"p99_cycles_off\": " << p99_off
       << ",\n  \"latency_samples_on\": " << lat_on.size()
       << ",\n  \"latency_samples_off\": " << lat_off.size()
       << ",\n  \"bit_identical\": " << (all_identical ? "true" : "false")
       << ",\n  \"frag_improved\": " << (all_improved ? "true" : "false")
       << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"host\": " << bench::host_json(started) << "\n}\n";
  std::printf("bench_defrag: wrote %s\n", json_path.c_str());

  std::printf("acceptance: frag strictly improved: %s  workload "
              "bit-identical on vs off: %s  abort chaos fired: %s  "
              "conserved/explained/drained: %s  deterministic: %s\n",
              all_improved ? "yes" : "NO", all_identical ? "yes" : "NO",
              chaos_fired ? "yes" : "NO", all_sound ? "yes" : "NO",
              deterministic ? "yes" : "NO");
  return (all_improved && all_identical && chaos_fired && all_sound &&
          deterministic)
             ? 0
             : 1;
}
