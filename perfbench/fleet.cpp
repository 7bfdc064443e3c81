// The `fleet` workload: the bench_fleet soak topology (4 shards of a
// two-reconfigurable-tile SoC, open-loop synthetic tenants at one arrival
// per quantum over 600 quanta, chained shard stalls, burst windows and
// accelerator hangs) with the repacker live. The seed generates the
// tenant schedule and the chaos plan; both are built before the fleet is,
// so the loop is open in simulated time: each request is submitted at its
// scheduled cycle and its latency counts from there.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/load.hpp"
#include "netlist/soc_config.hpp"
#include "soc/accelerator.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace presp;
using namespace presp::fleet;

constexpr int kQuanta = 600;
/// The fleet's own seed is fixed: the workload seed reaches the program
/// only through the generated schedule and chaos plan.
constexpr std::uint64_t kFleetSeed = 1;

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

FleetTopology soak_topology() {
  FleetTopology topo;
  topo.shards = 4;
  topo.quantum_cycles = 4'000;
  topo.repack = true;
  topo.repack_interval_cycles = 2 * topo.quantum_cycles;
  topo.repack_frag_threshold = 0.0;
  topo.coalesce_limit = 4;
  topo.service_estimate_cycles = 90'000;
  topo.fallback_latency_cycles = 200'000;
  topo.stall_cycles = 240'000;
  topo.burst_multiplier = 6;
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

/// bench_fleet's seeded chaos plan: two chained stalls on one shard, a
/// later stall on its neighbour, two burst windows and four accelerator
/// hangs. Burst specs drive the load generator; the rest arm the fleet.
std::vector<fault::FaultSpec> chaos_plan(std::uint64_t seed, int shards) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const auto within = [&](int lo, int hi) {
    return static_cast<std::uint64_t>(
        lo + static_cast<int>(rng.next_below(
                 static_cast<std::uint64_t>(hi - lo))));
  };
  const int victim =
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(shards)));
  std::vector<fault::FaultSpec> plan;
  plan.push_back({fault::FaultSite::kShardStall, victim, -1,
                  within(10, kQuanta / 4 + 11)});
  plan.push_back({fault::FaultSite::kShardStall, victim, -1, 1});
  plan.push_back({fault::FaultSite::kShardStall, (victim + 1) % shards, -1,
                  within(kQuanta / 2, kQuanta * 3 / 4 + 1)});
  plan.push_back({fault::FaultSite::kBurstOverload, -1, -1,
                  within(5, kQuanta / 3 + 6)});
  plan.push_back({fault::FaultSite::kBurstOverload, -1, -1,
                  within(kQuanta / 3, kQuanta / 2 + 1)});
  for (int i = 0; i < 4; ++i)
    plan.push_back({fault::FaultSite::kAccelHang, 3 + (i % 2), -1,
                    within(1, 16)});
  return plan;
}

/// The generated inputs: per-quantum arrivals and the chaos plan.
struct Inputs {
  std::vector<std::vector<FleetRequest>> schedule;
  std::vector<bool> burst;
  std::vector<fault::FaultSpec> fleet_faults;
};

Inputs generate(std::uint64_t seed, const FleetTopology& topo) {
  Inputs in;
  fault::FaultInjector bursts;
  for (const fault::FaultSpec& spec : chaos_plan(seed, topo.shards)) {
    if (spec.site == fault::FaultSite::kBurstOverload) bursts.arm(spec);
    else in.fleet_faults.push_back(spec);
  }
  LoadOptions load_options;
  load_options.seed = seed;
  load_options.arrivals_per_quantum = 1.0;
  load_options.modules = {"acc_a", "acc_b"};
  SyntheticLoad load(load_options);
  for (int q = 0; q < kQuanta; ++q) {
    const auto now = static_cast<sim::Time>(q) *
                     static_cast<sim::Time>(topo.quantum_cycles);
    in.schedule.push_back(load.generate(now, topo.burst_multiplier, &bursts));
    in.burst.push_back(load.burst_active());
  }
  return in;
}

/// Soaks per pass, each with its own seed derived from the workload seed.
/// The host cost per request depends on the chaos plan (where the stalls
/// and bursts fall), so a pass pools several plans.
constexpr int kSoaksPerPass = 16;

std::uint64_t soak_seed(std::uint64_t seed, int k) {
  return seed * kSoaksPerPass + static_cast<std::uint64_t>(k);
}

/// One pass: kSoaksPerPass soaks, accumulated.
struct Pass {
  std::vector<double> setup_s;  // per soak
  /// The reference probe timed right after each soak's set-up (untraced
  /// passes).
  std::vector<double> setup_probe_s;
  double submit_s = 0.0;
  double step_s = 0.0;
  double drain_s = 0.0;
  /// Host and CPU seconds of each soak's timed calls, and the reference
  /// probe timed right after them (untraced passes).
  std::vector<double> soak_s;
  std::vector<double> soak_cpu_s;
  std::vector<double> soak_probe_s;
  std::vector<double> step_us;
  bool on_schedule = true;
  bool drained = true;
  bool conserved = true;
  bool explained = true;
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t breaker_opens = 0;
  std::vector<FleetOutcome> outcomes;
  runtime::ManagerStats manager;
  double frag_sum = 0.0;
  int frag_n = 0;
  std::string first_soak_digest;
  Digest digest;

  double timed_s() const { return submit_s + step_s + drain_s; }
  double probe_total_s() const {
    double total = 0.0;
    for (const double s : setup_probe_s) total += s;
    for (const double s : soak_probe_s) total += s;
    return total;
  }
};

/// One soak of `seed`, accumulated into `p`. With `span`, every public
/// call is wrapped in a span. Returns the soak's digest.
std::string soak(std::uint64_t seed, Spans* span, Pass& p) {
  const auto timed = [&](const char* name, auto&& f) {
    return span ? (*span)(name, f) : f();
  };
  const auto t0 = Clock::now();
  const FleetTopology topo = soak_topology();
  Inputs in = generate(seed, topo);
  fault::FaultInjector injector;
  for (const fault::FaultSpec& spec : in.fleet_faults) injector.arm(spec);
  const netlist::SocConfig config = netlist::SocConfig::parse(kShardSocText);
  const soc::AcceleratorRegistry registry = make_registry();
  runtime::ManagerOptions manager_options;
  manager_options.watchdog_run_cycles = 200'000;
  auto fleet = timed("soc.build", [&] {
    auto f = std::make_unique<FleetManager>(topo, config, registry, kFleetSeed,
                                            &injector, manager_options);
    f->add_module("acc_a", 140'000);
    f->add_module("acc_b", 150'000);
    return f;
  });
  p.setup_s.push_back(seconds_since(t0));
  if (!span) p.setup_probe_s.push_back(reference_probe());

  const double timed0 = p.timed_s();
  const double cpu0 = HostUsage::now().cpu_s();
  for (int q = 0; q < kQuanta; ++q) {
    const auto now = static_cast<sim::Time>(q) *
                     static_cast<sim::Time>(topo.quantum_cycles);
    p.on_schedule = p.on_schedule && fleet->now() == now;
    const auto t1 = Clock::now();
    timed("fleet.submit", [&] {
      if (in.burst[q]) fleet->note_burst_arrivals(in.schedule[q].size());
      for (FleetRequest& request : in.schedule[q])
        fleet->submit(std::move(request));
    });
    const auto t2 = Clock::now();
    timed("fleet.step", [&] { fleet->step(); });
    const auto t3 = Clock::now();
    p.submit_s += std::chrono::duration<double>(t2 - t1).count();
    const double step = std::chrono::duration<double>(t3 - t2).count();
    p.step_s += step;
    p.step_us.push_back(step * 1e6);
  }
  const auto t4 = Clock::now();
  const bool drained = timed(
      "fleet.drain", [&] { return fleet->drain(4 * kQuanta + 2'000); });
  p.drain_s += seconds_since(t4);
  p.soak_cpu_s.push_back(HostUsage::now().cpu_s() - cpu0);
  p.soak_s.push_back(p.timed_s() - timed0);
  if (!span) p.soak_probe_s.push_back(reference_probe());

  const FleetStats& st = fleet->stats();
  p.drained = p.drained && drained;
  p.conserved = p.conserved && st.conserved();
  p.explained = p.explained && st.sheds_explained();
  p.submitted += st.submitted;
  p.shed += st.shed_total;
  p.coalesced += st.coalesced;
  p.breaker_opens += st.breaker_opens;
  p.outcomes.insert(p.outcomes.end(), fleet->outcomes().begin(),
                    fleet->outcomes().end());
  for (int s = 0; s < fleet->num_shards(); ++s) {
    const runtime::ManagerStats& m = fleet->manager(s).stats();
    p.manager.reconfigurations += m.reconfigurations;
    p.manager.reconfigurations_avoided += m.reconfigurations_avoided;
    p.manager.driver_swaps += m.driver_swaps;
    p.manager.reconfiguration_cycles += m.reconfiguration_cycles;
    p.manager.prc_wait_cycles += m.prc_wait_cycles;
    p.manager.lock_wait_cycles += m.lock_wait_cycles;
    p.manager.repacks += m.repacks;
    if (const floorplan::DynamicFloorplan* plan = fleet->dynamic_floorplan(s)) {
      p.frag_sum += plan->fragmentation().ratio();
      ++p.frag_n;
    }
  }
  std::size_t generated = 0;
  for (const auto& batch : in.schedule) generated += batch.size();
  const std::string digest = Digest()
                                 .add(fleet->digest())
                                 .add(static_cast<std::uint64_t>(generated))
                                 .add(static_cast<std::uint64_t>(drained))
                                 .hex();
  p.digest.add(digest);
  return digest;
}

Pass fleet_pass(std::uint64_t seed, Spans* span) {
  Pass p;
  for (int k = 0; k < kSoaksPerPass; ++k) {
    const std::string digest = soak(soak_seed(seed, k), span, p);
    if (k == 0) p.first_soak_digest = digest;
  }
  return p;
}

}  // namespace

Outcome run_fleet(const Args& args) {
  Outcome out;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;

  std::vector<double> setup_s, us_per_request, pass_s;
  PartTimes host_parts, cpu_parts;
  HostSpeed speed;
  Pass last;
  const HostUsage u0 = HostUsage::now();
  const auto t0 = Clock::now();
  repeat(untraced_s, 1, [&](int) {
    const auto t_pass = Clock::now();
    Pass p = fleet_pass(args.seed, nullptr);
    pass_s.push_back(seconds_since(t_pass) - p.probe_total_s());
    out.attempted += p.submitted;
    std::uint64_t failed = p.submitted - std::min<std::uint64_t>(
                                             p.submitted, p.outcomes.size());
    for (const FleetOutcome& o : p.outcomes)
      if (o.kind == OutcomeKind::kFailed) ++failed;
    out.failed += failed;
    out.check(p.conserved, "fleet lost a request (conservation)");
    out.check(p.explained, "fleet shed without a typed reason");
    out.check(p.drained, "fleet did not drain");
    out.check(p.on_schedule, "fleet clock left the arrival schedule");
    if (out.digest.empty()) out.digest = p.digest.hex();
    out.check(p.digest.hex() == out.digest,
              "fleet digest differs between passes");

    const double requests = static_cast<double>(p.submitted);
    setup_s.insert(setup_s.end(), p.setup_s.begin(), p.setup_s.end());
    for (const double probe_s : p.setup_probe_s) speed.add(probe_s);
    for (std::size_t k = 0; k < p.soak_s.size(); ++k) {
      host_parts.add(k, p.soak_s[k] / requests);
      cpu_parts.add(k, p.soak_cpu_s[k] / requests);
      speed.add(p.soak_probe_s[k]);
    }
    us_per_request.push_back(p.timed_s() * 1e6 / requests);
    last = std::move(p);
  });
  const double untraced_wall = seconds_since(t0);
  const double untraced_sys = HostUsage::now().sys_s - u0.sys_s;

  // Replay of the first soak's seed, outside every timed region.
  Pass replay;
  out.check(soak(soak_seed(args.seed, 0), nullptr, replay) ==
                last.first_soak_digest,
            "fleet replay of the seed reproduced a different digest");

  Metrics& m = out.metrics;
  m.set("setup_s", speed.at_reference(median(setup_s) * 1e3) / 1e3, "s");
  m.set("host_ms_per_op", speed.at_reference(host_parts.sum_ms()), "ms");
  m.set("cpu_ms_per_op", speed.at_reference(cpu_parts.sum_ms()), "ms");
  if (!args.trace) return out;

  m.set("host.raw_ms_per_op", host_parts.sum_ms(), "ms");
  m.set("host.probe_ms", speed.probe_ms(), "ms");
  m.set("host.raw_setup_s", median(setup_s), "s");

  // ---- per-layer, from the untraced passes above
  const double submitted = static_cast<double>(last.submitted);
  std::vector<double> latencies;
  std::uint64_t on_time = 0, admitted = 0, admitted_missed = 0;
  for (const FleetOutcome& o : last.outcomes) {
    if (o.kind == OutcomeKind::kOk || o.kind == OutcomeKind::kCoalescedOk)
      latencies.push_back(static_cast<double>(o.latency));
    if (o.deadline_met) ++on_time;
    if (o.kind != OutcomeKind::kShed) {
      ++admitted;
      if (!o.deadline_met) ++admitted_missed;
    }
  }
  m.set("fleet_us_per_request", median(us_per_request), "us");
  m.set("fleet_p50_cycles", percentile(latencies, 0.50), "cycles");
  m.set("fleet_p99_cycles", percentile(latencies, 0.99), "cycles");
  m.set("fleet_latency_samples", static_cast<double>(latencies.size()),
        "count");
  m.set("fleet_on_time_ratio", static_cast<double>(on_time) / submitted,
        "ratio");
  m.set("failed_ratio",
        static_cast<double>(out.failed) / static_cast<double>(out.attempted),
        "ratio");
  m.set("host.sys_ratio", untraced_sys / untraced_wall, "ratio");
  m.set("fleet.shed_ratio", static_cast<double>(last.shed) / submitted,
        "ratio");
  m.set("fleet.admitted_miss_ratio",
        static_cast<double>(admitted_missed) /
            static_cast<double>(std::max<std::uint64_t>(1, admitted)),
        "ratio");
  m.set("fleet.breaker_opens", static_cast<double>(last.breaker_opens),
        "count");
  m.set("fleet.coalesce_ratio", static_cast<double>(last.coalesced) / submitted,
        "ratio");
  const runtime::ManagerStats& ms = last.manager;
  m.set("runtime.reconfigurations",
        static_cast<double>(ms.reconfigurations), "count");
  m.set("runtime.reconfigurations_avoided",
        static_cast<double>(ms.reconfigurations_avoided), "count");
  m.set("runtime.driver_swaps", static_cast<double>(ms.driver_swaps),
        "count");
  m.set("runtime.reconfiguration_cycles",
        static_cast<double>(ms.reconfiguration_cycles), "cycles");
  m.set("runtime.prc_wait_cycles", static_cast<double>(ms.prc_wait_cycles),
        "cycles");
  m.set("runtime.lock_wait_cycles", static_cast<double>(ms.lock_wait_cycles),
        "cycles");
  m.set("runtime.repacks", static_cast<double>(ms.repacks), "count");
  m.set("floorplan.frag_ratio",
        last.frag_n ? last.frag_sum / last.frag_n : 0.0, "ratio");

  // ---- traced passes: the same soaks with every public call in a span
  std::vector<double> build_s, submit_s, step_s, drain_s, step_p99, overhead,
      covered;
  trace_start();
  repeat(args.seconds / 2, 1, [&](int) {
    Spans span;
    const auto t1 = Clock::now();
    const Pass p = fleet_pass(args.seed, &span);
    const double traced = seconds_since(t1);
    out.check(p.digest.hex() == out.digest,
              "traced fleet pass differs from the untraced passes");
    build_s.push_back(span.total("soc.build"));
    submit_s.push_back(span.total("fleet.submit"));
    step_s.push_back(span.total("fleet.step"));
    drain_s.push_back(span.total("fleet.drain"));
    step_p99.push_back(percentile(p.step_us, 0.99));
    overhead.push_back(traced / median(pass_s) - 1.0);
    covered.push_back(span.covered() / traced);
  });
  trace_stop(args.trace_out);

  m.set("soc.build_s", median(build_s), "s");
  m.set("fleet.submit_s", median(submit_s), "s");
  m.set("fleet.step_s", median(step_s), "s");
  m.set("fleet.drain_s", median(drain_s), "s");
  m.set("fleet.step_us_p99", median(step_p99), "us");
  m.set("trace.overhead_ratio", median(overhead), "ratio");
  m.set("trace.covered_ratio", median(covered), "ratio");
  return out;
}

}  // namespace perfbench
