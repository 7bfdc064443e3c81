// The `flow` workload: the paper's compile-time path. Each pass runs a cold
// core::PrEspFlow::run with full physical P&R on SoC_X and the WAMI SoC_A-D
// (Table IV), with the flow cache on and empty and a pool as wide as the
// host, then a warm re-run of the same five designs after growing one
// module's block model (warp +16 LUTs, the edit bench_micro's flow-cache
// run makes). The seed orders the five designs.
//
// The traced pass calls the flow's stage functions itself, in the flow's
// order, at one thread (a replica of PrEspFlow::run's cold and warm paths
// through the public synth / floorplan / pnr / bitstream / FlowCache
// calls), and compares its outputs with PrEspFlow::run at one thread.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>

#include "common.hpp"
#include "core/flow.hpp"
#include "core/flow_cache.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "fabric/device.hpp"
#include "netlist/rtl.hpp"
#include "util/rng.hpp"
#include "wami/accelerators.hpp"

namespace perfbench {
namespace {

using namespace presp;

constexpr const char* kEditedModule = "warp";
constexpr int kEditLuts = 16;
/// Paper Table V, PR-ESP total minutes of SoC_A..D.
constexpr double kTable5Minutes[] = {197, 189, 194, 168};

struct Design {
  char which;
  netlist::SocConfig config;
};

/// Everything a pass needs before its first timed call.
struct FlowSetup {
  fabric::Device device = fabric::Device::vc707();
  netlist::ComponentLibrary lib = wami::wami_library();
  netlist::ComponentLibrary edited = lib;
  std::vector<Design> designs;
  core::FlowOptions options;

  FlowSetup(std::uint64_t seed, int threads, const std::string& cache_dir) {
    netlist::BlockModel block = edited.get(kEditedModule);
    block.resources.luts += kEditLuts;
    edited.register_block(block);
    designs.push_back({'X', wami::table6_soc('X')});
    for (const char c : {'A', 'B', 'C', 'D'})
      designs.push_back({c, wami::table4_soc(c)});
    Rng rng(seed);
    for (std::size_t i = designs.size() - 1; i > 0; --i)
      std::swap(designs[i], designs[rng.next_below(i + 1)]);
    options.exec_threads = threads;
    options.cache.dir = cache_dir;
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);
  }
};

std::uint64_t module_digest(const std::string& module,
                            const fabric::ResourceVec& util, bool routed,
                            std::size_t raw, std::size_t compressed) {
  return Digest()
      .add(module)
      .add(static_cast<std::uint64_t>(util.luts))
      .add(static_cast<std::uint64_t>(util.ffs))
      .add(static_cast<std::uint64_t>(util.bram36))
      .add(static_cast<std::uint64_t>(util.dsp))
      .add(static_cast<std::uint64_t>(routed))
      .add(static_cast<std::uint64_t>(raw))
      .add(static_cast<std::uint64_t>(compressed))
      .value();
}

/// What the cold/warm comparison and the replica cross-check look at:
/// per-module placement/bitstream identity plus the static run's outputs.
struct DesignImage {
  std::vector<std::pair<std::string, std::uint64_t>> modules;
  std::size_t full_bitstream_bytes = 0;
  double fmax_mhz = 0.0;
};

DesignImage image_of(const core::FlowResult& r) {
  DesignImage img;
  for (const core::ModuleImplementation& m : r.modules)
    img.modules.emplace_back(
        m.module, module_digest(m.module, m.utilization, m.routed,
                                m.pbs_raw_bytes, m.pbs_compressed_bytes));
  img.full_bitstream_bytes = r.full_bitstream_bytes;
  img.fmax_mhz = r.achieved_fmax_mhz;
  return img;
}

/// Unedited modules and the static part must be bit-identical between
/// the cold run and the warm run after the edit.
bool warm_matches_cold(const DesignImage& cold, const DesignImage& warm) {
  if (cold.modules.size() != warm.modules.size() ||
      cold.full_bitstream_bytes != warm.full_bitstream_bytes)
    return false;
  for (std::size_t j = 0; j < cold.modules.size(); ++j)
    if (cold.modules[j].first != kEditedModule &&
        cold.modules[j] != warm.modules[j])
      return false;
  return true;
}

void add_digest(Digest& d, const core::FlowResult& r) {
  d.add(r.design).add(r.total_minutes).add(
      static_cast<std::uint64_t>(r.full_bitstream_bytes));
  d.add(r.achieved_fmax_mhz);
  for (const auto& [name, h] : image_of(r).modules) d.add(name).add(h);
}

// ------------------------------------------------------------ replica

struct ReplicaStats {
  std::uint64_t runs = 0;
  std::uint64_t routed = 0;
};

void add_resources(core::FlowCache::KeyBuilder& kb,
                   const fabric::ResourceVec& r) {
  kb.add(static_cast<long long>(r.luts))
      .add(static_cast<long long>(r.ffs))
      .add(static_cast<long long>(r.bram36))
      .add(static_cast<long long>(r.dsp));
}

/// PrEspFlow::run's stages for one design, called one by one at one
/// thread, each inside a span. Stage results are cached in `cache` under
/// keys of this file's own (cold: every probe misses and every result is
/// stored; warm: every unedited result is loaded back).
DesignImage replicate(const Design& design, const FlowSetup& setup,
                      const netlist::ComponentLibrary& lib,
                      const core::RuntimeModel& model,
                      core::FlowCache& cache, Spans& span,
                      ReplicaStats& stats) {
  const fabric::Device& device = setup.device;
  const core::FlowOptions& opt = setup.options;
  const netlist::SocConfig& config = design.config;

  const netlist::SocRtl rtl =
      span("netlist.elaborate", [&] { return netlist::elaborate(config, lib); });
  const core::SizeMetrics size = span("netlist.elaborate", [&] {
    return core::compute_metrics(rtl, lib, device);
  });

  struct Job {
    int partition;
    std::string module;
    fabric::ResourceVec resources;
  };
  std::vector<Job> jobs;
  for (int p = 0; p < static_cast<int>(rtl.partitions().size()); ++p)
    for (const std::string& m : rtl.partitions()[p].modules)
      jobs.push_back({p, m, netlist::SocRtl::module_resources(lib, m)});

  const synth::Synthesizer synthesizer(lib, opt.synth);
  core::FlowCache::KeyBuilder meta_kb;
  meta_kb.add("perfbench-static").add(config.to_config_text());
  add_resources(meta_kb, rtl.static_resources(lib));
  const std::uint64_t meta_key = meta_kb.finish();

  std::optional<synth::Checkpoint> static_ckpt;
  auto meta = span("core.cache_load",
                   [&] { return cache.load_static_meta(meta_key); });
  if (!meta) {
    static_ckpt = span("synth.static",
                       [&] { return synthesizer.synthesize_static(rtl); });
    meta = core::StaticMetaEntry{static_ckpt->utilization};
    span("core.cache_store",
         [&] { cache.store_static_meta(meta_key, *meta); });
  }

  std::vector<floorplan::PartitionRequest> requests;
  for (int p = 0; p < static_cast<int>(rtl.partitions().size()); ++p)
    requests.push_back(
        {rtl.partitions()[p].name, rtl.partition_demand(lib, p)});
  const floorplan::Floorplanner planner(device);
  const floorplan::Floorplan plan = span("floorplan.plan", [&] {
    return planner.plan(requests, meta->utilization, opt.floorplan);
  });
  std::map<std::string, fabric::Pblock> pblocks;
  for (std::size_t p = 0; p < requests.size(); ++p)
    pblocks[requests[p].name] = plan.pblocks[p];

  span("core.strategy", [&] {
    core::StrategyInputs inputs;
    inputs.metrics = size;
    for (const Job& job : jobs) inputs.module_luts.push_back(job.resources.luts);
    inputs.static_region_luts = plan.static_capacity.luts;
    return core::choose_strategy(inputs, model, opt.semi_tau);
  });

  core::FlowCache::KeyBuilder pnr_kb;
  pnr_kb.add("perfbench-static-pnr").add(static_cast<long long>(meta_key));
  for (const fabric::Pblock& pb : plan.pblocks)
    pnr_kb.add(static_cast<long long>(pb.col_lo))
        .add(static_cast<long long>(pb.col_hi))
        .add(static_cast<long long>(pb.row_lo))
        .add(static_cast<long long>(pb.row_hi));
  const std::uint64_t pnr_key = pnr_kb.finish();

  // With the cache on, the flow defers OoC synthesis until after the
  // floorplan, when each member's key is known.
  std::vector<std::uint64_t> module_keys;
  std::vector<std::optional<core::ModuleEntry>> hits;
  std::vector<synth::Checkpoint> ooc(jobs.size());
  for (const Job& job : jobs) {
    core::FlowCache::KeyBuilder kb;
    kb.add("perfbench-module").add(static_cast<long long>(pnr_key));
    kb.add(job.module);
    add_resources(kb, job.resources);
    module_keys.push_back(kb.finish());
    hits.push_back(span("core.cache_load", [&] {
      return cache.load_module(module_keys.back());
    }));
  }
  for (std::size_t j = 0; j < jobs.size(); ++j)
    if (!hits[j])
      ooc[j] = span("synth.ooc", [&] {
        return synthesizer.synthesize_module_ooc(jobs[j].module);
      });

  const pnr::PnrEngine engine(device, opt.pnr);
  const bitstream::BitstreamGenerator bitgen(device);
  pnr::RoutingState state = engine.make_state();

  DesignImage img;
  double fmax = 1e9;
  auto static_hit =
      span("core.cache_load", [&] { return cache.load_static_pnr(pnr_key); });
  if (static_hit) {
    for (std::size_t e = 0; e < static_hit->usage.size(); ++e)
      if (static_hit->usage[e] != 0) state.add_usage(e, static_hit->usage[e]);
    img.full_bitstream_bytes =
        static_cast<std::size_t>(static_hit->full_bitstream_bytes);
    fmax = static_hit->fmax_mhz;
  } else {
    if (!static_ckpt)
      static_ckpt = span("synth.static",
                         [&] { return synthesizer.synthesize_static(rtl); });
    const pnr::PnrRun run = span("pnr.static", [&] {
      return engine.run_static(*static_ckpt, pblocks, state);
    });
    ++stats.runs;
    stats.routed += run.success() ? 1 : 0;
    img.full_bitstream_bytes = span("bitstream.gen", [&] {
      return bitgen.full(config.name, static_ckpt->netlist,
                         run.place.placement)
          .raw_bytes();
    });
    fmax = run.route.achieved_fmax_mhz;
    core::StaticPnrEntry entry;
    entry.ok = run.success();
    entry.fmax_mhz = fmax;
    entry.full_bitstream_bytes = img.full_bitstream_bytes;
    entry.cols = state.num_cols();
    entry.rows = state.num_rows();
    entry.usage.resize(state.num_edges());
    for (std::size_t e = 0; e < state.num_edges(); ++e)
      entry.usage[e] = state.usage(e);
    span("core.cache_store", [&] { cache.store_static_pnr(pnr_key, entry); });
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    core::ModuleEntry entry;
    if (hits[j]) {
      entry = std::move(*hits[j]);
    } else {
      const fabric::Pblock& pblock =
          plan.pblocks[static_cast<std::size_t>(jobs[j].partition)];
      const pnr::PnrRun run = span("pnr.partition", [&] {
        return engine.run_partition(ooc[j], pblock, state);
      });
      ++stats.runs;
      stats.routed += run.success() ? 1 : 0;
      entry.utilization = ooc[j].utilization;
      entry.routed = run.success();
      entry.fmax_mhz = run.route.achieved_fmax_mhz;
      entry.pbs = span("bitstream.gen", [&] {
        return bitgen.partial(config.name, jobs[j].module, pblock,
                              ooc[j].netlist, run.place.placement);
      });
      span("core.cache_store",
           [&] { cache.store_module(module_keys[j], entry); });
    }
    fmax = std::min(fmax, entry.fmax_mhz);
    img.modules.emplace_back(
        jobs[j].module,
        module_digest(jobs[j].module, entry.utilization, entry.routed,
                      entry.pbs.raw_bytes(), entry.pbs.compressed_bytes()));
  }
  img.fmax_mhz = fmax;
  return img;
}

bool same_image(const DesignImage& a, const DesignImage& b) {
  return a.modules == b.modules &&
         a.full_bitstream_bytes == b.full_bitstream_bytes &&
         a.fmax_mhz == b.fmax_mhz;
}

struct PassResult {
  double setup_s = 0.0;
  /// The reference probe timed right after the set-up.
  double setup_probe_s = 0.0;
  double cold_s = 0.0;
  double warm_s = 0.0;
  /// Host and CPU seconds of every run, cold runs first, and the reference
  /// probe timed right after each.
  std::vector<double> run_s;
  std::vector<double> run_cpu_s;
  std::vector<double> run_probe_s;
  std::vector<char> which;  // design order of `cold` and `warm`
  std::vector<core::FlowResult> cold;
  std::vector<core::FlowResult> warm;
};

/// One untraced pass: cold set, edit, warm set.
PassResult flow_pass(const Args& args, int threads, const std::string& dir) {
  PassResult r;
  const auto t0 = Clock::now();
  FlowSetup setup(args.seed, threads, dir);
  const core::PrEspFlow cold_flow(setup.device, setup.lib, setup.options);
  const core::PrEspFlow warm_flow(setup.device, setup.edited, setup.options);
  r.setup_s = seconds_since(t0);
  r.setup_probe_s = reference_probe();
  for (const Design& d : setup.designs) r.which.push_back(d.which);

  const auto run = [&](const core::PrEspFlow& flow, const Design& d,
                       std::vector<core::FlowResult>& into) {
    const double cpu0 = HostUsage::now().cpu_s();
    const auto t1 = Clock::now();
    into.push_back(flow.run(d.config));
    r.run_s.push_back(seconds_since(t1));
    r.run_cpu_s.push_back(HostUsage::now().cpu_s() - cpu0);
    r.run_probe_s.push_back(reference_probe());
  };
  for (const Design& d : setup.designs) run(cold_flow, d, r.cold);
  for (const Design& d : setup.designs) run(warm_flow, d, r.warm);
  for (std::size_t i = 0; i < r.run_s.size(); ++i)
    (i < r.cold.size() ? r.cold_s : r.warm_s) += r.run_s[i];
  return r;
}

}  // namespace

Outcome run_flow(const Args& args) {
  Outcome out;
  const int threads = hardware_threads();
  const std::string cache_dir = args.work_dir + "/flow_cache";
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;

  std::vector<double> setup_s, cold_s, warm_s;
  PartTimes host_parts, cpu_parts;
  HostSpeed speed;
  std::string first_digest;
  PassResult last;
  const HostUsage u0 = HostUsage::now();
  const auto t0 = Clock::now();
  repeat(untraced_s, 3, [&](int) {
    PassResult r = flow_pass(args, threads, cache_dir);
    const double ops = static_cast<double>(r.cold.size() + r.warm.size());
    setup_s.push_back(r.setup_s);
    speed.add(r.setup_probe_s);
    cold_s.push_back(r.cold_s);
    warm_s.push_back(r.warm_s);
    for (std::size_t i = 0; i < r.run_s.size(); ++i) {
      host_parts.add(i, r.run_s[i] / ops);
      cpu_parts.add(i, r.run_cpu_s[i] / ops);
      speed.add(r.run_probe_s[i]);
    }

    Digest digest;
    for (std::size_t i = 0; i < r.cold.size(); ++i) {
      for (const core::FlowResult* res : {&r.cold[i], &r.warm[i]}) {
        ++out.attempted;
        if (!res->physical_ok || !res->timing_met) {
          ++out.failed;
          out.check(false, res->design + " not routed or misses timing");
        }
      }
      out.check(warm_matches_cold(image_of(r.cold[i]), image_of(r.warm[i])),
                r.cold[i].design +
                    ": warm re-run differs from cold on unedited modules");
      out.check(r.warm[i].cache.hits > 0 &&
                    r.warm[i].cache.poisoned == 0,
                r.cold[i].design + ": warm re-run did not hit the cache");
      add_digest(digest, r.cold[i]);
      add_digest(digest, r.warm[i]);
    }
    if (first_digest.empty()) first_digest = digest.hex();
    out.check(digest.hex() == first_digest,
              "flow outputs differ between passes");
    last = std::move(r);
  });
  const double untraced_wall = seconds_since(t0);
  const double untraced_sys = HostUsage::now().sys_s - u0.sys_s;
  std::filesystem::remove_all(cache_dir);
  out.digest = first_digest;

  Metrics& m = out.metrics;
  m.set("setup_s", speed.at_reference(median(setup_s) * 1e3) / 1e3, "s");
  m.set("host_ms_per_op", speed.at_reference(host_parts.sum_ms()), "ms");
  m.set("cpu_ms_per_op", speed.at_reference(cpu_parts.sum_ms()), "ms");
  if (!args.trace) return out;

  m.set("host.raw_ms_per_op", host_parts.sum_ms(), "ms");
  m.set("host.probe_ms", speed.probe_ms(), "ms");
  m.set("host.raw_setup_s", median(setup_s), "s");

  // ---- per-layer, from the untraced passes above
  double model_min = 0.0, table5_err = 0.0, busy = 0.0, exec_wall = 0.0,
         model_speedup = 0.0;
  std::uint64_t tasks = 0, steals = 0, steal_failures = 0, parks = 0,
                hits = 0, probes = 0;
  for (std::size_t i = 0; i < last.cold.size(); ++i) {
    const core::FlowResult& r = last.cold[i];
    model_min += r.total_minutes;
    if (last.which[i] != 'X')
      table5_err += std::abs(r.total_minutes -
                             kTable5Minutes[last.which[i] - 'A']) /
                    kTable5Minutes[last.which[i] - 'A'] / 4.0;
    tasks += r.exec.tasks;
    steals += r.exec.steals;
    steal_failures += r.exec.steal_failures;
    parks += r.exec.parks;
    busy += r.exec.busy_seconds;
    exec_wall += r.exec.wall_seconds;
    model_speedup +=
        r.exec.model_speedup / static_cast<double>(last.cold.size());
  }
  for (const core::FlowResult& r : last.warm) {
    hits += r.cache.hits;
    probes += r.cache.hits + r.cache.misses;
  }
  m.set("flow_cold_s", median(cold_s), "s");
  m.set("flow_warm_s", median(warm_s), "s");
  m.set("flow_model_min", model_min, "min");
  m.set("failed_ratio",
        static_cast<double>(out.failed) / static_cast<double>(out.attempted),
        "ratio");
  m.set("core.table5_err", table5_err, "ratio");
  m.set("core.cache_hit_ratio",
        probes ? static_cast<double>(hits) / static_cast<double>(probes) : 0.0,
        "ratio");
  m.set("exec.tasks", static_cast<double>(tasks), "count");
  m.set("exec.busy_over_wall", exec_wall > 0.0 ? busy / exec_wall : 0.0,
        "ratio");
  m.set("exec.steals", static_cast<double>(steals), "count");
  m.set("exec.steal_failures", static_cast<double>(steal_failures), "count");
  m.set("exec.parks", static_cast<double>(parks), "count");
  m.set("exec.model_speedup", model_speedup, "ratio");
  m.set("host.sys_ratio", untraced_sys / untraced_wall, "ratio");

  // ---- traced passes: PrEspFlow::run at one thread (untimed by spans),
  // then the stage replica at one thread under spans.
  const std::string replica_dir = args.work_dir + "/flow_replica_cache";
  std::vector<double> other_s, overhead, covered;
  std::map<std::string, std::vector<double>> stage;
  std::vector<double> ooc_calls, partition_calls, routed_ratio;
  const char* kStages[] = {"synth.static", "synth.ooc",   "floorplan.plan",
                           "pnr.static",   "pnr.partition", "bitstream.gen",
                           "core.cache_store", "core.cache_load"};
  trace_start();
  repeat(args.seconds / 2, 1, [&](int) {
    const PassResult serial = flow_pass(args, 1, cache_dir);
    FlowSetup setup(args.seed, 1, replica_dir);
    const core::PrEspFlow model_flow(setup.device, setup.lib, setup.options);
    core::FlowCache cache(setup.options.cache);
    Spans span;
    ReplicaStats stats;

    const auto t1 = Clock::now();
    std::vector<DesignImage> cold;
    for (const Design& d : setup.designs)
      cold.push_back(replicate(d, setup, setup.lib, model_flow.model(), cache,
                               span, stats));
    const double cold_wall = seconds_since(t1);
    double cold_stages = 0.0;
    for (const char* name : kStages) cold_stages += span.total(name);
    const auto t2 = Clock::now();
    std::vector<DesignImage> warm;
    for (const Design& d : setup.designs)
      warm.push_back(replicate(d, setup, setup.edited, model_flow.model(),
                               cache, span, stats));
    const double traced_wall = cold_wall + seconds_since(t2);

    for (std::size_t i = 0; i < cold.size(); ++i) {
      out.check(same_image(cold[i], image_of(serial.cold[i])),
                serial.cold[i].design +
                    ": stage replica differs from PrEspFlow::run (cold)");
      out.check(same_image(warm[i], image_of(serial.warm[i])),
                serial.cold[i].design +
                    ": stage replica differs from PrEspFlow::run (warm)");
    }
    other_s.push_back(serial.cold_s - cold_stages);
    overhead.push_back(traced_wall / (serial.cold_s + serial.warm_s) - 1.0);
    covered.push_back(span.covered() / traced_wall);
    for (const char* name : kStages) stage[name].push_back(span.total(name));
    ooc_calls.push_back(static_cast<double>(span.count("synth.ooc")));
    partition_calls.push_back(
        static_cast<double>(span.count("pnr.partition")));
    routed_ratio.push_back(static_cast<double>(stats.routed) /
                           static_cast<double>(stats.runs));
  });
  trace_stop(args.trace_out);
  std::filesystem::remove_all(cache_dir);
  std::filesystem::remove_all(replica_dir);

  m.set("synth.static_s", median(stage["synth.static"]), "s");
  m.set("synth.ooc_s", median(stage["synth.ooc"]), "s");
  m.set("synth.ooc_calls", median(ooc_calls), "count");
  m.set("floorplan.plan_s", median(stage["floorplan.plan"]), "s");
  m.set("pnr.static_s", median(stage["pnr.static"]), "s");
  m.set("pnr.partition_s", median(stage["pnr.partition"]), "s");
  m.set("pnr.partition_calls", median(partition_calls), "count");
  m.set("pnr.routed_ratio", median(routed_ratio), "ratio");
  m.set("bitstream.gen_s", median(stage["bitstream.gen"]), "s");
  m.set("core.cache_store_s", median(stage["core.cache_store"]), "s");
  m.set("core.cache_load_s", median(stage["core.cache_load"]), "s");
  m.set("core.flow_other_s", median(other_s), "s");
  m.set("trace.overhead_ratio", median(overhead), "ratio");
  m.set("trace.covered_ratio", median(covered), "ratio");
  return out;
}

}  // namespace perfbench
