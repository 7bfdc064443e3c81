// The `wami` workload: the paper's application path. Each pass builds
// wami::WamiApp for SoC_X, SoC_Y and SoC_Z (Table VI) at the Fig. 4
// bench's frame size (128x128, 4 frames, 2 Lucas-Kanade iterations) with
// functional execution and bit-exact verification on, the pipelined
// manager, a 2-slot bitstream-store LRU cache (smaller than any tile's
// kernel set, so the store evicts) and next-kernel prefetch, then runs the
// three apps. The seed generates the scene (camera drift, movers, noise).
#include <cmath>
#include <memory>

#include "common.hpp"
#include "noc/noc.hpp"
#include "util/rng.hpp"
#include "wami/app.hpp"
#include "wami/frame_generator.hpp"
#include "wami/pipeline.hpp"

namespace perfbench {
namespace {

using namespace presp;

constexpr char kSocs[] = {'X', 'Y', 'Z'};
constexpr int kFrames = 4;
constexpr int kLkIterations = 2;
/// Paper Fig. 4 ratios: time X/Y, time X/Z, energy Y/X, energy Z/X.
constexpr double kFig4[] = {2.6, 3.6, 1.65, 2.77};

wami::SceneOptions scene_for(std::uint64_t seed) {
  Rng rng(seed);
  wami::SceneOptions scene;
  scene.seed = seed;
  scene.drift_x = rng.next_double(-2.0, 2.0);
  scene.drift_y = rng.next_double(-2.0, 2.0);
  scene.num_objects = 1 + static_cast<int>(rng.next_below(5));
  scene.object_speed = rng.next_double(1.0, 3.5);
  scene.noise_sigma = rng.next_double(1.0, 3.0);
  return scene;
}

wami::WamiAppOptions app_options(const wami::SceneOptions& scene) {
  wami::WamiAppOptions opt;
  opt.workload = {128, 128};
  opt.frames = kFrames;
  opt.lk_iterations = kLkIterations;
  opt.functional = true;
  opt.verify = true;
  opt.scene = scene;
  opt.manager.pipelined = true;
  opt.store.cache_slots = 2;
  opt.prefetch_next_kernel = true;
  return opt;
}

struct Pass {
  double setup_s = 0.0;
  /// The reference probe timed right after the set-up (untraced passes).
  double setup_probe_s = 0.0;
  double run_s = 0.0;
  /// Host and CPU seconds of each app's run(), and the reference probe
  /// timed right after it (untraced passes).
  std::vector<double> app_run_s;
  std::vector<double> app_cpu_s;
  std::vector<double> app_probe_s;
  std::vector<wami::WamiAppResult> results;
  std::uint64_t events = 0;
  runtime::ManagerStats manager;
  runtime::StoreStats store;
  noc::NocStats noc;
};

void accumulate(Pass& p, wami::WamiApp& app) {
  p.events += app.soc().kernel().events_executed();
  const runtime::ManagerStats& m = app.manager().stats();
  p.manager.reconfigurations += m.reconfigurations;
  p.manager.reconfigurations_avoided += m.reconfigurations_avoided;
  p.manager.driver_swaps += m.driver_swaps;
  p.manager.reconfiguration_cycles += m.reconfiguration_cycles;
  p.manager.prc_wait_cycles += m.prc_wait_cycles;
  p.manager.lock_wait_cycles += m.lock_wait_cycles;
  const runtime::StoreStats& s = app.store().stats();
  p.store.hits += s.hits;
  p.store.misses += s.misses;
  p.store.evictions += s.evictions;
  p.store.source_bytes += s.source_bytes;
  for (int plane = 0; plane < noc::kNumPlanes; ++plane) {
    const noc::NocStats& n =
        app.soc().noc().stats(static_cast<noc::Plane>(plane));
    p.noc.packets += n.packets;
    p.noc.flits += n.flits;
    p.noc.total_latency += n.total_latency;
  }
}

/// Builds and runs the three apps; `span` wraps each public call.
Pass wami_pass(const wami::SceneOptions& scene, Spans* span) {
  Pass p;
  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<wami::WamiApp>> apps;
  for (const char which : kSocs) {
    const auto build = [&] {
      return std::make_unique<wami::WamiApp>(which, app_options(scene));
    };
    apps.push_back(span ? (*span)("soc.build", build) : build());
  }
  p.setup_s = seconds_since(t0);
  if (!span) p.setup_probe_s = reference_probe();

  for (auto& app : apps) {
    const auto run = [&] { return app->run(); };
    const double cpu0 = HostUsage::now().cpu_s();
    const auto t1 = Clock::now();
    p.results.push_back(span ? (*span)("wami.run", run) : run());
    p.app_run_s.push_back(seconds_since(t1));
    p.app_cpu_s.push_back(HostUsage::now().cpu_s() - cpu0);
    if (!span) p.app_probe_s.push_back(reference_probe());
    p.run_s += p.app_run_s.back();
  }
  for (auto& app : apps) accumulate(p, *app);
  return p;
}

double probe_total_s(const Pass& p) {
  double total = p.setup_probe_s;
  for (const double s : p.app_probe_s) total += s;
  return total;
}

std::string digest_of(const Pass& p) {
  Digest d;
  for (const wami::WamiAppResult& r : p.results) {
    d.add(static_cast<std::uint64_t>(r.soc)).add(r.seconds_per_frame);
    d.add(r.joules_per_frame).add(r.reconfigurations).add(r.icap_bytes);
    for (const double v : r.params) d.add(v);
    for (const wami::FrameStats& f : r.frames)
      d.add(f.seconds).add(f.joules).add(
          static_cast<std::uint64_t>(f.reconfigurations));
  }
  return d.add(p.events).hex();
}

}  // namespace

Outcome run_wami(const Args& args) {
  Outcome out;
  const wami::SceneOptions scene = scene_for(args.seed);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;

  std::vector<double> setup_s, fps, pass_s;
  PartTimes host_parts, cpu_parts;
  HostSpeed speed;
  Pass last;
  const HostUsage u0 = HostUsage::now();
  const auto t0 = Clock::now();
  repeat(untraced_s, 5, [&](int) {
    const auto t_pass = Clock::now();
    Pass p = wami_pass(scene, nullptr);
    pass_s.push_back(seconds_since(t_pass) - probe_total_s(p));
    std::uint64_t frames = 0;
    for (const wami::WamiAppResult& r : p.results) {
      for (const wami::FrameStats& f : r.frames) {
        ++frames;
        if (!f.verified) ++out.failed;
      }
      out.check(r.all_verified && r.frames_lost == 0,
                std::string("SoC_") + r.soc +
                    ": a frame failed bit-exact verification");
    }
    out.attempted += frames;
    const std::string digest = digest_of(p);
    if (out.digest.empty()) out.digest = digest;
    out.check(digest == out.digest, "wami outputs differ between passes");
    setup_s.push_back(p.setup_s);
    speed.add(p.setup_probe_s);
    for (std::size_t i = 0; i < p.app_run_s.size(); ++i) {
      const double per_frame = 1.0 / static_cast<double>(frames);
      host_parts.add(i, p.app_run_s[i] * per_frame);
      cpu_parts.add(i, p.app_cpu_s[i] * per_frame);
      speed.add(p.app_probe_s[i]);
    }
    fps.push_back(static_cast<double>(frames) / p.run_s);
    last = std::move(p);
  });
  const double untraced_wall = seconds_since(t0);
  const double untraced_sys = HostUsage::now().sys_s - u0.sys_s;

  Metrics& m = out.metrics;
  m.set("setup_s", speed.at_reference(median(setup_s) * 1e3) / 1e3, "s");
  m.set("host_ms_per_op", speed.at_reference(host_parts.sum_ms()), "ms");
  m.set("cpu_ms_per_op", speed.at_reference(cpu_parts.sum_ms()), "ms");
  if (!args.trace) return out;

  m.set("host.raw_ms_per_op", host_parts.sum_ms(), "ms");
  m.set("host.probe_ms", speed.probe_ms(), "ms");
  m.set("host.raw_setup_s", median(setup_s), "s");

  // ---- per-layer, from the untraced passes above
  double sim_ms = 0.0, sim_mj = 0.0;
  std::uint64_t icap = 0;
  for (const wami::WamiAppResult& r : last.results) {
    sim_ms += r.seconds_per_frame * 1e3 / 3.0;
    sim_mj += r.joules_per_frame * 1e3 / 3.0;
    icap += r.icap_bytes;
  }
  const wami::WamiAppResult& x = last.results[0];
  const wami::WamiAppResult& y = last.results[1];
  const wami::WamiAppResult& z = last.results[2];
  const double ratios[] = {x.seconds_per_frame / y.seconds_per_frame,
                           x.seconds_per_frame / z.seconds_per_frame,
                           y.joules_per_frame / x.joules_per_frame,
                           z.joules_per_frame / x.joules_per_frame};
  double fig4_err = 0.0;
  for (int i = 0; i < 4; ++i)
    fig4_err += std::abs(ratios[i] - kFig4[i]) / kFig4[i] / 4.0;

  m.set("wami_frames_per_s", median(fps), "1/s");
  m.set("wami_sim_ms_per_frame", sim_ms, "ms");
  m.set("wami_sim_mj_per_frame", sim_mj, "mJ");
  m.set("failed_ratio",
        static_cast<double>(out.failed) / static_cast<double>(out.attempted),
        "ratio");
  m.set("wami.fig4_err", fig4_err, "ratio");
  m.set("soc.icap_mib", static_cast<double>(icap) / (1 << 20), "MiB");
  m.set("host.sys_ratio", untraced_sys / untraced_wall, "ratio");
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
  const runtime::StoreStats& ss = last.store;
  m.set("runtime.store_hit_ratio",
        static_cast<double>(ss.hits) /
            static_cast<double>(std::max<std::uint64_t>(1, ss.hits + ss.misses)),
        "ratio");
  m.set("runtime.store_evictions", static_cast<double>(ss.evictions),
        "count");
  m.set("runtime.store_fetch_kib", static_cast<double>(ss.source_bytes) / 1024,
        "KiB");
  m.set("noc.packets", static_cast<double>(last.noc.packets), "count");
  m.set("noc.flits", static_cast<double>(last.noc.flits), "count");
  m.set("noc.mean_latency_cycles",
        static_cast<double>(last.noc.total_latency) /
            static_cast<double>(std::max<std::uint64_t>(1, last.noc.packets)),
        "cycles");
  m.set("sim.events", static_cast<double>(last.events), "count");

  // ---- traced passes: the same build + run under spans, then the
  // host-side WamiPipeline on the same frames.
  std::vector<double> build_s, run_s, events_per_s, pipeline_ms, overhead,
      covered;
  trace_start();
  repeat(args.seconds / 2, 3, [&](int) {
    Spans span;
    const auto t1 = Clock::now();
    const Pass p = wami_pass(scene, &span);
    const double mirrored = seconds_since(t1);  // same work as a pass
    out.check(digest_of(p) == out.digest,
              "traced wami pass differs from the untraced passes");

    wami::FrameGenerator generator(scene);
    std::vector<wami::ImageU16> frames;
    for (int i = 0; i < kFrames; ++i) frames.push_back(generator.next_frame());
    wami::PipelineOptions popt;
    popt.lk_iterations = kLkIterations;
    popt.threads = 1;
    wami::WamiPipeline pipeline(popt);
    for (const wami::ImageU16& f : frames)
      span("wami.pipeline", [&] { return pipeline.process(f); });
    const double traced = seconds_since(t1);

    build_s.push_back(span.total("soc.build"));
    run_s.push_back(span.total("wami.run"));
    events_per_s.push_back(static_cast<double>(p.events) /
                           span.total("wami.run"));
    pipeline_ms.push_back(span.total("wami.pipeline") * 1e3 / kFrames);
    overhead.push_back(mirrored / median(pass_s) - 1.0);
    covered.push_back(span.covered() / traced);
  });
  trace_stop(args.trace_out);

  m.set("soc.build_s", median(build_s), "s");
  m.set("wami.run_s", median(run_s), "s");
  m.set("sim.events_per_s", median(events_per_s), "1/s");
  m.set("wami.pipeline_frame_ms", median(pipeline_ms), "ms");
  m.set("trace.overhead_ratio", median(overhead), "ratio");
  m.set("trace.covered_ratio", median(covered), "ratio");
  return out;
}

}  // namespace perfbench
