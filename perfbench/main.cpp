// presp_perfbench: the repo benchmark's binary (run.py builds and
// runs it). One invocation runs one workload:
//
//   presp_perfbench --workload flow|wami|fleet --seed <n> --seconds <s>
//                   --trace 0|1 [--work-dir <dir>] [--trace-out <json>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// first repeats the untraced measurement for half the time, then traces
// the same public calls for the other half and reports the per-layer
// metrics. The last stdout line is the result JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

namespace perfbench {

// ------------------------------------------------------------ plumbing

namespace {
/// Steps of one reference probe (about kProbeMs on the calibration host).
constexpr int kProbeSteps = 1'000'000;
/// Keeps the probe's result observable so the loop is not optimised away.
volatile std::uint32_t probe_sink = 0;
}  // namespace

HostUsage HostUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_)
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  entries_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return e.value;
  return NAN;
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

Spans::Scope::Scope(Spans& spans, const char* name)
    : spans_(spans), name_(name), t0_(Clock::now()) {
  presp::trace::begin(presp::trace::Category::kApp, name_);
  ++spans_.depth_;
}

Spans::Scope::~Scope() {
  --spans_.depth_;
  presp::trace::end(presp::trace::Category::kApp, name_);
  const double dt = seconds_since(t0_);
  spans_.totals_[name_] += dt;
  ++spans_.counts_[name_];
  if (spans_.depth_ == 0) spans_.covered_s_ += dt;
}

double Spans::total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

std::uint64_t Spans::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

void trace_start() {
  presp::trace::TraceConfig config;
  config.categories = static_cast<std::uint32_t>(presp::trace::Category::kApp);
  presp::trace::TraceSession::instance().start(config);
}

void trace_stop(const std::string& path) {
  const presp::trace::TraceReport report =
      presp::trace::TraceSession::instance().stop();
  if (!path.empty()) presp::trace::write_chrome_trace(report, path);
}

void repeat(double seconds, int min_passes,
            const std::function<void(int)>& pass) {
  const auto t0 = Clock::now();
  for (int i = 0; i < min_passes || seconds_since(t0) < seconds; ++i)
    pass(i);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double reference_probe() {
  static std::vector<std::uint32_t> table(1u << 20);
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint32_t acc = 0;
  for (int i = 0; i < kProbeSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& cell = table[x & (table.size() - 1)];
    cell += static_cast<std::uint32_t>(x);
    acc += cell;
  }
  probe_sink = acc;
  return seconds_since(t0);
}

void PartTimes::add(std::size_t part, double seconds) {
  if (part >= ms_.size()) ms_.resize(part + 1);
  ms_[part].push_back(seconds * 1e3);
}

double PartTimes::sum_ms() const {
  double total = 0.0;
  for (const std::vector<double>& ms : ms_) total += median(ms);
  return total;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

Digest& Digest::add(const std::string& s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  return add(static_cast<std::uint64_t>(s.size()));
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

int hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// ------------------------------------------------------- metric catalog

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them, untraced.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"host_ms_per_op", "ms"},
    {"cpu_ms_per_op", "ms"},
};

/// Per-layer metrics: every traced run reports all of them; a layer the
/// workload does not call reports 0 (BENCHMARK.json's per_layer list and
/// METRICS.md document which workload moves which).
constexpr MetricDef kPerLayer[] = {
    {"flow_cold_s", "s"},
    {"flow_warm_s", "s"},
    {"flow_model_min", "min"},
    {"wami_frames_per_s", "1/s"},
    {"wami_sim_ms_per_frame", "ms"},
    {"wami_sim_mj_per_frame", "mJ"},
    {"fleet_us_per_request", "us"},
    {"fleet_p50_cycles", "cycles"},
    {"fleet_p99_cycles", "cycles"},
    {"fleet_latency_samples", "count"},
    {"fleet_on_time_ratio", "ratio"},
    {"failed_ratio", "ratio"},
    {"synth.static_s", "s"},
    {"synth.ooc_s", "s"},
    {"synth.ooc_calls", "count"},
    {"floorplan.plan_s", "s"},
    {"pnr.static_s", "s"},
    {"pnr.partition_s", "s"},
    {"pnr.partition_calls", "count"},
    {"pnr.routed_ratio", "ratio"},
    {"bitstream.gen_s", "s"},
    {"core.cache_store_s", "s"},
    {"core.cache_load_s", "s"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.flow_other_s", "s"},
    {"core.table5_err", "ratio"},
    {"exec.tasks", "count"},
    {"exec.busy_over_wall", "ratio"},
    {"exec.steals", "count"},
    {"exec.steal_failures", "count"},
    {"exec.parks", "count"},
    {"exec.model_speedup", "ratio"},
    {"soc.build_s", "s"},
    {"soc.icap_mib", "MiB"},
    {"host.sys_ratio", "ratio"},
    {"host.raw_ms_per_op", "ms"},
    {"host.probe_ms", "ms"},
    {"host.raw_setup_s", "s"},
    {"wami.run_s", "s"},
    {"wami.pipeline_frame_ms", "ms"},
    {"wami.fig4_err", "ratio"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"runtime.reconfigurations", "count"},
    {"runtime.reconfigurations_avoided", "count"},
    {"runtime.driver_swaps", "count"},
    {"runtime.reconfiguration_cycles", "cycles"},
    {"runtime.prc_wait_cycles", "cycles"},
    {"runtime.lock_wait_cycles", "cycles"},
    {"runtime.store_hit_ratio", "ratio"},
    {"runtime.store_evictions", "count"},
    {"runtime.store_fetch_kib", "KiB"},
    {"runtime.repacks", "count"},
    {"noc.packets", "count"},
    {"noc.flits", "count"},
    {"noc.mean_latency_cycles", "cycles"},
    {"fleet.submit_s", "s"},
    {"fleet.step_s", "s"},
    {"fleet.drain_s", "s"},
    {"fleet.step_us_p99", "us"},
    {"fleet.shed_ratio", "ratio"},
    {"fleet.admitted_miss_ratio", "ratio"},
    {"fleet.breaker_opens", "count"},
    {"fleet.coalesce_ratio", "ratio"},
    {"floorplan.frag_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.covered_ratio", "ratio"},
};

/// Result metrics in catalog order: every catalog entry, none other.
template <std::size_t N>
Metrics select(const Metrics& from, const MetricDef (&catalog)[N],
               bool zero_fill, Outcome& out) {
  Metrics m;
  for (const MetricDef& def : catalog) {
    double v = from.get(def.name);
    if (std::isnan(v)) {
      out.check(zero_fill, std::string("metric not measured: ") + def.name);
      v = 0.0;
    }
    m.set(def.name, v, def.unit);
  }
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: presp_perfbench --workload flow|wami|fleet --seed <n> "
               "--seconds <s> --trace 0|1 [--work-dir <dir>] "
               "[--trace-out <json>]\n");
  return 2;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  presp::set_log_level(presp::LogLevel::kWarn);

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") args.workload = v;
    else if (a == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") args.seconds = std::atof(v.c_str());
    else if (a == "--trace") args.trace = v == "1";
    else if (a == "--work-dir") args.work_dir = v;
    else if (a == "--trace-out") args.trace_out = v;
    else return usage();
  }
  if (args.seconds <= 0.0) return usage();

  std::printf("fingerprint: hardware_threads=%d compiler=\"g++ %s\" "
              "build_type=%s cxx_flags=\"%s\" sanitizers=%s\n",
              hardware_threads(), __VERSION__, PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, sanitized_build() ? "yes" : "none");
  if (sanitized_build()) {
    std::fprintf(stderr, "refusing to report numbers from a sanitizer "
                         "build\n");
    return 3;
  }

  const auto wall0 = Clock::now();
  Outcome outcome;
  try {
    if (args.workload == "flow") outcome = run_flow(args);
    else if (args.workload == "wami") outcome = run_wami(args);
    else if (args.workload == "fleet") outcome = run_fleet(args);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s threw: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  const double wall = seconds_since(wall0);
  const HostUsage host = HostUsage::now();

  if (!args.trace)
    outcome.metrics.set("peak_rss_mib", host.maxrss_mib, "MiB");
  const Metrics reported =
      args.trace ? select(outcome.metrics, kPerLayer, true, outcome)
                 : select(outcome.metrics, kEndToEnd, false, outcome);

  std::printf("host: wall_s=%.6f user_s=%.6f sys_s=%.6f maxrss_mib=%.3f\n",
              wall, host.user_s, host.sys_s, host.maxrss_mib);
  std::printf("digest: %s %s\n", args.workload.c_str(),
              outcome.digest.c_str());
  for (const std::string& e : outcome.errors)
    std::printf("check failed: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              reported.json().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
