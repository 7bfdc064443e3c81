// Shared plumbing of the repo benchmark: command-line arguments, host
// clocks and getrusage accounting, the metric sink that becomes the final
// JSON line, and the span recorder of the traced runs.
//
// The benchmark drives the program only through the public headers of its
// modules. Every span is recorded here, around those public calls; nothing
// is instrumented inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for flow caches (inside the checkout).
  std::string work_dir = ".bench_build/work";
  /// Chrome-trace JSON of the traced run (empty = not written).
  std::string trace_out;
};

/// Process-wide host accounting (getrusage RUSAGE_SELF).
struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double maxrss_mib = 0.0;
  static HostUsage now();
  double cpu_s() const { return user_s + sys_s; }
};

/// Named metric values in insertion order, rendered as the result JSON.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What a workload hands back to main().
struct Outcome {
  Metrics metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Stable digest of the simulated/implemented outputs: changes whenever
  /// simulated behaviour changes, even if no metric worsens.
  std::string digest;
  /// Human-readable reasons for `correct == false`.
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }
};

/// Span recorder for the traced run. Each span times one public call,
/// accumulates its duration and count under the span's name and, while
/// the trace session is armed, mirrors it as a host-clock begin/end pair
/// through presp::trace so the run can be written as Chrome-trace JSON.
class Spans {
 public:
  template <class F>
  decltype(auto) operator()(const char* name, F&& f) {
    Scope scope(*this, name);
    return f();
  }

  double total(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
  /// Host seconds covered by outermost spans.
  double covered() const { return covered_s_; }

 private:
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    const char* name_;
    Clock::time_point t0_;
  };

  std::map<std::string, double> totals_;
  std::map<std::string, std::uint64_t> counts_;
  int depth_ = 0;
  double covered_s_ = 0.0;
};

/// Arms the trace session for the benchmark's spans (category kApp only,
/// so the program's own high-volume categories stay off).
void trace_start();
/// Disarms the session and writes what it recorded as Chrome-trace JSON
/// (readable by `presp-trace summarize`) to `path`, when non-empty.
void trace_stop(const std::string& path);

/// Runs `pass(i)` at least `min_passes` times and until `seconds` of wall
/// time have elapsed since the first pass began.
void repeat(double seconds, int min_passes,
            const std::function<void(int)>& pass);

double median(std::vector<double> values);

/// Host-speed reference: one fixed loop of pseudo-random
/// read-modify-writes over a 4 MiB table, which shares no code with the
/// program. Returns its host seconds. Other tenants of a shared host slow
/// every thread on it for stretches of seconds to minutes (an SMT sibling
/// or a cache neighbour turning busy), so identical runs of a workload can
/// differ by a third in host time; the probe slows with them.
double reference_probe();

/// Host milliseconds of one reference probe on a quiet 4-vCPU Xeon VM, the
/// machine the benchmark was calibrated on. It fixes the reference speed
/// and is the same for every run and commit.
constexpr double kProbeMs = 6.0;

/// Per-part host times over a run's passes. Every pass times the same
/// parts (one design run, one app run, one soak); the sum of the parts'
/// medians is the host time of one pass.
class PartTimes {
 public:
  void add(std::size_t part, double seconds);
  /// Sum over parts of the median time, in host ms.
  double sum_ms() const;

 private:
  std::vector<std::vector<double>> ms_;
};

/// The reference probes of a run, timed between its parts, and the host
/// speed they show. A run's median part time over its median probe time
/// follows the program and cancels the host's speed. The ratio is taken
/// between run medians, not per part: one short probe is noisier than the
/// part next to it, while the medians see the same mix of host phases.
class HostSpeed {
 public:
  void add(double probe_s) { probe_ms_.push_back(probe_s * 1e3); }
  /// Median host ms of the run's probes.
  double probe_ms() const { return median(probe_ms_); }
  /// `host_ms` measured in this run, rescaled to the reference speed (one
  /// probe in kProbeMs).
  double at_reference(double host_ms) const {
    return host_ms * kProbeMs / probe_ms();
  }

 private:
  std::vector<double> probe_ms_;
};

/// Nearest-rank percentile (p in [0,1]) of an unsorted sample.
double percentile(std::vector<double> values, double p);

/// FNV-1a accumulation for output digests.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(const std::string& s);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Hardware threads the workloads may use (pool widths never exceed it).
int hardware_threads();

Outcome run_flow(const Args& args);
Outcome run_wami(const Args& args);
Outcome run_fleet(const Args& args);

}  // namespace perfbench
