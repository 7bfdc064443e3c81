// Fleet topology & policy, parsed from the `[fleet]` section of an
// .esp_config file (examples/configs/fleet_small.esp_config has one). QoS
// classes are rows `class_<name> = weight, tokens_per_quantum, burst,
// queue_bound, deadline_quanta`; every other key sets one field below.
// topology_schema() is the section's single source of keys, bounds and
// (through the member initializers) defaults: from_config(), validate()
// (which FleetManager runs) and the presp-lint `fleet.*` rules come from it.
#pragma once

#include <optional>
#include <string>

#include "fleet/breaker.hpp"
#include "fleet/types.hpp"
#include "lint/schema.hpp"
#include "util/config.hpp"

namespace presp::fleet {

struct FleetTopology {
  /// Independent SoC instances driven in lock-step quanta.
  int shards = 2;
  /// Fleet scheduling quantum: each shard's kernel advances this many
  /// cycles between admission/dispatch/reap passes.
  long long quantum_cycles = 4'000;
  /// Max followers coalesced onto one in-flight reconfiguration.
  int coalesce_limit = 4;
  /// Dispatch estimate used for reject-early deadline shedding.
  long long service_estimate_cycles = 120'000;
  /// Modeled latency of the best-effort software fallback path.
  long long fallback_latency_cycles = 400'000;
  /// Cycles an injected shard stall freezes a shard's kernel.
  long long stall_cycles = 400'000;
  /// Arrival multiplier while an injected burst overload is active.
  int burst_multiplier = 8;
  /// Tenant-level token bucket layered *under* the per-class buckets:
  /// consumed at submit time, before class admission. 0 disables tenant
  /// throttling entirely (the default — class buckets alone govern).
  double tenant_tokens_per_quantum = 0.0;
  /// Tenant bucket capacity (burst allowance). Ignored while disabled.
  double tenant_burst = 8.0;
  /// Online defragmentation: when true every shard runs a background
  /// runtime::Repacker over a dynamic floorplan of its fabric
  /// (`repack = 1` in the config; the knobs below are checked only then).
  bool repack = false;
  /// Cycles between repack passes on each shard. Must stay positive.
  long long repack_interval_cycles = 2'000'000;
  /// Fragmentation ratio a pass must exceed before it migrates.
  double repack_frag_threshold = 0.05;
  /// Migrations attempted per pass.
  int repack_max_migrations = 4;
  /// Consecutive aborted/failed migrations tolerated per pass.
  int repack_migration_budget = 2;
  /// Indexed by QosClass.
  QosClassParams classes[kNumQosClasses] = {
      {8.0, 4.0, 8.0, 32, 600},     // realtime
      {4.0, 2.0, 16.0, 64, 2000},   // standard
      {1.0, 1.0, 32.0, 128, 8000},  // besteffort
  };
  BreakerOptions breaker;

  /// Reads the `[fleet]` section (missing keys keep defaults; a missing
  /// section returns the default topology). Throws ConfigError on an
  /// unknown key or a malformed value.
  static FleetTopology from_config(const Config& config);

  /// Throws presp::InvalidArgument on the first failing error row of
  /// topology_schema(): values the manager cannot run with.
  void validate() const;
};

/// The `[fleet]` key schema. `retry_budget` (the foreground retry budget
/// the shards' managers run with) adds the lint-only warning that the
/// repack migration budget must not exceed it.
schema::Table<FleetTopology> topology_schema(
    std::optional<int> retry_budget = std::nullopt);

}  // namespace presp::fleet
