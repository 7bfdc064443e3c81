#include "fleet/topology.hpp"

#include <algorithm>

#include "runtime/repacker.hpp"
#include "util/string_utils.hpp"

namespace presp::fleet {

const char* to_string(QosClass cls) {
  switch (cls) {
    case QosClass::kRealtime: return "realtime";
    case QosClass::kStandard: return "standard";
    case QosClass::kBestEffort: return "besteffort";
  }
  return "?";
}

const char* to_string(FleetError error) {
  switch (error) {
    case FleetError::kNone: return "none";
    case FleetError::kThrottled: return "throttled";
    case FleetError::kTenantThrottled: return "tenant-throttled";
    case FleetError::kQueueFull: return "queue-full";
    case FleetError::kDeadlineShed: return "deadline-shed";
    case FleetError::kSaturated: return "saturated";
    case FleetError::kShardUnavailable: return "shard-unavailable";
    case FleetError::kExecFailed: return "exec-failed";
  }
  return "?";
}

namespace {

/// Parses a QoS class row; missing trailing fields keep the defaults.
void parse_class(QosClassParams& p, const std::string& text) {
  const std::vector<std::string> f = split(text, ',');
  if (f.size() > 5)
    throw ConfigError("QoS class row has " + std::to_string(f.size()) +
                      " fields (weight, tokens_per_quantum, burst, "
                      "queue_bound, deadline_quanta)");
  if (!f.empty()) schema::parse_into(p.weight, f[0]);
  if (f.size() > 1) schema::parse_into(p.tokens_per_quantum, f[1]);
  if (f.size() > 2) schema::parse_into(p.burst, f[2]);
  if (f.size() > 3) schema::parse_into(p.queue_bound, f[3]);
  if (f.size() > 4) schema::parse_into(p.deadline_quanta, f[4]);
}

}  // namespace

schema::Table<FleetTopology> topology_schema(std::optional<int> retry_budget) {
  using T = FleetTopology;
  using schema::field;
  const std::string topo = "fleet.topology", weights = "fleet.class-weights",
                    queue = "fleet.queue-bounds", breaker = "fleet.breaker";
  schema::Table<T> t("fleet", topo);
  t.row("shards", field(&T::shards))
      .error(topo, [](const T& v) { return v.shards >= 1; },
             "leaves the fleet without an SoC", "use at least one shard");
  t.row("quantum_cycles", field(&T::quantum_cycles))
      .error(topo, [](const T& v) { return v.quantum_cycles > 0; },
             "stalls the fleet clock", "use a positive scheduling quantum");
  t.row("coalesce_limit", field(&T::coalesce_limit))
      .error(topo, [](const T& v) { return v.coalesce_limit >= 0; },
             "is negative", "use 0 (off) or a positive follower cap");
  t.row("service_estimate_cycles", field(&T::service_estimate_cycles))
      .error(topo, [](const T& v) { return v.service_estimate_cycles > 0; },
             "disables reject-early deadline shedding",
             "estimate one reconfiguration's cycles");
  t.row("fallback_latency_cycles", field(&T::fallback_latency_cycles));
  t.row("stall_cycles", field(&T::stall_cycles));
  t.row("burst_multiplier", field(&T::burst_multiplier));
  t.row("tenant_tokens_per_quantum", field(&T::tenant_tokens_per_quantum))
      .error(queue, [](const T& v) { return v.tenant_tokens_per_quantum >= 0; },
             "is a negative refill rate", "use 0 to disable tenant buckets");
  t.row("tenant_burst", field(&T::tenant_burst))
      .error(queue,
             [](const T& v) {
               return v.tenant_tokens_per_quantum <= 0 || v.tenant_burst >= 1;
             },
             "cannot admit a single request", "use a burst of at least 1");
  for (int c = 0; c < kNumQosClasses; ++c) {
    const auto cls = [c](schema::Pred<QosClassParams> ok) {
      return [c, ok](const T& v) { return ok(v.classes[c]); };
    };
    t.row(std::string("class_") + to_string(static_cast<QosClass>(c)),
          [c](T& v, const std::string& s) { parse_class(v.classes[c], s); })
        .error(weights, cls([](auto& p) { return p.weight >= 0; }),
               "weight is negative", "QoS weights are relative shares")
        .warning(weights, cls([](auto& p) { return p.weight != 0; }),
                 "weight 0 starves the class behind every other one",
                 "give every live class a positive weight")
        .error(queue, cls([](auto& p) { return p.queue_bound > 0; }),
               "queue_bound sheds every admission (kQueueFull)",
               "bound the queue with a positive depth")
        .error(queue, cls([](auto& p) { return p.deadline_quanta > 0; }),
               "deadline_quanta expires requests at submit time",
               "use a positive per-class deadline")
        .warning(queue, cls([](auto& p) { return p.tokens_per_quantum > 0; }),
                 "tokens_per_quantum never refills: permanently throttled",
                 "use a positive refill rate")
        .warning(queue, cls([](auto& p) {
                   return p.tokens_per_quantum <= 0 ||
                          p.burst >= p.tokens_per_quantum;
                 }),
                 "burst is below tokens_per_quantum: refill overflows",
                 "set burst to at least one quantum's refill");
  }
  t.at("class_besteffort")
      .error(weights,
             [](const T& v) {
               return std::any_of(std::begin(v.classes), std::end(v.classes),
                                  [](auto& c) { return c.weight > 0; });
             },
             "QoS class weights sum to zero: no queue can be dispatched",
             "give at least one class a positive weight");
  using B = BreakerOptions;
  const auto brk = [](schema::Pred<B> ok) {
    return [ok](const T& v) { return ok(v.breaker); };
  };
  t.row("breaker_failure_threshold", field(&B::failure_threshold, &T::breaker))
      .error(breaker, brk([](auto& b) {
               return b.failure_threshold > 0 && b.failure_threshold <= 1;
             }),
             "is outside (0, 1]", "the threshold is a failure fraction");
  t.row("breaker_window", field(&B::window, &T::breaker))
      .error(breaker,
             brk([](auto& b) { return b.window >= 1 && b.window <= 64; }),
             "is outside [1, 64]", "the outcome window is a 64-bit ring");
  t.row("breaker_open_base_cycles", field(&B::open_base_cycles, &T::breaker))
      .error(breaker, brk([](auto& b) { return b.open_base_cycles > 0; }),
             "leaves the backoff interval empty", "use a positive backoff")
      .warning(breaker,
               [](const T& v) {
                 return v.breaker.open_base_cycles <= 0 ||
                        v.breaker.open_base_cycles >= v.quantum_cycles;
               },
               "is below one quantum: an open breaker half-opens at once",
               "back off for at least quantum_cycles");
  t.row("breaker_open_max_cycles", field(&B::open_max_cycles, &T::breaker))
      .error(breaker, brk([](auto& b) {
               return b.open_max_cycles >= b.open_base_cycles;
             }),
             "is below breaker_open_base_cycles: the interval is empty",
             "use breaker_open_base_cycles <= breaker_open_max_cycles");
  t.row("breaker_half_open_probes", field(&B::half_open_probes, &T::breaker))
      .error(breaker, brk([](auto& b) { return b.half_open_probes >= 1; }),
             "means an open breaker never re-closes", "allow one probe");
  t.row("repack", field(&T::repack));
  std::function<int(const T&)> budget;
  if (retry_budget) budget = [b = *retry_budget](const T&) { return b; };
  runtime::mount_repacker_rows(
      t, &T::repack_interval_cycles, &T::repack_frag_threshold,
      &T::repack_max_migrations, &T::repack_migration_budget,
      [](const T& v) { return v.repack; }, budget);
  // With repack = 1 a threshold the fragmentation ratio never exceeds
  // leaves every shard's repacker inert.
  t.at("repack_frag_threshold")
      .error("runtime.repacker-bounds",
             [](const T& v) {
               return v.repack_frag_threshold >= 0 &&
                      v.repack_frag_threshold < 1;
             },
             "is outside [0, 1)", "use a threshold in [0, 1)");
  return t;
}

FleetTopology FleetTopology::from_config(const Config& config) {
  FleetTopology topo;
  topology_schema().read(config, topo);
  return topo;
}

void FleetTopology::validate() const { topology_schema().validate(*this); }

}  // namespace presp::fleet
