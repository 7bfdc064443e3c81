// Lazily-materialized artifact context for the cross-layer lint rules.
//
// A LintContext wraps one SoC configuration text and produces, on first
// request, every artifact a rule may need: the parsed Config and
// SocConfig, the component library (builtins + characterization + WAMI +
// custom [accelerator] sections), the elaborated RTL hierarchy, the
// synthesized static netlist, the DPR floorplan, the NoC route tables,
// the runtime reconfiguration plan ([runtime] section) and the exec task
// graph ([tasks] section). Artifacts are cached; materialization failures
// throw ArtifactError carrying the rule id the failure reports under, so
// the rule runner can convert them into diagnostics exactly once.
//
// Tests inject seeded-violation fixtures through the override_* setters,
// which bypass derivation for a single artifact while the rest of the
// pipeline still materializes normally.
//
// Optional config sections understood by the lint layer:
//
//   [runtime]
//   # request sequences, one key per software thread; ',' separates
//   # independent requests, '+' chains requests whose tile locks are
//   # held simultaneously (nested acquisition).
//   thread_main = r1c0:conv2d, r1c1:gemm + r1c0:fft
//   # scalar knobs (retry_budget, store_*, repack_*): runtime_schema()
//
//   [bitstreams]
//   # explicit BitstreamStore manifest; defaults to every reconfigurable
//   # tile's member set when absent.
//   r1c0 = conv2d, gemm
//
//   [tasks]
//   # task = comma-separated dependencies ("" = source task)
//   synth_static =
//   pnr_static = synth_static
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fabric/device.hpp"
#include "floorplan/floorplanner.hpp"
#include "lint/schema.hpp"
#include "netlist/components.hpp"
#include "netlist/rtl.hpp"
#include "netlist/soc_config.hpp"
#include "runtime/bitstream_store.hpp"
#include "runtime/repacker.hpp"
#include "synth/synthesis.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace presp::lint {

/// Artifact materialization failure; reported under rule id `rule()`.
class ArtifactError : public Error {
 public:
  ArtifactError(std::string rule, const std::string& what)
      : Error(what), rule_(std::move(rule)) {}
  const std::string& rule() const { return rule_; }

 private:
  std::string rule_;
};

// ------------------------------------------------- runtime plan artifact

struct PlanRequest {
  int row = -1;
  int col = -1;
  int tile = -1;  // row-major grid index
  std::string module;
};

/// '+'-chained requests: the issuing thread acquires each request's tile
/// lock in order and holds all of them until the chain completes.
struct PlanChain {
  std::vector<PlanRequest> requests;
};

struct PlanThread {
  std::string name;
  int line = 0;  // config line of the thread key
  std::vector<PlanChain> chains;
};

/// Static model of the runtime manager's workload: per-thread request
/// sequences plus the scalar [runtime] knobs, read through
/// runtime_schema(). Each knob defaults to the runtime struct it models.
struct ReconfPlan {
  std::vector<PlanThread> threads;
  int retry_budget = runtime::ManagerOptions{}.retry_budget;
  int max_attempts = runtime::ManagerOptions{}.max_attempts;
  long long backoff_base_cycles = runtime::ManagerOptions{}.backoff_base_cycles;
  double watchdog_reconf_margin =
      runtime::ManagerOptions{}.watchdog_reconf_margin;
  /// Bitstream-store residency: 0 = eager (every image DRAM-resident),
  /// > 0 = LRU cache with that many slots (runtime::StoreOptions).
  int store_cache_slots = runtime::StoreOptions{}.cache_slots;
  /// Bytes per cache slot; 0 = sized to the largest registered image.
  long long store_slot_bytes =
      static_cast<long long>(runtime::StoreOptions{}.slot_bytes);
  /// Defragmentation repacker knobs (runtime::RepackerOptions);
  /// repack_declared is set when any repack_* key appears, and gates
  /// their rows.
  bool repack_declared = false;
  long long repack_interval_cycles = runtime::RepackerOptions{}.interval_cycles;
  double repack_frag_threshold = runtime::RepackerOptions{}.frag_threshold;
  int repack_max_migrations =
      runtime::RepackerOptions{}.max_migrations_per_pass;
  int repack_migration_budget = runtime::RepackerOptions{}.migration_budget;
  /// True when the config carries a [runtime] section at all.
  bool declared = false;
};

/// The scalar [runtime] key schema (thread* keys are structured and
/// parsed by LintContext::plan()).
const schema::Table<ReconfPlan>& runtime_schema();

// ------------------------------------------------------ exec artifact

struct TaskSpec {
  std::string name;
  std::vector<std::string> deps;
  int line = 0;
};

struct TaskGraphSpec {
  std::vector<TaskSpec> tasks;
  bool declared = false;

  const TaskSpec* find(const std::string& name) const;
};

// ------------------------------------------------------- NoC artifact

/// All-pairs route table over the SoC mesh (the static NoC routing
/// function, materialized so deadlock analysis can walk every path).
struct RouteTable {
  int rows = 0;
  int cols = 0;
  /// routes[src * rows*cols + dst]; each is inclusive of both endpoints.
  std::vector<std::vector<int>> routes;

  int num_tiles() const { return rows * cols; }
  const std::vector<int>& route(int src, int dst) const;
};

// ----------------------------------------------------------- context

class LintContext {
 public:
  /// `file` names the source in diagnostics ("<memory>" for tests).
  explicit LintContext(std::string config_text,
                       std::string file = "<memory>");

  /// Reads the file and constructs a context for it. Throws
  /// InvalidArgument when the file cannot be read.
  static LintContext from_file(const std::string& path);

  const std::string& file() const { return file_; }
  const std::string& text() const { return text_; }

  // Artifact accessors; each throws ArtifactError on failure.
  const Config& raw();                        // config.parse
  const netlist::SocConfig& soc();            // config.parse
  const netlist::ComponentLibrary& library(); // config.parse
  const fabric::Device& device();             // config.unknown-device
  const netlist::SocRtl& rtl();               // netlist.unknown-accelerator
  const synth::Checkpoint& static_netlist();  // config.parse
  const floorplan::Floorplan& floorplan();    // floorplan.infeasible
  /// Partition sizing requests the floorplan was planned for (same
  /// order as floorplan().pblocks).
  const std::vector<floorplan::PartitionRequest>& partition_requests();
  const RouteTable& routes();                 // config.parse
  const ReconfPlan& plan();                   // config.parse
  const TaskGraphSpec& task_graph();          // config.parse
  /// Partial-bitstream manifest: modules available per tile ([bitstreams]
  /// section, else derived from the reconfigurable tiles' member sets).
  const std::map<int, std::vector<std::string>>& manifest();

  // Fixture injection (tests): replaces one artifact.
  void override_netlist(netlist::Netlist nl);
  void override_floorplan(floorplan::Floorplan plan,
                          std::vector<floorplan::PartitionRequest> requests);
  void override_routes(RouteTable routes);
  void override_rtl(netlist::SocRtl rtl);
  void override_plan(ReconfPlan plan);
  void override_task_graph(TaskGraphSpec spec);

  /// 1-based config line of `key` in `[section]` (0 if not found);
  /// anchors diagnostics into the source text.
  int line_of(const std::string& section, const std::string& key) const;
  /// 1-based line of the [section] header itself (0 if not found).
  int line_of_section(const std::string& section) const;

 private:
  ReconfPlan parse_plan();
  TaskGraphSpec parse_task_graph();

  std::string text_;
  std::string file_;

  std::optional<Config> raw_;
  std::optional<netlist::SocConfig> soc_;
  std::optional<netlist::ComponentLibrary> library_;
  std::optional<fabric::Device> device_;
  std::optional<netlist::SocRtl> rtl_;
  std::optional<synth::Checkpoint> static_netlist_;
  std::optional<floorplan::Floorplan> floorplan_;
  std::optional<std::vector<floorplan::PartitionRequest>> requests_;
  std::optional<RouteTable> routes_;
  std::optional<ReconfPlan> plan_;
  std::optional<TaskGraphSpec> task_graph_;
  std::optional<std::map<int, std::vector<std::string>>> manifest_;
};

}  // namespace presp::lint
