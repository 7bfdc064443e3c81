// Configuration of the embedded ops server, parsed from the `[ops]`
// section of an .esp_config file (examples/configs/fleet_small.esp_config
// has one). options_schema() is the section's single source of keys,
// bounds and (through the member initializers) defaults: from_config(),
// validate() and the presp-lint `ops.*` rules come from it.
#pragma once

#include <string>

#include "lint/schema.hpp"
#include "util/config.hpp"

namespace presp::ops {

struct OpsOptions {
  /// Master switch. The server must be opt-in: a telemetry port that
  /// opens by default is a misconfiguration the lint rules flag.
  bool enabled = false;
  std::string bind = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (the bench/tests use this to
  /// avoid collisions; OpsServer::port() reports the actual one).
  int port = 0;
  /// Connection-handler threads (an SSE client occupies one for its
  /// whole subscription).
  int workers = 4;
  /// Concurrent connections; excess accepts get an immediate 503.
  int max_connections = 16;
  /// Per-SSE-client bounded event ring. A slow client overflows its own
  /// ring (dropped events are counted); the pump never blocks.
  int sse_buffer_events = 64;
  /// Pump period between snapshot diffs pushed to /events.
  int publish_interval_ms = 50;

  /// Reads the `[ops]` section (missing keys keep defaults; a missing
  /// section returns the disabled default). Throws ConfigError on an
  /// unknown key or a malformed value.
  static OpsOptions from_config(const Config& config);

  /// Throws presp::InvalidArgument on the first failing error row of
  /// options_schema() (port outside [0, 65535], a bind address inet_pton
  /// rejects, non-positive workers/connections/buffer/interval).
  void validate() const;
};

/// The `[ops]` key schema.
const schema::Table<OpsOptions>& options_schema();

}  // namespace presp::ops
