#include "ops/options.hpp"

#include <arpa/inet.h>

namespace presp::ops {

namespace {

/// True when inet_pton, the parser listen_on() binds with, accepts
/// `address` as IPv4.
bool is_ipv4(const std::string& address) {
  in_addr parsed{};
  return ::inet_pton(AF_INET, address.c_str(), &parsed) == 1;
}

}  // namespace

const schema::Table<OpsOptions>& options_schema() {
  using T = OpsOptions;
  using schema::field;
  static const schema::Table<T> table = [] {
    const std::string port = "ops.port", sse = "ops.sse-bounds",
                      optin = "ops.disabled-by-default";
    schema::Table<T> t("ops");
    t.row("enabled", field(&T::enabled))
        .warning(optin, [](const T& v) { return v.enabled; },
                 "[ops] is present but the opt-in server stays off",
                 "set enabled = true to open the telemetry port");
    t.row("bind", field(&T::bind))
        .error(port, [](const T& v) { return is_ipv4(v.bind); },
               "is not an IPv4 dotted quad", "use e.g. 127.0.0.1 or 0.0.0.0")
        .warning(optin,
                 [](const T& v) { return !v.enabled || v.bind == "127.0.0.1"; },
                 "exposes telemetry (metrics, health, traces) off-host",
                 "bind to 127.0.0.1 unless remote scrapes are needed");
    t.row("port", field(&T::port))
        .error(port, [](const T& v) { return v.port >= 0 && v.port <= 65535; },
               "is outside [0, 65535]", "use a TCP port (0 = ephemeral)")
        .warning(port, [](const T& v) { return v.port <= 0 || v.port >= 1024; },
                 "is privileged (< 1024): binding needs root",
                 "use an unprivileged port >= 1024");
    t.row("workers", field(&T::workers))
        .error(sse, [](const T& v) { return v.workers >= 1; },
               "cannot serve any connection", "use at least one worker");
    // An SSE client holds a worker for its whole subscription; past the
    // shipped 16:4 ratio subscribers can starve plain GETs.
    t.row("max_connections", field(&T::max_connections))
        .error(sse, [](const T& v) { return v.max_connections >= 1; },
               "rejects every connection with 503", "allow one connection")
        .warning(sse,
                 [](const T& v) {
                   return v.workers < 1 || v.max_connections <= 4 * v.workers;
                 },
                 "is more than 4x the workers: SSE clients can hold them all",
                 "size workers to the expected SSE client count");
    t.row("sse_buffer_events", field(&T::sse_buffer_events))
        .error(sse, [](const T& v) { return v.sse_buffer_events >= 1; },
               "leaves SSE clients without an event slot",
               "use a positive per-client ring capacity")
        .warning(sse, [](const T& v) { return v.sse_buffer_events <= 65536; },
                 "buffers unbounded telemetry per slow client",
                 "keep the ring small; drops are counted, not fatal");
    t.row("publish_interval_ms", field(&T::publish_interval_ms))
        .error(sse, [](const T& v) { return v.publish_interval_ms >= 1; },
               "spins the snapshot pump", "use a positive publish interval");
    return t;
  }();
  return table;
}


OpsOptions OpsOptions::from_config(const Config& config) {
  OpsOptions opts;
  options_schema().read(config, opts);
  return opts;
}

void OpsOptions::validate() const { options_schema().validate(*this); }

}  // namespace presp::ops
