// Driver for `presp-lint --watch`: baseline-lints the given configs,
// then polls them for edits and re-lints the changed ones, printing each
// report and (with --ops-port) publishing it as a "lint" SSE event on an
// embedded OpsServer so /events subscribers see config edits re-checked
// live. Lives in the ops library (not lint) because it composes
// LintWatcher with OpsServer; the presp-lint binary dispatches here when
// --watch is present.
#pragma once

#include <string>
#include <vector>

namespace presp::ops {

/// Runs the watch loop over `args` (argv[0] stripped, `--watch` may or
/// may not still be present). Flags:
///
///   --poll-ms <n>     poll interval (default 200)
///   --max-polls <n>   exit after n polls (default 0 = run forever);
///                     tests and the tier-1 ops stage use this
///   --ops-port <n>    serve /events etc. on 127.0.0.1:<n> (0 =
///                     ephemeral; the bound port is printed)
///   --watch-log <f>   append one report_json() record per lint report
///                     to <f>; records are multi-line (the embedded
///                     findings are pretty-printed), each starts a line
///                     with {"path":
///   <config>...       .esp_config files to watch
///
/// Watch mode is a monitor: the exit code is 0 on a clean run (even if
/// findings were reported), 2 on usage errors.
int run_watch_cli(const std::vector<std::string>& args,
                  const std::string& program = "presp-lint");

}  // namespace presp::ops
