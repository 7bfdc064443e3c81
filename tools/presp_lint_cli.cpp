// presp-lint: cross-layer static design-rule checker.
//
// Usage:
//   presp-lint [--format=text|json] [--list-rules] [--werror]
//              <config.esp_config>...
//   presp-lint --watch [--poll-ms <n>] [--max-polls <n>] [--ops-port <n>]
//              [--watch-log <file>] <config.esp_config>...
//
// Runs the built-in rule catalog (see `presp-lint --list-rules` or
// DESIGN.md §10) over each SoC configuration and prints the findings.
// Exits 0 when every configuration is clean, 1 on errors, 2 on usage.
//
// With --watch it instead keeps polling the configs for edits, re-lints
// changed files, and (with --ops-port) publishes each fresh report as a
// "lint" SSE event on an embedded ops server (DESIGN.md §15).
#include <algorithm>
#include <string>
#include <vector>

#include "lint/cli.hpp"
#include "ops/watch_cli.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (std::find(args.begin(), args.end(), "--watch") != args.end())
    return presp::ops::run_watch_cli(args, "presp-lint");
  return presp::lint::run_lint_cli(args, "presp-lint");
}
