// Watch-mode lint: polls a set of .esp_config files for modification
// (mtime + size) and re-lints the ones that changed, delivering each
// fresh report to a callback — the presp-lint --watch CLI prints it and,
// when an ops server is attached, publishes it as a "lint" SSE event so
// a dashboard watching /events sees config edits re-checked live.
//
// The watcher is deliberately a plain synchronous class (poll_once() does
// one scan); the CLI owns the sleep loop. That keeps it unit-testable
// without timing dependence and lets callers drive it from any thread.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace presp::ops {

class LintWatcher {
 public:
  struct Report {
    std::string path;
    /// lint::render_json() of the file's current findings.
    std::string findings_json;
    std::size_t errors = 0;
    std::size_t warnings = 0;
  };
  using Callback = std::function<void(const Report&)>;

  LintWatcher(std::vector<std::string> paths, Callback callback);

  /// Lints every watched file unconditionally (the baseline pass the
  /// CLI runs before entering the poll loop). Returns files linted.
  int lint_all();
  /// Re-lints files whose mtime or size moved since the last scan (a
  /// deleted file reports a config.parse finding once). Returns the
  /// number of files re-linted.
  int poll_once();

  /// Total re-lint passes delivered to the callback (lint_all +
  /// changed files), for loop-exit conditions in tests and CI.
  std::uint64_t reports() const { return reports_; }

 private:
  struct Fingerprint {
    std::filesystem::file_time_type mtime{};
    std::uintmax_t size = 0;
    bool exists = false;

    bool operator==(const Fingerprint&) const = default;
  };

  static Fingerprint fingerprint(const std::string& path);
  void lint_file(const std::string& path);

  std::vector<std::string> paths_;
  Callback callback_;
  std::map<std::string, Fingerprint> seen_;
  std::uint64_t reports_ = 0;
};

/// One report as a JSON record, {"path":...,"errors":...,"warnings":...,
/// "findings":<findings_json>}. The embedded findings span several
/// lines, so the record does too; only its first line starts with
/// {"path":.
std::string report_json(const LintWatcher::Report& report);

}  // namespace presp::ops
