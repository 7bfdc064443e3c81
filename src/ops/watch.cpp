#include "ops/watch.hpp"

#include "lint/context.hpp"
#include "lint/diagnostic.hpp"
#include "lint/rules.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace presp::ops {

namespace fs = std::filesystem;

LintWatcher::LintWatcher(std::vector<std::string> paths, Callback callback)
    : paths_(std::move(paths)), callback_(std::move(callback)) {
  for (const std::string& path : paths_) seen_[path] = fingerprint(path);
}

LintWatcher::Fingerprint LintWatcher::fingerprint(const std::string& path) {
  Fingerprint fp;
  std::error_code ec;
  fp.exists = fs::exists(path, ec) && !ec;
  if (!fp.exists) return fp;
  fp.mtime = fs::last_write_time(path, ec);
  fp.size = fs::file_size(path, ec);
  return fp;
}

void LintWatcher::lint_file(const std::string& path) {
  lint::DiagnosticEngine engine;
  try {
    lint::LintContext context = lint::LintContext::from_file(path);
    lint::RuleRegistry::builtin().run(context, engine);
  } catch (const Error& e) {
    engine.add({"config.parse",
                lint::Severity::kError,
                {path, 0, ""},
                e.what(),
                ""});
  }
  engine.sort();
  Report report;
  report.path = path;
  report.findings_json = lint::render_json(engine.diagnostics());
  report.errors = engine.count(lint::Severity::kError);
  report.warnings = engine.count(lint::Severity::kWarning);
  ++reports_;
  if (callback_) callback_(report);
}

int LintWatcher::lint_all() {
  for (const std::string& path : paths_) {
    seen_[path] = fingerprint(path);
    lint_file(path);
  }
  return static_cast<int>(paths_.size());
}

int LintWatcher::poll_once() {
  int relinted = 0;
  for (const std::string& path : paths_) {
    const Fingerprint fp = fingerprint(path);
    if (fp == seen_[path]) continue;
    seen_[path] = fp;
    lint_file(path);
    ++relinted;
  }
  return relinted;
}

std::string report_json(const LintWatcher::Report& report) {
  std::string out = "{\"path\":";
  json::append_string(out, report.path);
  out += ",\"errors\":" + std::to_string(report.errors);
  out += ",\"warnings\":" + std::to_string(report.warnings);
  out += ",\"findings\":" + report.findings_json + "}";
  return out;
}

}  // namespace presp::ops
