// Shared helpers for the reproduction benches. Every bench prints the
// paper's published values next to the measured ones so the output can be
// diffed against the publication table by eye; EXPERIMENTS.md records the
// same numbers.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "util/log.hpp"
#include "util/table.hpp"

namespace presp::bench {

inline void header(const std::string& title, const std::string& paper_ref) {
  presp::set_log_level(presp::LogLevel::kWarn);
  std::printf("=====================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("=====================================================\n");
}

/// "measured (paper P)" cell formatting.
inline std::string vs_paper(double measured, double paper, int precision = 0) {
  return presp::TextTable::num(measured, precision) + " (" +
         presp::TextTable::num(paper, precision) + ")";
}

/// Host cost of this process so far as a one-line JSON object: wall
/// seconds since `started`, user and sys CPU seconds and peak RSS in MiB
/// (getrusage RUSAGE_SELF).
inline std::string host_json(std::chrono::steady_clock::time_point started) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"wall_s\": %.6f, \"user_s\": %.6f, \"sys_s\": %.6f, "
                "\"maxrss_mib\": %.3f}",
                wall, seconds(ru.ru_utime), seconds(ru.ru_stime),
                static_cast<double>(ru.ru_maxrss) / 1024.0);  // KiB on Linux
  return buf;
}

}  // namespace presp::bench
