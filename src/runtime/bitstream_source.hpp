// Asynchronous partial-bitstream sources for the cache-backed store.
//
// A source owns the payload bytes of every registered partial bitstream
// and serves them on demand: the store's LRU cache calls fetch() when a
// miss needs filling, overlapping the *real* I/O (a thread-pool file read
// for the disk source) with the simulated fetch latency it models. The
// split keeps two clocks honest at once — the std::future carries actual
// bytes obtained asynchronously on the host, while latency_cycles() tells
// the simulation how long the platform would have taken to produce them.
//
//   MemoryBitstreamSource — bitstreams mmapped in user-space DDR (the
//     paper's baseline); fetching is a kernel-space copy at memcpy
//     bandwidth, the payload future is ready immediately.
//   FileBitstreamSource — bitstreams resident on a boot medium (SD/flash
//     over SPI); store() writes real files, fetch() submits a real
//     asynchronous read to an exec::ThreadPool and models seek +
//     streaming latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"

namespace presp::exec {
class ThreadPool;
}

namespace presp::runtime {

class AsyncBitstreamSource {
 public:
  virtual ~AsyncBitstreamSource() = default;

  /// Takes ownership of the payload for (tile, module). Empty payloads
  /// are legal (timing-only experiments): fetch() then returns empty
  /// bytes but still models the transfer latency.
  virtual void store(int tile, const std::string& module,
                     std::vector<std::uint8_t> payload) = 0;

  /// Launches an asynchronous read of the registered payload. The future
  /// must become ready without further calls on this object.
  virtual std::future<std::vector<std::uint8_t>> fetch(
      int tile, const std::string& module) = 0;

  /// Simulated cycles the platform needs to produce `bytes` payload
  /// bytes (the store co_awaits this before joining the future).
  virtual sim::Time latency_cycles(std::size_t bytes) const = 0;

  virtual const char* name() const = 0;
};

/// Payloads held in host memory ("mmapped in the user-space in the DDR",
/// paper Section V). Fetch latency models the user-to-kernel copy.
class MemoryBitstreamSource final : public AsyncBitstreamSource {
 public:
  /// `bytes_per_cycle`: modeled copy bandwidth (64 B/cycle ~ a cached
  /// memcpy on the paper's 78 MHz system).
  explicit MemoryBitstreamSource(double bytes_per_cycle = 64.0)
      : bytes_per_cycle_(bytes_per_cycle) {}

  void store(int tile, const std::string& module,
             std::vector<std::uint8_t> payload) override;
  std::future<std::vector<std::uint8_t>> fetch(
      int tile, const std::string& module) override;
  sim::Time latency_cycles(std::size_t bytes) const override;
  const char* name() const override { return "memory"; }

 private:
  double bytes_per_cycle_;
  std::map<std::pair<int, std::string>, std::vector<std::uint8_t>>
      payloads_;
};

struct FileSourceOptions {
  /// Fixed per-fetch cycles (command setup + medium seek).
  long long seek_cycles = 50'000;
  /// Streaming bandwidth of the medium in bytes per SoC cycle (2.0 at
  /// 78 MHz ~ a 156 MB/s SD/eMMC part).
  double bytes_per_cycle = 2.0;
};

/// Payloads written to and re-read from real files under `directory`.
/// fetch() performs the read asynchronously on `pool` while the simulated
/// clock keeps running.
class FileBitstreamSource final : public AsyncBitstreamSource {
 public:
  FileBitstreamSource(std::string directory, exec::ThreadPool& pool,
                      FileSourceOptions options = {});

  void store(int tile, const std::string& module,
             std::vector<std::uint8_t> payload) override;
  std::future<std::vector<std::uint8_t>> fetch(
      int tile, const std::string& module) override;
  sim::Time latency_cycles(std::size_t bytes) const override;
  const char* name() const override { return "file"; }

  /// Real reads completed so far (observability for tests/bench).
  std::uint64_t reads() const { return reads_; }

 private:
  std::string path_for(int tile, const std::string& module) const;

  std::string directory_;
  exec::ThreadPool& pool_;
  FileSourceOptions options_;
  std::atomic<std::uint64_t> reads_{0};
};

}  // namespace presp::runtime
