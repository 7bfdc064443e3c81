// Shared DRAM model.
//
// The paper's VC707 system uses a 1 GB shared DDR reachable through the
// MEM tile. The model provides (a) a real byte-addressed backing store so
// accelerator functional models and the runtime manager move actual data
// (frames, partial bitstreams), and (b) the latency parameters the MEM
// tile uses to time DMA service. Partial bitstreams are stored as blobs
// with attached identity metadata — the DFX controller resolves the module
// a bitstream configures from the blob it was pointed at, standing in for
// the fabric decoding the configuration frames themselves.
//
// The backing store is one calloc'd buffer: at the modeled size it comes
// straight from mmap as lazy zero pages, so building a SoC touches none
// of it. allocate() zero-fills its own region, which faults that
// region's pages in at set-up instead of on its first DMA; reserve()
// claims a region the model only addresses and leaves its pages alone.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "util/error.hpp"

namespace presp::soc {

struct MemoryOptions {
  std::size_t size_bytes = 64u << 20;  // modeled slice of the 1 GB DDR
  /// First-word access latency in SoC cycles (row activate + CAS).
  int access_latency = 28;
  /// 64-bit words transferred per cycle once streaming.
  int words_per_cycle = 8;
};

/// Identity of a partial bitstream blob living in DRAM.
struct BitstreamBlob {
  std::string module;          // empty = blanking bitstream
  int target_tile = -1;        // grid index of the reconfigurable tile
  std::size_t bytes = 0;       // compressed transport size
  std::uint32_t crc = 0;
  /// Transient corruption injected by corrupt_blob(); the configuration
  /// engine's CRC check trips once, then the flag clears (models a
  /// transfer error that a re-fetch repairs).
  bool corrupted = false;
};

class MainMemory {
 public:
  explicit MainMemory(MemoryOptions options = {});

  const MemoryOptions& options() const { return options_; }
  std::size_t size() const { return options_.size_bytes; }

  /// Bump allocation of a named, zero-filled region; 64-byte aligned.
  std::uint64_t allocate(const std::string& name, std::size_t bytes);
  /// As allocate(), but the region's pages stay unfaulted (they still
  /// read as zero): for regions no data moves through, such as a
  /// bitstream image registered without a payload.
  std::uint64_t reserve(const std::string& name, std::size_t bytes);
  /// Base address of a previously allocated region.
  std::uint64_t region(const std::string& name) const;
  std::size_t region_size(const std::string& name) const;

  std::span<std::uint8_t> bytes(std::uint64_t addr, std::size_t len);
  std::span<const std::uint8_t> bytes(std::uint64_t addr,
                                      std::size_t len) const;

  void write_u32(std::uint64_t addr, std::uint32_t value);
  std::uint32_t read_u32(std::uint64_t addr) const;

  /// Registers bitstream identity metadata at `addr` (the runtime manager
  /// does this when it copies a partial bitstream into kernel memory).
  void attach_blob(std::uint64_t addr, BitstreamBlob blob);
  /// Blob lookup used by the DFX controller when triggered.
  const BitstreamBlob& blob_at(std::uint64_t addr) const;

  /// Failure injection: marks the blob at `addr` as corrupted; the next
  /// CRC check fails and clears the flag.
  void corrupt_blob(std::uint64_t addr);
  /// Consumes the corruption flag (returns the pre-clear value).
  bool consume_corruption(std::uint64_t addr);

  /// Cycles to stream `words` 64-bit words (excluding NoC transport).
  long long stream_cycles(long long words) const;

 private:
  struct FreeDeleter {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  MemoryOptions options_;
  std::unique_ptr<std::uint8_t[], FreeDeleter> data_;
  std::uint64_t next_free_ = 64;
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> regions_;
  std::map<std::uint64_t, BitstreamBlob> blobs_;
};

}  // namespace presp::soc
