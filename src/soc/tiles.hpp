// Tile models: the architectural support of Section III.
//
//   CpuTile    — issues memory-mapped register accesses over the config
//                plane and receives interrupts; the software stack
//                (runtime module) runs as coroutines against its API.
//   MemTile    — services DMA read/write requests against MainMemory.
//   AuxTile    — the augmented ESP auxiliary tile: hosts the DFX
//                controller + ICAP. Triggered via registers, it fetches a
//                partial bitstream from DRAM over the NoC, streams it into
//                the ICAP, swaps the target tile's module, and interrupts
//                the CPU.
//   ReconfTile — the new reconfigurable tile: common accelerator wrapper
//                (load/store + config registers + done interrupt) behind
//                reconfiguration decoupling logic.
//
// Register map (config plane, per tile):
//   0 CMD (write 1 = start)      4 ITEMS          16 DFXC_BS_ADDR
//   1 STATUS (0/1/2 idle/run/    5 AUX_ARG        17 DFXC_BS_BYTES
//     done; read clears done)    6 DECOUPLE       18 DFXC_TARGET
//   2 SRC                        7 MODULE_ID      19 DFXC_TRIGGER
//   3 DST                                         20 DFXC_STATUS
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "noc/noc.hpp"
#include "soc/accelerator.hpp"
#include "soc/energy.hpp"
#include "soc/memory.hpp"

namespace presp::soc {

// Register indices.
inline constexpr std::uint32_t kRegCmd = 0;
inline constexpr std::uint32_t kRegStatus = 1;
inline constexpr std::uint32_t kRegSrc = 2;
inline constexpr std::uint32_t kRegDst = 3;
inline constexpr std::uint32_t kRegItems = 4;
inline constexpr std::uint32_t kRegAuxArg = 5;
inline constexpr std::uint32_t kRegDecouple = 6;
inline constexpr std::uint32_t kRegModuleId = 7;
inline constexpr std::uint32_t kRegDfxcBsAddr = 16;
inline constexpr std::uint32_t kRegDfxcBsBytes = 17;
inline constexpr std::uint32_t kRegDfxcTarget = 18;
inline constexpr std::uint32_t kRegDfxcTrigger = 19;
inline constexpr std::uint32_t kRegDfxcStatus = 20;
inline constexpr std::uint32_t kRegDfxcReadback = 21;
inline constexpr std::uint32_t kRegDfxcVerify = 22;  // 1 pass, 2 fail
/// Write 1: abort any in-flight transfer and return the DFXC to idle —
/// the recovery handle the runtime watchdog uses on ICAP stalls / hangs.
/// Resets the combined/program engine only; staged fetches and the fetch
/// engine (below) are untouched, so recovering one stage never corrupts
/// the other's in-flight work.
inline constexpr std::uint32_t kRegDfxcReset = 23;
/// Split-transaction support: write 1 to fetch the bitstream at
/// BS_ADDR/BS_BYTES into an internal staging slot keyed by TARGET (DMA +
/// CRC only, nothing touches the fabric). A later DFXC_TRIGGER for the
/// same TARGET/BS_ADDR then skips the DMA and streams straight into the
/// ICAP — the hardware half of the runtime's fetch/program pipeline.
/// Nacked (ack payload 1) while a fetch is in flight or the staging
/// buffer is full.
inline constexpr std::uint32_t kRegDfxcFetch = 24;
/// Fetch-engine status: 0 idle/done, 1 busy, 2 CRC error.
inline constexpr std::uint32_t kRegDfxcFetchStatus = 25;
/// Write 1: abort the in-flight fetch and return the fetch engine to
/// idle. Independent of kRegDfxcReset for the same isolation reason.
inline constexpr std::uint32_t kRegDfxcFetchReset = 26;

// STATUS values.
inline constexpr std::uint64_t kStatusIdle = 0;
inline constexpr std::uint64_t kStatusRunning = 1;
inline constexpr std::uint64_t kStatusDone = 2;

// Interrupt payload codes (packet.payload low byte).
inline constexpr std::uint64_t kIrqAccelDone = 1;
inline constexpr std::uint64_t kIrqReconfDone = 2;
/// CRC check on the fetched bitstream failed; the partition is left
/// blank and decoupled, software must retry or recover.
inline constexpr std::uint64_t kIrqReconfError = 3;
/// Readback verification finished; result in DFXC_VERIFY.
inline constexpr std::uint64_t kIrqReadbackDone = 4;
/// A split-transaction fetch (kRegDfxcFetch) staged its bitstream; the
/// payload carries the target tile like the reconfiguration interrupts.
inline constexpr std::uint64_t kIrqFetchDone = 5;

struct SocOptions {
  MemoryOptions memory;
  noc::NocOptions noc;
  PowerConstants power;
  /// Max flits per DMA response burst packet.
  int dma_burst_flits = 128;
  /// ICAP throughput in bytes per SoC cycle (ICAPE2 at 78 MHz).
  double icap_bytes_per_cycle = 8.0;
  /// Cycles an injected ICAP stall wedges the transfer before clearing on
  /// its own (a DFXC reset aborts it immediately).
  long long fault_icap_stall_cycles = 1'000'000'000;
  /// Cycles an injected accelerator hang wedges the datapath before the
  /// frame is abandoned (a partition rewrite aborts it immediately).
  long long fault_accel_hang_cycles = 1'000'000'000;
  /// Staging slots in the DFX controller's split-transaction fetch buffer
  /// (2 = double buffer: one bitstream programming, one fetching). The
  /// runtime manager takes one staging credit per slot.
  int dfxc_staging_slots = 2;
};

class Soc;  // forward

/// Shared plumbing handed to every tile.
struct SocServices {
  sim::Kernel& kernel;
  noc::Noc& noc;
  MainMemory& memory;
  EnergyMeter& energy;
  const SocOptions& options;
  const AcceleratorRegistry& accelerators;
  int cpu_tile = -1;
  /// All MEM tiles; DMA interleaves across them by address (4 KB
  /// granularity), the ESP multi-memory-tile scheme.
  std::vector<int> mem_tiles;
  /// Optional fault injector; tiles consult its hooks when non-null.
  fault::FaultInjector* injector = nullptr;

  int mem_for(std::uint64_t addr) const {
    return mem_tiles[static_cast<std::size_t>((addr >> 12) %
                                              mem_tiles.size())];
  }
};

/// Awaitable DMA helper: issues one read/write transaction to the MEM tile
/// and suspends the calling process until it completes. One transaction
/// outstanding per requesting tile (matching ESP's per-tile DMA proxy).
class DmaPort {
 public:
  DmaPort(SocServices& services, int tile)
      : services_(services), tile_(tile) {}

  /// Reads `words` 64-bit words starting at addr; resumes when the last
  /// response flit arrives.
  sim::Process read(std::uint64_t addr, long long words,
                    sim::SimEvent& done);
  /// Writes `words` words; resumes on the MEM tile's ack.
  sim::Process write(std::uint64_t addr, long long words,
                     sim::SimEvent& done);

  /// True if the last completed transaction saw a poisoned response
  /// packet (clears the flag). Callers treat it as a transfer-level CRC
  /// failure and retry.
  bool consume_poisoned() {
    const bool was = poisoned_;
    poisoned_ = false;
    return was;
  }

 private:
  SocServices& services_;
  int tile_;
  std::uint64_t next_txn_ = 1;
  bool poisoned_ = false;
};

// ---------------------------------------------------------------------------

class CpuTile {
 public:
  CpuTile(SocServices& services, int index);

  int index() const { return index_; }

  /// Awaitable register access from software coroutines. Writes complete
  /// when the target tile acknowledges (so ordering across tiles holds).
  struct RegAccess {
    CpuTile& cpu;
    int tile;
    std::uint32_t reg;
    std::uint64_t value;
    bool is_write;
    std::uint64_t result = 0;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle);
    std::uint64_t await_resume() const noexcept { return result; }
  };

  RegAccess write_reg(int tile, std::uint32_t reg, std::uint64_t value) {
    return RegAccess{*this, tile, reg, value, true};
  }
  RegAccess read_reg(int tile, std::uint32_t reg) {
    return RegAccess{*this, tile, reg, 0, false};
  }

  /// Interrupt queue from one source tile. Entries are the packet payload.
  sim::Mailbox<std::uint64_t>& irq_from(int source_tile);

  std::uint64_t reg_ops() const { return reg_ops_; }
  /// Interrupt packets dropped because they arrived poisoned (the
  /// runtime's watchdogs recover the lost completion).
  std::uint64_t dropped_irqs() const { return dropped_irqs_; }
  /// Config-plane responses that arrived poisoned and were corrected by
  /// the link-level ECC (delivered, counted).
  std::uint64_t corrected_responses() const { return corrected_responses_; }

 private:
  friend struct RegAccess;
  struct Pending {
    std::coroutine_handle<> handle;
    std::uint64_t* result;
  };
  sim::Process response_server();
  sim::Process irq_server();

  SocServices& services_;
  int index_;
  std::uint64_t next_txn_ = 1;
  std::uint64_t reg_ops_ = 0;
  std::uint64_t dropped_irqs_ = 0;
  std::uint64_t corrected_responses_ = 0;
  std::map<std::uint64_t, Pending> pending_;
  std::map<int, std::unique_ptr<sim::Mailbox<std::uint64_t>>> irqs_;
};

// ---------------------------------------------------------------------------

class MemTile {
 public:
  MemTile(SocServices& services, int index);

  int index() const { return index_; }
  /// DMA transactions serviced by this controller.
  std::uint64_t requests() const { return requests_; }

 private:
  sim::Process dma_server();
  sim::Process config_server();

  SocServices& services_;
  int index_;
  std::uint64_t requests_ = 0;
};

// ---------------------------------------------------------------------------

class AuxTile {
 public:
  AuxTile(SocServices& services, Soc& soc, int index);

  std::uint64_t reconfigurations() const { return reconfigurations_; }
  /// Total bytes streamed through the ICAP.
  std::uint64_t icap_bytes() const { return icap_bytes_; }
  /// Reconfigurations aborted by the CRC check.
  std::uint64_t crc_errors() const { return crc_errors_; }
  /// Trigger writes ignored because the controller was busy. The runtime
  /// manager treats a dropped trigger as a retryable event (the ack
  /// payload reports the drop).
  std::uint64_t dropped_triggers() const { return dropped_triggers_; }
  /// DFXC resets issued by software (watchdog recovery).
  std::uint64_t resets() const { return resets_; }
  /// Injected ICAP stalls observed (wedged transfers).
  std::uint64_t icap_stalls() const { return icap_stalls_; }
  /// Split-transaction fetches staged (kRegDfxcFetch accepted + done).
  std::uint64_t fetches() const { return fetches_; }
  /// Program triggers that found their bitstream staged and skipped the
  /// DMA — the count of pipelined (fetch-overlapped) reconfigurations.
  std::uint64_t staged_hits() const { return staged_hits_; }
  /// Bitstreams currently held in the staging buffer.
  std::size_t staged_count() const { return staged_.size(); }

 private:
  sim::Process config_server();
  sim::Process reconfigure(std::uint64_t bs_addr, std::uint64_t bs_bytes,
                           int target);
  /// Split-transaction fetch: DMA + CRC into the staging buffer.
  sim::Process fetch(std::uint64_t bs_addr, std::uint64_t bs_bytes,
                     int target);
  /// Reads the target partition's frames back through the ICAP and
  /// compares against the golden image registered at bs_addr.
  sim::Process readback(std::uint64_t bs_addr, int target);

  /// A fetched-and-CRC-checked bitstream parked in the controller,
  /// keyed by target tile. Survives program-engine resets (retry reuses
  /// it); consumed by the successful program trigger.
  struct StagedBitstream {
    std::uint64_t addr = 0;
    std::uint64_t bytes = 0;
  };

  SocServices& services_;
  Soc& soc_;
  int index_;
  DmaPort dma_;
  /// One DMA transaction outstanding per tile (the responses share one
  /// NoC mailbox), so the fetch engine and a legacy combined transfer
  /// serialize their DMA phases here. ICAP streaming happens outside the
  /// lock — that is the overlap the split transaction buys.
  sim::Semaphore dma_lock_;
  std::array<std::uint64_t, 32> regs_{};
  std::map<int, StagedBitstream> staged_;
  std::uint64_t reconfigurations_ = 0;
  std::uint64_t icap_bytes_ = 0;
  std::uint64_t crc_errors_ = 0;
  std::uint64_t dropped_triggers_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t icap_stalls_ = 0;
  std::uint64_t fetches_ = 0;
  std::uint64_t staged_hits_ = 0;
  /// Bumped by kRegDfxcReset; in-flight transfers abort when they observe
  /// a newer epoch after resuming.
  std::uint64_t epoch_ = 0;
  /// Bumped by kRegDfxcFetchReset; independent so aborting one engine
  /// never kills the other's in-flight work.
  std::uint64_t fetch_epoch_ = 0;
  /// Wakes a wedged (stalled) transfer early on reset.
  std::unique_ptr<sim::Mailbox<int>> reset_box_;
};

// ---------------------------------------------------------------------------

class ReconfTile {
 public:
  ReconfTile(SocServices& services, int index, std::string partition);

  int index() const { return index_; }
  const std::string& partition() const { return partition_; }
  const std::string& module() const { return module_; }
  bool decoupled() const { return regs_[kRegDecouple] != 0; }

  /// Fabric-side module swap, invoked by the DFX controller at the end of
  /// a successful reconfiguration. Empty name = blank partition. Clears
  /// any SEU upset (the frames are rewritten) and aborts a hung run.
  void load_module(const std::string& name);

  /// The partition's configuration frames are upset (SEU). The wrapper
  /// rejects commands until the partition is rewritten; readback
  /// verification reports a mismatch. Exposed for tests/scrub drills.
  bool config_upset() const { return config_upset_; }
  void inject_seu();

  std::uint64_t invocations() const { return invocations_; }
  std::uint64_t rejected_commands() const { return rejected_commands_; }
  /// Decouple asserted while the accelerator was running: a software
  /// sequencing hazard in normal operation (the runtime manager's tile
  /// lock prevents it), but also the deliberate first step of a forced
  /// repair of a hung accelerator.
  std::uint64_t unsafe_decouples() const { return unsafe_decouples_; }
  /// Decoupler releases dropped by an injected stuck-at fault.
  std::uint64_t stuck_decouples() const { return stuck_decouples_; }
  /// SEU upsets injected into this partition.
  std::uint64_t seu_upsets() const { return seu_upsets_; }
  /// Accelerator runs that wedged (done interrupt never raised).
  std::uint64_t hung_runs() const { return hung_runs_; }
  /// DMA transactions retried after poisoned response packets.
  std::uint64_t dma_retries() const { return dma_retries_; }
  long long busy_cycles() const { return busy_cycles_; }

 private:
  sim::Process config_server();
  sim::Process run_accelerator();

  SocServices& services_;
  int index_;
  std::string partition_;
  std::string module_;
  const AcceleratorSpec* spec_ = nullptr;
  DmaPort dma_;
  std::array<std::uint64_t, 32> regs_{};
  std::uint64_t invocations_ = 0;
  std::uint64_t rejected_commands_ = 0;
  std::uint64_t unsafe_decouples_ = 0;
  std::uint64_t stuck_decouples_ = 0;
  std::uint64_t seu_upsets_ = 0;
  std::uint64_t hung_runs_ = 0;
  std::uint64_t dma_retries_ = 0;
  long long busy_cycles_ = 0;
  bool config_upset_ = false;
  /// Bumped by load_module; a hung run aborts when its generation is
  /// superseded (the partition was rewritten underneath it).
  std::uint64_t generation_ = 0;
  /// Wakes a wedged datapath early when the partition is rewritten.
  std::unique_ptr<sim::Mailbox<int>> abort_box_;
};

}  // namespace presp::soc
