#include "runtime/bitstream_store.hpp"

#include <algorithm>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace presp::runtime {

namespace {

constexpr trace::Category kTrc = trace::Category::kRuntime;

std::string key_name(int tile, const std::string& module) {
  return "(" + std::to_string(tile) + ", " + module + ")";
}

trace::Counter& hit_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("runtime.store.cache_hits");
  return c;
}
trace::Counter& miss_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("runtime.store.cache_misses");
  return c;
}
trace::Counter& eviction_counter() {
  static trace::Counter& c = trace::MetricsRegistry::global().counter(
      "runtime.store.cache_evictions");
  return c;
}
trace::Counter& source_bytes_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("runtime.store.source_bytes");
  return c;
}
trace::Gauge& resident_bytes_gauge() {
  static trace::Gauge& g = trace::MetricsRegistry::global().gauge(
      "runtime.store.resident_bytes");
  return g;
}

}  // namespace

BitstreamStore::BitstreamStore(soc::MainMemory& memory, StoreOptions options,
                               AsyncBitstreamSource* source)
    : memory_(memory), options_(options), source_(source) {
  if (source_ == nullptr && options_.cache_slots > 0) {
    owned_source_ = std::make_unique<MemoryBitstreamSource>();
    source_ = owned_source_.get();
  }
}

const BitstreamImage& BitstreamStore::add(
    int tile, const std::string& module, std::size_t bytes,
    std::span<const std::uint8_t> payload, std::uint32_t crc) {
  PRESP_REQUIRE(bytes > 0, "empty bitstream");
  PRESP_REQUIRE(!has(tile, module), "bitstream for " +
                                        key_name(tile, module) +
                                        " already registered");
  PRESP_REQUIRE(payload.empty() || payload.size() <= bytes,
                "payload larger than image");
  max_image_bytes_ = std::max(max_image_bytes_, bytes);
  if (options_.cache_slots > 0 && !module.empty()) {
    // Cached image: metadata only; the payload lives in the async source
    // until a miss pulls it into a slot slab.
    PRESP_REQUIRE(slot_bytes_ == 0 || bytes <= slot_bytes_,
                  "bitstream for " + key_name(tile, module) + " (" +
                      std::to_string(bytes) +
                      " B) exceeds the cache slot size (" +
                      std::to_string(slot_bytes_) + " B)");
    source_->store(tile, module,
                   std::vector<std::uint8_t>(payload.begin(), payload.end()));
    Record rec;
    rec.image = BitstreamImage{module, tile, 0, bytes, crc};
    return records_.emplace(std::make_pair(tile, module), std::move(rec))
        .first->second.image;
  }

  // Eager image (legacy path, and every blanking image): copy into its
  // own DRAM region now, resident forever. An image without a payload
  // only needs its address.
  const std::string region =
      "pbs/" + std::to_string(tile) + "/" +
      (module.empty() ? std::string("<blank>") : module);
  const std::uint64_t addr = payload.empty()
                                 ? memory_.reserve(region, bytes)
                                 : memory_.allocate(region, bytes);
  if (!payload.empty()) {
    auto dst = memory_.bytes(addr, payload.size());
    std::copy(payload.begin(), payload.end(), dst.begin());
  }
  memory_.attach_blob(addr, soc::BitstreamBlob{module, tile, bytes, crc});

  Record rec;
  rec.image = BitstreamImage{module, tile, addr, bytes, crc};
  rec.permanent = true;
  rec.resident = true;
  return records_.emplace(std::make_pair(tile, module), std::move(rec))
      .first->second.image;
}

const BitstreamImage& BitstreamStore::add_blank(int tile,
                                                std::size_t bytes) {
  return add(tile, "", bytes);
}

bool BitstreamStore::has(int tile, const std::string& module) const {
  return records_.find({tile, module}) != records_.end();
}

BitstreamStore::Record& BitstreamStore::record_at(
    int tile, const std::string& module) {
  const auto it = records_.find({tile, module});
  PRESP_REQUIRE(it != records_.end(),
                "no bitstream for " + key_name(tile, module));
  return it->second;
}

const BitstreamImage& BitstreamStore::get(int tile,
                                          const std::string& module) const {
  const auto it = records_.find({tile, module});
  PRESP_REQUIRE(it != records_.end(),
                "no bitstream for " + key_name(tile, module));
  PRESP_REQUIRE(it->second.resident,
                "bitstream for " + key_name(tile, module) +
                    " is not resident; acquire() it first");
  return it->second.image;
}

bool BitstreamStore::resident(int tile, const std::string& module) const {
  const auto it = records_.find({tile, module});
  return it != records_.end() && it->second.resident;
}

void BitstreamStore::ensure_cache(sim::Kernel& kernel) {
  if (credits_ != nullptr) return;
  slot_bytes_ =
      options_.slot_bytes > 0 ? options_.slot_bytes : max_image_bytes_;
  PRESP_REQUIRE(slot_bytes_ > 0, "cache enabled with no images registered");
  const int slots = options_.cache_slots;
  slot_addrs_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    slot_addrs_.push_back(
        memory_.allocate("pbs-cache/slot" + std::to_string(i), slot_bytes_));
  }
  slot_owners_.assign(static_cast<std::size_t>(slots), nullptr);
  credits_ = std::make_unique<sim::Semaphore>(
      kernel, static_cast<std::uint32_t>(slots));
}

int BitstreamStore::take_slot() {
  for (std::size_t i = 0; i < slot_owners_.size(); ++i) {
    if (slot_owners_[i] == nullptr) return static_cast<int>(i);
  }
  // Evict the least-recently-used unpinned resident. The credit held by
  // the caller guarantees at most slots-1 other records are pinned, so
  // a victim always exists.
  int victim = -1;
  std::uint64_t oldest = 0;
  for (std::size_t i = 0; i < slot_owners_.size(); ++i) {
    const Record* owner = slot_owners_[i];
    if (owner->pins > 0) continue;
    if (victim < 0 || owner->last_use < oldest) {
      victim = static_cast<int>(i);
      oldest = owner->last_use;
    }
  }
  PRESP_ASSERT_MSG(victim >= 0, "cache credit accounting broke: no victim");
  Record* owner = slot_owners_[static_cast<std::size_t>(victim)];
  owner->resident = false;
  owner->slot = -1;
  owner->image.address = 0;
  slot_owners_[static_cast<std::size_t>(victim)] = nullptr;
  resident_bytes_ -= owner->image.bytes;
  ++stats_.evictions;
  eviction_counter().add(1);
  resident_bytes_gauge().set(static_cast<double>(resident_bytes_));
  return victim;
}

sim::Process BitstreamStore::acquire(sim::Kernel& kernel, int tile,
                                     std::string module,
                                     StoreTicket& ticket) {
  Record& rec = record_at(tile, module);
  if (rec.permanent) {
    ++stats_.hits;
    hit_counter().add(1);
    ticket.image = rec.image;
    ticket.done.trigger();
    co_return;
  }
  ensure_cache(kernel);
  const sim::Time t0 = kernel.now();
  if (rec.pins == 0) co_await credits_->acquire();
  ++rec.pins;
  if (rec.resident) {
    ++stats_.hits;
    hit_counter().add(1);
  } else if (rec.fetching != nullptr) {
    // A fetch for this image is already in flight (prefetch or another
    // acquirer): share it.
    ++stats_.hits;
    hit_counter().add(1);
    const auto fetching = rec.fetching;
    co_await fetching->wait();
  } else {
    ++stats_.misses;
    miss_counter().add(1);
    rec.fetching = std::make_shared<sim::SimEvent>(kernel);
    const int slot = take_slot();
    rec.slot = slot;
    slot_owners_[static_cast<std::size_t>(slot)] = &rec;
    PRESP_REQUIRE(rec.image.bytes <= slot_bytes_,
                  "bitstream for " + key_name(tile, module) +
                      " exceeds the cache slot size");
    rec.image.address = slot_addrs_[static_cast<std::size_t>(slot)];
    if (trace::enabled(kTrc)) {
      trace::sim_begin(kTrc, "store-fetch:" + module, kernel.now(),
                       static_cast<std::uint32_t>(std::max(tile, 0)),
                       static_cast<double>(rec.image.bytes));
    }
    // Launch the real asynchronous read first, then let the simulated
    // latency elapse while it completes on the host.
    auto payload_future = source_->fetch(tile, module);
    co_await sim::Delay(kernel,
                        source_->latency_cycles(rec.image.bytes));
    std::vector<std::uint8_t> payload = payload_future.get();
    PRESP_REQUIRE(payload.size() <= rec.image.bytes,
                  "source payload larger than registered image for " +
                      key_name(tile, module));
    if (!payload.empty()) {
      auto dst = memory_.bytes(rec.image.address, payload.size());
      std::copy(payload.begin(), payload.end(), dst.begin());
    }
    memory_.attach_blob(
        rec.image.address,
        soc::BitstreamBlob{module, tile, rec.image.bytes, rec.image.crc});
    rec.resident = true;
    resident_bytes_ += rec.image.bytes;
    ++stats_.source_fetches;
    stats_.source_bytes += rec.image.bytes;
    source_bytes_counter().add(rec.image.bytes);
    resident_bytes_gauge().set(static_cast<double>(resident_bytes_));
    if (trace::enabled(kTrc)) {
      trace::sim_end(kTrc, "store-fetch:" + module, kernel.now(),
                     static_cast<std::uint32_t>(std::max(tile, 0)));
    }
    const auto fetching = rec.fetching;
    rec.fetching.reset();
    fetching->trigger();
  }
  rec.last_use = ++lru_tick_;
  stats_.fetch_wait_cycles += static_cast<long long>(kernel.now() - t0);
  ticket.image = rec.image;
  ticket.done.trigger();
}

void BitstreamStore::release(int tile, const std::string& module) {
  Record& rec = record_at(tile, module);
  if (rec.permanent) return;
  PRESP_REQUIRE(rec.pins > 0,
                "release without acquire for " + key_name(tile, module));
  if (--rec.pins == 0) credits_->release();
}

sim::Process BitstreamStore::prefetch(sim::Kernel& kernel, int tile,
                                      std::string module,
                                      sim::SimEvent& done) {
  StoreTicket ticket(kernel);
  acquire(kernel, tile, module, ticket);
  co_await ticket.done.wait();
  release(tile, module);
  done.trigger();
}

std::vector<BitstreamImage> BitstreamStore::images() const {
  std::vector<BitstreamImage> out;
  out.reserve(records_.size());
  for (const auto& [key, rec] : records_) out.push_back(rec.image);
  return out;
}

std::size_t BitstreamStore::total_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, rec] : records_) total += rec.image.bytes;
  return total;
}

}  // namespace presp::runtime
