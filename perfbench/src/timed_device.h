// Layer timing from outside the library, for the traced benchmark run.
//
// TimedDevice is a pass-through Device placed between each HybridCache and
// the shared device. It times every SyncIo/Submit/Poll/Wait the cache tier
// makes, maps each token's submit time to its reap, and records one span per
// call. The client threads record their own cache-call spans into the same
// Tracer, so a device span's parent is the client op that caused it (0 when
// the call came from the cache's completion poller).
//
// A Tracer has one slot per client thread, touched only by that thread, plus
// one shared slot (mutex-guarded) for every other thread. Spans are kept in
// memory up to a fixed capacity per slot; the rest are counted as dropped.
// Counters and latency samples are never dropped.
#ifndef PERFBENCH_SRC_TIMED_DEVICE_H_
#define PERFBENCH_SRC_TIMED_DEVICE_H_

#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/navy/device.h"

namespace perfbench {

uint64_t NowNs();

// A duration in nanoseconds as a 32-bit latency sample (saturates at ~4.3 s).
inline uint32_t ClampNs(uint64_t ns) {
  return ns > std::numeric_limits<uint32_t>::max() ? std::numeric_limits<uint32_t>::max()
                                                    : static_cast<uint32_t>(ns);
}

enum class SpanKind : uint8_t {
  kGet,
  kSet,
  kLookupAsync,
  kInsertAsync,
  kSyncIo,
  kSubmit,
  kPoll,
  kWait,
};
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t parent = 0;  // Client op id; 0 = no client op (poller thread).
  SpanKind kind = SpanKind::kGet;
};

// Cache-line aligned: a client thread updates its slot on every device call.
struct alignas(64) TraceSlot {
  uint64_t sync_ios = 0;
  uint64_t submits = 0;
  uint64_t polls = 0;
  uint64_t empty_polls = 0;
  uint64_t waits = 0;
  uint64_t device_ns = 0;  // Time inside any device call on this slot's thread(s).
  std::vector<uint32_t> sync_io_ns;
  std::vector<uint32_t> submit_ns;
  std::vector<uint32_t> submit_to_reap_ns;
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;
};

class Tracer {
 public:
  Tracer(uint32_t num_clients, size_t span_capacity_per_slot);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Binds the calling thread to client slot `client` (-1 = the shared slot)
  // and names the client op its next device calls belong to.
  static void BindThread(int client);
  static void SetCurrentOp(uint64_t op_id);
  static uint64_t CurrentOp();

  // Runs `fn(TraceSlot&)` on the calling thread's slot.
  template <typename Fn>
  void WithSlot(Fn&& fn);

  // Client `client`'s slot, for that client thread's own span recording.
  TraceSlot& client_slot(uint32_t client) { return slots_[client]; }
  // Clears every slot. Only at quiescence.
  void Reset();

  void RecordSpan(TraceSlot& slot, SpanKind kind, uint64_t start_ns, uint64_t end_ns,
                  uint64_t parent) const;

  // Read only after every traced thread has stopped.
  const std::vector<TraceSlot>& slots() const { return slots_; }
  uint64_t SpansDropped() const;
  // Writes the kept spans as chrome://tracing JSON. Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  size_t span_capacity_;
  std::vector<TraceSlot> slots_;  // [0, num_clients) clients, back() shared.
  std::mutex shared_mu_;
};

class TimedDevice final : public fdpcache::Device {
 public:
  // `inner` and `tracer` are not owned and must outlive this device.
  TimedDevice(fdpcache::Device* inner, Tracer* tracer);

  fdpcache::CompletionToken Submit(const fdpcache::IoRequest& request) override;
  std::optional<fdpcache::IoResult> Poll(fdpcache::CompletionToken token) override;
  fdpcache::IoResult Wait(fdpcache::CompletionToken token) override;
  void Drain() override { inner_->Drain(); }
  uint32_t InFlight() const override { return inner_->InFlight(); }
  fdpcache::IoResult SyncIo(const fdpcache::IoRequest& request) override;

  uint64_t size_bytes() const override { return inner_->size_bytes(); }
  uint64_t page_size() const override { return inner_->page_size(); }
  fdpcache::FdpCapabilities QueryFdp() const override { return inner_->QueryFdp(); }
  uint32_t NumPlacementHandles() const override { return inner_->NumPlacementHandles(); }
  uint32_t num_queue_pairs() const override { return inner_->num_queue_pairs(); }
  std::vector<fdpcache::QueuePairStats> PerQueuePairStats() const override {
    return inner_->PerQueuePairStats();
  }
  std::vector<fdpcache::LaneStats> PerLaneStats() const override {
    return inner_->PerLaneStats();
  }

 private:
  // Records the reap of `token` at `now` into `slot` (submit-to-reap time).
  void Reaped(fdpcache::CompletionToken token, uint64_t now, TraceSlot& slot);

  fdpcache::Device* inner_;
  Tracer* tracer_;
  std::mutex submitted_mu_;
  std::unordered_map<fdpcache::CompletionToken, uint64_t> submitted_ns_;
};

// --- Template implementation ---------------------------------------------------

namespace internal {
int BoundClient();
}  // namespace internal

template <typename Fn>
void Tracer::WithSlot(Fn&& fn) {
  const int client = internal::BoundClient();
  if (client >= 0 && static_cast<size_t>(client) + 1 < slots_.size()) {
    fn(slots_[client]);
    return;
  }
  std::lock_guard<std::mutex> lock(shared_mu_);
  fn(slots_.back());
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_DEVICE_H_
