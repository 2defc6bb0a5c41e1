#include "perfbench/src/timed_device.h"

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

thread_local int tl_client = -1;
thread_local uint64_t tl_current_op = 0;

}  // namespace

namespace internal {
int BoundClient() { return tl_client; }
}  // namespace internal

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGet:
      return "cache.Get";
    case SpanKind::kSet:
      return "cache.Set";
    case SpanKind::kLookupAsync:
      return "cache.LookupAsync";
    case SpanKind::kInsertAsync:
      return "cache.InsertAsync";
    case SpanKind::kSyncIo:
      return "device.SyncIo";
    case SpanKind::kSubmit:
      return "device.Submit";
    case SpanKind::kPoll:
      return "device.Poll";
    case SpanKind::kWait:
      return "device.Wait";
  }
  return "unknown";
}

Tracer::Tracer(uint32_t num_clients, size_t span_capacity_per_slot)
    : span_capacity_(span_capacity_per_slot), slots_(num_clients + 1) {
  for (TraceSlot& slot : slots_) {
    slot.spans.reserve(span_capacity_);
  }
}

void Tracer::Reset() {
  for (TraceSlot& slot : slots_) {
    std::vector<Span> spans = std::move(slot.spans);
    spans.clear();
    slot = TraceSlot{};
    slot.spans = std::move(spans);
  }
}

void Tracer::BindThread(int client) { tl_client = client; }
void Tracer::SetCurrentOp(uint64_t op_id) { tl_current_op = op_id; }
uint64_t Tracer::CurrentOp() { return tl_current_op; }

void Tracer::RecordSpan(TraceSlot& slot, SpanKind kind, uint64_t start_ns, uint64_t end_ns,
                        uint64_t parent) const {
  if (slot.spans.size() >= span_capacity_) {
    ++slot.spans_dropped;
    return;
  }
  slot.spans.push_back(Span{start_ns, end_ns, parent, kind});
}

uint64_t Tracer::SpansDropped() const {
  uint64_t dropped = 0;
  for (const TraceSlot& slot : slots_) {
    dropped += slot.spans_dropped;
  }
  return dropped;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"traceEvents\":[\n");
  bool first = true;
  for (size_t tid = 0; tid < slots_.size(); ++tid) {
    for (const Span& span : slots_[tid].spans) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                   first ? "" : ",\n", SpanKindName(span.kind), tid, span.start_ns / 1e3,
                   (span.end_ns - span.start_ns) / 1e3,
                   static_cast<unsigned long long>(span.parent));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

TimedDevice::TimedDevice(fdpcache::Device* inner, Tracer* tracer)
    : inner_(inner), tracer_(tracer) {}

fdpcache::CompletionToken TimedDevice::Submit(const fdpcache::IoRequest& request) {
  const uint64_t start = NowNs();
  const fdpcache::CompletionToken token = inner_->Submit(request);
  const uint64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(submitted_mu_);
    submitted_ns_[token] = start;
  }
  tracer_->WithSlot([&](TraceSlot& slot) {
    ++slot.submits;
    slot.device_ns += end - start;
    slot.submit_ns.push_back(ClampNs(end - start));
    tracer_->RecordSpan(slot, SpanKind::kSubmit, start, end, Tracer::CurrentOp());
  });
  return token;
}

std::optional<fdpcache::IoResult> TimedDevice::Poll(fdpcache::CompletionToken token) {
  const uint64_t start = NowNs();
  std::optional<fdpcache::IoResult> result = inner_->Poll(token);
  const uint64_t end = NowNs();
  tracer_->WithSlot([&](TraceSlot& slot) {
    ++slot.polls;
    slot.device_ns += end - start;
    tracer_->RecordSpan(slot, SpanKind::kPoll, start, end, Tracer::CurrentOp());
    if (result.has_value()) {
      Reaped(token, end, slot);
    } else {
      ++slot.empty_polls;
    }
  });
  return result;
}

fdpcache::IoResult TimedDevice::Wait(fdpcache::CompletionToken token) {
  const uint64_t start = NowNs();
  const fdpcache::IoResult result = inner_->Wait(token);
  const uint64_t end = NowNs();
  tracer_->WithSlot([&](TraceSlot& slot) {
    ++slot.waits;
    slot.device_ns += end - start;
    tracer_->RecordSpan(slot, SpanKind::kWait, start, end, Tracer::CurrentOp());
    Reaped(token, end, slot);
  });
  return result;
}

fdpcache::IoResult TimedDevice::SyncIo(const fdpcache::IoRequest& request) {
  const uint64_t start = NowNs();
  const fdpcache::IoResult result = inner_->SyncIo(request);
  const uint64_t end = NowNs();
  tracer_->WithSlot([&](TraceSlot& slot) {
    ++slot.sync_ios;
    slot.device_ns += end - start;
    slot.sync_io_ns.push_back(ClampNs(end - start));
    tracer_->RecordSpan(slot, SpanKind::kSyncIo, start, end, Tracer::CurrentOp());
  });
  return result;
}

void TimedDevice::Reaped(fdpcache::CompletionToken token, uint64_t now, TraceSlot& slot) {
  uint64_t submitted = 0;
  {
    std::lock_guard<std::mutex> lock(submitted_mu_);
    const auto it = submitted_ns_.find(token);
    if (it == submitted_ns_.end()) {
      return;
    }
    submitted = it->second;
    submitted_ns_.erase(it);
  }
  slot.submit_to_reap_ns.push_back(ClampNs(now - submitted));
}

}  // namespace perfbench
