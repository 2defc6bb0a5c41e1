#include "perfbench/src/harness.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace perfbench {
namespace {

using fdpcache::AsyncResult;
using fdpcache::AsyncStatus;
using fdpcache::OpType;

// One in-flight async op of a window. The callback writes the completion
// fields; the issuing client reads them after its gate has drained.
struct AsyncSlot {
  uint64_t key_id = 0;
  uint32_t version = 0;
  uint32_t size = 0;
  bool is_get = false;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  AsyncStatus status = AsyncStatus::kMiss;
  bool parked = false;
  bool matched = false;
  std::atomic<uint32_t> fired{0};
};

// The slot whose Lookup/InsertAsync call the current thread is inside: a
// callback that finds its own slot here fired inline.
thread_local const AsyncSlot* tl_issuing = nullptr;

// Runs on whichever thread delivers the callback. Only the first call for a
// slot writes its fields. After the gate decrement the issuing client may
// return and free `s`, so nothing touches it then.
void CompleteAsync(AsyncGate* gate, const PayloadPool* pool, AsyncSlot* s, AsyncResult result) {
  if (s->fired.fetch_add(1, std::memory_order_acq_rel) != 0) {
    return;  // A repeated callback; counted when the window is tallied.
  }
  s->end_ns = NowNs();
  s->parked = tl_issuing != s;
  s->status = result.status;
  s->matched = result.hit() && pool->Matches(s->key_id, s->version, s->size, result.value);
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    --gate->outstanding;
  }
  gate->cv.notify_one();
}

}  // namespace

Stack::Stack(const Deployment& deployment, Tracer* tracer) : deployment_(deployment) {
  fdpcache::SsdConfig ssd;
  ssd.geometry.num_superblocks = deployment.num_superblocks;
  ssd.geometry.num_dies = deployment.num_dies;
  ssd.geometry.planes_per_die = deployment.planes_per_die;
  ssd.geometry.pages_per_block = deployment.pages_per_block;
  ssd.op_fraction = deployment.op_fraction;
  ssd_ = std::make_unique<fdpcache::SimulatedSsd>(ssd);
  const auto nsid = ssd_->CreateNamespace(ssd_->logical_capacity_bytes());
  if (!nsid.has_value()) {
    std::fprintf(stderr, "perfbench: SSD config yields no usable capacity\n");
    std::abort();
  }
  fdpcache::IoQueueConfig queue;
  queue.num_queue_pairs = deployment.num_shards;
  queue.exec_lanes = 0;
  device_ = std::make_unique<fdpcache::SimSsdDevice>(ssd_.get(), *nsid, &clock_, queue);
  if (tracer != nullptr) {
    timed_ = std::make_unique<TimedDevice>(device_.get(), tracer);
  }
  fdpcache::Device* shard_device =
      timed_ != nullptr ? static_cast<fdpcache::Device*>(timed_.get()) : device_.get();
  allocator_ = std::make_unique<fdpcache::PlacementHandleAllocator>(*device_);

  const uint64_t page = device_->page_size();
  shard_flash_bytes_ = device_->size_bytes() / deployment.num_shards / page * page;
  ram_bytes_per_shard_ =
      static_cast<uint64_t>(deployment.dram_fraction * static_cast<double>(shard_flash_bytes_));
  cache_ = std::make_unique<fdpcache::ShardedCache>(
      deployment.num_shards, [&](uint32_t shard) {
        fdpcache::HybridCacheConfig config;
        config.ram_bytes = ram_bytes_per_shard_;
        config.navy.loc_region_size = deployment.loc_region_bytes;
        config.navy.loc_inflight_regions = deployment.loc_inflight_regions;
        config.navy.soc_inflight_writes = deployment.soc_inflight_writes;
        config.navy.base_offset = shard * shard_flash_bytes_;
        config.navy.size_bytes = shard_flash_bytes_;
        config.navy.queue_pair = shard;
        return std::make_unique<fdpcache::HybridCache>(shard_device, config, allocator_.get());
      });
  cache_->AttachDevice(device_.get());
}

Stack::~Stack() { cache_->Flush(); }

Counters Counters::Minus(const Counters& before) const {
  Counters d = *this;
  d.gets -= before.gets;
  d.sets -= before.sets;
  d.ram_hits -= before.ram_hits;
  d.nvm_hits -= before.nvm_hits;
  d.shard_locks -= before.shard_locks;
  d.ram_retries -= before.ram_retries;
  d.ram_evictions -= before.ram_evictions;
  d.soc_inserts -= before.soc_inserts;
  d.soc_lookups -= before.soc_lookups;
  d.soc_bloom_rejects -= before.soc_bloom_rejects;
  d.soc_evictions -= before.soc_evictions;
  d.soc_bytes -= before.soc_bytes;
  d.soc_item_bytes -= before.soc_item_bytes;
  d.loc_bytes -= before.loc_bytes;
  d.loc_item_bytes -= before.loc_item_bytes;
  d.loc_regions_sealed -= before.loc_regions_sealed;
  d.buffer_hits -= before.buffer_hits;
  d.write_failures -= before.write_failures;
  d.reads -= before.reads;
  d.writes -= before.writes;
  d.read_bytes -= before.read_bytes;
  d.write_bytes -= before.write_bytes;
  d.io_errors -= before.io_errors;
  d.host_bytes -= before.host_bytes;
  d.media_bytes -= before.media_bytes;
  d.gc_relocated_pages -= before.gc_relocated_pages;
  d.gc_events -= before.gc_events;
  d.clean_ru_erases -= before.clean_ru_erases;
  for (size_t i = 0; i < d.ruh_io.size() && i < before.ruh_io.size(); ++i) {
    d.ruh_io[i].host_bytes_written -= before.ruh_io[i].host_bytes_written;
    d.ruh_io[i].media_bytes_written -= before.ruh_io[i].media_bytes_written;
  }
  return d;
}

Counters ReadCounters(Stack& stack) {
  Counters c;
  fdpcache::ShardedCache& cache = stack.cache();
  const fdpcache::ShardedCacheStats stats = cache.Stats();
  c.gets = stats.gets;
  c.sets = stats.sets;
  c.ram_hits = stats.ram_hits;
  c.nvm_hits = stats.nvm_hits;
  c.shard_locks = stats.shard_lock_acquisitions;
  c.ram_retries = stats.ram_optimistic_retries;
  for (uint32_t i = 0; i < cache.num_shards(); ++i) {
    c.ram_evictions += cache.shard(i).ram().stats().evictions;
    const fdpcache::NavyStats navy = cache.shard(i).navy().stats();
    c.soc_inserts += navy.soc.inserts;
    c.soc_lookups += navy.soc.lookups;
    c.soc_bloom_rejects += navy.soc.bloom_rejects;
    c.soc_evictions += navy.soc.evictions;
    c.soc_bytes += navy.soc.bytes_written;
    c.soc_item_bytes += navy.soc.item_bytes_written;
    c.loc_bytes += navy.loc.bytes_written;
    c.loc_item_bytes += navy.loc.item_bytes_written;
    c.loc_regions_sealed += navy.loc.regions_sealed;
    c.buffer_hits += navy.soc.pending_buffer_hits + navy.loc.inflight_buffer_hits;
    c.write_failures += navy.soc.write_failures + navy.loc.regions_write_failed;
  }
  const fdpcache::DeviceStats device = stack.device().stats();
  c.reads = device.reads;
  c.writes = device.writes;
  c.read_bytes = device.read_bytes;
  c.write_bytes = device.write_bytes;
  c.io_errors = device.io_errors;
  const fdpcache::SsdTelemetry telemetry = stack.ssd().Telemetry(0);
  c.host_bytes = telemetry.fdp_stats.host_bytes_written;
  c.media_bytes = telemetry.fdp_stats.media_bytes_written;
  c.gc_relocated_pages = telemetry.gc_relocated_pages;
  c.gc_events = telemetry.gc_events;
  c.clean_ru_erases = telemetry.clean_ru_erases;
  c.ruh_io = telemetry.ruh_io;
  for (const fdpcache::RuhIoStats& ruh : c.ruh_io) {
    c.ruhs_written += ruh.host_bytes_written > 0 ? 1 : 0;
  }
  return c;
}

void OpTally::Add(const OpTally& other) {
  ops += other.ops;
  gets += other.gets;
  sets += other.sets;
  hits += other.hits;
  set_value_bytes += other.set_value_bytes;
  mismatches += other.mismatches;
  async_errors += other.async_errors;
  callback_anomalies += other.callback_anomalies;
}

void WindowResult::Append(const WindowResult& other) {
  tally.Add(other.tally);
  get_ns.insert(get_ns.end(), other.get_ns.begin(), other.get_ns.end());
  set_ns.insert(set_ns.end(), other.set_ns.begin(), other.set_ns.end());
  parked_ns.insert(parked_ns.end(), other.parked_ns.begin(), other.parked_ns.end());
  cache_call_ns += other.cache_call_ns;
  client_device_ns += other.client_device_ns;
}

LoadGenerator::LoadGenerator(Stack* stack, Inputs* inputs, Tracer* tracer)
    : stack_(stack), inputs_(inputs), tracer_(tracer) {
  for (size_t c = 0; c < inputs->clients.size(); ++c) {
    clients_.push_back(std::make_unique<ClientState>());
    clients_.back()->next_op_id = (static_cast<uint64_t>(c) + 1) << 48;
  }
}

WindowResult LoadGenerator::RunWindow() {
  const uint32_t num_clients = static_cast<uint32_t>(inputs_->clients.size());
  std::vector<WindowResult> per_client(num_clients);
  const uint64_t start = NowNs();
  std::vector<std::thread> threads;
  threads.reserve(num_clients);
  for (uint32_t c = 0; c < num_clients; ++c) {
    threads.emplace_back([this, c, &per_client] {
      if (inputs_->spec.api == Api::kAsync) {
        RunAsyncClient(c, &per_client[c]);
      } else {
        RunBlockingClient(c, &per_client[c]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (inputs_->spec.api == Api::kAsync) {
    // Eviction spills issued by the window's last ops are async ops too.
    stack_->cache().Drain();
  }
  WindowResult result;
  result.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  for (const WindowResult& client : per_client) {
    result.Append(client);
  }
  return result;
}

OpTally LoadGenerator::Warmup() {
  OpTally tally;
  const uint64_t target = stack_->flash_cache_bytes();
  for (uint64_t per_client = 0; per_client < inputs_->spec.warmup_max_ops;
       per_client += inputs_->spec.window_ops) {
    if (stack_->ssd().GetFdpStatisticsLog().host_bytes_written >= target) {
      break;
    }
    tally.Add(RunWindow().tally);
  }
  return tally;
}

void LoadGenerator::RunBlockingClient(uint32_t client, WindowResult* out) {
  Tracer::BindThread(tracer_ != nullptr ? static_cast<int>(client) : -1);
  ClientStream& stream = inputs_->clients[client];
  ClientState& state = *clients_[client];
  const PayloadPool& pool = inputs_->pool;
  fdpcache::ShardedCache& cache = stack_->cache();
  TraceSlot* slot = tracer_ != nullptr ? &tracer_->client_slot(client) : nullptr;
  const uint64_t device_ns_before = slot != nullptr ? slot->device_ns : 0;
  std::string value;
  std::string buffer;
  const uint64_t n = inputs_->spec.window_ops;
  out->get_ns.reserve(n);
  out->set_ns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const fdpcache::Op& op = stream.Next();
    stream.MarkTouched(op.key_id);
    const std::string& key = inputs_->keys[op.key_id];
    uint32_t& version = stream.version(op.key_id);
    const uint64_t op_id = state.next_op_id++;
    Tracer::SetCurrentOp(op_id);
    ++out->tally.ops;
    uint64_t start = 0;
    uint64_t end = 0;
    if (op.type == OpType::kGet) {
      start = NowNs();
      const bool hit = cache.Get(key, &value);
      end = NowNs();
      out->get_ns.push_back(ClampNs(end - start));
      ++out->tally.gets;
      if (hit) {
        ++out->tally.hits;
        if (!pool.Matches(op.key_id, version, op.value_size, value)) {
          ++out->tally.mismatches;
        }
      }
    } else {
      ++version;
      buffer.resize(op.value_size);
      pool.Fill(op.key_id, version, op.value_size, buffer.data());
      start = NowNs();
      cache.Set(key, buffer);
      end = NowNs();
      out->set_ns.push_back(ClampNs(end - start));
      ++out->tally.sets;
      out->tally.set_value_bytes += op.value_size;
    }
    if (slot != nullptr) {
      out->cache_call_ns += end - start;
      tracer_->RecordSpan(*slot, op.type == OpType::kGet ? SpanKind::kGet : SpanKind::kSet, start,
                          end, op_id);
    }
  }
  Tracer::SetCurrentOp(0);
  if (slot != nullptr) {
    out->client_device_ns = slot->device_ns - device_ns_before;
  }
}

void LoadGenerator::RunAsyncClient(uint32_t client, WindowResult* out) {
  Tracer::BindThread(tracer_ != nullptr ? static_cast<int>(client) : -1);
  ClientStream& stream = inputs_->clients[client];
  ClientState& state = *clients_[client];
  const PayloadPool* pool = &inputs_->pool;
  fdpcache::ShardedCache& cache = stack_->cache();
  AsyncGate* gate = &state.gate;
  const uint32_t depth = inputs_->spec.async_depth;
  TraceSlot* slot = tracer_ != nullptr ? &tracer_->client_slot(client) : nullptr;
  const uint64_t device_ns_before = slot != nullptr ? slot->device_ns : 0;
  const uint64_t n = inputs_->spec.window_ops;
  std::vector<AsyncSlot> slots(n);
  std::string buffer;

  for (uint64_t i = 0; i < n; ++i) {
    const fdpcache::Op& op = stream.Next();
    stream.MarkTouched(op.key_id);
    const std::string& key = inputs_->keys[op.key_id];
    uint32_t& version = stream.version(op.key_id);
    AsyncSlot* s = &slots[i];
    s->key_id = op.key_id;
    s->size = op.value_size;
    s->is_get = op.type == OpType::kGet;
    if (!s->is_get) {
      ++version;
      buffer.resize(op.value_size);
      pool->Fill(op.key_id, version, op.value_size, buffer.data());
    }
    s->version = version;
    {
      std::unique_lock<std::mutex> lock(gate->mu);
      gate->cv.wait(lock, [gate, depth] { return gate->outstanding < depth; });
      ++gate->outstanding;
    }
    const uint64_t op_id = state.next_op_id++;
    Tracer::SetCurrentOp(op_id);
    tl_issuing = s;
    s->start_ns = NowNs();
    if (s->is_get) {
      cache.LookupAsync(key, [gate, pool, s](AsyncResult r) {
        CompleteAsync(gate, pool, s, std::move(r));
      });
    } else {
      cache.InsertAsync(key, buffer, [gate, pool, s](AsyncResult r) {
        CompleteAsync(gate, pool, s, std::move(r));
      });
    }
    const uint64_t returned = NowNs();
    tl_issuing = nullptr;
    if (slot != nullptr) {
      out->cache_call_ns += returned - s->start_ns;
      tracer_->RecordSpan(*slot, s->is_get ? SpanKind::kLookupAsync : SpanKind::kInsertAsync,
                          s->start_ns, returned, op_id);
    }
  }
  Tracer::SetCurrentOp(0);
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [gate] { return gate->outstanding == 0; });
  }
  if (slot != nullptr) {
    out->client_device_ns = slot->device_ns - device_ns_before;
  }

  out->get_ns.reserve(n);
  out->set_ns.reserve(n);
  for (const AsyncSlot& s : slots) {
    ++out->tally.ops;
    if (s.fired.load(std::memory_order_acquire) != 1) {
      ++out->tally.callback_anomalies;
      continue;
    }
    const uint32_t latency = ClampNs(s.end_ns - s.start_ns);
    if (s.parked) {
      out->parked_ns.push_back(latency);
    }
    if (s.status == AsyncStatus::kError) {
      ++out->tally.async_errors;
    }
    if (s.is_get) {
      out->get_ns.push_back(latency);
      ++out->tally.gets;
      if (s.status == AsyncStatus::kHit) {
        ++out->tally.hits;
        out->tally.mismatches += s.matched ? 0 : 1;
      }
    } else {
      out->set_ns.push_back(latency);
      ++out->tally.sets;
      out->tally.set_value_bytes += s.size;
    }
  }
}

}  // namespace perfbench
