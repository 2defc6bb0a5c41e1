// The benchmark's deployment and closed-loop load generator.
//
// Stack builds the paper's deployment: one ShardedCache whose shards share
// one SimulatedSsd with FDP on, shard i submitting on queue pair i with its
// own SOC and LOC placement handles. LoadGenerator runs the workload's clients
// against it in windows: every client issues a fixed number of ops, then the
// window ends once all clients are done and async work has drained.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "perfbench/src/timed_device.h"
#include "perfbench/src/workloads.h"
#include "src/cache/sharded_cache.h"
#include "src/common/clock.h"
#include "src/navy/placement.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"

namespace perfbench {

struct Deployment {
  // Device: 128 x 2 MiB superblocks (8 dies x 2 planes x 32 pages/block),
  // 10% OP, FDP on with the default 8 initially-isolated RUHs, background
  // GC off (only the FTL's foreground GC runs).
  uint32_t num_superblocks = 128;
  uint32_t num_dies = 8;
  uint32_t planes_per_die = 2;
  uint32_t pages_per_block = 32;
  double op_fraction = 0.10;
  uint32_t num_shards = 4;
  uint32_t num_clients = 2;
  // DRAM tier per shard as a share of the shard's flash (the paper's
  // 42 GB : 930 GB).
  double dram_fraction = 0.045;
  uint64_t loc_region_bytes = 512 * 1024;
  // Write pipelining, the concurrent backend's defaults (0/0 = off).
  uint32_t loc_inflight_regions = 2;
  uint32_t soc_inflight_writes = 8;
};

class Stack {
 public:
  // With a tracer, the shards reach the device through one TimedDevice; the
  // ShardedCache is still attached to the real device, so its completion
  // hook keeps waking the cache's poller.
  Stack(const Deployment& deployment, Tracer* tracer);
  // Flushes the cache before anything beneath it is torn down.
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  fdpcache::ShardedCache& cache() { return *cache_; }
  fdpcache::SimulatedSsd& ssd() { return *ssd_; }
  fdpcache::Device& device() { return *device_; }
  const Deployment& deployment() const { return deployment_; }
  uint64_t shard_flash_bytes() const { return shard_flash_bytes_; }
  uint64_t ram_bytes_per_shard() const { return ram_bytes_per_shard_; }
  uint64_t flash_cache_bytes() const { return shard_flash_bytes_ * deployment_.num_shards; }
  uint64_t dram_bytes() const { return ram_bytes_per_shard_ * deployment_.num_shards; }

 private:
  Deployment deployment_;
  fdpcache::VirtualClock clock_;
  std::unique_ptr<fdpcache::SimulatedSsd> ssd_;
  std::unique_ptr<fdpcache::SimSsdDevice> device_;
  std::unique_ptr<TimedDevice> timed_;
  std::unique_ptr<fdpcache::PlacementHandleAllocator> allocator_;
  uint64_t shard_flash_bytes_ = 0;
  uint64_t ram_bytes_per_shard_ = 0;
  std::unique_ptr<fdpcache::ShardedCache> cache_;
};

// Cumulative counters read from the layers' public stats at quiescence.
struct Counters {
  // cache
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t ram_hits = 0;
  uint64_t nvm_hits = 0;
  uint64_t shard_locks = 0;
  uint64_t ram_retries = 0;
  uint64_t ram_evictions = 0;
  // navy, summed over shards
  uint64_t soc_inserts = 0;
  uint64_t soc_lookups = 0;
  uint64_t soc_bloom_rejects = 0;
  uint64_t soc_evictions = 0;
  uint64_t soc_bytes = 0;
  uint64_t soc_item_bytes = 0;
  uint64_t loc_bytes = 0;
  uint64_t loc_item_bytes = 0;
  uint64_t loc_regions_sealed = 0;
  uint64_t buffer_hits = 0;
  uint64_t write_failures = 0;
  // device
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t io_errors = 0;
  // ssd
  uint64_t host_bytes = 0;
  uint64_t media_bytes = 0;
  uint64_t gc_relocated_pages = 0;
  uint64_t gc_events = 0;
  uint64_t clean_ru_erases = 0;
  std::vector<fdpcache::RuhIoStats> ruh_io;
  uint32_t ruhs_written = 0;  // RUHs with host writes so far.

  // Field-wise `*this - before` (ruhs_written stays cumulative).
  Counters Minus(const Counters& before) const;
};

Counters ReadCounters(Stack& stack);

struct OpTally {
  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t hits = 0;
  uint64_t set_value_bytes = 0;
  uint64_t mismatches = 0;          // Hits whose bytes were not the expected version.
  uint64_t async_errors = 0;        // Async ops that completed with kError.
  uint64_t callback_anomalies = 0;  // Callbacks that fired zero or several times.

  uint64_t Failures() const { return mismatches + async_errors + callback_anomalies; }
  void Add(const OpTally& other);
};

// Cache-line aligned: each client thread fills its own, op by op.
struct alignas(64) WindowResult {
  double seconds = 0.0;
  OpTally tally;
  std::vector<uint32_t> get_ns;     // Call to return, or issue to callback.
  std::vector<uint32_t> set_ns;
  std::vector<uint32_t> parked_ns;  // Async ops whose callback did not fire inline.
  // Traced runs only: client time inside ShardedCache calls, and the part
  // of it spent inside Device calls.
  uint64_t cache_call_ns = 0;
  uint64_t client_device_ns = 0;

  void Append(const WindowResult& other);
};

// Caps one client's outstanding async ops.
struct AsyncGate {
  std::mutex mu;
  std::condition_variable cv;
  uint32_t outstanding = 0;
};

// A client's state that outlives a window. Cache-line aligned so the
// clients' per-op updates never share a line.
struct alignas(64) ClientState {
  AsyncGate gate;
  uint64_t next_op_id = 0;  // Unique across clients; 0 stays "no client op".
};

class LoadGenerator {
 public:
  // `tracer` (nullable) receives the client-op spans of traced windows.
  LoadGenerator(Stack* stack, Inputs* inputs, Tracer* tracer);

  // Runs one window: `window_ops` ops per client.
  WindowResult RunWindow();
  // Runs windows until the device has taken flash-cache-size host bytes or
  // each client has issued `warmup_max_ops`, whichever is first.
  OpTally Warmup();

 private:
  void RunBlockingClient(uint32_t client, WindowResult* out);
  void RunAsyncClient(uint32_t client, WindowResult* out);

  Stack* stack_;
  Inputs* inputs_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<ClientState>> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
