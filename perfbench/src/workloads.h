// Benchmark workloads: specs, pre-generated op streams and the value oracle.
//
// Every workload runs `num_clients` closed-loop clients. Client c owns the
// keys {c, c + C, c + 2C, ...}: all Sets and Gets of a key come from one
// thread, so the version a Get must return is known exactly (the latest Set
// that client issued; async same-key ops complete in submission order).
//
// A value is a 16-byte header (key id, version, size) followed by a slice of
// a pre-built byte pool chosen by (key, version). Every hit is checked byte
// for byte against the value of the version the client last Set.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/workload/workload.h"

namespace perfbench {

enum class Api : uint8_t { kBlocking, kAsync };

struct WorkloadSpec {
  std::string name;
  fdpcache::KvWorkloadConfig kv;  // kv.num_keys is the whole key space.
  Api api = Api::kBlocking;
  uint32_t async_depth = 0;       // Outstanding async ops per client.
  uint64_t window_ops = 0;        // Ops per client in one measured window.
  uint64_t ops_per_client = 0;    // Length of each client's pre-generated stream.
  uint64_t warmup_max_ops = 0;    // Per-client cap on warm-up ops.
};

// The three benchmark workloads for `num_clients` clients. `flash_cache_bytes`
// and `logical_bytes` size the key spaces; nullopt for an unknown name.
//
// A key space is sized by the key ids its op streams can reach, not by
// kv.num_keys: KvTraceGenerator maps its Zipf ranks to ids through a hash
// modulo num_keys, so only about 1 - 1/e of the ids ever occur. num_keys is
// scaled up by the reachable fraction measured at that size.
std::optional<WorkloadSpec> MakeWorkload(const std::string& name, uint32_t num_clients,
                                         uint64_t flash_cache_bytes, uint64_t logical_bytes);

constexpr uint32_t kValueHeaderBytes = 16;

class PayloadPool {
 public:
  explicit PayloadPool(uint64_t seed);

  // Writes the `size`-byte value of (key, version) into `out`.
  void Fill(uint64_t key_id, uint32_t version, uint32_t size, char* out) const;
  // True iff `value` is exactly the `size`-byte value of (key, version).
  bool Matches(uint64_t key_id, uint32_t version, uint32_t size, std::string_view value) const;

 private:
  size_t SliceOffset(uint64_t key_id, uint32_t version) const;

  std::string bytes_;
};

// One client's pre-generated stream. Ops carry global key ids; the stream
// wraps around when a run needs more ops than were generated. Cache-line
// aligned: its client advances the cursor on every op.
class alignas(64) ClientStream {
 public:
  ClientStream(const WorkloadSpec& spec, uint32_t client, uint32_t num_clients, uint64_t seed);

  const fdpcache::Op& Next() {
    const fdpcache::Op& op = ops_[cursor_];
    cursor_ = cursor_ + 1 == ops_.size() ? 0 : cursor_ + 1;
    return op;
  }
  uint32_t LocalIndex(uint64_t key_id) const {
    return static_cast<uint32_t>(key_id / num_clients_);
  }
  // Latest version this client Set for the key (0 = never Set).
  uint32_t& version(uint64_t key_id) { return versions_[LocalIndex(key_id)]; }
  void MarkTouched(uint64_t key_id) { touched_[LocalIndex(key_id)] = 1; }
  void ClearTouched();
  // Distinct keys touched since ClearTouched, and their key + value bytes.
  uint64_t TouchedKeys() const;
  uint64_t TouchedBytes() const;
  // Key ids this client's generator can reach, and their key + value bytes.
  uint64_t key_space_keys() const { return key_space_keys_; }
  uint64_t key_space_bytes() const { return key_space_bytes_; }

 private:
  uint32_t num_clients_;
  uint64_t key_space_keys_ = 0;
  uint64_t key_space_bytes_ = 0;
  std::vector<fdpcache::Op> ops_;
  size_t cursor_ = 0;
  std::vector<uint32_t> versions_;
  std::vector<uint32_t> value_sizes_;
  std::vector<uint8_t> touched_;
};

// Everything a run generates before timing: key strings, payload pool, and
// the per-client streams.
struct Inputs {
  Inputs(const WorkloadSpec& spec, uint32_t num_clients, uint64_t seed);

  WorkloadSpec spec;
  std::vector<std::string> keys;  // Index = global key id.
  PayloadPool pool;
  std::vector<ClientStream> clients;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
