#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cstring>

#include "src/common/hash.h"
#include "src/common/rng.h"

namespace perfbench {
namespace {

constexpr uint32_t kKeyBytes = 17;  // fdpcache::KeyString: "k" + 16 hex digits.
constexpr size_t kPoolBytes = 1 << 20;
constexpr uint32_t kMaxValueBytes = 72 * 1024;

double MeanItemBytes(const fdpcache::KvWorkloadConfig& kv) {
  const double small = (kv.small_value_min + kv.small_value_max) / 2.0;
  const double large = (kv.large_value_min + kv.large_value_max) / 2.0;
  return kKeyBytes + kv.small_key_fraction * small + (1.0 - kv.small_key_fraction) * large;
}

// Marks the key ids a KvTraceGenerator over `num_keys` keys can produce: it
// maps Zipf rank r in [1, num_keys] to id HashU64(r) % num_keys.
std::vector<bool> ReachableIds(uint64_t num_keys) {
  std::vector<bool> reachable(num_keys, false);
  for (uint64_t rank = 1; rank <= num_keys; ++rank) {
    reachable[fdpcache::HashU64(rank) % num_keys] = true;
  }
  return reachable;
}

// The key space (all clients together) whose streams reach about `reachable`
// distinct key ids. Each client draws from its own num_keys / num_clients ids.
uint64_t KeySpaceReaching(double reachable, uint32_t num_clients) {
  const auto per_client = static_cast<uint64_t>(reachable / num_clients);
  const std::vector<bool> ids = ReachableIds(per_client);
  const auto hit = static_cast<double>(std::count(ids.begin(), ids.end(), true));
  return static_cast<uint64_t>(static_cast<double>(per_client) * per_client / hit) *
         num_clients;
}

}  // namespace

std::optional<WorkloadSpec> MakeWorkload(const std::string& name, uint32_t num_clients,
                                         uint64_t flash_cache_bytes, uint64_t logical_bytes) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "ram_hot") {
    // Small values over 4,000 keys that fit the DRAM tier: every Get takes
    // the lock-free RAM path and the flash tier stays idle.
    spec.kv.num_keys = KeySpaceReaching(4000, num_clients);
    spec.kv.zipf_alpha = 0.9;
    spec.kv.get_fraction = 0.95;
    spec.kv.set_fraction = 0.05;
    spec.kv.small_key_fraction = 1.0;
    spec.api = Api::kBlocking;
    spec.window_ops = 250'000;
    spec.ops_per_client = 1'000'000;
    spec.warmup_max_ops = 200'000;
  } else if (name == "kv_async") {
    // Meta KV Cache over a key space ~1.8x the flash cache, through the
    // async API: flash reads park on device tokens.
    spec.kv = fdpcache::KvWorkloadConfig::MetaKvCache();
    spec.kv.num_keys = KeySpaceReaching(
        1.8 * static_cast<double>(flash_cache_bytes) / MeanItemBytes(spec.kv), num_clients);
    spec.api = Api::kAsync;
    spec.async_depth = 8;
    spec.window_ops = 8'000;
    spec.ops_per_client = 600'000;
    spec.warmup_max_ops = 2'000'000;
  } else if (name == "twitter_sync") {
    // Twitter cluster12 (write-heavy) through the blocking API: the DLWA
    // workload, DRAM evictions spill into SOC/LOC writes and FTL GC.
    spec.kv = fdpcache::KvWorkloadConfig::TwitterCluster12();
    spec.kv.num_keys = KeySpaceReaching(
        0.9 * static_cast<double>(logical_bytes) / MeanItemBytes(spec.kv), num_clients);
    spec.api = Api::kBlocking;
    spec.window_ops = 8'000;
    spec.ops_per_client = 600'000;
    spec.warmup_max_ops = 2'000'000;
  } else {
    return std::nullopt;
  }
  return spec;
}

PayloadPool::PayloadPool(uint64_t seed) : bytes_(kPoolBytes + kMaxValueBytes, '\0') {
  fdpcache::Rng rng(fdpcache::HashU64(seed) ^ 0x706f6f6cull);
  for (size_t i = 0; i < bytes_.size(); i += sizeof(uint64_t)) {
    const uint64_t word = rng.Next();
    std::memcpy(&bytes_[i], &word, sizeof(word));
  }
}

size_t PayloadPool::SliceOffset(uint64_t key_id, uint32_t version) const {
  return fdpcache::Mix64(fdpcache::HashU64(key_id) + version) % kPoolBytes;
}

void PayloadPool::Fill(uint64_t key_id, uint32_t version, uint32_t size, char* out) const {
  std::memcpy(out, &key_id, 8);
  std::memcpy(out + 8, &version, 4);
  std::memcpy(out + 12, &size, 4);
  std::memcpy(out + kValueHeaderBytes, bytes_.data() + SliceOffset(key_id, version),
              size - kValueHeaderBytes);
}

bool PayloadPool::Matches(uint64_t key_id, uint32_t version, uint32_t size,
                          std::string_view value) const {
  if (value.size() != size) {
    return false;
  }
  char header[kValueHeaderBytes];
  std::memcpy(header, &key_id, 8);
  std::memcpy(header + 8, &version, 4);
  std::memcpy(header + 12, &size, 4);
  return std::memcmp(value.data(), header, kValueHeaderBytes) == 0 &&
         std::memcmp(value.data() + kValueHeaderBytes,
                     bytes_.data() + SliceOffset(key_id, version),
                     size - kValueHeaderBytes) == 0;
}

ClientStream::ClientStream(const WorkloadSpec& spec, uint32_t client, uint32_t num_clients,
                           uint64_t seed)
    : num_clients_(num_clients) {
  fdpcache::KvWorkloadConfig kv = spec.kv;
  kv.num_keys = spec.kv.num_keys / num_clients;
  kv.seed = fdpcache::HashU64(seed) ^ fdpcache::Mix64(client + 1);
  fdpcache::KvTraceGenerator generator(kv);
  const std::vector<bool> reachable = ReachableIds(kv.num_keys);
  for (uint64_t id = 0; id < kv.num_keys; ++id) {
    if (reachable[id]) {
      ++key_space_keys_;
      key_space_bytes_ += kKeyBytes + generator.ValueSizeOf(id);
    }
  }
  versions_.assign(kv.num_keys, 0);
  value_sizes_.assign(kv.num_keys, 0);
  touched_.assign(kv.num_keys, 0);
  ops_.reserve(spec.ops_per_client);
  for (uint64_t i = 0; i < spec.ops_per_client; ++i) {
    fdpcache::Op op = *generator.Next();
    value_sizes_[op.key_id] = op.value_size;
    op.key_id = op.key_id * num_clients + client;
    ops_.push_back(op);
  }
}

void ClientStream::ClearTouched() { std::fill(touched_.begin(), touched_.end(), 0); }

uint64_t ClientStream::TouchedKeys() const {
  uint64_t keys = 0;
  for (const uint8_t t : touched_) {
    keys += t;
  }
  return keys;
}

uint64_t ClientStream::TouchedBytes() const {
  uint64_t bytes = 0;
  for (size_t i = 0; i < touched_.size(); ++i) {
    if (touched_[i] != 0) {
      bytes += kKeyBytes + value_sizes_[i];
    }
  }
  return bytes;
}

Inputs::Inputs(const WorkloadSpec& workload, uint32_t num_clients, uint64_t seed)
    : spec(workload), pool(seed) {
  const uint64_t num_keys = spec.kv.num_keys / num_clients * num_clients;
  keys.reserve(num_keys);
  for (uint64_t id = 0; id < num_keys; ++id) {
    keys.push_back(fdpcache::KeyString(id));
  }
  clients.reserve(num_clients);
  for (uint32_t c = 0; c < num_clients; ++c) {
    clients.emplace_back(spec, c, num_clients, seed);
  }
}

}  // namespace perfbench
