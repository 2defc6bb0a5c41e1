// Wrapper equivalence: TimedDevice must not change what the device sees.
//
// Runs a 1-client twitter_sync deployment with write pipelining off twice,
// for the same fixed number of windows: once with the shards talking to the
// device directly and once through TimedDevice. Device read/write counts,
// DLWA and hit ratio must be identical. (With pipelining on, even 1-client
// runs differ slightly in DLWA from run to run, so they cannot be compared.)
//
// Exit code 0 on success, 1 on any difference or failed correctness check.
#include <cstdio>
#include <memory>

#include "perfbench/src/harness.h"
#include "perfbench/src/timed_device.h"
#include "perfbench/src/workloads.h"
#include "src/fdp/stats.h"

namespace perfbench {
namespace {

constexpr int kWindows = 6;
constexpr uint64_t kWindowOps = 5'000;
constexpr uint64_t kSeed = 7;

struct Outcome {
  Counters total;  // Whole life of the stack: warm-up and measured windows.
  double dlwa = 0.0;
  double hit_ratio = 0.0;
  uint64_t failures = 0;
  uint64_t device_calls = 0;  // Calls TimedDevice saw (0 when unwrapped).
};

Outcome RunOnce(bool wrapped) {
  Deployment deployment;
  deployment.num_clients = 1;
  deployment.loc_inflight_regions = 0;
  deployment.soc_inflight_writes = 0;
  std::unique_ptr<Tracer> tracer;
  if (wrapped) {
    tracer = std::make_unique<Tracer>(deployment.num_clients, 0);
  }
  Outcome outcome;
  {
    Stack stack(deployment, tracer.get());
    WorkloadSpec spec = *MakeWorkload("twitter_sync", deployment.num_clients,
                                      stack.flash_cache_bytes(),
                                      stack.ssd().logical_capacity_bytes());
    spec.window_ops = kWindowOps;
    Inputs inputs(spec, deployment.num_clients, kSeed);
    LoadGenerator load(&stack, &inputs, tracer.get());
    outcome.failures += load.Warmup().Failures();
    outcome.failures += stack.cache().Flush() ? 0 : 1;
    const Counters before = ReadCounters(stack);
    for (int i = 0; i < kWindows; ++i) {
      outcome.failures += load.RunWindow().tally.Failures();
    }
    outcome.failures += stack.cache().Flush() ? 0 : 1;
    outcome.total = ReadCounters(stack);
    const Counters delta = outcome.total.Minus(before);
    fdpcache::FdpStatistics begin;
    fdpcache::FdpStatistics end;
    end.host_bytes_written = delta.host_bytes;
    end.media_bytes_written = delta.media_bytes;
    outcome.dlwa = fdpcache::FdpStatistics::IntervalDlwa(begin, end);
    outcome.hit_ratio = delta.gets == 0 ? 0.0
                                        : static_cast<double>(delta.ram_hits + delta.nvm_hits) /
                                              static_cast<double>(delta.gets);
    outcome.failures += outcome.total.io_errors;
  }
  if (tracer != nullptr) {
    for (const TraceSlot& slot : tracer->slots()) {
      outcome.device_calls += slot.sync_ios + slot.submits + slot.polls + slot.waits;
    }
  }
  return outcome;
}

int Main() {
  const Outcome direct = RunOnce(false);
  const Outcome wrapped = RunOnce(true);
  std::printf("%-12s %12s %12s %14s %14s %10s %10s\n", "", "reads", "writes", "read_bytes",
              "write_bytes", "dlwa", "hit_ratio");
  const auto print = [](const char* name, const Outcome& o) {
    std::printf("%-12s %12llu %12llu %14llu %14llu %10.6f %10.6f\n", name,
                static_cast<unsigned long long>(o.total.reads),
                static_cast<unsigned long long>(o.total.writes),
                static_cast<unsigned long long>(o.total.read_bytes),
                static_cast<unsigned long long>(o.total.write_bytes), o.dlwa, o.hit_ratio);
  };
  print("direct", direct);
  print("wrapped", wrapped);
  bool ok = true;
  const auto check = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::printf("FAIL: %s\n", what);
      ok = false;
    }
  };
  check(direct.failures == 0 && wrapped.failures == 0, "correctness checks passed");
  check(wrapped.device_calls > 0, "the wrapper saw the device traffic");
  check(direct.total.writes > 0 && direct.total.reads > 0, "the run reached the device");
  check(direct.total.reads == wrapped.total.reads, "device reads identical");
  check(direct.total.writes == wrapped.total.writes, "device writes identical");
  check(direct.total.read_bytes == wrapped.total.read_bytes, "device read bytes identical");
  check(direct.total.write_bytes == wrapped.total.write_bytes, "device write bytes identical");
  check(direct.dlwa == wrapped.dlwa, "dlwa identical");
  check(direct.hit_ratio == wrapped.hit_ratio, "hit_ratio identical");
  std::printf("%s\n", ok ? "PASS" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Main(); }
