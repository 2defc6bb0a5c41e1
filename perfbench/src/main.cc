// perfbench: the repository benchmark.
//
//   perfbench --workload ram_hot|kv_async|twitter_sync --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// --trace 0 sets the deployment up three times and measures each set-up for
// S/3 seconds with nothing between the cache and the device. It prints the
// end-to-end metrics: setup_s is the median set-up, wall-clock figures are
// medians over the windows of all three, ratios use the summed counters.
// --trace 1 measures S/2 seconds untraced and S/2 seconds with TimedDevice
// between the shards and the device, and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Any failed
// correctness check makes the exit code 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/timed_device.h"
#include "perfbench/src/workloads.h"
#include "src/fdp/stats.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr size_t kSpanCapacityPerSlot = 1 << 15;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// Nearest-rank percentile of `samples`; 0 when empty.
double Percentile(std::vector<uint32_t> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size()))) - 1;
  const size_t index = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double Ratio(double numerator, double denominator, double if_empty = 0.0) {
  return denominator == 0.0 ? if_empty : numerator / denominator;
}

double Per(uint64_t numerator, uint64_t denominator, double if_empty = 0.0) {
  return Ratio(static_cast<double>(numerator), static_cast<double>(denominator), if_empty);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

// One set-up deployment: tracer (if traced), stack, pre-generated inputs,
// load generator. Declaration order is teardown order in reverse: the stack's final
// flush still goes through the TimedDevice, so the tracer is declared first.
struct Run {
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<LoadGenerator> load;
  double setup_s = 0.0;
  double pregen_s = 0.0;
  OpTally warmup;
  uint64_t failed_checks = 0;  // Flushes that reported failure.
};

std::unique_ptr<Run> SetUp(const Deployment& deployment, const std::string& workload,
                           uint64_t seed, bool traced) {
  auto run = std::make_unique<Run>();
  const uint64_t start = NowNs();
  if (traced) {
    run->tracer = std::make_unique<Tracer>(deployment.num_clients, kSpanCapacityPerSlot);
  }
  run->stack = std::make_unique<Stack>(deployment, run->tracer.get());
  const std::optional<WorkloadSpec> spec =
      MakeWorkload(workload, deployment.num_clients, run->stack->flash_cache_bytes(),
                   run->stack->ssd().logical_capacity_bytes());
  if (!spec.has_value()) {
    return nullptr;
  }
  const uint64_t pregen_start = NowNs();
  run->inputs = std::make_unique<Inputs>(*spec, deployment.num_clients, seed);
  run->pregen_s = static_cast<double>(NowNs() - pregen_start) * 1e-9;
  run->load =
      std::make_unique<LoadGenerator>(run->stack.get(), run->inputs.get(), run->tracer.get());
  run->warmup = run->load->Warmup();
  if (!run->stack->cache().Flush()) {
    ++run->failed_checks;
  }
  run->setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  return run;
}

// Per-window throughput and latency percentiles (microseconds).
struct WindowSummary {
  double ops_per_s = 0.0;
  double get_p50_us = 0.0;
  double get_p99_us = 0.0;
  double set_p50_us = 0.0;
  double set_p99_us = 0.0;
};

struct Phase {
  std::vector<WindowSummary> windows;
  // Every window appended, except the get/set latency samples, which are
  // summarised per window and only counted here.
  WindowResult total;
  uint64_t get_samples = 0;
  uint64_t set_samples = 0;
  Counters delta;
  Counters end;  // Cumulative counters at the end of the phase.
  uint64_t distinct_keys = 0;
  uint64_t working_set_bytes = 0;
  uint64_t failed_checks = 0;
};

Phase Measure(Run& run, double seconds) {
  Phase phase;
  for (ClientStream& client : run.inputs->clients) {
    client.ClearTouched();
  }
  if (run.tracer != nullptr) {
    run.tracer->Reset();
  }
  const Counters before = ReadCounters(*run.stack);
  const uint64_t start = NowNs();
  do {
    WindowResult window = run.load->RunWindow();
    WindowSummary summary;
    summary.ops_per_s = Ratio(static_cast<double>(window.tally.ops), window.seconds);
    summary.get_p50_us = Percentile(window.get_ns, 0.50) / 1e3;
    summary.get_p99_us = Percentile(window.get_ns, 0.99) / 1e3;
    summary.set_p50_us = Percentile(window.set_ns, 0.50) / 1e3;
    summary.set_p99_us = Percentile(window.set_ns, 0.99) / 1e3;
    phase.windows.push_back(summary);
    phase.get_samples += window.get_ns.size();
    phase.set_samples += window.set_ns.size();
    window.get_ns.clear();
    window.set_ns.clear();
    phase.total.Append(window);
  } while (static_cast<double>(NowNs() - start) * 1e-9 < seconds);
  if (!run.stack->cache().Flush()) {
    ++phase.failed_checks;
  }
  phase.end = ReadCounters(*run.stack);
  phase.delta = phase.end.Minus(before);
  for (const ClientStream& client : run.inputs->clients) {
    phase.distinct_keys += client.TouchedKeys();
    phase.working_set_bytes += client.TouchedBytes();
  }
  // The cache must have counted exactly the gets and sets the clients issued.
  if (phase.delta.gets != phase.total.tally.gets || phase.delta.sets != phase.total.tally.sets) {
    std::fprintf(stderr,
                 "perfbench: cache counted %llu gets / %llu sets, clients issued %llu / %llu\n",
                 static_cast<unsigned long long>(phase.delta.gets),
                 static_cast<unsigned long long>(phase.delta.sets),
                 static_cast<unsigned long long>(phase.total.tally.gets),
                 static_cast<unsigned long long>(phase.total.tally.sets));
    ++phase.failed_checks;
  }
  return phase;
}

// Median over windows of one per-window figure.
double MedianOverWindows(const std::vector<WindowSummary>& windows,
                         double WindowSummary::*field) {
  std::vector<double> values;
  for (const WindowSummary& window : windows) {
    values.push_back(window.*field);
  }
  return Median(values);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  void Print(const char* prefix) const {
    for (const Metric& m : metrics_) {
      std::printf("%s %-34s %16.6f %s\n", prefix, m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(), metrics_[i].value,
                    metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

void PrintDeployment(Stack& stack) {
  const Deployment& d = stack.deployment();
  const double physical = static_cast<double>(stack.ssd().physical_capacity_bytes());
  std::printf(
      "deployment: SimulatedSsd %u x %.0f MiB superblocks (%u dies x %u planes x %u pages/block), "
      "%.0f MiB physical, %.0f%% OP, FDP on, %u RUHs; %u shards x %.2f MiB flash + %.3f MiB "
      "DRAM; %u clients\n",
      d.num_superblocks, physical / d.num_superblocks / kMiB, d.num_dies, d.planes_per_die,
      d.pages_per_block, physical / kMiB, d.op_fraction * 100.0,
      stack.device().NumPlacementHandles(), d.num_shards, stack.shard_flash_bytes() / kMiB,
      stack.ram_bytes_per_shard() / kMiB, d.num_clients);
}

void PrintKeySpace(Stack& stack, const Inputs& inputs) {
  uint64_t keys = 0;
  uint64_t bytes = 0;
  for (const ClientStream& client : inputs.clients) {
    keys += client.key_space_keys();
    bytes += client.key_space_bytes();
  }
  const double mib = static_cast<double>(bytes) / kMiB;
  std::printf(
      "key space: %llu reachable keys of %llu ids, %.2f MiB = %.3fx DRAM = %.3fx flash cache = "
      "%.3fx logical capacity\n",
      static_cast<unsigned long long>(keys),
      static_cast<unsigned long long>(inputs.spec.kv.num_keys), mib,
      static_cast<double>(bytes) / static_cast<double>(stack.dram_bytes()),
      static_cast<double>(bytes) / static_cast<double>(stack.flash_cache_bytes()),
      static_cast<double>(bytes) / static_cast<double>(stack.ssd().logical_capacity_bytes()));
}

void PrintTraffic(const Stack& stack, const Phase& phase) {
  const OpTally& t = phase.total.tally;
  const double working_set = static_cast<double>(phase.working_set_bytes);
  const double dram = static_cast<double>(stack.dram_bytes());
  const double flash = static_cast<double>(stack.flash_cache_bytes());
  std::printf(
      "traffic: %llu ops (%llu gets, %llu sets) in %zu windows, %llu distinct keys, %.2f MiB of "
      "values set, RUHs written %u; working set %.2f MiB = %.3fx DRAM (%s) = %.3fx flash cache "
      "(%s); samples: %llu gets, %llu sets, %zu parked async ops\n",
      static_cast<unsigned long long>(t.ops), static_cast<unsigned long long>(t.gets),
      static_cast<unsigned long long>(t.sets), phase.windows.size(),
      static_cast<unsigned long long>(phase.distinct_keys), t.set_value_bytes / kMiB,
      phase.end.ruhs_written, working_set / kMiB, working_set / dram,
      working_set <= dram ? "fits in DRAM" : "exceeds DRAM", working_set / flash,
      working_set <= flash ? "fits the flash cache" : "exceeds the flash cache",
      static_cast<unsigned long long>(phase.get_samples),
      static_cast<unsigned long long>(phase.set_samples), phase.total.parked_ns.size());
}

// Every op a run issued (warm-ups included) and every failed check.
struct Outcome {
  OpTally ops;
  uint64_t failed_checks = 0;  // Flushes or cache accounting that did not hold.
  uint64_t io_errors = 0;

  void Add(const Run& run, const Phase& phase) {
    ops.Add(run.warmup);
    ops.Add(phase.total.tally);
    failed_checks += run.failed_checks + phase.failed_checks;
    io_errors += phase.end.io_errors;
  }
  uint64_t attempted() const { return ops.ops; }
  uint64_t failed() const { return ops.Failures() + failed_checks + io_errors; }
};

// End-to-end metrics pooled over the phases of every set-up: latency and
// throughput are medians over all their windows, ratios use summed counters.
void AddEndToEnd(const std::vector<Phase>& phases, const std::vector<double>& setups,
                 Report* report) {
  std::vector<WindowSummary> windows;
  fdpcache::FdpStatistics begin;
  fdpcache::FdpStatistics end;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t navy_bytes = 0;
  uint64_t item_bytes = 0;
  for (const Phase& phase : phases) {
    windows.insert(windows.end(), phase.windows.begin(), phase.windows.end());
    gets += phase.delta.gets;
    hits += phase.delta.ram_hits + phase.delta.nvm_hits;
    navy_bytes += phase.delta.soc_bytes + phase.delta.loc_bytes;
    item_bytes += phase.delta.soc_item_bytes + phase.delta.loc_item_bytes;
    end.host_bytes_written += phase.delta.host_bytes;
    end.media_bytes_written += phase.delta.media_bytes;
  }
  report->Add("throughput_ops_s", MedianOverWindows(windows, &WindowSummary::ops_per_s), "ops/s");
  report->Add("get_p50_us", MedianOverWindows(windows, &WindowSummary::get_p50_us), "us");
  report->Add("get_p99_us", MedianOverWindows(windows, &WindowSummary::get_p99_us), "us");
  report->Add("set_p50_us", MedianOverWindows(windows, &WindowSummary::set_p50_us), "us");
  report->Add("set_p99_us", MedianOverWindows(windows, &WindowSummary::set_p99_us), "us");
  report->Add("hit_ratio", Per(hits, gets), "ratio");
  // Flash-cache write amplification, as NavyStats::Alwa (1.0 with no items).
  report->Add("alwa", Per(navy_bytes, item_bytes, 1.0), "ratio");
  report->Add("dlwa", fdpcache::FdpStatistics::IntervalDlwa(begin, end), "ratio");
  report->Add("setup_s", Median(setups), "s");
  report->Add("peak_rss_mib", PeakRssMib(), "MiB");
}

void AddPerLayer(const Run& run, const Phase& phase, double untraced_throughput,
                 Report* report) {
  const Counters& d = phase.delta;
  const OpTally& t = phase.total.tally;

  // cache
  report->Add("cache.self_ns_per_op",
              Per(phase.total.cache_call_ns - phase.total.client_device_ns, t.ops), "ns");
  report->Add("cache.ram_hit_frac", Per(d.ram_hits, d.gets), "ratio");
  report->Add("cache.nvm_hit_frac", Per(d.nvm_hits, d.gets), "ratio");
  report->Add("cache.shard_locks_per_op", Per(d.shard_locks, t.ops), "count");
  report->Add("cache.ram_retries_per_get", Per(d.ram_retries, t.gets), "count");
  report->Add("cache.ram_evictions_per_set", Per(d.ram_evictions, t.sets), "count");
  report->Add("cache.parked_op_us_p50", Percentile(phase.total.parked_ns, 0.50) / 1e3, "us");
  report->Add("cache.parked_op_us_p99", Percentile(phase.total.parked_ns, 0.99) / 1e3, "us");

  // navy: write amplification follows NavyStats::Alwa (1.0 with no items).
  report->Add("navy.soc_alwa", Per(d.soc_bytes, d.soc_item_bytes, 1.0), "ratio");
  report->Add("navy.loc_alwa", Per(d.loc_bytes, d.loc_item_bytes, 1.0), "ratio");
  report->Add("navy.soc_bloom_reject_frac", Per(d.soc_bloom_rejects, d.soc_lookups), "ratio");
  report->Add("navy.soc_evictions_per_insert", Per(d.soc_evictions, d.soc_inserts), "count");
  report->Add("navy.loc_regions_sealed", static_cast<double>(d.loc_regions_sealed), "count");
  report->Add("navy.buffer_hits", static_cast<double>(d.buffer_hits), "count");
  report->Add("navy.write_failures", static_cast<double>(d.write_failures), "count");

  // device, from the TimedDevice slots (the last slot is the poller's)
  uint64_t sync_ios = 0;
  uint64_t submits = 0;
  uint64_t polls = 0;
  uint64_t empty_polls = 0;
  uint64_t client_sync_io_ns = 0;
  std::vector<uint32_t> sync_io_ns;
  std::vector<uint32_t> submit_ns;
  std::vector<uint32_t> reap_ns;
  const std::vector<TraceSlot>& slots = run.tracer->slots();
  for (size_t i = 0; i < slots.size(); ++i) {
    const TraceSlot& slot = slots[i];
    sync_ios += slot.sync_ios;
    submits += slot.submits;
    polls += slot.polls;
    empty_polls += slot.empty_polls;
    if (i + 1 < slots.size()) {
      for (const uint32_t ns : slot.sync_io_ns) {
        client_sync_io_ns += ns;
      }
    }
    sync_io_ns.insert(sync_io_ns.end(), slot.sync_io_ns.begin(), slot.sync_io_ns.end());
    submit_ns.insert(submit_ns.end(), slot.submit_ns.begin(), slot.submit_ns.end());
    reap_ns.insert(reap_ns.end(), slot.submit_to_reap_ns.begin(), slot.submit_to_reap_ns.end());
  }
  report->Add("device.sync_io_per_op", Per(sync_ios, t.ops), "count");
  report->Add("device.submit_per_op", Per(submits, t.ops), "count");
  report->Add("device.read_bytes_per_op", Per(d.read_bytes, t.ops), "B");
  report->Add("device.write_bytes_per_op", Per(d.write_bytes, t.ops), "B");
  report->Add("device.sync_io_us_p50", Percentile(sync_io_ns, 0.50) / 1e3, "us");
  report->Add("device.sync_io_us_p99", Percentile(sync_io_ns, 0.99) / 1e3, "us");
  report->Add("device.sync_io_share", Per(client_sync_io_ns, phase.total.cache_call_ns), "ratio");
  report->Add("device.submit_us_p99", Percentile(submit_ns, 0.99) / 1e3, "us");
  report->Add("device.submit_to_reap_us_p50", Percentile(reap_ns, 0.50) / 1e3, "us");
  report->Add("device.submit_to_reap_us_p99", Percentile(reap_ns, 0.99) / 1e3, "us");
  report->Add("device.empty_poll_frac", Per(empty_polls, polls), "ratio");
  report->Add("device.io_errors", static_cast<double>(d.io_errors), "count");

  // ssd
  double max_ruh_dlwa = 1.0;
  for (const fdpcache::RuhIoStats& ruh : d.ruh_io) {
    if (ruh.host_bytes_written > 0) {
      max_ruh_dlwa = std::max(max_ruh_dlwa, ruh.Dlwa());
    }
  }
  report->Add("ssd.host_mib_written", static_cast<double>(d.host_bytes) / kMiB, "MiB");
  report->Add("ssd.media_mib_written", static_cast<double>(d.media_bytes) / kMiB, "MiB");
  report->Add("ssd.gc_relocated_pages", static_cast<double>(d.gc_relocated_pages), "count");
  report->Add("ssd.gc_events", static_cast<double>(d.gc_events), "count");
  report->Add("ssd.clean_ru_erases", static_cast<double>(d.clean_ru_erases), "count");
  report->Add("ssd.max_ruh_dlwa", max_ruh_dlwa, "ratio");
  report->Add("media_bytes_per_user_byte", Per(d.media_bytes, t.set_value_bytes), "ratio");

  // workload (the load generator)
  report->Add("workload.pregen_s", run.pregen_s, "s");
  report->Add("workload.gets", static_cast<double>(t.gets), "count");
  report->Add("workload.sets", static_cast<double>(t.sets), "count");
  report->Add("workload.distinct_keys", static_cast<double>(phase.distinct_keys), "count");
  report->Add("workload.value_mib", static_cast<double>(t.set_value_bytes) / kMiB, "MiB");

  // the traced run itself
  const double traced_throughput = MedianOverWindows(phase.windows, &WindowSummary::ops_per_s);
  report->Add("trace.overhead_frac", 1.0 - Ratio(traced_throughput, untraced_throughput, 1.0),
              "ratio");
  report->Add("trace.spans_dropped", static_cast<double>(run.tracer->SpansDropped()), "count");
}

void PrintResult(const Outcome& outcome, const Report& report) {
  const bool correct = outcome.failed() == 0;
  std::printf(
      "checks: %llu ops, %llu hits verified, %llu value mismatches, %llu async errors, %llu "
      "callback anomalies, %llu failed flush/accounting checks, %llu device io errors\n",
      static_cast<unsigned long long>(outcome.ops.ops),
      static_cast<unsigned long long>(outcome.ops.hits),
      static_cast<unsigned long long>(outcome.ops.mismatches),
      static_cast<unsigned long long>(outcome.ops.async_errors),
      static_cast<unsigned long long>(outcome.ops.callback_anomalies),
      static_cast<unsigned long long>(outcome.failed_checks),
      static_cast<unsigned long long>(outcome.io_errors));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted()),
              static_cast<unsigned long long>(outcome.failed()), report.Json().c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n");
    return 2;
  }
  const Deployment deployment;
  Outcome outcome;
  Report report;

  if (!args.trace) {
    // Each set-up is measured for an equal share of the time, so stack-level
    // effects (memory layout, thread placement) average out within a run.
    std::vector<double> setups;
    std::vector<Phase> phases;
    uint64_t user_bytes = 0;
    uint64_t media_bytes = 0;
    for (int i = 0; i < kSetupRepeats; ++i) {
      std::unique_ptr<Run> run = SetUp(deployment, args.workload, args.seed, /*traced=*/false);
      if (run == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
      }
      setups.push_back(run->setup_s);
      phases.push_back(Measure(*run, args.seconds / kSetupRepeats));
      outcome.Add(*run, phases.back());
      if (i == 0) {
        PrintDeployment(*run->stack);
        PrintKeySpace(*run->stack, *run->inputs);
      }
      PrintTraffic(*run->stack, phases.back());
      user_bytes += phases.back().total.tally.set_value_bytes;
      media_bytes += phases.back().delta.media_bytes;
      run.reset();
      // Hand the torn-down stack's pages back, so peak RSS is one stack's.
      malloc_trim(0);
    }
    AddEndToEnd(phases, setups, &report);
    report.Print("e2e");
    std::printf("e2e %-34s %16.6f %s\n", "error_rate",
                Per(outcome.failed(), outcome.attempted()), "ratio");
    std::printf("e2e %-34s %16.6f %s\n", "media_bytes_per_user_byte",
                Per(media_bytes, user_bytes), "ratio");
  } else {
    std::unique_ptr<Run> untraced = SetUp(deployment, args.workload, args.seed, false);
    if (untraced == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    const Phase untraced_phase = Measure(*untraced, args.seconds / 2.0);
    outcome.Add(*untraced, untraced_phase);
    PrintDeployment(*untraced->stack);
    PrintKeySpace(*untraced->stack, *untraced->inputs);
    PrintTraffic(*untraced->stack, untraced_phase);
    const double untraced_throughput =
        MedianOverWindows(untraced_phase.windows, &WindowSummary::ops_per_s);
    untraced.reset();
    malloc_trim(0);

    std::unique_ptr<Run> traced = SetUp(deployment, args.workload, args.seed, true);
    const Phase phase = Measure(*traced, args.seconds / 2.0);
    outcome.Add(*traced, phase);
    PrintTraffic(*traced->stack, phase);
    AddPerLayer(*traced, phase, untraced_throughput, &report);
    report.Print("layer");
    if (!args.trace_out.empty() && !traced->tracer->WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  }
  PrintResult(outcome, report);
  return outcome.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
