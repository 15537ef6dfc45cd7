// Every workload alternates two kinds of timed work on one JoinService
// (2 lanes x 2 threads):
//
//  - join rounds: all 13 algorithms, round-robin, through the service's
//    own core::Joiner (2 threads) on the workload's join pair, while the
//    lanes are idle. mtps.<ALG> = (|R| + |S|) / median Joiner::Run time.
//  - service segments: 4 closed-loop clients on the workload's job pools.
//    service.jobs_per_s and service.p99_ms come from all segments.
//
// The traced mode takes join.*, thread.*, mem.* and obs.* numbers from the
// join rounds and service.* numbers from the service segments.

#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "join/join_algorithm.h"
#include "join_rounds.h"
#include "layers.h"
#include "mem/aligned_alloc.h"
#include "obs/metrics.h"
#include "service/join_service.h"
#include "service_loop.h"

namespace perfbench {
namespace {

using mmjoin::service::JoinService;

// Set-ups at the start of a run: at least kMinSetups, then more until
// kStartSetupBudgetS is spent (3 on fk-dram, where one takes 0.35 s).
// After every service segment, throwaway set-ups until
// kSegmentSetupBudgetS is spent, when a set-up takes less than that
// (16 on fk-strided, where one takes 0.3-0.8 ms; none on fk-dram). At
// most kMaxSetups at a time.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 16;
constexpr double kStartSetupBudgetS = 1.0;
constexpr double kSegmentSetupBudgetS = 0.02;
// Untimed warm-up cycles per client: 4 clients x 8 x 16 = 512 jobs, past
// the start-up transient of the lanes' pools and the allocator.
constexpr int kWarmupCycles = 8;

std::unique_ptr<JoinService> CreateService(const std::string& workload) {
  mmjoin::service::ServiceOptions options;
  options.joiner.num_threads = kServiceThreadsPerLane;
  // fk-dram keeps the Joiner's default 2 MB pages. fk-strided uses 4 KB
  // pages: its array joins allocate a 128 MB table for 8192 keys, and
  // whether the kernel grants huge pages for it depends on the host's
  // memory fragmentation, which made the same join take 73 ms in one call
  // and 280 ms in the next (see README.md).
  if (workload == "fk-strided") {
    options.joiner.page_policy = mmjoin::mem::PagePolicy::kSmall;
  }
  options.num_lanes = kServiceLanes;
  auto created = JoinService::Create(options);
  if (!created.ok()) Die("JoinService::Create", created.status());
  return std::move(*created);
}

std::vector<double> Latencies(const ServiceWindow& window) {
  std::vector<double> out;
  for (const JobSample& s : window.samples) out.push_back(s.latency_ms);
  return out;
}

// p99 of client latency per run of kP99Window consecutive completions (the
// last partial run joins the one before), and the median of those: one
// burst of host contention then moves a single window's p99, not the
// result.
constexpr std::size_t kP99Window = 1000;

double WindowedP99(const ServiceWindow& window) {
  std::vector<JobSample> by_end = window.samples;
  std::sort(by_end.begin(), by_end.end(),
            [](const JobSample& a, const JobSample& b) {
              return a.end_ns < b.end_ns;
            });
  std::vector<double> p99s;
  const std::size_t windows =
      std::max<std::size_t>(1, by_end.size() / kP99Window);
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = w * kP99Window;
    const std::size_t end =
        w + 1 == windows ? by_end.size() : begin + kP99Window;
    std::vector<double> latencies;
    for (std::size_t i = begin; i < end; ++i) {
      latencies.push_back(by_end[i].latency_ms);
    }
    p99s.push_back(Quantile(latencies, 0.99));
  }
  return Median(p99s);
}

// A JoinService and the workload's inputs, allocated from its system.
// Members are destroyed in reverse order: the inputs before the service.
struct SetUp {
  std::unique_ptr<JoinService> service;
  WorkloadInputs inputs;
};

// Times set-ups; setup_s is the median of all of a run's set-ups. Cheap
// set-ups are spread over the run like the other metrics' samples: on
// fk-strided the set-up is mostly thread start-up, whose cost doubled from
// one run to the next with the host's load when all set-ups came at the
// start. fk-dram's stay at the start: there each takes 0.35 s or more and
// allocates another 400 MB next to the run's own inputs.
class SetUpTimer {
 public:
  explicit SetUpTimer(const Options& options) : options_(options) {}

  SetUp Run() {
    SetUp s;
    const int64_t start = mmjoin::NowNanos();
    s.service = CreateService(options_.workload);
    const int64_t gen_start = mmjoin::NowNanos();
    s.inputs =
        GenerateInputs(options_.workload, s.service->system(), options_.seed);
    const int64_t end = mmjoin::NowNanos();
    setup_s_.push_back(Seconds(end - start));
    gen_s_.push_back(Seconds(end - gen_start));
    return s;
  }

  // Throwaway set-ups: at least `min_count`, then more until `budget_s` is
  // spent, at most kMaxSetups.
  void RunThrowaways(int min_count, double budget_s) {
    double spent_s = 0;
    for (int i = 0;
         i < min_count || (i < kMaxSetups && spent_s < budget_s); ++i) {
      (void)Run();
      spent_s += setup_s_.back();
    }
  }

  double MedianSetupS() const { return Median(setup_s_); }
  double MedianGenerateS() const { return Median(gen_s_); }

 private:
  const Options& options_;
  std::vector<double> setup_s_, gen_s_;
};

// Median over the whole seconds of every timed segment of the completion
// rate in that second: (completions - 1) / (last - first completion time)
// within it. CPU steal on this host comes in bursts of one to two seconds
// (a burst of 13-18% steal cut the jobs completed in its half-seconds by a
// third); the median leaves such seconds out.
double JobsPerSecond(const ServiceWindow& window) {
  constexpr int64_t kSecondNs = 1'000'000'000;
  struct Second {
    int64_t first_ns = INT64_MAX, last_ns = INT64_MIN;
    double completions = 0;
  };
  std::vector<double> rates;
  for (const auto& [start_ns, deadline_ns] : window.segments) {
    std::vector<Second> per_second(
        static_cast<std::size_t>((deadline_ns - start_ns) / kSecondNs));
    for (const JobSample& s : window.samples) {
      if (s.end_ns < start_ns) continue;
      const auto second =
          static_cast<std::size_t>((s.end_ns - start_ns) / kSecondNs);
      if (second >= per_second.size()) continue;
      Second& bin = per_second[second];
      bin.first_ns = std::min(bin.first_ns, s.end_ns);
      bin.last_ns = std::max(bin.last_ns, s.end_ns);
      ++bin.completions;
    }
    // A second with fewer than two completions was a stall: its rate is
    // its count.
    for (const Second& bin : per_second) {
      rates.push_back(bin.completions < 2
                          ? bin.completions
                          : (bin.completions - 1) /
                                Seconds(bin.last_ns - bin.first_ns));
    }
  }
  if (rates.empty()) {
    return static_cast<double>(window.samples.size()) / window.wall_s;
  }
  return Median(rates);
}

// Per-layer numbers of the traced service segments. Join rounds run on
// lane 0's pool (the Joiner's) between segments, so the executor, counter
// and allocator deltas are summed over the segments alone. The dispatch
// count is lane 0's over the jobs lane 0 ran; the other deltas cover both
// lanes.
class ServiceLayerProbe {
 public:
  explicit ServiceLayerProbe(JoinService* service) : service_(service) {}

  void BeginSegment() {
    stats_before_ = service_->joiner()->executor()->stats();
    alloc_before_ = mmjoin::mem::GetAllocStats();
    counters_before_ = mmjoin::obs::MetricsRegistry::Get().SnapshotMap();
  }

  void EndSegment() {
    const auto stats_after = service_->joiner()->executor()->stats();
    const auto alloc_after = mmjoin::mem::GetAllocStats();
    const auto counters_after =
        mmjoin::obs::MetricsRegistry::Get().SnapshotMap();
    dispatches_ += static_cast<double>(stats_after.dispatches -
                                       stats_before_.dispatches);
    stolen_ +=
        CounterDelta(counters_before_, counters_after, "join.tasks_stolen");
    skew_slices_ +=
        CounterDelta(counters_before_, counters_after, "join.skew_slices");
    mmaps_ += static_cast<double>(alloc_after.mmap_allocations -
                                  alloc_before_.mmap_allocations);
  }

  void AddMetrics(const ServiceWindow& window,
                  std::map<std::string, double>* m) const {
    const double jobs = std::max<double>(1.0, window.samples.size());
    const double lane0_jobs = std::max<double>(
        1.0, std::count_if(window.samples.begin(), window.samples.end(),
                           [](const JobSample& s) { return s.lane == 0; }));
    std::vector<double> queue_wait, run, overhead;
    for (const JobSample& s : window.samples) {
      queue_wait.push_back(s.queue_wait_ms);
      run.push_back(s.run_ms);
      overhead.push_back(s.latency_ms - s.queue_wait_ms - s.run_ms);
    }
    (*m)["service.dispatches_per_job"] = dispatches_ / lane0_jobs;
    (*m)["service.tasks_stolen_per_job"] = stolen_ / jobs;
    (*m)["service.skew_slices_per_job"] = skew_slices_ / jobs;
    (*m)["service.mmap_per_job"] = mmaps_ / jobs;
    (*m)["service.p50_ms"] = Median(Latencies(window));
    (*m)["service.queue_wait_p50_ms"] = Median(queue_wait);
    (*m)["service.queue_wait_p99_ms"] = Quantile(queue_wait, 0.99);
    (*m)["service.run_p50_ms"] = Median(run);
    (*m)["service.overhead_p50_ms"] = Median(overhead);
    (*m)["service.peak_running"] = service_->stats().peak_running;
  }

 private:
  JoinService* service_;
  mmjoin::thread::ExecutorStats stats_before_;
  mmjoin::mem::AllocStats alloc_before_;
  std::map<std::string, uint64_t> counters_before_;
  double dispatches_ = 0, stolen_ = 0, skew_slices_ = 0, mmaps_ = 0;
};

}  // namespace

RunReport RunWorkload(const Options& options) {
  // Join rounds alternate with timed service segments, so host contention
  // that lasts seconds to tens of seconds slows both alike and only part
  // of each one's samples. The segments hold the service's time at
  // kServiceShare of the timed time, in whole seconds. The run ends after
  // the round and segment nearest the end of --seconds, with at least
  // min_rounds rounds: every fk-dram call takes longer than a round's
  // 0.3 s per algorithm, so there a round is one call per algorithm (11 s)
  // and three rounds give three calls. The traced mode alternates
  // untraced and traced rounds and takes at least two of each.
  constexpr double kServiceShare = 0.35;
  const int min_rounds = options.trace ? 4 : 3;

  // Set-up: the service and inputs the run uses, and throwaway set-ups.
  if (options.trace) mmjoin::obs::Enable();
  SetUpTimer setups(options);
  SetUp live = setups.Run();
  setups.RunThrowaways(kMinSetups - 1,
                       kStartSetupBudgetS - setups.MedianSetupS());
  JoinService* service = live.service.get();
  WorkloadInputs& in = live.inputs;
  RunReport report;
  ComputeOracles(&in, options, &report);

  // Untimed warm-ups: one CPRL join (the first join of a process pays for
  // faulting in fresh memory, and CPRL allocates partition buffers for
  // both relations) and kWarmupCycles service cycles per client.
  mmjoin::obs::Disable();
  JoinRounds rounds(service->joiner(), in.join.build, in.join.probe,
                    in.join.expected);
  rounds.WarmUp(mmjoin::join::Algorithm::kCPRL, &report);
  (void)RunServiceLoop(service, in, kWarmupCycles, 0, &report);

  ServiceWindow window;
  ServiceLayerProbe probe(service);
  const int64_t start = mmjoin::NowNanos();
  const int64_t end =
      start + static_cast<int64_t>(options.seconds * 1e9);
  int64_t join_ns = 0;
  double service_s = 0;
  for (int round = 0;; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    traced ? mmjoin::obs::Enable() : mmjoin::obs::Disable();
    const int64_t round_start = mmjoin::NowNanos();
    rounds.RunRound(round, traced, &report);
    join_ns += mmjoin::NowNanos() - round_start;

    const double segment_s = std::max(
        1.0, std::round(Seconds(join_ns) * kServiceShare / (1 - kServiceShare) -
                        service_s));
    service_s += segment_s;
    if (options.trace) {
      mmjoin::obs::Enable();
      probe.BeginSegment();
    }
    window.Append(RunServiceLoop(service, in, 0, segment_s, &report));
    if (options.trace) probe.EndSegment();
    if (setups.MedianSetupS() < kSegmentSetupBudgetS) {
      setups.RunThrowaways(0, kSegmentSetupBudgetS);
    }

    const int64_t now = mmjoin::NowNanos();
    const int64_t cycle_ns = (now - start) / (round + 1);
    if (round + 1 >= min_rounds && now + cycle_ns / 2 >= end) break;
  }
  mmjoin::obs::Disable();
  rounds.AddSampleNotes(&report.notes);
  report.notes.push_back("service: " + std::to_string(window.samples.size()) +
                         " timed jobs in " +
                         std::to_string(window.segments.size()) +
                         " segments of " + std::to_string(window.wall_s) +
                         " s in all");

  auto& m = report.metrics;
  if (!options.trace) {
    const auto& algorithms = mmjoin::join::AllAlgorithms();
    const double join_tuples =
        static_cast<double>(in.join.build.size() + in.join.probe.size());
    m["setup_s"] = setups.MedianSetupS();
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      const double median_ns = rounds.MedianWallNs(a, false);
      m[std::string("mtps.") + mmjoin::join::NameOf(algorithms[a])] =
          median_ns > 0 ? join_tuples / median_ns * 1e3 : 0.0;
    }
    m["service.jobs_per_s"] = JobsPerSecond(window);
    m["service.p99_ms"] = WindowedP99(window);
    return report;
  }

  probe.AddMetrics(window, &m);
  rounds.AddAggregateMetrics(&m);
  // Throughput is inverse time: traced against untraced throughput is
  // untraced against traced time.
  m["obs.trace_overhead_pct"] =
      (1.0 - rounds.TotalMedianWallNs(false) / rounds.TotalMedianWallNs(true)) *
      100.0;
  rounds.AddPhaseMetrics(&m);
  m["workload.gen_mtps"] =
      static_cast<double>(in.tuples) / setups.MedianGenerateS() / 1e6;
  mmjoin::obs::Enable();
  MeasureLayers(service->joiner(), in.join.build, in.join.probe, &m);
  mmjoin::obs::Disable();
  return report;
}

}  // namespace perfbench
