// Job cycles: three jobs in four come from the small pool and one in four
// from the skewed pool (when there is one). The algorithm steps through
// NOP, NOPA, PRL and CPRL, offset by the cycle quarter, so every algorithm
// meets every job kind. Clients 0-1 and 2-3 form two tenants.

#include "service_loop.h"

#include <atomic>
#include <barrier>
#include <string>
#include <thread>

#include "join/join_algorithm.h"

namespace perfbench {
namespace {

using mmjoin::join::Algorithm;
using mmjoin::service::JoinService;

constexpr int kClients = 4;
constexpr int kClientsPerTenant = 2;
constexpr int kCycleJobs = 16;
constexpr Algorithm kAlgorithms[] = {Algorithm::kNOP, Algorithm::kNOPA,
                                     Algorithm::kPRL, Algorithm::kCPRL};

struct ClientTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong_answers = 0;
  std::vector<JobSample> samples;
  std::vector<std::string> errors;  // the first few failures
};

// Runs cycles for client `c` while `keep_going(cycle)` holds.
template <typename KeepGoing>
void RunCycles(JoinService* service, const WorkloadInputs& in, int c,
               bool timed, KeepGoing keep_going, ClientTally* tally) {
  const std::string tenant = "tenant-" + std::to_string(c / kClientsPerTenant);
  for (int cycle = 0; keep_going(cycle); ++cycle) {
    for (int j = 0; j < kCycleJobs; ++j) {
      const bool skewed = j % 4 == 3 && !in.skewed_jobs.empty();
      const std::vector<InputPair>& pool =
          skewed ? in.skewed_jobs : in.small_jobs;
      const InputPair& input = pool[(cycle + j / 4 + c) % pool.size()];
      mmjoin::service::JobSpec spec;
      spec.tenant = tenant;
      spec.algorithm = kAlgorithms[(j + j / 4) % 4];
      spec.build = &input.build;
      spec.probe = &input.probe;
      ++tally->attempted;
      const int64_t start = mmjoin::NowNanos();
      auto result = [&]() -> mmjoin::StatusOr<mmjoin::service::JobResult> {
        Span span("perfbench.service.job");
        auto id = service->SubmitJob(spec);
        if (!id.ok()) return id.status();
        return service->Wait(*id);
      }();
      const int64_t end_ns = mmjoin::NowNanos();
      const int64_t latency_ns = end_ns - start;
      if (!result.ok() || result->join.matches != input.expected.matches ||
          result->join.checksum != input.expected.checksum) {
        ++tally->failed;
        if (result.ok()) ++tally->wrong_answers;
        if (tally->errors.size() < 4) {
          tally->errors.push_back(
              std::string("failed job ") +
              mmjoin::join::NameOf(spec.algorithm) +
              (skewed ? " skewed: " : " small: ") +
              (result.ok() ? "matches " + std::to_string(result->join.matches)
                           : result.status().ToString()));
        }
        continue;
      }
      if (timed) {
        tally->samples.push_back(JobSample{Millis(latency_ns),
                                           Millis(result->queue_wait_ns),
                                           Millis(result->run_ns),
                                           result->lane, end_ns});
      }
    }
  }
}

}  // namespace

void ServiceWindow::Append(const ServiceWindow& other) {
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  segments.insert(segments.end(), other.segments.begin(),
                  other.segments.end());
  wall_s += other.wall_s;
}

ServiceWindow RunServiceLoop(JoinService* service,
                             const WorkloadInputs& inputs, int warmup_cycles,
                             double seconds, RunReport* report) {
  std::vector<ClientTally> tallies(kClients);
  std::barrier sync(kClients + 1);
  std::atomic<int64_t> deadline{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally* tally = &tallies[c];
      RunCycles(service, inputs, c, /*timed=*/false,
                [&](int cycle) { return cycle < warmup_cycles; }, tally);
      sync.arrive_and_wait();  // all clients warmed up
      sync.arrive_and_wait();  // deadline published
      RunCycles(service, inputs, c, /*timed=*/true,
                [&](int cycle) {
                  return seconds > 0 &&
                         (cycle == 0 ||
                          mmjoin::NowNanos() <
                              deadline.load(std::memory_order_relaxed));
                },
                tally);
    });
  }
  sync.arrive_and_wait();
  const int64_t start = mmjoin::NowNanos();
  deadline.store(start + static_cast<int64_t>(seconds * 1e9),
                 std::memory_order_relaxed);
  sync.arrive_and_wait();
  for (std::thread& t : clients) t.join();

  ServiceWindow window;
  window.segments.emplace_back(start,
                               deadline.load(std::memory_order_relaxed));
  window.wall_s = Seconds(mmjoin::NowNanos() - start);
  for (const ClientTally& t : tallies) {
    report->attempted += t.attempted;
    report->failed += t.failed;
    report->wrong_answers += t.wrong_answers;
    for (const std::string& e : t.errors) report->notes.push_back(e);
    window.samples.insert(window.samples.end(), t.samples.begin(),
                          t.samples.end());
  }
  return window;
}

}  // namespace perfbench
