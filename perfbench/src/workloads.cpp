#include "workloads.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <sched.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <atomic>
#include <fstream>
#include <mutex>
#include <thread>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <stdexcept>

#include "checks.h"
#include "consensus/block.h"
#include "consensus/mempool.h"
#include "dissem/batch.h"
#include "probe.h"
#include "runtime/cluster.h"
#include "workload/report.h"
#include "workload/request.h"

namespace perfbench {

namespace {

using namespace lumiere;
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TimePoint at_ms(std::int64_t ms) { return TimePoint(Duration::millis(ms).ticks()); }
double ms_of(Duration d) { return static_cast<double>(d.ticks()) / 1000.0; }

// ------------------------------------------------------------ workload shapes

struct Shape {
  const char* name;
  std::uint32_t n;
  std::uint32_t byzantine = 0;  ///< silent-leader replicas (no clients)
  bool tcp = false;
  bool dissem = false;          ///< dissemination on
  bool faults = false;          ///< the minority cut and the crash/recovery, with block sync
  std::uint32_t rate_per_replica = 0;  ///< open loop, req/s per honest replica (0 = closed loop)
  std::uint32_t clients = 1;           ///< closed loop, per replica
  std::uint32_t in_flight = 0;         ///< closed loop, per client
  std::int64_t warmup_deadline_ms = 0; ///< clock time; warm-up must end before it
  std::int64_t stop_ms = 0;            ///< clock time; clients stop (sim) / window ends (TCP)
  std::int64_t window_ms = 0;          ///< TCP only: the window is [stop - window, stop),
                                       ///< or starts later if warm-up ends later
  std::int64_t drain_limit_ms = 5000;  ///< clock time allowed for the drain after stop
};

// Request rates divide 10^6, so the arrival interval in microseconds is
// exact and the benchmark's schedule and the program's agree to the tick.
// The last two shapes are not benchmark workloads: they are the
// counterparts the README's reference figures compare against.
constexpr Shape kShapes[] = {
    {.name = "sim-n64-byz", .n = 64, .byzantine = 2, .rate_per_replica = 20,
     .warmup_deadline_ms = 1000, .stop_ms = 1500},
    {.name = "sim-n16-dissem-faults", .n = 16, .dissem = true, .faults = true,
     .rate_per_replica = 200, .warmup_deadline_ms = 500, .stop_ms = 2000},
    {.name = "tcp-n4-closed", .n = 4, .tcp = true, .clients = 2, .in_flight = 2,
     .warmup_deadline_ms = 1000, .stop_ms = 1150, .window_ms = 1000},
    {.name = "sim-n16-inline-faults", .n = 16, .faults = true, .rate_per_replica = 200,
     .warmup_deadline_ms = 500, .stop_ms = 2000},
    {.name = "tcp-n4-closed-32", .n = 4, .tcp = true, .clients = 2, .in_flight = 4,
     .warmup_deadline_ms = 1000, .stop_ms = 1150, .window_ms = 1000},
};

// sim-n16-dissem-faults: a 5-of-16 minority cut, then one crash and
// recovery, all healed 500 ms before the clients stop.
constexpr std::int64_t kCutAtMs = 600, kHealAtMs = 1000, kCrashAtMs = 1150, kRecoverAtMs = 1500;
constexpr std::uint32_t kMinority = 5;

/// tcp-n4-closed: the committed requests after which a round's resident
/// set is read (a round commits about 5000 in its window today).
constexpr std::size_t kTcpFixedWork = 2000;

/// The bound on honest messages between consecutive decisions, as a
/// multiple of n^2 (README, "The quadratic bound").
constexpr double kQuadraticC = 2.0;

const Shape& shape_for(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// `count` distinct replica ids drawn from `seed`.
std::vector<ProcessId> pick_ids(std::uint64_t seed, std::uint32_t n, std::uint32_t count) {
  std::vector<ProcessId> ids(n);
  for (ProcessId i = 0; i < n; ++i) ids[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(ids.begin(), ids.end(), rng);
  ids.resize(count);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ------------------------------------------------------------ measurement

struct Usage {
  double cpu_s = 0;
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t ctx_switches = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.cpu_s = u.user_s + u.sys_s;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double rss_kb_now() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

/// Samples the resident set every 5 ms on its own thread while alive.
class RssSampler {
 public:
  RssSampler() : thread_([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const double wall = seconds_since(origin_);
      const double kb = rss_kb_now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        samples_.emplace_back(wall, kb);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }) {}
  ~RssSampler() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// The last sample taken at or before `wall_s` seconds after construction.
  [[nodiscard]] double kb_at(double wall_s) {
    std::lock_guard<std::mutex> lock(mu_);
    double kb = samples_.empty() ? 0 : samples_.front().second;
    for (const auto& [wall, sample] : samples_) {
      if (wall > wall_s) break;
      kb = sample;
    }
    return kb;
  }

 private:
  const WallClock::time_point origin_ = WallClock::now();
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<std::pair<double, double>> samples_;  ///< (wall s, KB)
  std::thread thread_;  ///< last: starts after the members it uses
};

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

// ------------------------------------------------------------ TCP ports

/// A base port whose n consecutive ports all bind on loopback right now,
/// drawn from the process id and the clock so concurrent runs spread out.
std::uint16_t probe_free_base_port(std::uint32_t n) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(getpid()) * 0x9E3779B97F4A7C15ULL ^
                      static_cast<std::uint64_t>(WallClock::now().time_since_epoch().count()));
  for (int attempt = 0; attempt < 200; ++attempt) {
    const auto base = static_cast<std::uint16_t>(20000 + rng() % 40000);
    bool ok = true;
    std::vector<int> fds;
    for (std::uint32_t i = 0; i < n && ok; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        ok = false;
        break;
      }
      fds.push_back(fd);
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
      ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    }
    for (const int fd : fds) ::close(fd);
    if (ok) return base;
  }
  throw std::runtime_error("no free block of loopback ports found after 200 probes");
}

// ------------------------------------------------------------ one round

struct RoundData {
  double setup_s = 0;
  double window_wall_s = 0;
  double window_sim_s = 0;
  double window_cpu_s = 0;
  std::uint64_t window_commits = 0;
  std::vector<double> latency_ms;      ///< wall-clock submit->commit, window requests
  std::vector<double> sim_latency_ms;  ///< sim-clock submit->commit, every request
  double rss_kb_per_req = 0;
  double peak_rss_mb = 0;  ///< resident set once the round's fixed work is done
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::string digest;
  std::map<std::string, Metric> layer;  ///< traced build only
};

/// The deployment every round of a workload shares: keys, leader
/// schedule, which replicas are Byzantine, which are cut off and which
/// crashes. The input seed varies only what clients send and when, so a
/// run's figures measure the program, not a different deployment per
/// seed (the leader schedule alone moves sim_speed by 15% between seeds).
constexpr std::uint64_t kDeploymentSeed = 2024;

/// `seed` (the round's input seed) drives the request bodies and each
/// replica's arrival phase.
runtime::ScenarioBuilder make_builder(const Shape& shape, std::uint64_t seed,
                                      std::uint16_t tcp_port,
                                      const std::vector<ProcessId>& byzantine) {
  runtime::ScenarioBuilder b;
  b.params(ProtocolParams::for_n(shape.n, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(kDeploymentSeed);
  if (shape.tcp) {
    b.transport_tcp(tcp_port);
  } else {
    b.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  }
  if (!byzantine.empty()) {
    b.behaviors(adversary::byzantine_set(byzantine, [](ProcessId) {
      return std::make_unique<adversary::SilentLeaderBehavior>();
    }));
  }
  workload::WorkloadSpec spec;
  spec.request_bytes = kRequestBytes;
  spec.stop = at_ms(shape.stop_ms);
  spec.body = [seed](std::uint32_t client, std::uint64_t seq) {
    return body_bytes(seed, client, seq);
  };
  // Large enough that no request is ever refused: a refusal would be a
  // failed operation the schedule cannot predict.
  spec.mempool.max_pending_count = 1 << 20;
  if (shape.rate_per_replica == 0) {
    spec.arrival = workload::Arrival::kClosedLoop;
    spec.clients_per_node = shape.clients;
    spec.in_flight = shape.in_flight;
  } else {
    spec.arrival = workload::Arrival::kConstant;
    spec.clients_per_node = 1;
    spec.rate_per_client = shape.rate_per_replica;
  }
  b.workload(spec);
  const std::int64_t interval =
      shape.rate_per_replica == 0 ? 0 : 1'000'000 / shape.rate_per_replica;
  for (ProcessId id = 0; id < shape.n; ++id) {
    workload::WorkloadSpec node_spec = spec;
    if (std::binary_search(byzantine.begin(), byzantine.end(), id)) {
      node_spec.clients_per_node = 0;  // clients attach to honest replicas only
    } else if (interval > 0) {
      // Per-replica arrival phase, so replicas do not submit in lockstep.
      node_spec.start = TimePoint(static_cast<std::int64_t>(mix(seed, id) % interval));
    }
    b.node(id).workload(node_spec);
  }
  if (shape.dissem) b.dissemination();
  if (shape.faults) {
    // Without block sync the crashed replica's commit walk wedges on the
    // blocks it missed while down.
    b.block_sync(true);
    const std::vector<ProcessId> minority = pick_ids(mix(kDeploymentSeed, 11), shape.n, kMinority);
    std::vector<ProcessId> majority;
    for (ProcessId id = 0; id < shape.n; ++id) {
      if (!std::binary_search(minority.begin(), minority.end(), id)) majority.push_back(id);
    }
    const ProcessId crashed = pick_ids(mix(kDeploymentSeed, 12), shape.n, 1).front();
    b.partition({minority, majority}, at_ms(kCutAtMs));
    b.heal(at_ms(kHealAtMs));
    b.crash(crashed, at_ms(kCrashAtMs));
    b.recover(crashed, at_ms(kRecoverAtMs));
  }
  return b;
}

/// The open-loop schedule: client k of a replica whose clients start at
/// `start` submits at start + interval * (j + 1), j = 0, 1, ..., while
/// that instant is before `stop`.
std::uint64_t due_count(TimePoint start, TimePoint stop, std::int64_t interval) {
  std::uint64_t count = 0;
  for (std::int64_t t = start.ticks() + interval; t < stop.ticks(); t += interval) ++count;
  return count;
}

bool all_ledgers_nonempty(runtime::Cluster& cluster) {
  for (const ProcessId id : cluster.honest_ids()) {
    if (cluster.node(id).ledger().empty()) return false;
  }
  return true;
}

/// Copies an honest replica's ledger, resolving dissemination references
/// through that replica's own store, each batch once (as the fuzz
/// exactly-once oracle does).
LedgerCopy copy_ledger(runtime::Cluster& cluster, ProcessId id, std::uint64_t seed) {
  const runtime::Node& node = cluster.node(id);
  LedgerCopy copy;
  copy.node = id;
  copy.base = consensus::Block::genesis().hash();
  if (node.ledger().checkpoint_adopted()) {
    copy.decode_errors.push_back("node " + std::to_string(id) + " adopted a checkpoint");
  }
  std::set<dissem::BatchId> delivered;
  for (const consensus::CommittedEntry& e : node.ledger().entries()) {
    LedgerEntry entry;
    entry.view = e.view;
    entry.hash = e.hash;
    entry.parent = e.parent;
    std::vector<std::span<const std::uint8_t>> batches;
    const std::span<const std::uint8_t> payload(e.payload.data(), e.payload.size());
    if (dissem::is_refs_payload(payload)) {
      const auto refs = dissem::decode_refs(payload);
      if (!refs) {
        copy.decode_errors.push_back("node " + std::to_string(id) + ": malformed refs payload");
      } else {
        for (const dissem::BatchCert& cert : *refs) {
          if (!delivered.insert(cert.id()).second) continue;
          const std::vector<std::uint8_t>* bytes =
              node.disseminator() == nullptr ? nullptr : node.disseminator()->payload_of(cert.id());
          if (bytes == nullptr) {
            copy.decode_errors.push_back("node " + std::to_string(id) +
                                         ": committed batch reference never resolved");
            continue;
          }
          batches.emplace_back(bytes->data(), bytes->size());
        }
      }
    } else {
      batches.push_back(payload);
    }
    for (const auto& batch : batches) {
      for (const auto& command : consensus::Mempool::split_batch(batch)) {
        const auto request = workload::Request::decode(command);
        if (!request) {
          copy.decode_errors.push_back("node " + std::to_string(id) +
                                       ": committed a command that is not a request");
          continue;
        }
        entry.requests.push_back(CommittedRequest{
            request->client, request->seq, request->body == body_bytes(seed, request->client,
                                                                        request->seq)});
      }
    }
    copy.entries.push_back(std::move(entry));
  }
  return copy;
}

std::uint64_t requests_in(const LedgerCopy& copy) {
  std::uint64_t count = 0;
  for (const LedgerEntry& e : copy.entries) count += e.requests.size();
  return count;
}

/// Whether every honest replica has committed `total` requests and
/// resolved every reference it committed.
bool drained(runtime::Cluster& cluster, std::uint64_t seed, std::uint64_t total) {
  for (const ProcessId id : cluster.honest_ids()) {
    const workload::NodeWorkload* w = cluster.node_workload(id);
    if (w != nullptr && w->outstanding() != 0) return false;
    const dissem::Disseminator* d = cluster.node(id).disseminator();
    if (d != nullptr && d->unresolved_count() != 0) return false;
  }
  for (const ProcessId id : cluster.honest_ids()) {
    const LedgerCopy copy = copy_ledger(cluster, id, seed);
    if (!copy.decode_errors.empty() || requests_in(copy) < total) return false;
  }
  return true;
}

/// Linear map from sim instants to wall seconds, sampled during the window.
struct ClockMap {
  std::vector<std::pair<std::int64_t, double>> points;  ///< (sim ticks, wall s), increasing

  [[nodiscard]] double wall_at(std::int64_t sim) const {
    const auto it = std::lower_bound(points.begin(), points.end(), sim,
                                     [](const auto& p, std::int64_t t) { return p.first < t; });
    if (it == points.begin()) return points.front().second;
    if (it == points.end()) return points.back().second;
    const auto& [t1, w1] = *it;
    const auto& [t0, w0] = *(it - 1);
    if (t1 == t0) return w1;
    return w0 + (w1 - w0) * static_cast<double>(sim - t0) / static_cast<double>(t1 - t0);
  }
};

void collect_layers(runtime::Cluster& cluster, const Shape& shape, TimePoint window_from,
                    TimePoint window_to, const Usage& usage_at_start, RoundData& round);

/// The replicas' outputs as the checks saw them (the self-test corrupts
/// copies of these).
struct Outputs {
  std::vector<LedgerCopy> ledgers;
  DueSet due;
};

RoundData run_round(const Shape& shape, std::uint64_t seed, std::uint32_t round_index,
                    Outputs* outputs = nullptr) {
  RoundData round;
  const std::uint64_t round_seed = mix(seed, round_index);
  const Usage usage_at_start = usage_now();
  const std::vector<ProcessId> byzantine = pick_ids(mix(kDeploymentSeed, 10), shape.n, shape.byzantine);
  const TimePoint stop = at_ms(shape.stop_ms);
  const TimePoint warmup_deadline = at_ms(shape.warmup_deadline_ms);

  // ---- set-up: construction to warm-up (every honest replica committed)
  std::vector<bool> mask(shape.n, false);
  for (const ProcessId id : byzantine) mask[id] = true;
  probe::set_byzantine(std::move(mask));
  const auto setup_start = WallClock::now();
  std::unique_ptr<runtime::Cluster> cluster;
  for (int attempt = 0; cluster == nullptr; ++attempt) {
    const std::uint16_t port = shape.tcp ? probe_free_base_port(shape.n) : 0;
    try {
      cluster = std::make_unique<runtime::Cluster>(make_builder(shape, round_seed, port, byzantine));
    } catch (const std::runtime_error& e) {
      // Another process took a probed port between probe and bind.
      if (!shape.tcp || attempt >= 4) throw;
      std::fprintf(stderr, "perfbench: %s; probing again\n", e.what());
    }
  }
  // The TCP replicas' clocks are wall-paced from their first slice.
  const Duration warmup_step = shape.tcp ? Duration::millis(5) : Duration::millis(1);
  const auto first_slice = WallClock::now();
  const auto clock_now = [&] {
    return shape.tcp ? TimePoint(static_cast<std::int64_t>(seconds_since(first_slice) * 1e6))
                     : cluster->sim().now();
  };
  while (true) {
    cluster->run_for(warmup_step);
    if (all_ledgers_nonempty(*cluster)) break;
    if (clock_now() >= warmup_deadline) {
      round.errors.push_back("warm-up: not every honest replica committed a block within " +
                             std::to_string(shape.warmup_deadline_ms) + " ms" +
                             (shape.tcp ? " (did the loopback mesh connect?)" : ""));
      return round;
    }
  }
  round.setup_s = seconds_since(setup_start);

  // ---- measured window
  TimePoint window_from;
  const TimePoint window_to = stop;
  ClockMap clock_map;
  Usage before{};
  double rss_before = 0;
  auto wall0 = WallClock::now();
  std::optional<double> tcp_rss_at_fixed_work;
  if (shape.tcp) {
    // The window ends when the clients stop; a slow warm-up shortens it.
    window_from = std::max(stop - Duration::millis(shape.window_ms), clock_now());
    cluster->run_until(window_from);
    before = usage_now();
    rss_before = rss_kb_now();
    wall0 = WallClock::now();
    const double window_at = seconds_since(first_slice);  // replica clock, in s
    RssSampler sampler;
    cluster->run_until(stop);
    // The resident set grows with every committed request, and a time-
    // bounded round commits as many as the machine allows: read it when
    // the window's kTcpFixedWork-th request committed (replica clocks are
    // wall-paced from the first slice), so rounds compare equal work.
    std::vector<std::int64_t> commits;
    for (const ProcessId id : cluster->honest_ids()) {
      for (const auto& [commit_at, latency] : cluster->node_workload(id)->stats().latencies) {
        if (commit_at >= window_from) commits.push_back(commit_at.ticks());
      }
    }
    if (commits.size() >= kTcpFixedWork) {
      std::nth_element(commits.begin(), commits.begin() + (kTcpFixedWork - 1), commits.end());
      const double at = static_cast<double>(commits[kTcpFixedWork - 1]) / 1e6;
      tcp_rss_at_fixed_work = sampler.kb_at(at - window_at);
    }
  } else {
    window_from = cluster->sim().now();
    before = usage_now();
    rss_before = rss_kb_now();
    wall0 = WallClock::now();
    clock_map.points.emplace_back(window_from.ticks(), 0.0);
    while (cluster->sim().now() < window_to) {
      cluster->run_until(std::min(window_to, cluster->sim().now() + Duration::millis(10)));
      clock_map.points.emplace_back(cluster->sim().now().ticks(), seconds_since(wall0));
    }
  }
  round.window_wall_s = seconds_since(wall0);
  const Usage after = usage_now();
  round.window_cpu_s = after.cpu_s - before.cpu_s;
  const double rss_after = rss_kb_now();
  round.window_sim_s = static_cast<double>((window_to - window_from).ticks()) / 1e6;

  // ---- the schedule: which requests were due
  DueSet due;
  const std::vector<ProcessId> honest = cluster->honest_ids();
  if (shape.rate_per_replica > 0) {
    const std::int64_t interval = 1'000'000 / shape.rate_per_replica;
    for (const ProcessId id : honest) {
      const workload::NodeWorkload* w = cluster->node_workload(id);
      if (w == nullptr) {
        round.errors.push_back("honest replica " + std::to_string(id) + " has no clients");
        continue;
      }
      const std::uint64_t count = due_count(w->spec().start, w->spec().stop, interval);
      due[workload::client_id(id, 0)] = count;
    }
  }

  // ---- drain: clients have stopped; every admitted request must commit
  const Duration drain_step = shape.tcp ? Duration::millis(20) : Duration::millis(10);
  std::uint64_t total_due = 0;
  for (const auto& [client, count] : due) total_due += count;
  bool done = false;
  std::int64_t drained_for_ms = 0;
  while (!done && drained_for_ms <= shape.drain_limit_ms) {
    cluster->run_for(drain_step);
    drained_for_ms += drain_step.ticks() / 1000;
    if (shape.tcp) {
      // Closed loop: the submission log is what the clients admitted.
      const workload::Report report = cluster->workload_report();
      done = report.outstanding == 0 && drained(*cluster, round_seed, report.admitted);
    } else {
      done = drained(*cluster, round_seed, total_due);
    }
  }

  if (shape.tcp) {
    if (!tcp_rss_at_fixed_work) {
      round.errors.push_back("fewer than " + std::to_string(kTcpFixedWork) +
                             " requests committed in the window");
    }
    round.peak_rss_mb = tcp_rss_at_fixed_work.value_or(0) / 1024.0;
  } else {
    round.peak_rss_mb = std::max(rss_after, rss_kb_now()) / 1024.0;
  }

  // ---- correctness of the outputs
  std::vector<LedgerCopy> ledgers;
  for (const ProcessId id : honest) ledgers.push_back(copy_ledger(*cluster, id, round_seed));
  if (shape.tcp) {
    // The closed-loop submission log: each client's admitted requests carry
    // seqs 0..m-1; m is read off the ledgers and must add up, per
    // replica, to what that replica's clients admitted.
    for (const LedgerCopy& ledger : ledgers) {
      for (const LedgerEntry& e : ledger.entries) {
        for (const CommittedRequest& r : e.requests) {
          std::uint64_t& count = due[r.client];
          count = std::max(count, r.seq + 1);
        }
      }
    }
    for (const ProcessId id : honest) {
      workload::Report node_report;
      node_report.merge(*cluster->node_workload(id));
      std::uint64_t implied = 0;
      for (const auto& [client, count] : due) {
        if (workload::client_node(client) == id) implied += count;
      }
      if (implied != node_report.admitted) {
        round.errors.push_back("replica " + std::to_string(id) + "'s clients issued " +
                               std::to_string(node_report.admitted) +
                               " requests, its committed seqs imply " + std::to_string(implied));
      }
    }
  } else {
    for (const ProcessId id : honest) {
      workload::Report node_report;
      node_report.merge(*cluster->node_workload(id));
      const std::uint64_t expected = due[workload::client_id(id, 0)];
      if (node_report.submitted != expected || node_report.admitted != expected) {
        round.errors.push_back("replica " + std::to_string(id) + " generated " +
                               std::to_string(node_report.submitted) + " and admitted " +
                               std::to_string(node_report.admitted) +
                               " requests; the schedule says " + std::to_string(expected));
      }
    }
  }
  if (!done) {
    round.errors.push_back("drain: not every request committed on every honest replica within " +
                           std::to_string(shape.drain_limit_ms) + " ms after the clients stopped");
  }
  const CheckReport report = check_all(ledgers, due);
  if (outputs != nullptr) *outputs = Outputs{ledgers, due};
  for (const std::string& e : report.errors) round.errors.push_back(e);
  for (const std::string& e : report.missing_examples) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  for (const auto& [client, count] : due) round.attempted += count;
  round.failed = report.missing;

  if (shape.byzantine > 0) {
    const auto worst = cluster->metrics().max_msg_gap(window_from);
    const double bound = kQuadraticC * shape.n * shape.n;
    if (!worst) {
      round.errors.push_back("quadratic bound: no two decisions after warm-up");
    } else if (static_cast<double>(*worst) > bound) {
      round.errors.push_back("quadratic bound: " + std::to_string(*worst) +
                             " honest messages between two decisions, above c*n^2 = " +
                             std::to_string(static_cast<std::uint64_t>(bound)));
    }
  }

  // ---- latencies and the window's commits
  for (const ProcessId id : honest) {
    const workload::NodeWorkload* w = cluster->node_workload(id);
    for (const auto& [commit_at, latency] : w->stats().latencies) {
      round.sim_latency_ms.push_back(ms_of(latency));
      if (commit_at < window_from || commit_at >= window_to) continue;
      ++round.window_commits;
      const TimePoint submitted = commit_at - latency;
      if (shape.tcp) {
        round.latency_ms.push_back(ms_of(latency));  // wall-paced replica clock
      } else if (submitted >= window_from) {
        round.latency_ms.push_back(
            1e3 * (clock_map.wall_at(commit_at.ticks()) - clock_map.wall_at(submitted.ticks())));
      }
    }
  }
  if (round.window_commits > 0) {
    round.rss_kb_per_req = (rss_after - rss_before) / static_cast<double>(round.window_commits);
  }

  if (!shape.tcp) {
    crypto::Sha256 digest;
    for (ProcessId id = 0; id < shape.n; ++id) {
      if (const workload::NodeWorkload* w = cluster->node_workload(id)) {
        const crypto::Digest d = w->trace_digest();
        digest.update(std::span<const std::uint8_t>(d.bytes().data(), d.bytes().size()));
      }
    }
    round.digest = digest.finish().hex();
  }

  if (probe::traced()) collect_layers(*cluster, shape, window_from, window_to, usage_at_start, round);
  return round;
}

// ------------------------------------------------------------ per-layer metrics

void collect_layers(runtime::Cluster& cluster, const Shape& shape, TimePoint window_from,
                    TimePoint window_to, const Usage& usage_at_start, RoundData& round) {
  const probe::Totals t = probe::snapshot();
  const auto calls = [&](probe::Span s) {
    return static_cast<double>(t.calls[static_cast<std::size_t>(s)]);
  };
  const auto self_ms = [&](probe::Span s) {
    return static_cast<double>(t.self_ns[static_cast<std::size_t>(s)]) / 1e6;
  };
  const auto total_ms = [&](probe::Span s) {
    return static_cast<double>(t.total_ns[static_cast<std::size_t>(s)]) / 1e6;
  };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::map<std::string, Metric>& m = round.layer;
  using S = probe::Span;
  using C = probe::Counter;
  const auto counter = [&](C c) { return static_cast<double>(t.counters[static_cast<std::size_t>(c)]); };
  const runtime::MetricsCollector& metrics = cluster.metrics();
  const std::vector<ProcessId> honest = cluster.honest_ids();

  // sim
  // TCP replicas run private simulators the cluster does not expose; there
  // the count is the event-queue pops the probe saw.
  m["sim.events"] = {shape.tcp ? counter(C::kEventsPopped)
                               : static_cast<double>(cluster.sim().events_executed()),
                     "count"};
  m["sim.queue_self_ms"] = {self_ms(S::kSimQueue), "ms"};
  m["sim.net_self_ms"] = {self_ms(S::kSimNet), "ms"};

  // crypto
  crypto::AuthOpSnapshot api;
  std::uint64_t sync_msgs_total = 0, sync_auth_total = 0, syncs = 0;
  if (const obs::SyncTracer* tracer = cluster.sync_tracer()) {
    for (ProcessId id = 0; id < shape.n; ++id) api = api + tracer->auth_snapshot(id);
    std::set<ProcessId> honest_set(honest.begin(), honest.end());
    for (const obs::SyncSpan& span : tracer->completed_spans()) {
      if (!honest_set.contains(span.node)) continue;
      ++syncs;
      sync_msgs_total += span.msgs_sent;
      sync_auth_total += span.auth_ops();
    }
    m["obs.spans"] = {static_cast<double>(tracer->completed_count()), "count"};
  } else {
    m["obs.spans"] = {0, "count"};
  }
  m["crypto.api_ops"] = {static_cast<double>(api.total()), "count"};
  m["crypto.checks"] = {calls(S::kCryptoCheck), "count"};
  m["crypto.checks_per_api_op"] = {ratio(calls(S::kCryptoCheck), static_cast<double>(api.total())), "ratio"};
  m["crypto.check_ms"] = {total_ms(S::kCryptoCheck), "ms"};

  // consensus
  const workload::Report report = cluster.workload_report();
  std::size_t blocks = 0;
  for (const ProcessId id : honest) blocks = std::max(blocks, cluster.node(id).ledger().size());
  m["consensus.qc_verify_calls"] = {calls(S::kQcVerify), "count"};
  m["consensus.qc_verify_ms"] = {total_ms(S::kQcVerify), "ms"};
  m["consensus.core_self_ms"] = {self_ms(S::kCore), "ms"};
  m["consensus.msgs"] = {static_cast<double>(metrics.consensus_msgs()), "count"};
  m["consensus.bytes"] = {counter(C::kConsensusBytes), "B"};
  m["consensus.blocks_committed"] = {static_cast<double>(blocks), "count"};
  m["consensus.reqs_per_block"] = {ratio(static_cast<double>(report.committed), static_cast<double>(blocks)), "req/block"};
  m["consensus.mempool_ms"] = {self_ms(S::kMempool), "ms"};

  // core (the Lumiere pacemaker)
  m["core.views"] = {static_cast<double>(cluster.max_honest_view()), "count"};
  m["core.syncs"] = {static_cast<double>(syncs), "count"};
  m["core.msgs"] = {static_cast<double>(metrics.pacemaker_msgs()), "count"};
  m["core.msgs_per_sync"] = {ratio(static_cast<double>(sync_msgs_total), static_cast<double>(syncs)), "msgs/sync"};
  m["core.auth_ops_per_sync"] = {ratio(static_cast<double>(sync_auth_total), static_cast<double>(syncs)), "ops/sync"};
  m["core.max_msgs_per_decision"] = {static_cast<double>(metrics.max_msg_gap(window_from).value_or(0)), "count"};
  m["core.self_ms"] = {self_ms(S::kPacemaker), "ms"};

  // dissem
  m["dissem.batches_certified"] = {static_cast<double>(metrics.batches_certified()), "count"};
  m["dissem.acks"] = {static_cast<double>(metrics.batch_acks()), "count"};
  m["dissem.msgs"] = {static_cast<double>(metrics.dissem_msgs()), "count"};
  m["dissem.bytes"] = {static_cast<double>(metrics.dissem_bytes()), "B"};
  m["dissem.reqs_per_batch"] = {ratio(static_cast<double>(report.committed), static_cast<double>(metrics.batches_certified())), "req/batch"};
  m["dissem.cert_verify_calls"] = {calls(S::kCertVerify), "count"};
  m["dissem.self_ms"] = {self_ms(S::kDissem), "ms"};
  m["dissem.cert_p50_ms"] = {ms_of(metrics.batch_cert_latency_percentile(0.5).value_or(Duration::zero())), "ms"};

  // sync
  m["sync.msgs"] = {static_cast<double>(metrics.sync_msgs()), "count"};
  m["sync.self_ms"] = {self_ms(S::kSync), "ms"};

  // workload
  std::vector<double> latencies = round.latency_ms;
  std::vector<double> sim_latencies = round.sim_latency_ms;
  std::vector<std::int64_t> commit_instants;
  for (const ProcessId id : honest) {
    for (const auto& [commit_at, latency] : cluster.node_workload(id)->stats().latencies) {
      if (commit_at >= window_from && commit_at < window_to) commit_instants.push_back(commit_at.ticks());
    }
  }
  std::sort(commit_instants.begin(), commit_instants.end());
  std::int64_t max_gap = 0;
  for (std::size_t i = 1; i < commit_instants.size(); ++i) {
    max_gap = std::max(max_gap, commit_instants[i] - commit_instants[i - 1]);
  }
  m["workload.submitted"] = {static_cast<double>(report.submitted), "count"};
  m["workload.committed"] = {static_cast<double>(report.committed), "count"};
  m["workload.requeued"] = {static_cast<double>(report.requeued), "count"};
  m["workload.self_ms"] = {self_ms(S::kWorkload), "ms"};
  m["workload.commit_p99_ms"] = {percentile(latencies, 0.99), "ms"};
  m["workload.sim_commit_p50_ms"] = {percentile(sim_latencies, 0.50), "ms"};
  m["workload.sim_commit_p99_ms"] = {percentile(sim_latencies, 0.99), "ms"};
  m["workload.sim_max_commit_gap_ms"] = {static_cast<double>(max_gap) / 1000.0, "ms"};

  // runtime
  const double records = static_cast<double>(metrics.decisions().size() + metrics.requests_committed() +
                                             metrics.queue_depth_log().size() + metrics.batches_certified() +
                                             metrics.certified_depth_log().size());
  m["runtime.route_calls"] = {counter(C::kRouteCalls), "count"};
  m["runtime.node_self_ms"] = {self_ms(S::kNode), "ms"};
  m["runtime.metrics_ms"] = {self_ms(S::kMetrics), "ms"};
  m["runtime.metrics_records"] = {records, "count"};

  // ser (TCP only: the simulator passes message objects, never bytes)
  m["ser.encodes"] = {calls(S::kEncode), "count"};
  m["ser.decodes"] = {calls(S::kDecode), "count"};
  m["ser.bytes"] = {counter(C::kEncodedBytes), "B"};
  m["ser.encode_ms"] = {total_ms(S::kEncode), "ms"};
  m["ser.decode_ms"] = {total_ms(S::kDecode), "ms"};

  // transport
  m["transport.polls"] = {calls(S::kTcpPoll), "count"};
  m["transport.useful_poll_ratio"] = {ratio(counter(C::kUsefulPolls), calls(S::kTcpPoll)), "ratio"};
  m["transport.frames_sent"] = {counter(C::kFramesSent), "count"};
  m["transport.send_ms"] = {total_ms(S::kTcpSend), "ms"};
  m["transport.poll_self_ms"] = {self_ms(S::kTcpPoll), "ms"};

  // obs
  m["obs.tracer_ms"] = {self_ms(S::kTracer), "ms"};

  // process
  const Usage now = usage_now();
  m["proc.user_s"] = {now.user_s - usage_at_start.user_s, "s"};
  m["proc.sys_s"] = {now.sys_s - usage_at_start.sys_s, "s"};
  m["proc.ctx_switches"] = {static_cast<double>(now.ctx_switches - usage_at_start.ctx_switches), "count"};
  m["proc.rss_kb_per_req"] = {round.rss_kb_per_req, "KB/req"};
}

// A small clean run for the checks' self-test: n = 4, open loop.
constexpr Shape kSelftestShape{.name = "selftest", .n = 4, .rate_per_replica = 100,
                                .warmup_deadline_ms = 500, .stop_ms = 1000};

}  // namespace

namespace {
void flip(crypto::Digest& d) {
  auto bytes = d.bytes();
  bytes[0] ^= 0xFF;
  d = crypto::Digest(bytes);
}
}  // namespace

int run_selftest() {
  Outputs clean;
  const RoundData round = run_round(kSelftestShape, 7, 0, &clean);
  int failures = 0;
  const auto expect = [&](const char* what, bool ok) {
    std::printf("selftest: %-52s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  expect("clean run passes every check", round.errors.empty() && round.failed == 0);
  std::vector<LedgerCopy>& ledgers = clean.ledgers;
  if (ledgers.size() < 2 || ledgers[0].entries.size() < 4) {
    expect("clean run committed enough to corrupt", false);
    return 1;
  }
  // Index of an entry carrying at least one request, away from the ends.
  std::size_t k = 1;
  while (k + 1 < ledgers[0].entries.size() && ledgers[0].entries[k].requests.empty()) ++k;

  {  // A forked ledger: another block at height k, consistently linked.
    std::vector<LedgerCopy> bad = ledgers;
    flip(bad[1].entries[k].hash);
    if (k + 1 < bad[1].entries.size()) bad[1].entries[k + 1].parent = bad[1].entries[k].hash;
    CheckReport r;
    check_prefixes(bad, r);
    expect("forked ledger fails the prefix check", !r.errors.empty());
  }
  {  // A broken parent link.
    std::vector<LedgerCopy> bad = ledgers;
    flip(bad[0].entries[k].parent);
    CheckReport r;
    check_parents(bad, r);
    expect("broken parent link fails the parent check", !r.errors.empty());
  }
  {  // A duplicated request.
    std::vector<LedgerCopy> bad = ledgers;
    bad[0].entries.back().requests.push_back(bad[0].entries[k].requests.front());
    CheckReport r;
    check_exactly_once(bad, clean.due, r);
    expect("duplicated request fails the exactly-once check", !r.errors.empty());
  }
  {  // A dropped request.
    std::vector<LedgerCopy> bad = ledgers;
    bad[0].entries[k].requests.erase(bad[0].entries[k].requests.begin());
    CheckReport r;
    check_exactly_once(bad, clean.due, r);
    expect("dropped request fails the exactly-once check", r.missing == 1);
  }
  {  // A body other than the one sent.
    std::vector<LedgerCopy> bad = ledgers;
    bad[0].entries[k].requests.front().body_ok = false;
    CheckReport r;
    check_exactly_once(bad, clean.due, r);
    expect("altered request body fails the payload check", !r.errors.empty());
  }
  return failures == 0 ? 0 : 1;
}

namespace {

/// Confines the calling thread, and every thread it starts afterwards, to
/// the last CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

}  // namespace

RunResult run_workload(const Options& options) {
  const Shape& shape = shape_for(options.workload);
  // The TCP replicas' driver threads (started by Cluster::run_for, so they
  // inherit this affinity) share one CPU. Spread over the machine's CPUs,
  // every protocol hop waits for a sleeping thread on another CPU to wake,
  // and on a shared host that made throughput swing 2-3x between minutes
  // (spread 0.5 over ten runs); on one CPU the closed loop is CPU-bound.
  if (shape.tcp) pin_to_one_cpu();
  RunResult result;
  std::vector<RoundData> rounds;
  const auto start = WallClock::now();
  crypto::Sha256 digest;
  while (true) {
    rounds.push_back(run_round(shape, options.seed, static_cast<std::uint32_t>(rounds.size())));
    malloc_trim(0);  // the next round's resident set starts from its own cluster
    const RoundData& r = rounds.back();
    std::fprintf(stderr,
                 "perfbench: round %zu: setup %.4f s, window %.4f s wall / %.4f s clock, "
                 "%llu commits, %.4f s cpu, %.1f MB resident\n",
                 rounds.size() - 1, r.setup_s, r.window_wall_s, r.window_sim_s,
                 static_cast<unsigned long long>(r.window_commits), r.window_cpu_s, r.peak_rss_mb);
    result.attempted += r.attempted;
    result.failed += r.failed;
    for (const std::string& e : r.errors) result.errors.push_back(e);
    digest.update(r.digest);
    if (!r.errors.empty()) break;  // a broken round would only repeat
    if (options.rounds > 0 ? rounds.size() >= options.rounds
                           : seconds_since(start) >= options.seconds) {
      break;
    }
  }
  result.rounds = static_cast<std::uint32_t>(rounds.size());
  result.correct = result.errors.empty();
  result.digest = digest.finish().hex();

  // Each figure is the median of its per-round values, so one round
  // disturbed by a neighbour on the machine moves it little.
  std::vector<double> speeds, rates, cpu_per_kreq, setups, p50s, p90s, rss;
  double wall = 0, cpu = 0;
  std::uint64_t commits = 0;
  for (const RoundData& r : rounds) {
    if (r.window_wall_s <= 0 || r.window_commits == 0) continue;
    speeds.push_back(r.window_sim_s / r.window_wall_s);
    rates.push_back(static_cast<double>(r.window_commits) / r.window_wall_s);
    cpu_per_kreq.push_back(r.window_cpu_s * 1e3 / (static_cast<double>(r.window_commits) / 1e3));
    setups.push_back(r.setup_s);
    std::vector<double> latencies = r.latency_ms;
    p50s.push_back(percentile(latencies, 0.50));
    p90s.push_back(percentile(latencies, 0.90));
    rss.push_back(r.peak_rss_mb);
    wall += r.window_wall_s;
    cpu += r.window_cpu_s;
    commits += r.window_commits;
  }
  result.window_wall_s = wall;
  result.window_cpu_ms_per_kreq = commits > 0 ? cpu * 1e3 / (static_cast<double>(commits) / 1e3) : 0;

  if (probe::traced()) {
    result.metrics = rounds.back().layer;
    return result;
  }
  result.metrics["sim_speed"] = {percentile(speeds, 0.50), "sim_s/s"};
  result.metrics["commit_rps"] = {percentile(rates, 0.50), "req/s"};
  result.metrics["commit_p50_ms"] = {percentile(p50s, 0.50), "ms"};
  result.metrics["commit_p90_ms"] = {percentile(p90s, 0.50), "ms"};
  result.metrics["cpu_ms_per_kreq"] = {percentile(cpu_per_kreq, 0.50), "ms/kreq"};
  result.metrics["peak_rss_mb"] = {percentile(rss, 0.50), "MB"};
  result.metrics["setup_s"] = {percentile(setups, 0.50), "s"};
  return result;
}

}  // namespace perfbench
