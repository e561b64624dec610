// Growth-order fits for Theorem 1.1: how the measured quantities scale
// with n. Empirical counterpart of the asymptotic columns of Table 1.
//
//   * worst-case communication: Cogsworth ~ n^3 vs LP22/Lumiere ~ n^2
//   * eventual communication at f_a = f: LP22 ~ n^2 (epoch syncs) vs
//     Lumiere ~ n (f_a * n per window, f_a proportional to n here, so
//     Lumiere's fitted slope lands near 2 as well — the separating
//     measure is eventual comm at fixed f_a, also printed)
//   * eventual latency at fixed f_a = 1: LP22 ~ n, Lumiere ~ 1.
//
// Sizes reach n = 64 (post hot-path overhaul; the sweep was previously
// capped at 19), and --quick appends bounded n = 100 and n = 256 Lumiere
// points — the O(n^2) vote-traffic regime where per-message constants
// dominate.
// CI runs `bench_scaling --quick --json BENCH_scaling.json`.
#include <cstdio>

#include "bench_util.h"

namespace lumiere::bench {
namespace {

struct ScalingBudget {
  std::vector<std::uint32_t> sizes;
  Duration worst_run;     ///< worst-permitted-network run per point
  Duration eventual_run;  ///< fixed-delay run per eventual measure
  std::size_t warmup_windows;
};

ScalingBudget budget_for(bool quick) {
  ScalingBudget budget;
  if (quick) {
    // Bounded: fewer, larger sizes and shorter runs — the growth fit
    // needs the spread in n, not long tails per point.
    budget.sizes = {4, 13, 31, 64};
    budget.worst_run = Duration::seconds(60);
    budget.eventual_run = Duration::seconds(20);
    budget.warmup_windows = 10;
  } else {
    budget.sizes = {4, 7, 13, 19, 31, 64};
    budget.worst_run = Duration::seconds(240);
    budget.eventual_run = Duration::seconds(60);
    budget.warmup_windows = 25;
  }
  return budget;
}

struct SeriesPoint {
  std::uint32_t n;
  double worst_comm = 0;
  double ev_comm_full_faults = 0;   // f_a = f (grows with n)
  double ev_comm_one_fault = 0;     // f_a = 1 (fixed)
  double ev_lat_one_fault_ms = 0;   // f_a = 1 (fixed)
};

SeriesPoint measure(const std::string& pacemaker, std::uint32_t n, const ScalingBudget& budget) {
  SeriesPoint point;
  point.n = n;
  const std::uint32_t f = (n - 1) / 3;

  if (const WorstCaseSample sample = worst_case_sample(pacemaker, n, 2001, 10, budget.worst_run);
      sample.comm) {
    point.worst_comm = static_cast<double>(*sample.comm);
  }

  const auto eventual = [&](std::uint32_t f_a) {
    ScenarioBuilder builder = base_scenario(pacemaker, n, 2002);
    builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
    with_silent_leaders(builder, f_a);
    Cluster cluster(builder);
    cluster.run_for(budget.eventual_run);
    return std::make_pair(
        cluster.metrics().max_msg_gap(TimePoint::origin(), budget.warmup_windows),
        cluster.metrics().max_decision_gap(TimePoint::origin(), budget.warmup_windows));
  };
  if (const auto [comm, lat] = eventual(f); comm) {
    point.ev_comm_full_faults = static_cast<double>(*comm);
    (void)lat;
  }
  if (const auto [comm, lat] = eventual(1); comm && lat) {
    point.ev_comm_one_fault = static_cast<double>(*comm);
    point.ev_lat_one_fault_ms = static_cast<double>(lat->ticks()) / 1000.0;
  }
  return point;
}

void run_protocol(const std::string& pacemaker, const ScalingBudget& budget, JsonRows& json) {
  std::printf("\n--- %s ---\n", pacemaker.c_str());
  std::printf("%-5s | %12s | %16s | %15s | %15s\n", "n", "worst comm", "ev comm (fa=f)",
              "ev comm (fa=1)", "ev lat (fa=1) ms");
  std::vector<double> ns;
  std::vector<double> worst;
  std::vector<double> ev_full;
  std::vector<double> ev_one;
  std::vector<double> lat_one;
  for (const std::uint32_t n : budget.sizes) {
    const SeriesPoint p = measure(pacemaker, n, budget);
    std::printf("%-5u | %12.0f | %16.0f | %15.0f | %15.1f\n", p.n, p.worst_comm,
                p.ev_comm_full_faults, p.ev_comm_one_fault, p.ev_lat_one_fault_ms);
    json.add_row()
        .set("protocol", pacemaker)
        .set("n", static_cast<std::uint64_t>(p.n))
        .set("worst_comm", p.worst_comm)
        .set("ev_comm_fa_f", p.ev_comm_full_faults)
        .set("ev_comm_fa_1", p.ev_comm_one_fault)
        .set("ev_lat_fa_1_ms", p.ev_lat_one_fault_ms);
    ns.push_back(p.n);
    worst.push_back(p.worst_comm);
    ev_full.push_back(p.ev_comm_full_faults);
    ev_one.push_back(p.ev_comm_one_fault);
    lat_one.push_back(p.ev_lat_one_fault_ms);
  }
  const double worst_slope = loglog_slope(ns, worst);
  const double ev_full_slope = loglog_slope(ns, ev_full);
  const double ev_one_slope = loglog_slope(ns, ev_one);
  const double lat_slope = loglog_slope(ns, lat_one);
  std::printf("fitted n-exponents: worst comm %.2f | ev comm fa=f %.2f | ev comm fa=1 %.2f | "
              "ev lat fa=1 %.2f\n",
              worst_slope, ev_full_slope, ev_one_slope, lat_slope);
  json.add_row()
      .set("protocol", pacemaker)
      .set("fit_worst_comm", worst_slope)
      .set("fit_ev_comm_fa_f", ev_full_slope)
      .set("fit_ev_comm_fa_1", ev_one_slope)
      .set("fit_ev_lat_fa_1", lat_slope);
}

/// A bounded large-n point: Lumiere under one silent leader, eventual
/// regime only (a worst-permitted-network warmup at these sizes is a
/// different experiment — the point exists to prove the substrate drives
/// n ~ 100-256 O(n^2)-vote traffic inside a CI budget).
void run_bounded_point(JsonRows& json, std::uint32_t n) {
  ScenarioBuilder builder = base_scenario("lumiere", n, 2003);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  with_silent_leaders(builder, 1);
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(15));
  const auto comm = cluster.metrics().max_msg_gap(TimePoint::origin(), 10);
  const auto lat = cluster.metrics().max_decision_gap(TimePoint::origin(), 10);
  std::printf("\n--- bounded n=%u point (lumiere, fa=1, 15 sim-s) ---\n", n);
  std::printf("decisions %zu | total honest msgs %llu | ev comm %s | ev lat %s ms\n",
              cluster.metrics().decisions().size(),
              static_cast<unsigned long long>(cluster.metrics().total_honest_msgs()),
              fmt_count(comm).c_str(), fmt_ms(lat).c_str());
  json.add_row()
      .set("protocol", "lumiere")
      .set("n", static_cast<std::uint64_t>(n))
      .set("bounded", "fa=1 eventual only")
      .set_count("decisions", cluster.metrics().decisions().size())
      .set_count("ev_comm_fa_1", comm)
      .set_ms("ev_lat_fa_1_ms", lat);
}

}  // namespace
}  // namespace lumiere::bench

int main(int argc, char** argv) {
  using namespace lumiere::bench;
  const BenchArgs args = parse_bench_args(argc, argv);
  const ScalingBudget budget = budget_for(args.quick);
  std::printf("bench_scaling: empirical growth orders vs n (Theorem 1.1 shapes)%s\n",
              args.quick ? " [--quick]" : "");
  JsonRows json;
  for (const char* pacemaker : {"cogsworth", "lp22", "basic-lumiere", "lumiere"}) {
    run_protocol(pacemaker, budget, json);
  }
  if (args.quick) {
    run_bounded_point(json, 100);
    run_bounded_point(json, 256);
  }
  std::printf(
      "\nReading guide: Cogsworth's worst-comm exponent should exceed LP22's and\n"
      "Lumiere's (n^3 vs n^2); Lumiere's fa=1 columns should be ~flat in n\n"
      "(exponent near 0 up to noise) while LP22's eventual latency grows ~n.\n");
  if (!args.json_path.empty() && !json.write(args.json_path, "scaling")) return 1;
  return 0;
}
