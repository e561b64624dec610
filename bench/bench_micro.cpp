// Micro-benchmarks (google-benchmark) for the substrate hot paths:
// crypto, serialization, the event queue, and the simulated network.
// These are sanity/perf regressions, not paper artifacts.
#include <benchmark/benchmark.h>

#include "consensus/quorum_cert.h"
#include "crypto/sha256.h"
#include "crypto/authenticator.h"
#include "pacemaker/messages.h"
#include "ser/serializer.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace lumiere {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(std::span<const std::uint8_t>(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_DefaultSchemeSign(benchmark::State& state) {
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 4, 1);
  const auto signer = auth->signer_for(0);
  const auto digest = crypto::Sha256::hash("message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign(digest));
  }
}
BENCHMARK(BM_DefaultSchemeSign);

void BM_ThresholdAggregate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t m = 2 * ((n - 1) / 3) + 1;
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const auto digest = crypto::Sha256::hash("statement");
  std::vector<crypto::PartialSig> shares;
  for (ProcessId id = 0; id < m; ++id) {
    shares.push_back(crypto::threshold_share(auth->signer_for(id), digest));
  }
  for (auto _ : state) {
    crypto::QuorumAggregator agg(crypto::AuthView(auth.get()), digest, m);
    for (const auto& share : shares) agg.add(share);
    benchmark::DoNotOptimize(agg.aggregate());
  }
}
BENCHMARK(BM_ThresholdAggregate)->Arg(4)->Arg(16)->Arg(64);

void BM_ThresholdVerify(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t m = 2 * ((n - 1) / 3) + 1;
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const auto digest = crypto::Sha256::hash("statement");
  crypto::QuorumAggregator agg(crypto::AuthView(auth.get()), digest, m);
  for (ProcessId id = 0; id < m; ++id) {
    agg.add(crypto::threshold_share(auth->signer_for(id), digest));
  }
  const auto sig = agg.aggregate();
  for (auto _ : state) {
    // The scheme itself: an AuthView would answer repeats from the memo.
    benchmark::DoNotOptimize(auth->check_aggregate(sig));
  }
}
BENCHMARK(BM_ThresholdVerify)->Arg(4)->Arg(16)->Arg(64);

/// A QC over a fixed block at size n, aggregated from 2f+1 shares.
consensus::QuorumCert make_bench_qc(const crypto::Authenticator& auth,
                                    const ProtocolParams& params) {
  const auto hash = crypto::Sha256::hash("block");
  const auto statement = consensus::QuorumCert::statement(7, hash);
  crypto::QuorumAggregator agg(crypto::AuthView(&auth), statement, params.quorum());
  for (ProcessId id = 0; id < params.quorum(); ++id) {
    agg.add(crypto::threshold_share(auth.signer_for(id), statement));
  }
  return consensus::QuorumCert(7, hash, agg.aggregate());
}

void BM_QcVerify(benchmark::State& state) {
  // What a memo miss costs: statement recompute plus the scheme's check
  // of the aggregate (2f+1 share MACs under the default scheme).
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const ProtocolParams params = ProtocolParams::for_n(n, Duration::millis(10));
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const consensus::QuorumCert qc = make_bench_qc(*auth, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qc.sig().message == consensus::QuorumCert::statement(qc.view(), qc.block_hash()) &&
        auth->check_aggregate(qc.sig()));
  }
}
BENCHMARK(BM_QcVerify)->Arg(4)->Arg(16)->Arg(64);

void BM_QcVerifyMemoHit(benchmark::State& state) {
  // QuorumCert::verify of a QC another replica of the process already
  // verified: statement recompute plus one lookup in the authenticator's
  // shared memo, independent of the quorum size.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const ProtocolParams params = ProtocolParams::for_n(n, Duration::millis(10));
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const consensus::QuorumCert qc = make_bench_qc(*auth, params);
  benchmark::DoNotOptimize(qc.verify(crypto::AuthView(auth.get()), params));  // warm the memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(qc.verify(crypto::AuthView(auth.get()), params));
  }
}
BENCHMARK(BM_QcVerifyMemoHit)->Arg(4)->Arg(16)->Arg(64);

void BM_StatementCached(benchmark::State& state) {
  // The n-votes-for-one-block shape a leader aggregates every view.
  consensus::StatementCache cache;
  const auto hash = crypto::Sha256::hash("block");
  View view = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(view, hash));
  }
}
BENCHMARK(BM_StatementCached);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(TimePoint(1000 - i), [] {});
    }
    TimePoint at;
    sim::EventFn fn;
    while (queue.pop(at, fn)) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_MessageRoundTrip(benchmark::State& state) {
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 4, 1);
  const pacemaker::ViewMsg msg(
      42, crypto::threshold_share(auth->signer_for(0), pacemaker::view_msg_statement(42)));
  MessageCodec codec;
  pacemaker::register_pacemaker_messages(codec);
  for (auto _ : state) {
    const auto frame = MessageCodec::encode(msg);
    benchmark::DoNotOptimize(codec.decode(frame));
  }
}
BENCHMARK(BM_MessageRoundTrip);

void BM_NetworkBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  sim::Simulator sim;
  sim::Network network(&sim, n, TimePoint::origin(), Duration::millis(10),
                       std::make_shared<sim::FixedDelay>(Duration::micros(100)), 1);
  for (ProcessId id = 0; id < n; ++id) {
    network.register_endpoint(id, [](ProcessId, const MessagePtr&) {});
  }
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const auto msg = std::make_shared<pacemaker::ViewMsg>(
      1, crypto::threshold_share(auth->signer_for(0), pacemaker::view_msg_statement(1)));
  for (auto _ : state) {
    network.broadcast(0, msg);
    sim.run_until_idle();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NetworkBroadcast)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace lumiere

BENCHMARK_MAIN();
