// VerifyPipeline unit tests: the staged decode+verify worker pool in
// isolation — claims memoized only when they pass, malformed frames
// dropped, bounded-queue backpressure, and stop()/start() as the fault
// schedule uses them — plus the shared CheckMemo under concurrent
// replicas and workers (this suite runs under TSan in CI). The
// full-stack path is tests/transport/tcp_pipeline_test.cpp.
#include "runtime/pipeline.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "pacemaker/messages.h"

namespace lumiere::runtime {
namespace {

using namespace std::chrono_literals;

class PipelineTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 4;

  PipelineTest() : auth_(crypto::make_authenticator(crypto::kDefaultScheme, kN, 5)) {}

  [[nodiscard]] MessageCodec codec() const {
    MessageCodec codec;
    consensus::register_consensus_messages(codec);
    pacemaker::register_pacemaker_messages(codec);
    codec.set_sig_wire(auth_->wire_spec());
    return codec;
  }

  [[nodiscard]] std::vector<std::uint8_t> view_msg_frame(ProcessId signer, View v) const {
    const pacemaker::ViewMsg msg(
        v, crypto::threshold_share(auth_->signer_for(signer), pacemaker::view_msg_statement(v)));
    return MessageCodec::encode(msg);
  }

  /// Polls drain() until `want` results arrived or ~2s passed.
  template <typename Fn>
  std::size_t drain_until(VerifyPipeline& pipeline, std::size_t want, Fn&& fn) {
    std::size_t got = 0;
    for (int spin = 0; spin < 2000 && got < want; ++spin) {
      got += pipeline.drain(fn);
      if (got < want) std::this_thread::sleep_for(1ms);
    }
    return got;
  }

  std::unique_ptr<crypto::Authenticator> auth_;
};

TEST_F(PipelineTest, ValidClaimsLandInTheSharedMemo) {
  VerifyPipeline pipeline(auth_.get(), codec(), PipelineSpec{true, 2, 64});
  pipeline.start();
  const auto frame = view_msg_frame(/*signer=*/1, /*v=*/3);
  ASSERT_TRUE(pipeline.submit(2, frame));

  std::vector<VerifyPipeline::Result> results;
  ASSERT_EQ(drain_until(pipeline, 1, [&](auto&& r) { results.push_back(std::move(r)); }), 1U);
  EXPECT_EQ(results[0].from, 2U);
  ASSERT_NE(results[0].msg, nullptr);
  EXPECT_EQ(results[0].msg->type_id(), pacemaker::kViewMsg);
  // The share the frame carries verified, so the worker stored it in the
  // authenticator's memo before handing the message over: the core's
  // inline check of it is a lookup.
  const auto& vm = static_cast<const pacemaker::ViewMsg&>(*results[0].msg);
  EXPECT_TRUE(auth_->memo().contains(pacemaker::view_msg_statement(3), vm.share()));

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.frames_in, 1U);
  EXPECT_EQ(stats.frames_out, 1U);
  EXPECT_EQ(stats.claims_checked, 1U);
  EXPECT_EQ(stats.claims_passed, 1U);
  pipeline.stop();
}

TEST_F(PipelineTest, FailedClaimsAreNotMemoized) {
  // A message whose signature does not verify still comes out of the
  // pipeline (the core makes the accept/reject call) but nothing enters
  // the memo — it never whitelists a bad claim.
  VerifyPipeline pipeline(auth_.get(), codec(), PipelineSpec{true, 1, 64});
  pipeline.start();
  pacemaker::ViewMsg forged(
      7, crypto::PartialSig{2, crypto::SigBytes::zeros(auth_->wire_spec().sig_bytes)});
  ASSERT_TRUE(pipeline.submit(1, MessageCodec::encode(forged)));

  std::vector<VerifyPipeline::Result> results;
  ASSERT_EQ(drain_until(pipeline, 1, [&](auto&& r) { results.push_back(std::move(r)); }), 1U);
  ASSERT_NE(results[0].msg, nullptr);
  EXPECT_FALSE(auth_->memo().contains(pacemaker::view_msg_statement(7), forged.share()));
  EXPECT_EQ(auth_->memo().size(), 0U);
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.claims_checked, 1U);
  EXPECT_EQ(stats.claims_passed, 0U);
  pipeline.stop();
}

TEST_F(PipelineTest, MalformedFramesAreCountedAndDropped) {
  VerifyPipeline pipeline(auth_.get(), codec(), PipelineSpec{true, 1, 64});
  pipeline.start();
  const std::vector<std::uint8_t> garbage = {0xFF, 0xFF, 0x00, 0x00, 0xAB, 0xCD};
  ASSERT_TRUE(pipeline.submit(3, garbage));
  // A well-formed frame after it proves the worker survived the garbage.
  ASSERT_TRUE(pipeline.submit(1, view_msg_frame(1, 9)));
  std::size_t delivered = drain_until(pipeline, 1, [](auto&&) {});
  EXPECT_EQ(delivered, 1U);
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.decode_failures, 1U);
  EXPECT_EQ(stats.frames_in, 2U);
  EXPECT_EQ(stats.frames_out, 1U);
  pipeline.stop();
}

TEST_F(PipelineTest, SubmitRejectsWhenStopped) {
  VerifyPipeline pipeline(auth_.get(), codec(), PipelineSpec{true, 1, 4});
  const auto frame = view_msg_frame(0, 1);
  EXPECT_FALSE(pipeline.submit(1, frame)) << "not started yet";
  EXPECT_FALSE(pipeline.try_submit(1, frame));
  pipeline.start();
  EXPECT_TRUE(pipeline.running());
  pipeline.stop();
  EXPECT_FALSE(pipeline.running());
  EXPECT_FALSE(pipeline.submit(1, frame)) << "stopped again";
}

TEST_F(PipelineTest, BackpressureBlocksThenDrains) {
  // Capacity 1 with a single worker: a burst from the submitting thread
  // outruns decode+verify, so submit() must hit the full queue and block
  // rather than grow memory — and every accepted frame still comes out.
  VerifyPipeline pipeline(auth_.get(), codec(), PipelineSpec{true, 1, 1});
  pipeline.start();
  constexpr int kBurst = 256;
  const auto frame = view_msg_frame(2, 5);
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(pipeline.submit(1, frame));
  }
  std::size_t delivered = drain_until(pipeline, kBurst, [](auto&&) {});
  EXPECT_EQ(delivered, static_cast<std::size_t>(kBurst));
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.frames_in, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(stats.frames_out, static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(stats.submit_blocks, 0U) << "burst never saw backpressure with capacity 1";
  pipeline.stop();
}

TEST_F(PipelineTest, StopUnblocksAPendingSubmit) {
  // The crash path: a socket thread stuck in submit() backpressure must
  // be released (with submit returning false) when the fault schedule
  // stops the pool, or stop() would deadlock against it.
  VerifyPipeline pipeline(auth_.get(), codec(), PipelineSpec{true, 1, 1});
  pipeline.start();
  const auto frame = view_msg_frame(0, 2);
  // Fill: the queue holds 1; keep the worker busy long enough by feeding
  // more frames from a second thread until one observably blocks.
  std::atomic<int> accepted{0};
  std::atomic<bool> done{false};
  std::thread submitter([&] {
    for (int i = 0; i < 100000; ++i) {
      if (!pipeline.submit(1, frame)) break;  // released by stop()
      accepted.fetch_add(1);
    }
    done.store(true);
  });
  std::this_thread::sleep_for(20ms);
  pipeline.stop();
  submitter.join();
  EXPECT_TRUE(done.load());
  pipeline.drain([](auto&&) {});  // discard whatever completed

  // Restart (the recover path): the pool processes new frames again.
  pipeline.start();
  ASSERT_TRUE(pipeline.submit(1, view_msg_frame(1, 8)));
  EXPECT_EQ(drain_until(pipeline, 1, [](auto&&) {}), 1U);
  pipeline.stop();
}

TEST_F(PipelineTest, StopStartCycleSurvivesQueuedFrames) {
  VerifyPipeline pipeline(auth_.get(), codec(), PipelineSpec{true, 2, 128});
  for (int cycle = 0; cycle < 3; ++cycle) {
    pipeline.start();
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(pipeline.submit(0, view_msg_frame(i % kN, cycle * 16 + i)));
    }
    pipeline.stop();  // in-flight frames may be discarded, never leaked
    EXPECT_FALSE(pipeline.running());
  }
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.frames_in, 48U);
  EXPECT_LE(stats.frames_out, stats.frames_in);
}

TEST(CheckMemoConcurrencyTest, ReplicasAndWorkersShareOneMemo) {
  // The in-process TCP shape: replica driver threads look claims up and
  // insert them while pipeline workers insert the same claims, all in
  // one authenticator's memo. Every genuine claim is accepted, and each
  // replica counts each aggregate exactly once however many times, and
  // in whatever interleaving, it asks.
  constexpr std::uint32_t kN = 4;
  constexpr int kClaims = 96;
  constexpr int kRounds = 3;
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, kN, 21);
  std::vector<crypto::ThresholdSig> sigs;
  std::vector<std::pair<crypto::Digest, crypto::PartialSig>> shares;
  for (int i = 0; i < kClaims; ++i) {
    const crypto::Digest message = crypto::Sha256::hash("claim " + std::to_string(i));
    crypto::QuorumAggregator agg(crypto::AuthView(auth.get()), message, 3);
    for (ProcessId id = 0; id < 3; ++id) {
      agg.add(crypto::threshold_share(auth->signer_for(id), message));
    }
    sigs.push_back(agg.aggregate());
    shares.emplace_back(message, crypto::threshold_share(auth->signer_for(3), message));
  }

  std::array<crypto::AuthOpCounters, kN> ops;
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (ProcessId node = 0; node < kN; ++node) {
    threads.emplace_back([&, node] {
      const crypto::AuthView view(auth.get(), &ops[node], node);
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kClaims; ++k) {
          const int i = (k * 7 + static_cast<int>(node) * 13 + round) % kClaims;
          if (!view.verify_aggregate(sigs[i], 3)) rejected.fetch_add(1);
          if (!view.verify_share(shares[i].first, shares[i].second)) rejected.fetch_add(1);
        }
      }
    });
  }
  for (int worker = 0; worker < 2; ++worker) {
    threads.emplace_back([&, worker] {
      const crypto::AuthView view(auth.get());
      for (int k = 0; k < kClaims; ++k) {
        const int i = worker == 0 ? k : kClaims - 1 - k;
        if (!view.verify_aggregate(sigs[i], 1)) rejected.fetch_add(1);
        if (!auth->check_share(shares[i].first, shares[i].second)) rejected.fetch_add(1);
        auth->memo().insert(shares[i].first, shares[i].second);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(rejected.load(), 0);
  for (ProcessId node = 0; node < kN; ++node) {
    const crypto::AuthOpSnapshot snap = ops[node].snapshot();
    EXPECT_EQ(snap.aggregate_verifies, static_cast<std::uint64_t>(kClaims)) << "node " << node;
    EXPECT_EQ(snap.share_verifies, static_cast<std::uint64_t>(kClaims * kRounds))
        << "node " << node;
  }
  EXPECT_EQ(auth->memo().size(), static_cast<std::size_t>(2 * kClaims));
  for (int i = 0; i < kClaims; ++i) {
    EXPECT_TRUE(auth->memo().contains(shares[i].first, shares[i].second));
  }
}

}  // namespace
}  // namespace lumiere::runtime
