#include "consensus/quorum_cert.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/authenticator.h"

namespace lumiere::consensus {
namespace {

class QuorumCertTest : public ::testing::Test {
 protected:
  QuorumCert make_qc(View view, const crypto::Digest& block_hash, std::uint32_t votes) {
    crypto::QuorumAggregator agg(auth(), QuorumCert::statement(view, block_hash),
                                 params_.quorum());
    for (ProcessId id = 0; id < votes; ++id) {
      agg.add(crypto::threshold_share(auth_->signer_for(id),
                                      QuorumCert::statement(view, block_hash)));
    }
    return QuorumCert(view, block_hash, agg.aggregate());
  }

  [[nodiscard]] crypto::AuthView auth() const { return crypto::AuthView(auth_.get()); }

  ProtocolParams params_ = ProtocolParams::for_n(7, Duration::millis(10));
  std::unique_ptr<crypto::Authenticator> auth_ =
      crypto::make_authenticator(crypto::kDefaultScheme, 7, 42);
};

TEST_F(QuorumCertTest, ValidQcVerifies) {
  const crypto::Digest h = crypto::Sha256::hash("block");
  const QuorumCert qc = make_qc(3, h, params_.quorum());
  EXPECT_TRUE(qc.verify(auth(), params_));
  EXPECT_EQ(qc.view(), 3);
  EXPECT_FALSE(qc.is_genesis());
}

TEST_F(QuorumCertTest, StatementBindsViewAndBlock) {
  const crypto::Digest h1 = crypto::Sha256::hash("a");
  const crypto::Digest h2 = crypto::Sha256::hash("b");
  EXPECT_NE(QuorumCert::statement(1, h1), QuorumCert::statement(2, h1));
  EXPECT_NE(QuorumCert::statement(1, h1), QuorumCert::statement(1, h2));
}

TEST_F(QuorumCertTest, MismatchedStatementRejected) {
  const crypto::Digest h = crypto::Sha256::hash("block");
  QuorumCert qc = make_qc(3, h, params_.quorum());
  // Tamper: claim it certifies a different view.
  const QuorumCert tampered(4, h, qc.sig());
  EXPECT_FALSE(tampered.verify(auth(), params_));
}

TEST_F(QuorumCertTest, GenesisVerifiesTrivially) {
  const QuorumCert g = QuorumCert::genesis(crypto::Sha256::hash("genesis"));
  EXPECT_TRUE(g.is_genesis());
  EXPECT_TRUE(g.verify(auth(), params_));
}

TEST_F(QuorumCertTest, SerializeRoundTrip) {
  const crypto::Digest h = crypto::Sha256::hash("block");
  const QuorumCert qc = make_qc(5, h, params_.quorum());
  ser::Writer w;
  qc.serialize(w);
  ser::Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  const auto out = QuorumCert::deserialize(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, qc);
  EXPECT_TRUE(out->verify(auth(), params_));
}

TEST_F(QuorumCertTest, DiamondTwoQuorumRequired) {
  // (diamond-2): a QC must carry 2f+1 distinct signers; fewer fails.
  const crypto::Digest h = crypto::Sha256::hash("block");
  crypto::QuorumAggregator agg(auth(), QuorumCert::statement(1, h), params_.small_quorum());
  for (ProcessId id = 0; id < params_.small_quorum(); ++id) {
    agg.add(crypto::threshold_share(auth_->signer_for(id), QuorumCert::statement(1, h)));
  }
  const QuorumCert thin(1, h, agg.aggregate());
  EXPECT_FALSE(thin.verify(auth(), params_)) << "f+1 signatures are not a quorum";
}

TEST_F(QuorumCertTest, StatementCacheMatchesDirectComputation) {
  StatementCache cache;
  const crypto::Digest h1 = crypto::Sha256::hash("a");
  const crypto::Digest h2 = crypto::Sha256::hash("b");
  // Repeats (the n-votes-for-one-block shape), alternating views (the
  // leader-aggregates-v-while-voting-v+1 shape), and a same-slot
  // collision (views 1 and 9 map to one direct-mapped entry).
  for (const View v : {1, 2, 1, 2, 9, 1}) {
    for (const crypto::Digest& h : {h1, h2}) {
      EXPECT_EQ(cache.get(v, h), QuorumCert::statement(v, h)) << "view " << v;
    }
  }
}

TEST_F(QuorumCertTest, SharedMemoAcceptsOnlyTheExactVerifiedBytes) {
  const crypto::Digest h = crypto::Sha256::hash("block");
  const QuorumCert qc = make_qc(3, h, params_.quorum());
  EXPECT_TRUE(qc.verify(auth(), params_));
  EXPECT_EQ(auth_->memo().lookup(qc.sig(), kNoProcess), crypto::CheckMemo::Hit::kVerified);
  EXPECT_TRUE(qc.verify(auth(), params_)) << "memo hit must still accept";

  // A *different* QC for the same (view, block) — here a thin one with
  // fewer signers — must not ride the memo.
  crypto::QuorumAggregator agg(auth(), QuorumCert::statement(3, h), params_.small_quorum());
  for (ProcessId id = 0; id < params_.small_quorum(); ++id) {
    agg.add(crypto::threshold_share(auth_->signer_for(id), QuorumCert::statement(3, h)));
  }
  const QuorumCert thin(3, h, agg.aggregate());
  EXPECT_FALSE(thin.verify(auth(), params_));
  EXPECT_EQ(auth_->memo().lookup(thin.sig(), kNoProcess), crypto::CheckMemo::Hit::kMiss);

  // The memoized aggregate transplanted onto another view is rejected:
  // the statement is recomputed before the memo is asked.
  EXPECT_FALSE(QuorumCert(4, h, qc.sig()).verify(auth(), params_));
}

/// Delegates to the default scheme through its public API and counts the
/// aggregate checks that reach it, so a test can tell a memo hit from a
/// full check.
class CountingAuthenticator final : public crypto::Authenticator {
 public:
  explicit CountingAuthenticator(std::uint32_t n)
      : Authenticator(n), inner_(crypto::make_authenticator(crypto::kDefaultScheme, n, 42)) {}

  [[nodiscard]] const char* scheme_name() const noexcept override { return "counting"; }
  [[nodiscard]] crypto::SigWireSpec wire_spec() const noexcept override {
    return inner_->wire_spec();
  }
  [[nodiscard]] int aggregate_checks() const noexcept { return aggregate_checks_; }

 protected:
  [[nodiscard]] crypto::SigBytes sign_blob(ProcessId id, const crypto::Digest& m) const override {
    return inner_->signer_for(id).sign(m).sig;
  }
  [[nodiscard]] bool check_signature(ProcessId id, const crypto::Digest& m,
                                     const crypto::SigBytes& sig) const override {
    return inner_->verify(m, crypto::Signature{id, sig});
  }
  [[nodiscard]] crypto::SigBytes aggregate_tag(
      const crypto::Digest& m, const std::vector<crypto::PartialSig>& shares) const override {
    crypto::QuorumAggregator agg(crypto::AuthView(inner_.get()), m,
                                 static_cast<std::uint32_t>(shares.size()));
    for (const crypto::PartialSig& share : shares) agg.add(share);
    return agg.aggregate().tag;
  }
  [[nodiscard]] bool check_aggregate_tag(const crypto::ThresholdSig& sig) const override {
    ++aggregate_checks_;
    return inner_->check_aggregate(sig);
  }

 private:
  std::unique_ptr<crypto::Authenticator> inner_;
  mutable int aggregate_checks_ = 0;
};

TEST(QuorumCertCountTest, SecondReplicaHitsTheMemoButCountsAsBefore) {
  // Replicas A and B share one authenticator, hence one memo. B's first
  // check of a QC A already verified is a memo hit (the scheme does not
  // run again), yet B's counters record it exactly as when every replica
  // verified for itself; B's repeat of the same QC stays uncounted, as
  // it was when each replica remembered the QCs it accepted.
  const ProtocolParams params = ProtocolParams::for_n(7, Duration::millis(10));
  const CountingAuthenticator scheme(7);
  crypto::AuthOpCounters a_ops;
  crypto::AuthOpCounters b_ops;
  const crypto::AuthView a(&scheme, &a_ops, /*node=*/0);
  const crypto::AuthView b(&scheme, &b_ops, /*node=*/1);

  const crypto::Digest h = crypto::Sha256::hash("block");
  const crypto::Digest statement = QuorumCert::statement(5, h);
  crypto::QuorumAggregator agg(crypto::AuthView(&scheme), statement, params.quorum());
  for (ProcessId id = 0; id < params.quorum(); ++id) {
    agg.add(crypto::threshold_share(scheme.signer_for(id), statement));
  }
  const QuorumCert qc(5, h, agg.aggregate());

  EXPECT_TRUE(qc.verify(a, params));
  EXPECT_EQ(scheme.aggregate_checks(), 1);
  EXPECT_EQ(a_ops.snapshot().aggregate_verifies, 1U);

  EXPECT_TRUE(qc.verify(b, params));
  EXPECT_EQ(scheme.aggregate_checks(), 1) << "B's check must be a memo hit";
  EXPECT_EQ(b_ops.snapshot().aggregate_verifies, 1U) << "B counts its first check";

  EXPECT_TRUE(qc.verify(b, params));
  EXPECT_EQ(b_ops.snapshot().aggregate_verifies, 1U) << "B's repeat stays uncounted";
  EXPECT_EQ(b_ops.snapshot().total(), 1U);
  EXPECT_EQ(a_ops.snapshot().total(), 1U);
  EXPECT_EQ(scheme.aggregate_checks(), 1);
}

}  // namespace
}  // namespace lumiere::consensus
