// Authenticator suite contract tests, parameterized over every registered
// scheme: whatever make_authenticator() can build must satisfy the same
// sign/verify/aggregate laws (the protocol layer never knows which scheme
// it runs on).
#include "crypto/authenticator.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"

namespace lumiere::crypto {
namespace {

class AuthenticatorTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr std::uint32_t kN = 7;  // f = 2
  std::unique_ptr<Authenticator> auth_ = make_authenticator(GetParam(), kN, 1234);
  Digest msg_ = Sha256::hash("statement");

  [[nodiscard]] AuthView view() const { return AuthView(auth_.get()); }

  /// A genuine aggregate over `message` by signers 0..m-1.
  [[nodiscard]] ThresholdSig aggregate_of(std::uint32_t m, const Digest& message) const {
    QuorumAggregator agg(view(), message, m);
    for (ProcessId id = 0; id < m; ++id) agg.add(threshold_share(auth_->signer_for(id), message));
    return agg.aggregate();
  }

  [[nodiscard]] CheckMemo::Hit probe(const ThresholdSig& sig) const {
    return auth_->memo().lookup(sig, kNoProcess);
  }
};

TEST_P(AuthenticatorTest, SignVerifyRoundTrip) {
  const Signer signer = auth_->signer_for(2);
  const Signature sig = signer.sign(msg_);
  EXPECT_EQ(sig.signer, 2U);
  EXPECT_EQ(sig.sig.size(), auth_->wire_spec().sig_bytes);
  EXPECT_TRUE(auth_->verify(msg_, sig));
}

TEST_P(AuthenticatorTest, RejectsWrongMessage) {
  const Signature sig = auth_->signer_for(1).sign(Sha256::hash("a"));
  EXPECT_FALSE(auth_->verify(Sha256::hash("b"), sig));
}

TEST_P(AuthenticatorTest, RejectsForgedSigner) {
  Signature sig = auth_->signer_for(0).sign(msg_);
  sig.signer = 1;  // claim someone else signed it
  EXPECT_FALSE(auth_->verify(msg_, sig));
}

TEST_P(AuthenticatorTest, RejectsOutOfRangeSigner) {
  Signature sig = auth_->signer_for(0).sign(msg_);
  sig.signer = kN + 3;
  EXPECT_FALSE(auth_->verify(msg_, sig));
}

TEST_P(AuthenticatorTest, KeysDifferAcrossProcessesAndSeeds) {
  const auto other = make_authenticator(GetParam(), kN, 77);
  // Same process id, different seed -> different signature bytes.
  EXPECT_NE(auth_->signer_for(0).sign(msg_).sig, other->signer_for(0).sign(msg_).sig);
  // Different processes, same seed -> different signature bytes.
  EXPECT_NE(auth_->signer_for(0).sign(msg_).sig, auth_->signer_for(1).sign(msg_).sig);
}

TEST_P(AuthenticatorTest, DeterministicForSeed) {
  const auto twin = make_authenticator(GetParam(), kN, 1234);
  EXPECT_EQ(auth_->signer_for(3).sign(msg_).sig, twin->signer_for(3).sign(msg_).sig);
}

TEST_P(AuthenticatorTest, CrossInstanceSignaturesDoNotVerify) {
  const auto other = make_authenticator(GetParam(), kN, 77);
  const Signature sig = auth_->signer_for(0).sign(msg_);
  EXPECT_FALSE(other->verify(msg_, sig));
}

TEST_P(AuthenticatorTest, AggregatesAtThreshold) {
  QuorumAggregator agg(view(), msg_, 5);
  for (ProcessId id = 0; id < 5; ++id) {
    EXPECT_FALSE(agg.complete());
    EXPECT_TRUE(agg.add(threshold_share(auth_->signer_for(id), msg_)));
  }
  EXPECT_TRUE(agg.complete());
  const ThresholdSig sig = agg.aggregate();
  EXPECT_EQ(sig.signer_count(), 5U);
  EXPECT_TRUE(view().verify_aggregate(sig, 5));
}

TEST_P(AuthenticatorTest, AggregatorRejectsDuplicates) {
  QuorumAggregator agg(view(), msg_, 3);
  const PartialSig share = threshold_share(auth_->signer_for(0), msg_);
  EXPECT_TRUE(agg.add(share));
  EXPECT_FALSE(agg.add(share));
  EXPECT_EQ(agg.count(), 1U);
}

TEST_P(AuthenticatorTest, AggregatorRejectsInvalidShare) {
  QuorumAggregator agg(view(), msg_, 3);
  PartialSig bogus = threshold_share(auth_->signer_for(0), msg_);
  bogus.signer = 1;  // share not actually signed by 1
  EXPECT_FALSE(agg.add(bogus));
  PartialSig out_of_range = threshold_share(auth_->signer_for(0), msg_);
  out_of_range.signer = 50;
  EXPECT_FALSE(agg.add(out_of_range));
}

TEST_P(AuthenticatorTest, AggregatorRejectsShareForOtherMessage) {
  QuorumAggregator agg(view(), msg_, 3);
  const PartialSig other = threshold_share(auth_->signer_for(0), Sha256::hash("other"));
  EXPECT_FALSE(agg.add(other));
}

TEST_P(AuthenticatorTest, VerifyRejectsBelowThreshold) {
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  const ThresholdSig sig = agg.aggregate();
  EXPECT_TRUE(view().verify_aggregate(sig, 3));
  EXPECT_FALSE(view().verify_aggregate(sig, 4)) << "3 signers cannot satisfy a 4-threshold";
}

TEST_P(AuthenticatorTest, VerifyRejectsTamperedTag) {
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  ThresholdSig sig = agg.aggregate();
  sig.tag = SigBytes::zeros(sig.tag.size());
  EXPECT_FALSE(view().verify_aggregate(sig, 3));
}

TEST_P(AuthenticatorTest, VerifyRejectsTamperedSignerSet) {
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  ThresholdSig sig = agg.aggregate();
  sig.signers.add(5);  // claim an extra signer
  EXPECT_FALSE(view().verify_aggregate(sig, 3));
}

TEST_P(AuthenticatorTest, SharesAreDomainSeparatedFromSignatures) {
  // A threshold share must not verify as a standalone signature over the
  // message (and vice versa): different statements.
  const PartialSig share = threshold_share(auth_->signer_for(0), msg_);
  EXPECT_FALSE(auth_->verify(msg_, Signature{share.signer, share.sig}));
}

TEST_P(AuthenticatorTest, WireSizesFollowTheSchemeSpec) {
  const SigWireSpec spec = auth_->wire_spec();
  const Signature sig = auth_->signer_for(0).sign(msg_);
  EXPECT_EQ(sig.wire_size(), spec.sig_bytes + 4U);
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  const ThresholdSig ts = agg.aggregate();
  EXPECT_EQ(ts.tag.size(), spec.tag_bytes(3));
  EXPECT_EQ(ts.wire_size(), kKappaBytes + spec.tag_bytes(3));
}

TEST_P(AuthenticatorTest, MemoAcceptsOnlyTheExactVerifiedAggregate) {
  const ThresholdSig sig = aggregate_of(3, msg_);
  ASSERT_TRUE(view().verify_aggregate(sig, 3));
  ASSERT_EQ(probe(sig), CheckMemo::Hit::kVerified);
  EXPECT_TRUE(view().verify_aggregate(sig, 3)) << "memo hit must still accept";

  // A flipped tag byte — first and last, so ed25519's hashed long tag is
  // covered as well as HMAC's inline one.
  for (const std::size_t byte : {std::size_t{0}, sig.tag.size() - 1}) {
    ThresholdSig flipped = sig;
    flipped.tag.data()[byte] ^= 0x01;
    EXPECT_EQ(probe(flipped), CheckMemo::Hit::kMiss) << "byte " << byte;
    EXPECT_FALSE(view().verify_aggregate(flipped, 3)) << "byte " << byte;
  }

  // The same tag under a different signer set of the same size.
  ThresholdSig resigned = sig;
  resigned.signers = SignerSet(kN);
  for (const ProcessId id : {0U, 1U, 3U}) resigned.signers.add(id);
  EXPECT_EQ(probe(resigned), CheckMemo::Hit::kMiss);
  EXPECT_FALSE(view().verify_aggregate(resigned, 3));

  // The same tag and signers over a different message.
  ThresholdSig moved = sig;
  moved.message = Sha256::hash("other statement");
  EXPECT_EQ(probe(moved), CheckMemo::Hit::kMiss);
  EXPECT_FALSE(view().verify_aggregate(moved, 3));

  EXPECT_EQ(auth_->memo().size(), 1U) << "only the genuine claim is stored";
}

TEST_P(AuthenticatorTest, MemoAcceptsOnlyTheExactStoredShare) {
  // Shares are stored by pipeline workers after a full check.
  const PartialSig share = threshold_share(auth_->signer_for(2), msg_);
  ASSERT_TRUE(auth_->check_share(msg_, share));
  auth_->memo().insert(msg_, share);
  EXPECT_TRUE(auth_->memo().contains(msg_, share));
  EXPECT_TRUE(view().verify_share(msg_, share));

  PartialSig flipped = share;
  flipped.sig.data()[share.sig.size() - 1] ^= 0x01;
  EXPECT_FALSE(auth_->memo().contains(msg_, flipped));
  EXPECT_FALSE(view().verify_share(msg_, flipped));
  PartialSig reattributed = share;
  reattributed.signer = 3;
  EXPECT_FALSE(auth_->memo().contains(msg_, reattributed));
  EXPECT_FALSE(view().verify_share(msg_, reattributed));
  EXPECT_FALSE(auth_->memo().contains(Sha256::hash("other statement"), share));
  EXPECT_FALSE(view().verify_share(Sha256::hash("other statement"), share));
}

TEST_P(AuthenticatorTest, FailedChecksAreNeverStored) {
  ThresholdSig forged = aggregate_of(3, msg_);
  forged.tag = SigBytes::zeros(forged.tag.size());
  EXPECT_FALSE(view().verify_aggregate(forged, 3));
  EXPECT_FALSE(view().verify_aggregate(forged, 3)) << "a repeat must be re-checked, not remembered";
  EXPECT_EQ(probe(forged), CheckMemo::Hit::kMiss);

  // A genuine aggregate asked below its threshold is rejected before the
  // scheme runs, and so is not stored either.
  const ThresholdSig genuine = aggregate_of(3, msg_);
  EXPECT_FALSE(view().verify_aggregate(genuine, 4));
  EXPECT_EQ(probe(genuine), CheckMemo::Hit::kMiss);

  PartialSig bogus = threshold_share(auth_->signer_for(0), msg_);
  bogus.signer = 1;
  EXPECT_FALSE(view().verify_share(msg_, bogus));
  EXPECT_EQ(auth_->memo().size(), 0U);
}

TEST_P(AuthenticatorTest, MemoizedAggregateStillChecksThreshold) {
  const ThresholdSig sig = aggregate_of(3, msg_);
  EXPECT_TRUE(view().verify_aggregate(sig, 3));
  ASSERT_EQ(probe(sig), CheckMemo::Hit::kVerified);
  // The threshold check is never memoized away.
  EXPECT_FALSE(view().verify_aggregate(sig, 4));
}

TEST_P(AuthenticatorTest, RepeatByTheSameReplicaIsNotRecounted) {
  AuthOpCounters a_ops;
  AuthOpCounters b_ops;
  const AuthView a(auth_.get(), &a_ops, /*node=*/0);
  const AuthView b(auth_.get(), &b_ops, /*node=*/1);
  const ThresholdSig sig = aggregate_of(3, msg_);
  EXPECT_TRUE(a.verify_aggregate(sig, 3));
  EXPECT_TRUE(b.verify_aggregate(sig, 3));
  EXPECT_TRUE(b.verify_aggregate(sig, 3));
  EXPECT_TRUE(a.verify_aggregate(sig, 3));
  EXPECT_EQ(a_ops.snapshot().aggregate_verifies, 1U);
  EXPECT_EQ(b_ops.snapshot().aggregate_verifies, 1U);
  // A rejection is always counted, repeat or not.
  EXPECT_FALSE(b.verify_aggregate(sig, 4));
  EXPECT_EQ(b_ops.snapshot().aggregate_verifies, 2U);
}

/// Property sweep: any f+1 / 2f+1 subset aggregates and verifies.
TEST_P(AuthenticatorTest, AnySubsetOfThresholdSizeWorks) {
  for (const std::uint32_t f : {1U, 2U, 3U}) {
    const std::uint32_t n = 3 * f + 1;
    const auto auth = make_authenticator(GetParam(), n, 77);
    const AuthView view(auth.get());
    const Digest msg = Sha256::hash("sweep");
    Rng rng(f * 31 + 7);
    for (int round = 0; round < 3; ++round) {
      const std::uint32_t m = (round % 2 == 0) ? f + 1 : 2 * f + 1;
      QuorumAggregator agg(view, msg, m);
      const auto perm = rng.permutation(n);
      for (std::uint32_t i = 0; i < m; ++i) {
        ASSERT_TRUE(agg.add(threshold_share(auth->signer_for(perm[i]), msg)));
      }
      ASSERT_TRUE(agg.complete());
      EXPECT_TRUE(view.verify_aggregate(agg.aggregate(), m));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AuthenticatorTest,
                         ::testing::ValuesIn(scheme_names()),
                         [](const auto& info) { return info.param; });

TEST(AuthenticatorRegistryTest, DefaultSchemeIsRegistered) {
  EXPECT_TRUE(has_scheme(kDefaultScheme));
  const auto names = scheme_names();
  EXPECT_GE(names.size(), 2U)
      << "expect the sim default plus at least one real-signature scheme";
}

TEST(AuthenticatorRegistryTest, UnknownSchemeThrowsListingKnownOnes) {
  try {
    (void)make_authenticator("no-such-scheme", 4, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scheme"), std::string::npos);
    EXPECT_NE(what.find(kDefaultScheme), std::string::npos);
  }
}

TEST(CheckMemoTest, SprayPastCapacityStaysBounded) {
  // Twice the capacity of valid, distinct aggregates: the memo stays at
  // its bound, evicting the oldest claims of each set, and the newest
  // claims stay answerable.
  const auto auth = make_authenticator(kDefaultScheme, 4, 11);
  const AuthView view(auth.get());
  std::vector<ThresholdSig> sprayed;
  for (std::size_t i = 0; i < 2 * CheckMemo::kSlots; ++i) {
    const Digest message = Sha256::hash("spray " + std::to_string(i));
    QuorumAggregator agg(view, message, 1);
    agg.add(threshold_share(auth->signer_for(0), message));
    sprayed.push_back(agg.aggregate());
    ASSERT_TRUE(view.verify_aggregate(sprayed.back(), 1));
    ASSERT_LE(auth->memo().size(), CheckMemo::kSlots);
  }
  EXPECT_GT(auth->memo().size(), CheckMemo::kSlots / 2);
  EXPECT_EQ(auth->memo().lookup(sprayed.back(), kNoProcess), CheckMemo::Hit::kVerified);
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    if (auth->memo().lookup(sprayed[i], kNoProcess) == CheckMemo::Hit::kMiss) ++evicted;
  }
  EXPECT_GT(evicted, 32U) << "the oldest claims should have been evicted";
  // An evicted claim is re-checked and accepted, never rejected.
  EXPECT_TRUE(view.verify_aggregate(sprayed.front(), 1));
}

}  // namespace
}  // namespace lumiere::crypto
