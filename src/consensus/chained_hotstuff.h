// Chained HotStuff as the full SMR layer, under one of two chain rules:
// the three-chain rule of chained HotStuff (Yin et al., PODC 2019) or the
// two-chain rule of HotStuff-2 (Malkhi & Nayak, 2023 — reference [14] of
// the paper).
//
// Both share one pipeline: one block per view, votes to the leader, QC
// broadcast. The pacemaker is external (that is the whole point of this
// repository); this core only:
//
//   * sends NewView(high_qc) to lead(v) on entering view v,
//   * as leader: proposes extending the highest QC it knows, once the
//     rule's proposal gate opens,
//   * votes under the rule's vote rule,
//   * aggregates votes into QCs, broadcasts them,
//   * locks and commits under the rule's chain depths, with consecutive
//     views.
//
// ChainRule::kThreeChain (chained HotStuff):
//
//   * PROPOSE once 2f+1 distinct NewView messages arrived;
//   * VOTE under safeNode: the proposal extends the locked block, or its
//     justify is newer than the lock;
//   * LOCK on a 2-chain, COMMIT on a 3-chain.
//
// ChainRule::kTwoChain (HotStuff-2):
//
//   * LOCK on a 1-chain: observing a QC for block b locks b's QC when it
//     is newer than the current lock;
//   * COMMIT on a 2-chain: a QC for view v whose block's justify
//     certifies the parent at view v-1 commits the parent;
//   * VOTE when the proposal extends its own justify and the justify is
//     at least as new as the local lock;
//   * PROPOSE on the dual path that replaces the phase the three-chain
//     rule spends "confirming the lock":
//       - RESPONSIVE: a leader holding a QC for view v-1 proposes at
//         once — that QC proves no conflicting lock can be newer;
//       - FALLBACK: otherwise the leader waits Delta after entering the
//         view, long enough (post-GST) to have received every honest
//         replica's NewView(high_qc), so its proposal carries a justify
//         no honest lock exceeds.
//
// x = 4 for (diamond-1) under both rules. Three-chain: new-view +
// proposal + vote + QC dissemination. Two-chain: the fallback Delta-wait
// plus proposal + vote + QC dissemination fits 4 message delays when
// delta = Delta, which is all the pacemakers assume when sizing Gamma.
// Within a synchronized two-chain run, views entered via QCs always take
// the responsive path, so decisions land one round earlier than with
// the three-chain rule — HotStuff-2's headline saving.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "consensus/block.h"
#include "consensus/core.h"
#include "consensus/messages.h"
#include "crypto/authenticator.h"

namespace lumiere::consensus {

enum class ChainRule { kThreeChain, kTwoChain };

class ChainedHotStuff final : public ConsensusCore {
 public:
  using PayloadProvider = std::function<std::vector<std::uint8_t>(View)>;

  ChainedHotStuff(ChainRule rule, const ProtocolParams& params, crypto::AuthView auth,
                  crypto::Signer signer, CoreCallbacks callbacks, PacemakerHooks hooks,
                  PayloadProvider payload_provider = nullptr);

  [[nodiscard]] std::uint32_t x() const override { return 4; }
  void on_enter_view(View v) override;
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_propose_allowed(View v) override;
  [[nodiscard]] const QuorumCert& high_qc() const override { return high_qc_; }
  void on_synced_block(const Block& block) override;
  [[nodiscard]] std::shared_ptr<const Block> block_for_sync(
      const crypto::Digest& hash) const override {
    return store_.get(hash);
  }

  [[nodiscard]] View current_view() const noexcept { return cur_view_; }
  [[nodiscard]] const QuorumCert& locked_qc() const noexcept { return locked_qc_; }
  [[nodiscard]] const BlockStore& block_store() const noexcept { return store_; }
  [[nodiscard]] View last_committed_view() const noexcept { return last_committed_view_; }
  /// Two-chain rule: views this node proposed in via the responsive path
  /// (no Delta-wait). Always 0 under the three-chain rule.
  [[nodiscard]] std::uint64_t responsive_proposals() const noexcept {
    return responsive_proposals_;
  }
  /// Two-chain rule: views this node proposed in only after the Delta
  /// fallback elapsed. Always 0 under the three-chain rule.
  [[nodiscard]] std::uint64_t fallback_proposals() const noexcept { return fallback_proposals_; }

  /// Distinct late blocks admitted per stale view, capped — bounds what
  /// an ex-leader can stuff into the store while still admitting both
  /// variants of an equivocated view (keying on view alone let the
  /// losing variant occupy the slot and dropped the certified winner).
  static constexpr std::uint32_t kMaxStaleBlocksPerView = 4;

 private:
  void handle_new_view(ProcessId from, const NewViewMsg& msg);
  void handle_proposal(ProcessId from, const ProposalMsg& msg);
  void handle_vote(ProcessId from, const VoteMsg& msg);
  void handle_qc_msg(const QcMsg& msg);
  void maybe_propose();
  void maybe_vote();
  /// Chain bookkeeping for any newly observed QC: high-qc update, lock,
  /// commit.
  void process_qc(const QuorumCert& qc);
  void commit_chain(const Block& tip);
  [[nodiscard]] bool safe_to_vote(const Block& block) const;

  const ChainRule rule_;
  ProtocolParams params_;
  crypto::AuthView auth_;
  crypto::Signer signer_;
  CoreCallbacks cb_;
  PacemakerHooks hooks_;
  PayloadProvider payload_provider_;

  View cur_view_ = -1;
  View last_voted_view_ = -1;
  QuorumCert high_qc_;
  QuorumCert locked_qc_;
  View last_committed_view_ = -1;
  crypto::Digest last_committed_hash_;
  /// Block-sync state: the commit-walk tip that wedged on a missing
  /// ancestor and the hash handed to CoreCallbacks::fetch_missing; the
  /// walk resumes from the tip when that exact block is synced in.
  bool sync_pending_ = false;
  crypto::Digest sync_tip_;
  crypto::Digest sync_missing_;

  BlockStore store_;
  /// Three-chain rule: distinct NewView senders per view this node leads.
  std::map<View, SignerSet> new_view_senders_;
  /// Two-chain rule: views whose Delta fallback timer has expired while
  /// this node led them.
  std::set<View> fallback_elapsed_;
  std::map<View, std::uint32_t> stale_stored_;
  std::set<View> proposed_;
  std::map<View, crypto::Digest> my_proposal_hash_;
  std::map<View, crypto::QuorumAggregator> aggregators_;
  std::set<View> closed_views_;
  std::map<View, Block> pending_proposals_;
  std::set<View> seen_qc_views_;
  std::uint64_t responsive_proposals_ = 0;
  std::uint64_t fallback_proposals_ = 0;
  /// Hot-path memo: per-(view, block) vote statements.
  StatementCache statements_;
};

}  // namespace lumiere::consensus
