// HotStuff-2 (Malkhi & Nayak, 2023 — reference [14] of the paper) as a
// chained two-phase SMR core.
//
// Identical pipeline shape to ChainedHotStuff (one block per view, votes
// to the leader, QC broadcast), but with the two-phase rules:
//
//   * LOCK on a 1-chain: observing a QC for block b locks b's QC when it
//     is newer than the current lock;
//   * COMMIT on a 2-chain with consecutive views: a QC for view v whose
//     block's justify certifies the parent at view v-1 commits the parent;
//   * VOTE rule: a proposal is safe when it extends its own justify and
//     its justify is at least as new as the local lock.
//
// The phase the classic 3-phase protocol spends "confirming the lock" is
// replaced by HotStuff-2's dual proposal path:
//
//   * RESPONSIVE: a leader holding a QC for view v-1 proposes at once —
//     that QC proves no conflicting lock can be newer;
//   * FALLBACK: otherwise the leader waits Delta after entering the view
//     before proposing, long enough (post-GST) to have received every
//     honest replica's NewView(high_qc), so its proposal carries a
//     justify no honest lock exceeds.
//
// x = 4 for (diamond-1), as for ChainedHotStuff: the fallback Delta-wait
// plus proposal + vote + QC dissemination fits 4 message delays when
// delta = Delta, which is all the pacemakers assume when sizing Gamma.
// Within a synchronized run, views entered via QCs always take the
// responsive path, so decisions land one round earlier than with the
// 3-chain rule — HotStuff-2's headline saving.
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

class HotStuff2 final : public ConsensusCore {
 public:
  using PayloadProvider = std::function<std::vector<std::uint8_t>(View)>;

  HotStuff2(const ProtocolParams& params, crypto::AuthView auth, crypto::Signer signer,
            CoreCallbacks callbacks, PacemakerHooks hooks,
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
  /// Views this node proposed in via the responsive path (no Delta-wait).
  [[nodiscard]] std::uint64_t responsive_proposals() const noexcept {
    return responsive_proposals_;
  }
  /// Views this node proposed in only after the Delta fallback elapsed.
  [[nodiscard]] std::uint64_t fallback_proposals() const noexcept { return fallback_proposals_; }

  /// Crash recovery (restarted replica processes): allow a core that has
  /// never committed to adopt a certified block with a missing ancestry
  /// as its commit checkpoint instead of stalling forever on the
  /// unfillable pre-restart prefix. Off by default — simulated clusters
  /// retain full history and must keep full-prefix ledgers.
  void set_checkpoint_adoption(bool on) noexcept { checkpoint_adoption_ = on; }

 private:
  void handle_new_view(ProcessId from, const NewViewMsg& msg);
  void handle_proposal(ProcessId from, const ProposalMsg& msg);
  void handle_vote(ProcessId from, const VoteMsg& msg);
  void handle_qc_msg(const QcMsg& msg);
  void maybe_propose();
  void maybe_vote();
  /// 1-chain lock + 2-chain consecutive commit bookkeeping.
  void process_qc(const QuorumCert& qc);
  void commit_chain(const Block& tip);
  [[nodiscard]] bool safe_to_vote(const Block& block) const;

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
  bool checkpoint_adoption_ = false;
  /// Block-sync state: the commit-walk tip that wedged on a missing
  /// ancestor and the hash handed to CoreCallbacks::fetch_missing; the
  /// walk resumes from the tip when that exact block is synced in.
  bool sync_pending_ = false;
  crypto::Digest sync_tip_;
  crypto::Digest sync_missing_;

  BlockStore store_;
  /// Views whose Delta fallback timer has expired while this node led them.
  std::set<View> fallback_elapsed_;
  /// Distinct late blocks admitted per stale view, capped — bounds what
  /// an ex-leader can stuff into the store while still admitting both
  /// variants of an equivocated view (keying on view alone let the
  /// losing variant occupy the slot and dropped the certified winner).
  static constexpr std::uint32_t kMaxStaleBlocksPerView = 4;
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
