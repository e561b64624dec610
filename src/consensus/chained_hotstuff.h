// Chained HotStuff (Yin et al., PODC 2019) as the full SMR layer.
//
// One block per view, pipelined phases, 3-chain commit rule with
// consecutive views. The pacemaker is external (that is the whole point
// of this repository); this core only:
//
//   * sends NewView(high_qc) to lead(v) on entering view v,
//   * as leader: proposes once 2f+1 NewView messages arrive, extending
//     the highest reported QC,
//   * votes under the safeNode rule (extends locked block, or justify
//     newer than lock),
//   * aggregates votes into QCs, broadcasts them,
//   * locks on 2-chains and commits on 3-chains with consecutive views.
//
// x = 4 for (diamond-1): new-view + proposal + vote + QC dissemination.
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

class ChainedHotStuff final : public ConsensusCore {
 public:
  using PayloadProvider = std::function<std::vector<std::uint8_t>(View)>;

  ChainedHotStuff(const ProtocolParams& params, crypto::AuthView auth, crypto::Signer signer,
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
  /// Chain bookkeeping for any newly observed QC: high-qc update, 2-chain
  /// lock, 3-chain commit.
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
  /// NewView bookkeeping for the view this node currently leads:
  /// distinct senders seen and the highest valid QC they reported.
  std::map<View, SignerSet> new_view_senders_;
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
  /// Hot-path memo: per-(view, block) vote statements.
  StatementCache statements_;
};

}  // namespace lumiere::consensus
