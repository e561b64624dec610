#include "consensus/chained_hotstuff.h"

#include "common/log.h"

namespace lumiere::consensus {

ChainedHotStuff::ChainedHotStuff(ChainRule rule, const ProtocolParams& params,
                                 crypto::AuthView auth, crypto::Signer signer,
                                 CoreCallbacks callbacks, PacemakerHooks hooks,
                                 PayloadProvider payload_provider)
    : rule_(rule),
      params_(params),
      auth_(auth),
      signer_(signer),
      cb_(std::move(callbacks)),
      hooks_(std::move(hooks)),
      payload_provider_(std::move(payload_provider)),
      high_qc_(QuorumCert::genesis(Block::genesis().hash())),
      locked_qc_(high_qc_),
      last_committed_hash_(Block::genesis().hash()) {
  LUMIERE_ASSERT(auth);
  params_.validate();
}

void ChainedHotStuff::on_enter_view(View v) {
  if (v <= cur_view_) return;
  cur_view_ = v;
  pending_proposals_.erase(pending_proposals_.begin(), pending_proposals_.lower_bound(v));
  // Report the highest QC to the new leader so its proposal extends at
  // least one QC held by every 2f+1 quorum (liveness after view change).
  // Under the two-chain rule this is also how the leader learns QC(v-1)
  // for the responsive path, or the highest honest lock during the
  // Delta fallback.
  cb_.send(hooks_.leader_of(v), std::make_shared<NewViewMsg>(v, high_qc_));
  if (rule_ == ChainRule::kTwoChain && hooks_.leader_of(v) == signer_.id() && cb_.schedule) {
    // Arm the fallback: without a QC for v-1 in hand, wait Delta so the
    // highest locked honest replica's NewView can arrive (post-GST).
    cb_.schedule(params_.delta_cap, [this, v] {
      fallback_elapsed_.insert(v);
      maybe_propose();
    });
  }
  maybe_propose();
  maybe_vote();
}

void ChainedHotStuff::handle_new_view(ProcessId from, const NewViewMsg& msg) {
  const View v = msg.view();
  if (hooks_.leader_of(v) != signer_.id()) return;
  if (v < cur_view_) return;  // stale
  const bool valid = msg.high_qc().verify(auth_, params_);
  if (valid) process_qc(msg.high_qc());
  if (rule_ == ChainRule::kThreeChain) {
    // Every sender counts toward the 2f+1 gate, valid QC or not.
    new_view_senders_.try_emplace(v, params_.n).first->second.add(from);
  }
  // Three-chain re-checks its gate on every report, two-chain only when
  // a verified QC may have opened the responsive path.
  if (valid || rule_ == ChainRule::kThreeChain) maybe_propose();
}

void ChainedHotStuff::on_propose_allowed(View /*v*/) { maybe_propose(); }

void ChainedHotStuff::maybe_propose() {
  const View v = cur_view_;
  if (v < 0) return;
  if (hooks_.leader_of(v) != signer_.id()) return;
  if (proposed_.contains(v)) return;
  if (hooks_.may_propose && !hooks_.may_propose(v)) return;
  if (rule_ == ChainRule::kThreeChain) {
    const auto it = new_view_senders_.find(v);
    if (it == new_view_senders_.end() || it->second.count() < params_.quorum()) return;
  } else {
    // Dual proposal path. The genesis QC (view -1) certifies view 0's
    // parent, so view 0 is responsive by construction.
    const bool responsive = high_qc_.view() == v - 1;
    const bool fallback = fallback_elapsed_.contains(v) || cb_.schedule == nullptr;
    if (!responsive && !fallback) return;
    responsive ? ++responsive_proposals_ : ++fallback_proposals_;
  }

  proposed_.insert(v);
  std::vector<std::uint8_t> payload;
  if (payload_provider_) payload = payload_provider_(v);
  Block block(high_qc_.block_hash(), v, std::move(payload), high_qc_);
  my_proposal_hash_[v] = block.hash();
  store_.insert(block);
  LOG_TRACE("p" << signer_.id() << " proposes view " << v);
  cb_.broadcast(std::make_shared<ProposalMsg>(std::move(block)));
}

bool ChainedHotStuff::safe_to_vote(const Block& block) const {
  if (block.view() <= last_voted_view_) return false;
  if (rule_ == ChainRule::kThreeChain) {
    // safeNode: extends the locked block, or carries a newer justify than
    // our lock (the standard HotStuff disjunction).
    if (block.justify().view() > locked_qc_.view()) return true;
    return store_.extends(block.hash(), locked_qc_.block_hash());
  }
  // Two-phase structural rule: the proposal must extend exactly the block
  // its justify certifies — a Byzantine leader pairing an old QC with an
  // unrelated parent must not collect votes.
  if (block.parent() != block.justify().block_hash()) return false;
  // Two-phase safeNode: the justify must be at least as new as our lock.
  // (>= rather than >: the lock itself may be re-proposed under the same
  // justify after a failed view — the Jolteon/HotStuff-2 disjunction.)
  return block.justify().view() >= locked_qc_.view();
}

void ChainedHotStuff::maybe_vote() {
  const auto it = pending_proposals_.find(cur_view_);
  if (it == pending_proposals_.end()) return;
  const Block& block = it->second;
  if (!safe_to_vote(block)) return;
  if (cb_.payload_ok && !cb_.payload_ok(block)) return;
  last_voted_view_ = block.view();
  const crypto::Digest statement = statements_.get(block.view(), block.hash());
  cb_.send(hooks_.leader_of(block.view()),
           std::make_shared<VoteMsg>(block.view(), block.hash(),
                                     crypto::threshold_share(signer_, statement)));
}

void ChainedHotStuff::handle_proposal(ProcessId from, const ProposalMsg& msg) {
  const Block& block = msg.block();
  const View v = block.view();
  if (hooks_.leader_of(v) != from) return;
  // Commit horizon: the commit walk never crosses below the committed
  // block, so blocks at or under it are dead weight — and dropping them
  // bounds what a past leader can stuff into the store.
  if (v <= last_committed_view_) return;
  if (!block.justify().verify(auth_, params_)) return;
  // Store even when the view has passed: commit_chain refuses to commit
  // across a missing ancestor, so a verified block that arrives late
  // (real networks reorder across senders) must still enter the store or
  // this node's ledger stalls forever. Voting stays view-gated below.
  // The late-admission cap counts DISTINCT blocks per view (re-delivery
  // of a stored block is free): an equivocating ex-leader has two
  // variants in flight, and the certified winner must not be dropped
  // because the losing variant claimed the view's only slot first.
  if (v < cur_view_ && !store_.contains(block.hash())) {
    std::uint32_t& admitted = stale_stored_[v];
    if (admitted >= kMaxStaleBlocksPerView) return;
    ++admitted;
  }
  store_.insert(block);
  process_qc(block.justify());  // a proposal piggybacks the QC it extends
  if (v < cur_view_) return;    // too late to vote
  if (!pending_proposals_.contains(v)) pending_proposals_.emplace(v, block);
  maybe_vote();
}

void ChainedHotStuff::handle_vote(ProcessId /*from*/, const VoteMsg& msg) {
  const View v = msg.view();
  if (hooks_.leader_of(v) != signer_.id()) return;
  // Leaders that moved past v stop assembling its QC — see (diamond-2):
  // a QC must come from 2f+1 processors in view v over a shared interval,
  // not from stragglers passing through v at disjoint times.
  if (v < cur_view_) return;
  if (closed_views_.contains(v)) return;
  const auto proposed = my_proposal_hash_.find(v);
  if (proposed == my_proposal_hash_.end() || proposed->second != msg.block_hash()) return;
  auto [it, inserted] = aggregators_.try_emplace(
      v, auth_, statements_.get(v, msg.block_hash()), params_.quorum());
  (void)inserted;
  if (!it->second.add(msg.share())) return;
  if (!it->second.complete()) return;

  closed_views_.insert(v);
  if (hooks_.may_form_qc && !hooks_.may_form_qc(v)) {
    aggregators_.erase(v);
    return;
  }
  QuorumCert qc(v, msg.block_hash(), it->second.aggregate());
  aggregators_.erase(v);
  if (cb_.qc_formed) cb_.qc_formed(qc);
  cb_.broadcast(std::make_shared<QcMsg>(std::move(qc)));
}

void ChainedHotStuff::handle_qc_msg(const QcMsg& msg) {
  if (!msg.qc().verify(auth_, params_)) return;
  process_qc(msg.qc());
  // Two-chain: the QC may have just opened the responsive path for a
  // view this node already entered (QC(v-1) arriving after the view
  // change).
  if (rule_ == ChainRule::kTwoChain) maybe_propose();
}

void ChainedHotStuff::process_qc(const QuorumCert& qc) {
  if (qc.view() > high_qc_.view()) high_qc_ = qc;
  // Two-chain 1-chain lock: any newer certified block becomes the lock
  // directly. It is taken before qc_seen, the three-chain lock after:
  // qc_seen can re-enter this core through the pacemaker, so the order
  // is part of each rule's behaviour.
  if (rule_ == ChainRule::kTwoChain && qc.view() > locked_qc_.view()) locked_qc_ = qc;
  const bool fresh = !seen_qc_views_.contains(qc.view());
  if (fresh) {
    seen_qc_views_.insert(qc.view());
    if (cb_.qc_seen) cb_.qc_seen(qc);
  }

  // Chain rules. b0 is the block this QC certifies.
  const auto b0 = store_.get(qc.block_hash());
  if (b0 == nullptr) return;
  const QuorumCert& qc1 = b0->justify();
  // qc -> b0 --parent--> b1 certified by qc1.
  if (b0->parent() != qc1.block_hash()) return;
  if (rule_ == ChainRule::kTwoChain) {
    // 2-chain commit with consecutive views.
    if (qc.view() == qc1.view() + 1) {
      const auto b1 = store_.get(qc1.block_hash());
      if (b1 != nullptr && b1->view() > last_committed_view_) commit_chain(*b1);
    }
    return;
  }
  // 2-chain lock.
  if (qc1.view() > locked_qc_.view()) locked_qc_ = qc1;

  const auto b1 = store_.get(qc1.block_hash());
  if (b1 == nullptr) return;
  const QuorumCert& qc2 = b1->justify();
  if (b1->parent() != qc2.block_hash()) return;
  // 3-chain commit with consecutive views.
  if (qc.view() == qc1.view() + 1 && qc1.view() == qc2.view() + 1) {
    const auto b2 = store_.get(qc2.block_hash());
    if (b2 != nullptr && b2->view() > last_committed_view_) commit_chain(*b2);
  }
}

void ChainedHotStuff::commit_chain(const Block& tip) {
  // Commit every uncommitted ancestor of `tip` (inclusive), oldest first.
  std::vector<std::shared_ptr<const Block>> chain;
  auto current = store_.get(tip.hash());
  while (current != nullptr && current->view() > last_committed_view_) {
    chain.push_back(current);
    current = store_.get(current->parent());
  }
  // The chain must reconnect to the last committed block. A hash
  // mismatch means a fork — commit nothing. A missing ancestor used to
  // mean either a late block that will still arrive or a permanent wedge
  // (an equivocation victim holding the losing variant, or a restarted
  // process whose pre-crash history is gone — peers only stream new
  // proposals). `tip` satisfies the commit rule, so every block
  // collected above is already committed cluster-wide. With block sync
  // wired (cb_.fetch_missing), the missing ancestor is fetched from
  // peers and the walk resumes in on_synced_block — full-history
  // backfill, preferred over checkpoint adoption's suffix-only recovery.
  // Without it, checkpoint adoption lets a never-committed core adopt
  // the deepest block it holds as a certified checkpoint.
  if (current == nullptr || current->hash() != last_committed_hash_) {
    if (current == nullptr && !chain.empty() && cb_.fetch_missing) {
      sync_pending_ = true;
      sync_tip_ = tip.hash();
      sync_missing_ = chain.back()->parent();
      cb_.fetch_missing(sync_missing_);
      return;
    }
    const bool adoptable = cb_.adopt_base && current == nullptr && !chain.empty() &&
                           last_committed_view_ == Block::genesis().view();
    if (!adoptable) return;
    cb_.adopt_base(*chain.back());
  }
  sync_pending_ = false;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    last_committed_view_ = (*it)->view();
    last_committed_hash_ = (*it)->hash();
    stale_stored_.erase(stale_stored_.begin(),
                        stale_stored_.upper_bound(last_committed_view_));
    if (cb_.decided) cb_.decided(**it);
  }
}

void ChainedHotStuff::on_synced_block(const Block& block) {
  store_.insert(block);
  // Resume only when the exact gap the walk reported is filled: the sync
  // layer delivers a response segment deepest-first, so the requested
  // block lands last and the walk crosses the whole segment in one pass
  // (re-wedging on the next gap re-arms sync_pending_ and fetches on).
  if (!sync_pending_ || block.hash() != sync_missing_) return;
  sync_pending_ = false;
  const auto tip = store_.get(sync_tip_);
  if (tip != nullptr && tip->view() > last_committed_view_) commit_chain(*tip);
}

void ChainedHotStuff::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case kNewView:
      handle_new_view(from, static_cast<const NewViewMsg&>(*msg));
      break;
    case kProposal:
      handle_proposal(from, static_cast<const ProposalMsg&>(*msg));
      break;
    case kVote:
      handle_vote(from, static_cast<const VoteMsg&>(*msg));
      break;
    case kQcAnnounce:
      handle_qc_msg(static_cast<const QcMsg&>(*msg));
      break;
    default:
      break;
  }
}

}  // namespace lumiere::consensus
