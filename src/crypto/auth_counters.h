// Per-node authenticator-operation counters (the observability layer's
// crypto instrumentation seam).
//
// Every Signer and AuthView can carry a pointer to one AuthOpCounters;
// when set, each primitive operation bumps the matching counter. The
// counts are *semantic* (one verify_share call = one share-verify, even
// when the CheckMemo answers it; a node's repeat of an aggregate it
// already accepted counts once), so sim and TCP runs of the same
// scenario report identical numbers — the tracer attributes protocol
// cost, not scheme microarchitecture. Atomics with relaxed ordering keep
// the counters safe to bump from TCP driver threads and to snapshot from
// a status-endpoint thread; on the single-threaded simulator they cost a
// plain increment.
#pragma once

#include <atomic>
#include <cstdint>

namespace lumiere::crypto {

/// A plain value snapshot of the counters, safe to copy and subtract.
struct AuthOpSnapshot {
  std::uint64_t signs = 0;              ///< Signer::sign
  std::uint64_t shares = 0;             ///< Signer::share (threshold shares)
  std::uint64_t verifies = 0;           ///< AuthView::verify (standalone sigs)
  std::uint64_t share_verifies = 0;     ///< AuthView::verify_share
  std::uint64_t aggregate_verifies = 0; ///< AuthView::verify_aggregate
  std::uint64_t aggregates_built = 0;   ///< QuorumAggregator::aggregate

  [[nodiscard]] std::uint64_t total() const noexcept {
    return signs + shares + verifies + share_verifies + aggregate_verifies +
           aggregates_built;
  }

  friend AuthOpSnapshot operator-(const AuthOpSnapshot& a, const AuthOpSnapshot& b) {
    AuthOpSnapshot d;
    d.signs = a.signs - b.signs;
    d.shares = a.shares - b.shares;
    d.verifies = a.verifies - b.verifies;
    d.share_verifies = a.share_verifies - b.share_verifies;
    d.aggregate_verifies = a.aggregate_verifies - b.aggregate_verifies;
    d.aggregates_built = a.aggregates_built - b.aggregates_built;
    return d;
  }

  friend AuthOpSnapshot operator+(const AuthOpSnapshot& a, const AuthOpSnapshot& b) {
    AuthOpSnapshot s;
    s.signs = a.signs + b.signs;
    s.shares = a.shares + b.shares;
    s.verifies = a.verifies + b.verifies;
    s.share_verifies = a.share_verifies + b.share_verifies;
    s.aggregate_verifies = a.aggregate_verifies + b.aggregate_verifies;
    s.aggregates_built = a.aggregates_built + b.aggregates_built;
    return s;
  }

  bool operator==(const AuthOpSnapshot&) const = default;
};

/// The live counters one node owns. Never reset mid-run: consumers take
/// snapshots and subtract (runtime/obs attribute per-span deltas that way).
class AuthOpCounters {
 public:
  void count_sign() noexcept { bump(signs_); }
  void count_share() noexcept { bump(shares_); }
  void count_verify() noexcept { bump(verifies_); }
  void count_share_verify() noexcept { bump(share_verifies_); }
  void count_aggregate_verify() noexcept { bump(aggregate_verifies_); }
  void count_aggregate_built() noexcept { bump(aggregates_built_); }

  [[nodiscard]] AuthOpSnapshot snapshot() const noexcept {
    AuthOpSnapshot s;
    s.signs = signs_.load(std::memory_order_relaxed);
    s.shares = shares_.load(std::memory_order_relaxed);
    s.verifies = verifies_.load(std::memory_order_relaxed);
    s.share_verifies = share_verifies_.load(std::memory_order_relaxed);
    s.aggregate_verifies = aggregate_verifies_.load(std::memory_order_relaxed);
    s.aggregates_built = aggregates_built_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> signs_{0};
  std::atomic<std::uint64_t> shares_{0};
  std::atomic<std::uint64_t> verifies_{0};
  std::atomic<std::uint64_t> share_verifies_{0};
  std::atomic<std::uint64_t> aggregate_verifies_{0};
  std::atomic<std::uint64_t> aggregates_built_{0};
};

}  // namespace lumiere::crypto
