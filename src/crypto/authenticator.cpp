#include "crypto/authenticator.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "crypto/ed25519.h"
#include "crypto/hmac_scheme.h"

namespace lumiere::crypto {

Digest share_statement(const Digest& message) {
  Sha256 h;
  h.update("lumiere.ts");
  h.update(message.as_span());
  return h.finish();
}

Signature Signer::sign(const Digest& message) const {
  if (ops_ != nullptr) ops_->count_sign();
  return Signature{id_, auth_->sign_blob(id_, message)};
}

PartialSig Signer::share(const Digest& message) const {
  if (ops_ != nullptr) ops_->count_share();
  return PartialSig{id_, auth_->sign_blob(id_, share_statement(message))};
}

PartialSig threshold_share(const Signer& signer, const Digest& message) {
  return signer.share(message);
}

bool Authenticator::verify(const Digest& message, const Signature& sig) const {
  if (sig.signer >= n_) return false;
  return check_signature(sig.signer, message, sig.sig);
}

bool Authenticator::check_share(const Digest& message, const PartialSig& share) const {
  if (share.signer >= n_) return false;
  return check_signature(share.signer, share_statement(message), share.sig);
}

bool Authenticator::check_aggregate(const ThresholdSig& sig) const {
  if (sig.signers.universe_size() != n_) return false;
  if (sig.signers.count() == 0) return false;
  return check_aggregate_tag(sig);
}

CheckMemo::Key CheckMemo::key(std::uint32_t kind, std::uint32_t who, const Digest& message,
                              std::span<const std::uint64_t> signers,
                              std::span<const std::uint8_t> tag) {
  // A field that does not fit is stored as its SHA-256; the recorded
  // length (tag) or universe (signers) keeps the two forms apart.
  const auto put = [](std::array<std::uint8_t, 32>& field, std::span<const std::uint8_t> bytes) {
    if (bytes.size() > field.size()) {
      field = Sha256::hash(bytes).bytes();
    } else if (!bytes.empty()) {
      std::memcpy(field.data(), bytes.data(), bytes.size());
    }
  };
  Key k{};
  k.kind = kind;
  k.who = who;
  k.len = static_cast<std::uint32_t>(tag.size());
  k.message = message.bytes();
  put(k.signers, {reinterpret_cast<const std::uint8_t*>(signers.data()), signers.size_bytes()});
  put(k.tag, tag);
  return k;
}

CheckMemo::CheckMemo(std::uint32_t n)
    : words_((n + 63) / 64),
      slots_(static_cast<Key*>(std::calloc(kSlots, sizeof(Key))), std::free),
      accepted_(static_cast<std::uint64_t*>(std::calloc(kSlots * words_, sizeof(std::uint64_t))),
                std::free) {
  static_assert(std::has_unique_object_representations_v<Key>, "probe() compares keys bytewise");
  LUMIERE_ASSERT_MSG(slots_ != nullptr && accepted_ != nullptr, "CheckMemo allocation failed");
}

CheckMemo::Hit CheckMemo::probe(const Key& key, ProcessId node, bool store) {
  // The message is already a digest; mixing in the tag spreads distinct
  // aggregates over one statement across sets.
  std::uint64_t m = 0;
  std::uint64_t t = 0;
  std::memcpy(&m, key.message.data(), sizeof(m));
  std::memcpy(&t, key.tag.data(), sizeof(t));
  const std::uint64_t h = (m ^ (t * 0x9E3779B97F4A7C15ULL) ^ key.who) * 0xBF58476D1CE4E5B9ULL;
  const std::size_t set = static_cast<std::size_t>(h >> 32) % next_victim_.size();
  const std::size_t first = set * kWays;
  std::lock_guard<std::mutex> lock(stripes_[set % stripes_.size()]);
  std::size_t slot = first;
  while (slot < first + kWays && std::memcmp(&slots_[slot], &key, sizeof(Key)) != 0) ++slot;
  if (slot == first + kWays) {
    if (!store) return Hit::kMiss;
    for (slot = first; slot < first + kWays && slots_[slot].kind != 0; ++slot) {
    }
    if (slot == first + kWays) {  // full: evict the oldest (ways fill in order)
      slot = first + next_victim_[set];
      next_victim_[set] = static_cast<std::uint8_t>((next_victim_[set] + 1) % kWays);
    } else {
      size_.fetch_add(1, std::memory_order_relaxed);
    }
    slots_[slot] = key;
    std::fill_n(&accepted_[slot * words_], words_, 0);
  }
  if (node / 64 >= words_) return Hit::kVerified;  // kNoProcess
  std::uint64_t& word = accepted_[slot * words_ + node / 64];
  const std::uint64_t bit = 1ULL << (node % 64);
  const Hit hit = (word & bit) != 0 ? Hit::kRepeat : Hit::kVerified;
  word |= bit;
  return hit;
}

bool AuthView::verify_share(const Digest& message, const PartialSig& share) const {
  // Counted before the memo lookup: the count is semantic (one protocol
  // verification), identical whoever checked the bytes first.
  if (ops_ != nullptr) ops_->count_share_verify();
  return auth_->memo().contains(message, share) || auth_->check_share(message, share);
}

bool AuthView::verify_aggregate(const ThresholdSig& sig, std::uint32_t min_signers) const {
  const bool plausible =
      sig.signers.count() >= min_signers && sig.signers.universe_size() == auth_->n();
  const CheckMemo::Hit hit = plausible ? auth_->memo().lookup(sig, node_) : CheckMemo::Hit::kMiss;
  if (hit == CheckMemo::Hit::kRepeat) return true;
  if (ops_ != nullptr) ops_->count_aggregate_verify();
  if (hit == CheckMemo::Hit::kVerified) return true;
  if (!plausible || !auth_->check_aggregate(sig)) return false;
  auth_->memo().insert(sig, node_);
  return true;
}

QuorumAggregator::QuorumAggregator(AuthView auth, Digest message, std::uint32_t m)
    : auth_(auth), message_(message), m_(m), signers_(auth.n()) {
  LUMIERE_ASSERT(auth_.scheme() != nullptr);
  LUMIERE_ASSERT(m >= 1 && m <= auth_.n());
}

bool QuorumAggregator::add(const PartialSig& share) {
  if (share.signer >= signers_.universe_size()) return false;
  if (signers_.contains(share.signer)) return false;
  if (!auth_.verify_share(message_, share)) return false;
  signers_.add(share.signer);
  const auto pos = std::lower_bound(
      shares_.begin(), shares_.end(), share,
      [](const PartialSig& a, const PartialSig& b) { return a.signer < b.signer; });
  shares_.insert(pos, share);
  return true;
}

ThresholdSig QuorumAggregator::aggregate() const {
  LUMIERE_ASSERT_MSG(complete(), "aggregate() before threshold reached");
  if (auth_.op_counters() != nullptr) auth_.op_counters()->count_aggregate_built();
  return ThresholdSig{message_, signers_, auth_.scheme()->aggregate_tag(message_, shares_)};
}

std::unique_ptr<Authenticator> make_authenticator(const std::string& scheme, std::uint32_t n,
                                                  std::uint64_t seed) {
  if (scheme == "hmac") return std::make_unique<HmacAuthenticator>(n, seed);
  if (scheme == "ed25519") return std::make_unique<Ed25519Authenticator>(n, seed);
  std::string message = "unknown authenticator scheme \"" + scheme + "\"; registered:";
  for (const std::string& name : scheme_names()) message += " " + name;
  throw std::invalid_argument(message);
}

bool has_scheme(const std::string& scheme) {
  return scheme == "hmac" || scheme == "ed25519";
}

std::vector<std::string> scheme_names() { return {"ed25519", "hmac"}; }

}  // namespace lumiere::crypto
