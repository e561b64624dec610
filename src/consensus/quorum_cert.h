// Quorum certificates (Section 2, "The underlying protocol").
//
// A QC for view v is a threshold signature by 2f+1 distinct processors
// testifying that they completed the instructions for view v on a given
// block. Its wire size is O(kappa), independent of n.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/params.h"
#include "common/types.h"
#include "crypto/authenticator.h"
#include "crypto/sha256.h"
#include "ser/serializer.h"

namespace lumiere::consensus {

class QcVerifyCache;  // never defined; see QuorumCert::verify

class QuorumCert {
 public:
  QuorumCert() = default;
  QuorumCert(View view, crypto::Digest block_hash, crypto::ThresholdSig sig)
      : view_(view), block_hash_(block_hash), sig_(std::move(sig)) {}

  /// The statement that vote shares sign: binds view and block.
  static crypto::Digest statement(View view, const crypto::Digest& block_hash);

  /// The genesis QC: certifies the genesis block at view -1. Trusted by
  /// construction (all processors are initialized with it), never
  /// verified cryptographically.
  static QuorumCert genesis(const crypto::Digest& genesis_hash);

  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const crypto::Digest& block_hash() const noexcept { return block_hash_; }
  [[nodiscard]] const crypto::ThresholdSig& sig() const noexcept { return sig_; }
  [[nodiscard]] bool is_genesis() const noexcept { return view_ == -1; }

  /// Full verification: 2f+1 distinct valid signers over the right
  /// statement. Genesis QCs verify trivially. The unused trailing pointer
  /// keeps the linker symbol that perfbench/src/interpose.cpp interposes.
  [[nodiscard]] bool verify(crypto::AuthView auth, const ProtocolParams& params,
                            QcVerifyCache* /*unused*/ = nullptr) const;

  void serialize(ser::Writer& w) const;
  [[nodiscard]] static std::optional<QuorumCert> deserialize(ser::Reader& r);

  bool operator==(const QuorumCert&) const = default;

 private:
  View view_ = -1;
  crypto::Digest block_hash_;
  crypto::ThresholdSig sig_;
};

/// Memo for QuorumCert::statement. A leader aggregating n votes — and a
/// replica checking n QC-bearing messages — keeps asking for the digest
/// of the same (view, block_hash) pair; this answers repeats without
/// re-running SHA-256. Direct-mapped by view (votes for view v and
/// proposals for v+1 land in different slots), so lookups are O(1) with
/// no allocation ever.
class StatementCache {
 public:
  // By value on purpose: a reference into a direct-mapped slot would be
  // silently invalidated by the next colliding get().
  [[nodiscard]] crypto::Digest get(View view, const crypto::Digest& block_hash) {
    Entry& entry = entries_[static_cast<std::size_t>(static_cast<std::uint64_t>(view) %
                                                     entries_.size())];
    if (!entry.valid || entry.view != view || entry.block_hash != block_hash) {
      entry.view = view;
      entry.block_hash = block_hash;
      entry.statement = QuorumCert::statement(view, block_hash);
      entry.valid = true;
    }
    return entry.statement;
  }

 private:
  struct Entry {
    View view = -1;
    crypto::Digest block_hash;
    crypto::Digest statement;
    bool valid = false;
  };
  std::array<Entry, 8> entries_{};
};

}  // namespace lumiere::consensus
