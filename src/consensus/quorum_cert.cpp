#include "consensus/quorum_cert.h"

namespace lumiere::consensus {

crypto::Digest QuorumCert::statement(View view, const crypto::Digest& block_hash) {
  // Byte-identical to the ser::Writer encoding this replaced
  // (u32-length-prefixed "lumiere.qc", LE i64 view, raw digest) but built
  // in a stack buffer: this runs once per vote on the leader's hot path
  // and must not allocate.
  constexpr std::string_view kDomain = "lumiere.qc";
  std::array<std::uint8_t, 4 + kDomain.size() + 8 + crypto::Digest::kSize> buf{};
  std::size_t pos = 0;
  const auto le = [&](std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) buf[pos++] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  le(kDomain.size(), 4);
  for (const char c : kDomain) buf[pos++] = static_cast<std::uint8_t>(c);
  le(static_cast<std::uint64_t>(view), 8);
  for (const std::uint8_t b : block_hash.bytes()) buf[pos++] = b;
  return crypto::Sha256::hash(std::span<const std::uint8_t>(buf.data(), buf.size()));
}

QuorumCert QuorumCert::genesis(const crypto::Digest& genesis_hash) {
  QuorumCert qc;
  qc.view_ = -1;
  qc.block_hash_ = genesis_hash;
  return qc;
}

bool QuorumCert::verify(crypto::AuthView auth, const ProtocolParams& params,
                        QcVerifyCache* /*unused*/) const {
  if (is_genesis()) return true;
  if (sig_.message != statement(view_, block_hash_)) return false;
  return auth.verify_aggregate(sig_, params.quorum());
}

void QuorumCert::serialize(ser::Writer& w) const {
  w.view(view_);
  w.digest(block_hash_);
  w.threshold_sig(sig_);
}

std::optional<QuorumCert> QuorumCert::deserialize(ser::Reader& r) {
  QuorumCert qc;
  if (!r.view(qc.view_)) return std::nullopt;
  if (!r.digest(qc.block_hash_)) return std::nullopt;
  if (!r.threshold_sig(qc.sig_)) return std::nullopt;
  return qc;
}

}  // namespace lumiere::consensus
