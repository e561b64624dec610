// Correctness checks over the replicas' outputs, computed by the
// benchmark itself from plain copies of the honest ledgers. They never
// call the program's own oracles, so a fault in those cannot hide one in
// the program. Each check returns every violation it finds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.h"

namespace perfbench {

/// One committed request as the benchmark decoded it.
struct CommittedRequest {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  bool body_ok = false;  ///< body equals body_bytes(seed, client, seq)
};

struct LedgerEntry {
  std::int64_t view = -1;
  lumiere::crypto::Digest hash;
  lumiere::crypto::Digest parent;
  std::vector<CommittedRequest> requests;
};

/// An honest replica's ledger with its payloads resolved to requests.
struct LedgerCopy {
  std::uint32_t node = 0;
  lumiere::crypto::Digest base;  ///< the parent the first entry must name
  std::vector<LedgerEntry> entries;
  std::vector<std::string> decode_errors;  ///< malformed or unresolved payloads
};

/// The requests that must commit: client -> count; the due sequence
/// numbers of a client are 0 .. count-1.
using DueSet = std::map<std::uint32_t, std::uint64_t>;

struct CheckReport {
  std::vector<std::string> errors;  ///< violations of safety or integrity
  std::uint64_t missing = 0;        ///< due requests absent from some honest ledger
  std::vector<std::string> missing_examples;  ///< the first few of them
};

/// Honest ledgers are prefixes of one another, entry by entry.
void check_prefixes(const std::vector<LedgerCopy>& ledgers, CheckReport& report);
/// Each ledger's parent links are continuous from its base.
void check_parents(const std::vector<LedgerCopy>& ledgers, CheckReport& report);
/// Every due request commits exactly once in every honest ledger, none
/// commits that was not due, and every committed body is the expected one.
void check_exactly_once(const std::vector<LedgerCopy>& ledgers, const DueSet& due,
                        CheckReport& report);

/// All three checks.
[[nodiscard]] CheckReport check_all(const std::vector<LedgerCopy>& ledgers, const DueSet& due);

/// The deterministic request body the benchmark's clients send.
[[nodiscard]] std::vector<std::uint8_t> body_bytes(std::uint64_t seed, std::uint32_t client,
                                                   std::uint64_t seq);
inline constexpr std::size_t kRequestBytes = 64;

}  // namespace perfbench
