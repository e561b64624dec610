#include "checks.h"

#include <algorithm>
#include <sstream>

#include "workload/request.h"

namespace perfbench {

namespace {

std::string short_hex(const lumiere::crypto::Digest& d) { return d.hex().substr(0, 12); }

}  // namespace

void check_prefixes(const std::vector<LedgerCopy>& ledgers, CheckReport& report) {
  if (ledgers.empty()) return;
  // Every ledger a prefix of the longest implies every pair is prefix-related.
  const auto longest = std::max_element(
      ledgers.begin(), ledgers.end(),
      [](const LedgerCopy& a, const LedgerCopy& b) { return a.entries.size() < b.entries.size(); });
  for (const LedgerCopy& ledger : ledgers) {
    for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
      const LedgerEntry& a = ledger.entries[i];
      const LedgerEntry& b = longest->entries[i];
      if (a.view != b.view || a.hash != b.hash) {
        std::ostringstream out;
        out << "fork: node " << ledger.node << " entry " << i << " is view " << a.view << " ("
            << short_hex(a.hash) << ") but node " << longest->node << " has view " << b.view
            << " (" << short_hex(b.hash) << ")";
        report.errors.push_back(out.str());
        break;
      }
    }
  }
}

void check_parents(const std::vector<LedgerCopy>& ledgers, CheckReport& report) {
  for (const LedgerCopy& ledger : ledgers) {
    for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
      const lumiere::crypto::Digest& expected = i == 0 ? ledger.base : ledger.entries[i - 1].hash;
      if (ledger.entries[i].parent != expected) {
        std::ostringstream out;
        out << "parent link: node " << ledger.node << " entry " << i << " names parent "
            << short_hex(ledger.entries[i].parent) << ", expected " << short_hex(expected);
        report.errors.push_back(out.str());
        break;
      }
    }
  }
}

void check_exactly_once(const std::vector<LedgerCopy>& ledgers, const DueSet& due,
                        CheckReport& report) {
  // (client, seq) pairs missing from at least one honest ledger.
  std::map<std::uint32_t, std::vector<bool>> missing_somewhere;
  for (const auto& [client, count] : due) missing_somewhere[client].assign(count, false);

  for (const LedgerCopy& ledger : ledgers) {
    for (const std::string& e : ledger.decode_errors) report.errors.push_back(e);
    std::map<std::uint32_t, std::vector<std::uint8_t>> seen;
    for (const auto& [client, count] : due) seen[client].assign(count, 0);
    std::size_t reported = 0;
    auto complain = [&](const std::string& what) {
      if (reported++ < 3) report.errors.push_back("node " + std::to_string(ledger.node) + ": " + what);
    };
    for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
      for (const CommittedRequest& r : ledger.entries[i].requests) {
        const std::string tag =
            "request (client " + std::to_string(r.client) + ", seq " + std::to_string(r.seq) + ")";
        if (!r.body_ok) complain(tag + " committed with a body other than the one sent");
        const auto it = seen.find(r.client);
        if (it == seen.end() || r.seq >= it->second.size()) {
          complain(tag + " committed but was never due (entry " + std::to_string(i) + ")");
          continue;
        }
        if (++it->second[r.seq] == 2) {
          complain(tag + " committed twice (second in entry " + std::to_string(i) + ")");
        }
      }
    }
    for (auto& [client, flags] : seen) {
      std::vector<bool>& missing = missing_somewhere[client];
      for (std::size_t s = 0; s < flags.size(); ++s) {
        if (flags[s] == 0) missing[s] = true;
      }
    }
  }
  for (const auto& [client, missing] : missing_somewhere) {
    for (std::size_t s = 0; s < missing.size(); ++s) {
      if (!missing[s]) continue;
      if (report.missing++ < 3) {
        report.missing_examples.push_back("request (client " + std::to_string(client) + ", seq " +
                                std::to_string(s) + ") was due but is missing from an honest ledger");
      }
    }
  }
}

CheckReport check_all(const std::vector<LedgerCopy>& ledgers, const DueSet& due) {
  CheckReport report;
  check_prefixes(ledgers, report);
  check_parents(ledgers, report);
  check_exactly_once(ledgers, due, report);
  return report;
}

std::vector<std::uint8_t> body_bytes(std::uint64_t seed, std::uint32_t client, std::uint64_t seq) {
  std::vector<std::uint8_t> out(kRequestBytes - lumiere::workload::kRequestHeaderBytes);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL ^ (std::uint64_t{client} << 32) ^ seq;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i % 8 == 0) {  // splitmix64
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      x = z ^ (z >> 31);
    }
    out[i] = static_cast<std::uint8_t>(x >> (8 * (i % 8)));
  }
  return out;
}

}  // namespace perfbench
