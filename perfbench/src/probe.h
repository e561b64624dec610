// Span accounting for the traced build.
//
// interpose.cpp brackets calls into src/ entry points with probe::Scope.
// Each thread keeps its own stack of open spans; a span's self time is
// its duration minus the durations of the spans nested in it on the same
// thread. Totals are per span kind, summed over every thread that ever
// recorded. The untraced build links this file too but never opens a
// span, so every total there reads zero.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench::probe {

enum class Span : std::uint8_t {
  kSimQueue,     ///< EventQueue::schedule/post/pop
  kSimNet,       ///< sim::Network::send/broadcast/deliver
  kCryptoCheck,  ///< Authenticator::verify/check_share/check_aggregate
  kQcVerify,     ///< QuorumCert::verify
  kCore,         ///< the chained-hotstuff core's entry points
  kMempool,      ///< Mempool::add/next_batch/lease_batch/ack_batch/on_commit
  kPacemaker,    ///< LumierePacemaker entry points and timer callbacks
  kDissem,       ///< Disseminator entry points and ticks
  kCertVerify,   ///< BatchCert::verify
  kSync,         ///< BlockSynchronizer::on_message
  kWorkload,     ///< NodeWorkload commit/delivery/drain paths, client arrivals
  kNode,         ///< Node::route_inbound/outbound/outbound_broadcast
  kMetrics,      ///< MetricsCollector send/broadcast hooks and record_*
  kTracer,       ///< SyncTracer feeds
  kEncode,       ///< Message::serialize overrides
  kDecode,       ///< per-type Msg::deserialize decoders
  kTcpSend,      ///< TcpEndpoint::send/broadcast
  kTcpFlush,     ///< TcpEndpoint::flush
  kTcpPoll,      ///< TcpEndpoint::poll_once
  kCount,
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

/// Counts the interposers record beside the spans.
enum class Counter : std::uint8_t {
  kEventsPopped,    ///< EventQueue::pop calls that returned an event
  kRouteCalls,      ///< Node::route_inbound calls
  kFramesSent,      ///< TcpEndpoint::enqueue_frame calls
  kConsensusBytes,  ///< wire bytes of consensus-class messages honest replicas sent
  kEncodedBytes,    ///< bytes Message::serialize wrote
  kDecodedBytes,    ///< bytes the decoders consumed
  kUsefulPolls,     ///< poll_once calls that moved at least one frame
  kCount,
};

inline constexpr std::size_t kCounterKinds = static_cast<std::size_t>(Counter::kCount);

struct Totals {
  std::array<std::uint64_t, kSpanKinds> calls{};
  std::array<std::uint64_t, kSpanKinds> self_ns{};
  std::array<std::uint64_t, kSpanKinds> total_ns{};
  std::array<std::uint64_t, kCounterKinds> counters{};
};

void enter(Span span);
void exit();
void add(Counter counter, std::uint64_t amount = 1);

/// Totals over every thread. Call only while no other thread records
/// (the TCP driver threads are joined between Cluster::run_for slices).
[[nodiscard]] Totals snapshot();

class Scope {
 public:
  explicit Scope(Span span) { enter(span); }
  ~Scope() { exit(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

/// Which replicas are Byzantine: the traced consensus-bytes count covers
/// honest senders only, as the program's MetricsCollector does. Set
/// before a cluster is built; read-only while it runs.
void set_byzantine(std::vector<bool> mask);
[[nodiscard]] bool is_byzantine(std::uint32_t node);

/// True in the traced binary (interpose.cpp defines the bindings).
[[nodiscard]] bool traced();
/// Resolves every interposed entry point to its definition in the
/// library; returns the number that failed to resolve (each is printed
/// to stderr). 0 in the untraced binary.
[[nodiscard]] int check_bindings();

}  // namespace perfbench::probe
