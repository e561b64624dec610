// Interposers for the traced build (perfbench_traced only).
//
// perfbench_traced links the protocol library as a shared object built
// with default visibility and semantic interposition, and is itself
// linked with -rdynamic. Each function below carries, through an asm
// label, the exact symbol of a src/ entry point, so the dynamic linker
// binds every call to that entry point — from another translation unit,
// from the same one, or through a vtable — to the definition here. The
// definition opens a probe span (or bumps a counter) and calls the
// library's own definition, found with dlsym(RTLD_NEXT).
//
// Member functions are declared as free functions taking the object
// pointer first (the Itanium C++ ABI passes `this` that way); by-value
// arguments keep their declared types so they are passed as the callee
// expects. A symbol that no longer exists (a renamed function or a
// changed signature changes the mangled name) makes check_bindings()
// fail, so the traced build never silently measures nothing.
#include <dlfcn.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "common/params.h"
#include "consensus/mempool.h"
#include "crypto/authenticator.h"
#include "obs/span.h"
#include "probe.h"
#include "ser/message.h"
#include "ser/serializer.h"
#include "sim/event_queue.h"

namespace perfbench::probe {

namespace {

std::vector<const char*>& symbols() {
  static std::vector<const char*> list;
  return list;
}

struct Register {
  explicit Register(const char* symbol) { symbols().push_back(symbol); }
};

void* resolve(const char* symbol) {
  void* fn = dlsym(RTLD_NEXT, symbol);
  if (fn == nullptr) {
    std::fprintf(stderr, "perfbench_traced: %s is not defined by the library\n", symbol);
    std::abort();
  }
  return fn;
}

}  // namespace

bool traced() { return true; }

int check_bindings() {
  int missing = 0;
  for (const char* symbol : symbols()) {
    if (dlsym(RTLD_NEXT, symbol) == nullptr) {
      std::fprintf(stderr, "perfbench_traced: %s is not defined by the library\n", symbol);
      ++missing;
    }
  }
  return missing;
}

}  // namespace perfbench::probe

namespace perfbench::interpose {

using namespace lumiere;
using probe::Counter;
using probe::Scope;
using probe::Span;
using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

// Declares NAME with symbol SYM and defines it to run the library's SYM
// inside a span of kind SPAN.
#define PB_SPAN(RET, NAME, SYM, SPAN, PARAMS, ARGS)                       \
  RET NAME PARAMS __asm__(SYM);                                           \
  const probe::Register reg_##NAME(SYM);                                  \
  RET NAME PARAMS {                                                       \
    using Fn = RET(*) PARAMS;                                             \
    static const Fn real = reinterpret_cast<Fn>(probe::resolve(SYM));     \
    Scope scope(SPAN);                                                    \
    return real ARGS;                                                     \
  }

// Declares NAME with symbol SYM; BODY runs with `real` bound to the
// library's definition.
#define PB_CUSTOM(RET, NAME, SYM, PARAMS, BODY)                           \
  RET NAME PARAMS __asm__(SYM);                                           \
  const probe::Register reg_##NAME(SYM);                                  \
  RET NAME PARAMS {                                                       \
    using Fn = RET(*) PARAMS;                                             \
    static const Fn real = reinterpret_cast<Fn>(probe::resolve(SYM));     \
    BODY                                                                  \
  }

// ------------------------------------------------------------------ sim
PB_SPAN(sim::EventHandle, eq_schedule, "_ZN7lumiere3sim10EventQueue8scheduleENS_9TimePointENS0_8InlineFnE",
        Span::kSimQueue, (void* self, TimePoint at, sim::InlineFn fn), (self, at, std::move(fn)))
PB_SPAN(void, eq_post, "_ZN7lumiere3sim10EventQueue4postENS_9TimePointENS0_8InlineFnE",
        Span::kSimQueue, (void* self, TimePoint at, sim::InlineFn fn), (self, at, std::move(fn)))
PB_CUSTOM(bool, eq_pop, "_ZN7lumiere3sim10EventQueue3popERNS_9TimePointERNS0_8InlineFnE",
          (void* self, TimePoint& at, sim::InlineFn& fn), {
            Scope scope(Span::kSimQueue);
            const bool popped = real(self, at, fn);
            if (popped) probe::add(Counter::kEventsPopped);
            return popped;
          })
PB_SPAN(void, net_send, "_ZN7lumiere3sim7Network4sendEjjSt10shared_ptrIKNS_7MessageEE", Span::kSimNet,
        (void* self, ProcessId from, ProcessId to, MessagePtr msg), (self, from, to, std::move(msg)))
PB_SPAN(void, net_broadcast, "_ZN7lumiere3sim7Network9broadcastEjRKSt10shared_ptrIKNS_7MessageEE",
        Span::kSimNet, (void* self, ProcessId from, const MessagePtr& msg), (self, from, msg))
PB_SPAN(void, net_deliver, "_ZN7lumiere3sim7Network7deliverEjjRKSt10shared_ptrIKNS_7MessageEE",
        Span::kSimNet, (void* self, ProcessId from, ProcessId to, const MessagePtr& msg),
        (self, from, to, msg))

// --------------------------------------------------------------- crypto
PB_SPAN(bool, auth_verify,
        "_ZNK7lumiere6crypto13Authenticator6verifyERKNS0_6DigestERKNS0_9SignatureE",
        Span::kCryptoCheck,
        (const void* self, const crypto::Digest& message, const crypto::Signature& sig),
        (self, message, sig))
PB_SPAN(bool, auth_check_share,
        "_ZNK7lumiere6crypto13Authenticator11check_shareERKNS0_6DigestERKNS0_10PartialSigE",
        Span::kCryptoCheck,
        (const void* self, const crypto::Digest& message, const crypto::PartialSig& share),
        (self, message, share))
PB_SPAN(bool, auth_check_aggregate,
        "_ZNK7lumiere6crypto13Authenticator15check_aggregateERKNS0_12ThresholdSigE",
        Span::kCryptoCheck, (const void* self, const crypto::ThresholdSig& sig), (self, sig))

// ------------------------------------------------------------ consensus
PB_SPAN(bool, qc_verify,
        "_ZNK7lumiere9consensus10QuorumCert6verifyENS_6crypto8AuthViewERKNS_14ProtocolParamsEPNS0_13QcVerifyCacheE",
        Span::kQcVerify,
        (const void* self, crypto::AuthView auth, const ProtocolParams& params, void* cache),
        (self, auth, params, cache))
PB_SPAN(void, chs_on_enter_view, "_ZN7lumiere9consensus15ChainedHotStuff13on_enter_viewEl",
        Span::kCore, (void* self, View v), (self, v))
PB_SPAN(void, chs_on_message,
        "_ZN7lumiere9consensus15ChainedHotStuff10on_messageEjRKSt10shared_ptrIKNS_7MessageEE",
        Span::kCore, (void* self, ProcessId from, const MessagePtr& msg), (self, from, msg))
PB_SPAN(void, chs_on_propose_allowed, "_ZN7lumiere9consensus15ChainedHotStuff18on_propose_allowedEl",
        Span::kCore, (void* self, View v), (self, v))
PB_SPAN(void, chs_on_synced_block,
        "_ZN7lumiere9consensus15ChainedHotStuff15on_synced_blockERKNS0_5BlockE", Span::kCore,
        (void* self, const void* block), (self, block))
PB_SPAN(consensus::Admission, mempool_add, "_ZN7lumiere9consensus7Mempool3addESt6vectorIhSaIhEE", Span::kMempool,
        (void* self, Bytes command), (self, std::move(command)))
PB_SPAN(Bytes, mempool_next_batch, "_ZN7lumiere9consensus7Mempool10next_batchEl", Span::kMempool,
        (void* self, View v), (self, v))
PB_SPAN(std::uint64_t, mempool_lease_batch,
        "_ZN7lumiere9consensus7Mempool11lease_batchERSt6vectorIhSaIhEE", Span::kMempool,
        (void* self, Bytes& payload), (self, payload))
PB_SPAN(void, mempool_ack_batch, "_ZN7lumiere9consensus7Mempool9ack_batchEm", Span::kMempool,
        (void* self, std::uint64_t token), (self, token))
PB_SPAN(void, mempool_on_commit, "_ZN7lumiere9consensus7Mempool9on_commitElRKSt6vectorIhSaIhEE",
        Span::kMempool, (void* self, View v, const Bytes& payload), (self, v, payload))

// ------------------------------------------------- core (Lumiere pacemaker)
PB_SPAN(void, lum_start, "_ZN7lumiere4core16LumierePacemaker5startEv", Span::kPacemaker,
        (void* self), (self))
PB_SPAN(void, lum_on_message,
        "_ZN7lumiere4core16LumierePacemaker10on_messageEjRKSt10shared_ptrIKNS_7MessageEE",
        Span::kPacemaker, (void* self, ProcessId from, const MessagePtr& msg), (self, from, msg))
PB_SPAN(void, lum_on_qc, "_ZN7lumiere4core16LumierePacemaker5on_qcERKNS_9consensus10QuorumCertE",
        Span::kPacemaker, (void* self, const void* qc), (self, qc))
PB_SPAN(void, lum_on_local_qc_formed,
        "_ZN7lumiere4core16LumierePacemaker18on_local_qc_formedERKNS_9consensus10QuorumCertE",
        Span::kPacemaker, (void* self, const void* qc), (self, qc))
PB_SPAN(void, lum_process_clock, "_ZN7lumiere4core16LumierePacemaker13process_clockEv",
        Span::kPacemaker, (void* self), (self))
PB_SPAN(void, lum_handle_epoch_boundary, "_ZN7lumiere4core16LumierePacemaker21handle_epoch_boundaryEl",
        Span::kPacemaker, (void* self, View w), (self, w))

// --------------------------------------------------------------- dissem
PB_SPAN(void, dis_on_message,
        "_ZN7lumiere6dissem12Disseminator10on_messageEjRKSt10shared_ptrIKNS_7MessageEE",
        Span::kDissem, (void* self, ProcessId from, const MessagePtr& msg), (self, from, msg))
PB_SPAN(Bytes, dis_make_proposal_payload, "_ZN7lumiere6dissem12Disseminator21make_proposal_payloadEl",
        Span::kDissem, (void* self, View v), (self, v))
PB_SPAN(bool, dis_refs_payload_ok,
        "_ZN7lumiere6dissem12Disseminator15refs_payload_okESt4spanIKhLm18446744073709551615EE",
        Span::kDissem, (void* self, ByteSpan payload), (self, payload))
PB_SPAN(void, dis_on_refs_proposed,
        "_ZN7lumiere6dissem12Disseminator16on_refs_proposedESt4spanIKhLm18446744073709551615EE",
        Span::kDissem, (void* self, ByteSpan payload), (self, payload))
PB_SPAN(void, dis_on_committed_payload,
        "_ZN7lumiere6dissem12Disseminator20on_committed_payloadESt4spanIKhLm18446744073709551615EE",
        Span::kDissem, (void* self, ByteSpan payload), (self, payload))
PB_SPAN(void, dis_push_tick, "_ZN7lumiere6dissem12Disseminator9push_tickEv", Span::kDissem,
        (void* self), (self))
PB_SPAN(void, dis_retry_tick, "_ZN7lumiere6dissem12Disseminator10retry_tickEv", Span::kDissem,
        (void* self), (self))
PB_SPAN(bool, batch_cert_verify,
        "_ZNK7lumiere6dissem9BatchCert6verifyENS_6crypto8AuthViewERKNS_14ProtocolParamsE",
        Span::kCertVerify, (const void* self, crypto::AuthView auth, const ProtocolParams& params),
        (self, auth, params))

// ----------------------------------------------------------------- sync
PB_SPAN(void, sync_on_message,
        "_ZN7lumiere4sync17BlockSynchronizer10on_messageEjRKSt10shared_ptrIKNS_7MessageEE",
        Span::kSync, (void* self, ProcessId from, const MessagePtr& msg), (self, from, msg))

// ------------------------------------------------------------- workload
PB_SPAN(void, wl_on_commit,
        "_ZN7lumiere8workload12NodeWorkload9on_commitENS_9TimePointElRKSt6vectorIhSaIhEE",
        Span::kWorkload, (void* self, TimePoint at, View v, const Bytes& payload),
        (self, at, v, payload))
PB_SPAN(void, wl_on_dissem_delivery,
        "_ZN7lumiere8workload12NodeWorkload18on_dissem_deliveryENS_9TimePointERKSt6vectorIhSaIhEE",
        Span::kWorkload, (void* self, TimePoint at, const Bytes& payload), (self, at, payload))
PB_SPAN(Bytes, wl_make_batch, "_ZN7lumiere8workload12NodeWorkload10make_batchEl", Span::kWorkload,
        (void* self, View v), (self, v))
PB_SPAN(std::uint64_t, wl_lease_dissem_batch,
        "_ZN7lumiere8workload12NodeWorkload18lease_dissem_batchERSt6vectorIhSaIhEE",
        Span::kWorkload, (void* self, Bytes& payload), (self, payload))
PB_SPAN(void, wl_open_loop_arrival, "_ZN7lumiere8workload12ClientDriver17open_loop_arrivalEv",
        Span::kWorkload, (void* self), (self))
PB_SPAN(void, wl_closed_loop_pump, "_ZN7lumiere8workload12ClientDriver16closed_loop_pumpEv",
        Span::kWorkload, (void* self), (self))

// -------------------------------------------------------------- runtime
PB_CUSTOM(void, node_route_inbound,
          "_ZN7lumiere7runtime4Node13route_inboundEjRKSt10shared_ptrIKNS_7MessageEE",
          (void* self, ProcessId from, const MessagePtr& msg), {
            probe::add(Counter::kRouteCalls);
            Scope scope(Span::kNode);
            real(self, from, msg);
          })
PB_SPAN(void, node_outbound, "_ZN7lumiere7runtime4Node8outboundEjSt10shared_ptrIKNS_7MessageEE",
        Span::kNode, (void* self, ProcessId to, MessagePtr msg), (self, to, std::move(msg)))
PB_SPAN(void, node_outbound_broadcast,
        "_ZN7lumiere7runtime4Node18outbound_broadcastERKSt10shared_ptrIKNS_7MessageEE",
        Span::kNode, (void* self, const MessagePtr& msg), (self, msg))

PB_CUSTOM(void, metrics_on_send, "_ZN7lumiere7runtime16MetricsCollector7on_sendENS_9TimePointEjjRKNS_7MessageE",
          (void* self, TimePoint at, ProcessId from, ProcessId to, const Message& msg), {
            Scope scope(Span::kMetrics);
            if (to != from && !probe::is_byzantine(from) && msg.msg_class() == MsgClass::kConsensus) {
              probe::add(Counter::kConsensusBytes, msg.wire_size());
            }
            real(self, at, from, to, msg);
          })
PB_CUSTOM(void, metrics_on_broadcast,
          "_ZN7lumiere7runtime16MetricsCollector12on_broadcastENS_9TimePointEjRKNS_7MessageEj",
          (void* self, TimePoint at, ProcessId from, const Message& msg, std::uint32_t n), {
            Scope scope(Span::kMetrics);
            if (n > 1 && !probe::is_byzantine(from) && msg.msg_class() == MsgClass::kConsensus) {
              probe::add(Counter::kConsensusBytes, msg.wire_size() * (n - 1));
            }
            real(self, at, from, msg, n);
          })
PB_SPAN(void, metrics_record_qc_formed, "_ZN7lumiere7runtime16MetricsCollector16record_qc_formedENS_9TimePointElj",
        Span::kMetrics, (void* self, TimePoint at, View v, ProcessId leader), (self, at, v, leader))
PB_SPAN(void, metrics_record_queue_depth,
        "_ZN7lumiere7runtime16MetricsCollector18record_queue_depthENS_9TimePointEjm", Span::kMetrics,
        (void* self, TimePoint at, ProcessId node, std::size_t depth), (self, at, node, depth))
PB_SPAN(void, metrics_record_batch_certified,
        "_ZN7lumiere7runtime16MetricsCollector22record_batch_certifiedENS_9TimePointENS_8DurationE",
        Span::kMetrics, (void* self, TimePoint at, Duration latency), (self, at, latency))
PB_SPAN(void, metrics_record_certified_depth,
        "_ZN7lumiere7runtime16MetricsCollector22record_certified_depthENS_9TimePointEjm",
        Span::kMetrics, (void* self, TimePoint at, ProcessId node, std::size_t depth),
        (self, at, node, depth))
PB_SPAN(void, metrics_record_request_committed,
        "_ZN7lumiere7runtime16MetricsCollector24record_request_committedENS_9TimePointENS_8DurationE",
        Span::kMetrics, (void* self, TimePoint at, Duration latency), (self, at, latency))

// ------------------------------------------------------------------ obs
PB_SPAN(void, tracer_note_sent, "_ZN7lumiere3obs10SyncTracer9note_sentEjm", Span::kTracer,
        (void* self, ProcessId id, std::uint64_t bytes), (self, id, bytes))
PB_SPAN(void, tracer_on_sync_started, "_ZN7lumiere3obs10SyncTracer15on_sync_startedEjNS_9TimePointEll",
        Span::kTracer, (void* self, ProcessId id, TimePoint at, View current, View target),
        (self, id, at, current, target))
PB_SPAN(std::optional<obs::SyncSpan>, tracer_on_view_entered,
        "_ZN7lumiere3obs10SyncTracer15on_view_enteredEjNS_9TimePointEl", Span::kTracer,
        (void* self, ProcessId id, TimePoint at, View view), (self, id, at, view))

// ------------------------------------------------------------ transport
PB_SPAN(void, tcp_send, "_ZN7lumiere9transport11TcpEndpoint4sendEjRKNS_7MessageE", Span::kTcpSend,
        (void* self, ProcessId to, const Message& msg), (self, to, msg))
PB_SPAN(void, tcp_broadcast, "_ZN7lumiere9transport11TcpEndpoint9broadcastERKNS_7MessageE",
        Span::kTcpSend, (void* self, const Message& msg), (self, msg))
PB_SPAN(void, tcp_flush, "_ZN7lumiere9transport11TcpEndpoint5flushERNS1_4ConnE", Span::kTcpFlush,
        (void* self, void* conn), (self, conn))
PB_CUSTOM(void, tcp_enqueue_frame,
          "_ZN7lumiere9transport11TcpEndpoint13enqueue_frameERNS1_4ConnESt4spanIKhLm18446744073709551615EE",
          (void* self, void* conn, ByteSpan payload), {
            probe::add(Counter::kFramesSent);
            real(self, conn, payload);
          })
PB_CUSTOM(std::size_t, tcp_poll_once, "_ZN7lumiere9transport11TcpEndpoint9poll_onceEi",
          (void* self, int timeout_ms), {
            Scope scope(Span::kTcpPoll);
            const std::size_t moved = real(self, timeout_ms);
            if (moved > 0) probe::add(Counter::kUsefulPolls);
            return moved;
          })

// ------------------------------------------------------------------ ser
// The top-level wire messages only: nested encodings (Block, QuorumCert,
// BatchCert, ...) run inside these, and QuorumCert's is also the sim's
// QC fingerprint, which is not serialization for the wire.
#define PB_SERIALIZE(NAME, SYM)                                           \
  PB_CUSTOM(void, NAME, SYM, (const void* self, ser::Writer& w), {        \
    const std::size_t before = w.size();                                  \
    {                                                                     \
      Scope scope(Span::kEncode);                                         \
      real(self, w);                                                      \
    }                                                                     \
    probe::add(Counter::kEncodedBytes, w.size() - before);                \
  })
#define PB_DESERIALIZE(NAME, SYM)                                         \
  PB_CUSTOM(MessagePtr, NAME, SYM, (ser::Reader& r), {                    \
    const std::size_t before = r.remaining();                             \
    MessagePtr out;                                                       \
    {                                                                     \
      Scope scope(Span::kDecode);                                         \
      out = real(r);                                                      \
    }                                                                     \
    probe::add(Counter::kDecodedBytes, before - r.remaining());           \
    return out;                                                           \
  })

PB_SERIALIZE(ser_proposal, "_ZNK7lumiere9consensus11ProposalMsg9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_vote, "_ZNK7lumiere9consensus7VoteMsg9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_qc, "_ZNK7lumiere9consensus5QcMsg9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_new_view, "_ZNK7lumiere9consensus10NewViewMsg9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_view, "_ZNK7lumiere9pacemaker8ShareMsgILj8193ENS0_6detail7ViewTagEE9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_epoch_view, "_ZNK7lumiere9pacemaker8ShareMsgILj8195ENS0_6detail12EpochViewTagEE9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_wish, "_ZNK7lumiere9pacemaker8ShareMsgILj8449ENS0_6detail7WishTagEE9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_vc, "_ZNK7lumiere9pacemaker7CertMsgILj8194ENS0_6detail5VcTagEE9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_ec, "_ZNK7lumiere9pacemaker7CertMsgILj8196ENS0_6detail5EcTagEE9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_wish_cert, "_ZNK7lumiere9pacemaker7CertMsgILj8450ENS0_6detail11WishCertTagEE9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_batch_push, "_ZNK7lumiere6dissem12BatchPushMsg9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_batch_ack, "_ZNK7lumiere6dissem11BatchAckMsg9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_batch_cert, "_ZNK7lumiere6dissem12BatchCertMsg9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_batch_fetch, "_ZNK7lumiere6dissem13BatchFetchMsg9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_block_fetch, "_ZNK7lumiere4sync13BlockFetchMsg9serializeERNS_3ser6WriterE")
PB_SERIALIZE(ser_block_resp, "_ZNK7lumiere4sync12BlockRespMsg9serializeERNS_3ser6WriterE")

PB_DESERIALIZE(de_proposal, "_ZN7lumiere9consensus11ProposalMsg11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_vote, "_ZN7lumiere9consensus7VoteMsg11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_qc, "_ZN7lumiere9consensus5QcMsg11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_new_view, "_ZN7lumiere9consensus10NewViewMsg11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_view, "_ZN7lumiere9pacemaker8ShareMsgILj8193ENS0_6detail7ViewTagEE11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_epoch_view, "_ZN7lumiere9pacemaker8ShareMsgILj8195ENS0_6detail12EpochViewTagEE11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_wish, "_ZN7lumiere9pacemaker8ShareMsgILj8449ENS0_6detail7WishTagEE11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_vc, "_ZN7lumiere9pacemaker7CertMsgILj8194ENS0_6detail5VcTagEE11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_ec, "_ZN7lumiere9pacemaker7CertMsgILj8196ENS0_6detail5EcTagEE11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_wish_cert, "_ZN7lumiere9pacemaker7CertMsgILj8450ENS0_6detail11WishCertTagEE11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_batch_push, "_ZN7lumiere6dissem12BatchPushMsg11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_batch_ack, "_ZN7lumiere6dissem11BatchAckMsg11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_batch_cert, "_ZN7lumiere6dissem12BatchCertMsg11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_batch_fetch, "_ZN7lumiere6dissem13BatchFetchMsg11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_block_fetch, "_ZN7lumiere4sync13BlockFetchMsg11deserializeERNS_3ser6ReaderE")
PB_DESERIALIZE(de_block_resp, "_ZN7lumiere4sync12BlockRespMsg11deserializeERNS_3ser6ReaderE")

}  // namespace perfbench::interpose
