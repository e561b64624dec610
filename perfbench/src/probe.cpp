#include "probe.h"

#include <chrono>
#include <mutex>
#include <vector>

namespace perfbench::probe {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct Frame {
  Span span = Span::kCount;
  std::uint64_t start = 0;
  std::uint64_t child_ns = 0;
};

struct ThreadState;

struct Registry {
  std::mutex mu;
  std::vector<ThreadState*> live;
  Totals retired;  ///< totals of threads that have exited
};

Registry& registry() {
  static Registry* r = new Registry;  // outlives every thread_local
  return *r;
}

void add_into(Totals& into, const Totals& from) {
  for (std::size_t i = 0; i < kSpanKinds; ++i) {
    into.calls[i] += from.calls[i];
    into.self_ns[i] += from.self_ns[i];
    into.total_ns[i] += from.total_ns[i];
  }
  for (std::size_t i = 0; i < kCounterKinds; ++i) into.counters[i] += from.counters[i];
}

struct ThreadState {
  Totals totals;
  std::vector<Frame> stack;

  ThreadState() {
    stack.reserve(64);
    std::lock_guard<std::mutex> lock(registry().mu);
    registry().live.push_back(this);
  }
  ~ThreadState() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    add_into(r.retired, totals);
    std::erase(r.live, this);
  }
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;
};

ThreadState& state() {
  thread_local ThreadState s;
  return s;
}

}  // namespace

void enter(Span span) { state().stack.push_back(Frame{span, now_ns(), 0}); }

void exit() {
  ThreadState& s = state();
  const Frame frame = s.stack.back();
  s.stack.pop_back();
  const std::uint64_t duration = now_ns() - frame.start;
  const auto i = static_cast<std::size_t>(frame.span);
  ++s.totals.calls[i];
  s.totals.total_ns[i] += duration;
  s.totals.self_ns[i] += duration > frame.child_ns ? duration - frame.child_ns : 0;
  if (!s.stack.empty()) s.stack.back().child_ns += duration;
}

void add(Counter counter, std::uint64_t amount) {
  state().totals.counters[static_cast<std::size_t>(counter)] += amount;
}

Totals snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Totals out = r.retired;
  for (const ThreadState* s : r.live) add_into(out, s->totals);
  return out;
}

namespace {
std::vector<bool>& byzantine_mask() {
  static std::vector<bool> mask;
  return mask;
}
}  // namespace

void set_byzantine(std::vector<bool> mask) { byzantine_mask() = std::move(mask); }
bool is_byzantine(std::uint32_t node) {
  const std::vector<bool>& mask = byzantine_mask();
  return node < mask.size() && mask[node];
}

#ifndef PERFBENCH_TRACED
bool traced() { return false; }
int check_bindings() { return 0; }
#endif

}  // namespace perfbench::probe
