#include "runtime/cluster.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "consensus/messages.h"
#include "dissem/messages.h"
#include "pacemaker/messages.h"
#include "runtime/spec_io.h"
#include "sync/messages.h"

namespace lumiere::runtime {

Cluster::Cluster(Scenario scenario)
    : scenario_(std::move(scenario)), trace_(scenario_.obs.trace_capacity) {
  scenario_.params.validate();
  const std::uint32_t n = scenario_.params.n;
  LUMIERE_ASSERT_MSG(scenario_.nodes.size() == n, "Scenario must carry one NodeSpec per node");
  auth_ = crypto::make_authenticator(scenario_.auth_scheme, n, scenario_.seed);

  // Behaviors first, so the metrics collector knows who is Byzantine.
  std::vector<std::unique_ptr<adversary::Behavior>> behaviors;
  std::vector<bool> byz(n, false);
  behaviors.reserve(n);
  for (ProcessId id = 0; id < n; ++id) {
    const BehaviorThunk& make = scenario_.nodes[id].behavior;
    behaviors.push_back(make ? make() : std::make_unique<adversary::HonestBehavior>());
    byz[id] = std::strcmp(behaviors.back()->name(), "honest") != 0;
  }
  // A node scheduled to turn Byzantine mid-run counts Byzantine for the
  // whole run: its QCs are never decisions and the honest accounting
  // never includes it (conservative, and fixed before the run starts).
  for (const sim::FaultEvent& event : scenario_.schedule.events) {
    if (event.kind == sim::FaultKind::kBehaviorChange && event.node < n &&
        event.behavior != "honest") {
      byz[event.node] = true;
    }
  }
  ever_byzantine_.assign(byz.begin(), byz.end());
  metrics_ = std::make_unique<MetricsCollector>(n, byz);

  // Observability first: config_for installs the tracer's op counters
  // into each node, so the tracer must exist before any node is built.
  if (scenario_.obs.tracer) {
    tracer_ = std::make_unique<obs::SyncTracer>(n, scenario_.obs.max_spans);
  }
  if (scenario_.obs.status_base_port != 0) {
    status_board_ = std::make_unique<obs::StatusBoard>(n);
    for (ProcessId id = 0; id < n; ++id) {
      if (byz[id]) status_board_->set_ever_byzantine(id);
    }
  }

  if (scenario_.transport == TransportKind::kSim) {
    build_sim_cluster(std::move(behaviors));
  } else {
    build_tcp_cluster(std::move(behaviors));
  }

  // Status endpoints last: their serving threads snapshot the nodes and
  // boards built above (validate() restricted them to the TCP transport).
  if (status_board_ != nullptr) {
    status_servers_.reserve(n);
    for (ProcessId id = 0; id < n; ++id) {
      const auto port = static_cast<std::uint16_t>(scenario_.obs.status_base_port + id);
      auto snapshot = [this, id] { return node_status(id); };
      if (id < admin_gates_.size() && admin_gates_[id] != nullptr) {
        obs::StatusServer::AdminHooks hooks;
        hooks.token = scenario_.obs.admin_token;
        hooks.submit = [gate = admin_gates_[id].get()](const obs::AdminCommand& command) {
          // Bounded: the driver only drains between run_for slices, so a
          // session issued while the cluster is paused must time out
          // rather than pin its server thread.
          return gate->submit(command, Duration::millis(2000));
        };
        status_servers_.push_back(
            std::make_unique<obs::StatusServer>(port, snapshot, std::move(hooks)));
      } else {
        status_servers_.push_back(std::make_unique<obs::StatusServer>(port, snapshot));
      }
    }
  }
}

NodeConfig Cluster::config_for(ProcessId id, bool feed_metrics) {
  const NodeSpec& spec = scenario_.nodes[id];
  NodeConfig config;
  config.protocol = spec.protocol;
  config.join_time = spec.join_time;
  config.clock_drift_ppm = spec.clock_drift_ppm;
  config.payload_provider = spec.payload_provider;
  if (tracer_ != nullptr) config.auth_ops = &tracer_->auth_counters(id);
  if (workloads_[id] != nullptr && scenario_.dissem.has_value()) {
    // Dissemination interposes between mempool and consensus: batches
    // lease to the disseminator (which certifies availability and hands
    // consensus fixed-size references) and committed references deliver
    // back into the workload's client accounting.
    workload::NodeWorkload* w = workloads_[id].get();
    config.dissem = scenario_.dissem;
    config.dissem_hooks.lease_batch = [w](std::vector<std::uint8_t>& payload) {
      return w->lease_dissem_batch(payload);
    };
    config.dissem_hooks.ack_batch = [w](std::uint64_t token) { w->ack_dissem_batch(token); };
    config.dissem_hooks.deliver = [w](TimePoint at, const std::vector<std::uint8_t>& payload) {
      w->on_dissem_delivery(at, payload);
    };
    if (feed_metrics) {
      config.dissem_hooks.on_batch_certified = [this](TimePoint at, Duration latency) {
        metrics_->record_batch_certified(at, latency);
      };
      config.dissem_hooks.on_certified_depth = [this, id](TimePoint at, std::size_t depth) {
        metrics_->record_certified_depth(at, id, depth);
      };
    }
  } else if (workloads_[id] != nullptr) {
    // The workload engine supplies the proposals: leased batches from the
    // node's bounded mempool, fed by this node's client drivers.
    config.payload_provider = [w = workloads_[id].get()](View v) { return w->make_batch(v); };
  }
  return config;
}

void Cluster::build_workload(ProcessId id, sim::Simulator* sim, bool feed_metrics) {
  const NodeSpec& spec = scenario_.nodes[id];
  if (!spec.workload) return;
  workload::NodeWorkload::Hooks hooks;
  if (feed_metrics) {
    hooks.on_request_committed = [this, id](TimePoint at, Duration latency) {
      metrics_->record_request_committed(at, latency);
      if (status_board_ != nullptr) status_board_->add_request_committed(id);
    };
    hooks.on_queue_depth = [this, id](TimePoint at, std::size_t depth) {
      metrics_->record_queue_depth(at, id, depth);
      if (status_board_ != nullptr) status_board_->set_mempool_depth(id, depth);
    };
  }
  workloads_[id] = std::make_unique<workload::NodeWorkload>(sim, id, *spec.workload,
                                                            scenario_.seed, std::move(hooks));
}

void Cluster::build_sim_cluster(std::vector<std::unique_ptr<adversary::Behavior>> behaviors) {
  const std::uint32_t n = scenario_.params.n;
  network_ = std::make_unique<sim::Network>(&sim_, n, scenario_.gst, scenario_.params.delta_cap,
                                            scenario_.delay, scenario_.seed);
  network_->set_observer(metrics_.get());

  NodeObservers observers;
  observers.on_qc_formed = [this](TimePoint at, View view, ProcessId node) {
    metrics_->record_qc_formed(at, view, node);
    trace_.record(at, sim::TraceKind::kQcFormed, node, view);
  };
  observers.on_view_entered = [this](TimePoint at, View view, ProcessId node) {
    trace_.record(at, sim::TraceKind::kViewEntered, node, view);
    if (tracer_ != nullptr && tracer_->on_view_entered(node, at, view).has_value()) {
      trace_.record(at, sim::TraceKind::kSyncCompleted, node, view);
    }
  };
  if (tracer_ != nullptr) {
    observers.on_sync_started = [this](TimePoint at, View current, View target, ProcessId node) {
      tracer_->on_sync_started(node, at, current, target);
      trace_.record(at, sim::TraceKind::kSyncStarted, node, target);
    };
    observers.on_sent = [tracer = tracer_.get()](ProcessId node, std::size_t bytes) {
      tracer->note_sent(node, bytes);
    };
  }
  observers.on_commit = [this](TimePoint at, const consensus::Block& block, ProcessId node) {
    trace_.record(at, sim::TraceKind::kCommitted, node, block.view());
    // With dissemination on, the Node's commit path routes the payload
    // through its disseminator, which invokes the workload `deliver`
    // hook itself — feeding on_commit here too would double-count.
    if (workloads_[node] != nullptr && !scenario_.dissem.has_value()) {
      workloads_[node]->on_commit(at, block.view(), block.payload());
    }
  };

  nodes_.reserve(n);
  workloads_.resize(n);
  for (ProcessId id = 0; id < n; ++id) build_workload(id, &sim_, /*feed_metrics=*/true);
  for (ProcessId id = 0; id < n; ++id) {
    nodes_.push_back(std::make_unique<Node>(scenario_.params, id, &sim_, network_.get(),
                                            auth_.get(), config_for(id, /*feed_metrics=*/true),
                                            observers, std::move(behaviors[id])));
  }
  schedule_faults_sim();
}

void Cluster::schedule_faults_sim() {
  // Scheduled at construction, before any node start()/join events, so a
  // fault scripted at an instant fires before same-instant protocol
  // activity (the event queue is FIFO within one timestamp).
  for (const sim::FaultEvent& event : scenario_.schedule.events) {
    sim_.schedule_at(event.at, [this, event] {
      if (event.kind == sim::FaultKind::kBehaviorChange) {
        // Behavior lives on the node, not the network. validate()
        // rejected unknown names and out-of-range nodes; a hand-built
        // Scenario that skipped it fails loudly here.
        auto behavior = adversary::make_behavior(event.behavior);
        LUMIERE_ASSERT_MSG(event.node < nodes_.size() && behavior != nullptr,
                           "behavior-change event references an unknown node or behavior");
        nodes_[event.node]->set_behavior(std::move(behavior));
      } else {
        network_->apply(event);
      }
      const std::string note = sim::FaultSchedule::describe(event);
      trace_.record(event.at, sim::TraceKind::kCustom, event.node, -1, note);
      metrics_->mark_regime(event.at, note);
    });
  }
}

void Cluster::apply_fault_tcp(ProcessId id, const sim::FaultEvent& event) {
  transport::TcpTransportAdapter& adapter = *adapters_[id];
  switch (event.kind) {
    case sim::FaultKind::kPartition: {
      // Same group/cut rule as sim::Network (sim/fault_schedule.h), so
      // the two transports cannot disagree on what a cut means.
      const std::vector<std::uint32_t> group =
          sim::partition_group_of(event.groups, scenario_.params.n);
      for (ProcessId peer = 0; peer < scenario_.params.n; ++peer) {
        adapter.set_partition_cut(peer, sim::partition_cuts(group, id, peer));
      }
      break;
    }
    case sim::FaultKind::kHeal:
      adapter.clear_partition();
      break;
    case sim::FaultKind::kCrash:
    case sim::FaultKind::kLeave:
      if (id == event.node) {
        adapter.set_self_down(true);
        // A crashed process's worker pool dies with it: join the workers
        // and discard in-flight frames (runs on this node's own driver
        // thread, so no submit() races the stop).
        if (pipelines_[id] != nullptr) pipelines_[id]->stop();
      } else {
        adapter.set_peer_down(event.node, true);
      }
      break;
    case sim::FaultKind::kRecover:
    case sim::FaultKind::kRejoin:
      if (id == event.node) {
        adapter.set_self_down(false);
        if (pipelines_[id] != nullptr) pipelines_[id]->start();
      } else {
        adapter.set_peer_down(event.node, false);
      }
      break;
    case sim::FaultKind::kAsymPartition: {
      // Receiver-side gate: nodes in the to-group drop frames arriving
      // from the from-group (the senders' outbound half keeps flowing the
      // other way, matching the sim's one-way semantics). Set for every
      // peer so a new asym cut replaces the previous one.
      const std::uint32_t n = scenario_.params.n;
      std::vector<bool> in_from(n, false);
      for (const ProcessId sender : event.groups[0]) {
        if (sender < n) in_from[sender] = true;
      }
      bool receiver = false;
      for (const ProcessId target : event.groups[1]) receiver = receiver || target == id;
      for (ProcessId peer = 0; peer < n; ++peer) {
        adapter.set_inbound_cut(peer, receiver && in_from[peer]);
      }
      break;
    }
    case sim::FaultKind::kBehaviorChange:
      // Only the target node swaps, on its own driver thread (its private
      // simulator runs this callback) — the Node is thread-confined there.
      if (id == event.node) {
        nodes_[id]->set_behavior(adversary::make_behavior(event.behavior));
      }
      break;
    case sim::FaultKind::kDelayChange:
    case sim::FaultKind::kLinkDelay:
      break;  // simulator-only; ScenarioBuilder::validate() rejects these
  }
}

void Cluster::schedule_faults_tcp() {
  // Each node applies the transition on its own private simulator (and
  // thus its own driver thread) when its wall clock reaches the event
  // instant — best-effort: the nodes cut the link within one another's
  // pacing jitter rather than atomically.
  for (const sim::FaultEvent& event : scenario_.schedule.events) {
    for (ProcessId id = 0; id < scenario_.params.n; ++id) {
      node_sims_[id]->schedule_at(event.at, [this, id, event] {
        apply_fault_tcp(id, event);
        // One regime boundary per event, not one per node: node 0's
        // driver thread stamps it (the collector is in threaded mode).
        if (id == 0) metrics_->mark_regime(event.at, sim::FaultSchedule::describe(event));
      });
    }
  }
}

void Cluster::build_tcp_cluster(std::vector<std::unique_ptr<adversary::Behavior>> behaviors) {
  const std::uint32_t n = scenario_.params.n;
  // Driver threads record concurrently; queries merge between run_for
  // slices (runtime/metrics.h). The trace log stays sim-only — it has no
  // threaded mode, so TCP observers feed metrics but never the trace.
  metrics_->enable_threaded();
  nodes_.reserve(n);
  node_sims_.reserve(n);
  adapters_.reserve(n);
  drivers_.reserve(n);
  pipelines_.reserve(n);
  workloads_.resize(n);
  const auto make_codec = [this] {
    MessageCodec codec;
    consensus::register_consensus_messages(codec);
    pacemaker::register_pacemaker_messages(codec);
    dissem::register_dissem_messages(codec);
    sync::register_sync_messages(codec);
    // Frames carry the selected scheme's signature geometry; decoders
    // need it to slice signature bytes out of the stream.
    codec.set_sig_wire(auth_->wire_spec());
    return codec;
  };
  const bool admin_enabled = status_board_ != nullptr && !scenario_.obs.admin_token.empty();
  if (admin_enabled) {
    admin_gates_.reserve(n);
    for (ProcessId id = 0; id < n; ++id) {
      admin_gates_.push_back(std::make_unique<obs::AdminGate>());
    }
  }
  for (ProcessId id = 0; id < n; ++id) {
    node_sims_.push_back(std::make_unique<sim::Simulator>());
    adapters_.push_back(std::make_unique<transport::TcpTransportAdapter>(
        id, n, scenario_.tcp_base_port, make_codec()));
    adapters_.back()->set_observer(metrics_.get(), node_sims_.back().get());
    // Deterministic per-node jitter/drop streams: both derive from the
    // scenario seed, so a replayed scenario shapes traffic identically.
    adapters_.back()->endpoint().set_reconnect_backoff(
        transport::BackoffPolicy{}, scenario_.seed ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
    adapters_.back()->set_shaping(node_sims_.back().get(),
                                  scenario_.seed ^ (0xd3833e804f4c574bULL * (id + 1)));
    // The workload engine lives on the node's private simulator — every
    // touch (submission, drain, commit) happens on the node's own driver
    // thread; the shared MetricsCollector is in threaded mode.
    build_workload(id, node_sims_.back().get(), /*feed_metrics=*/true);
    NodeObservers observers;
    observers.on_qc_formed = [this](TimePoint at, View view, ProcessId node) {
      metrics_->record_qc_formed(at, view, node);
    };
    // The trace log stays sim-only, but the span tracer and status board
    // are thread-safe: node id's driver thread is the sole writer of its
    // slots (obs/tracer.h threading note).
    if (tracer_ != nullptr || status_board_ != nullptr) {
      observers.on_view_entered = [this](TimePoint at, View view, ProcessId node) {
        if (tracer_ != nullptr) tracer_->on_view_entered(node, at, view);
        if (status_board_ != nullptr) status_board_->set_view(node, view);
      };
    }
    if (tracer_ != nullptr) {
      observers.on_sync_started = [tracer = tracer_.get()](TimePoint at, View current,
                                                          View target, ProcessId node) {
        tracer->on_sync_started(node, at, current, target);
      };
      observers.on_sent = [tracer = tracer_.get()](ProcessId node, std::size_t bytes) {
        tracer->note_sent(node, bytes);
      };
    }
    const bool feed_workload = workloads_[id] != nullptr && !scenario_.dissem.has_value();
    if (feed_workload || status_board_ != nullptr) {
      observers.on_commit = [this, id, feed_workload](TimePoint at,
                                                      const consensus::Block& block, ProcessId) {
        if (status_board_ != nullptr) {
          status_board_->add_commit(id);
          status_board_->set_last_commit(id, static_cast<std::uint64_t>(block.view()));
        }
        if (feed_workload) workloads_[id]->on_commit(at, block.view(), block.payload());
      };
    }
    nodes_.push_back(std::make_unique<Node>(
        scenario_.params, id, node_sims_.back().get(), adapters_.back().get(), auth_.get(),
        config_for(id, /*feed_metrics=*/true), std::move(observers), std::move(behaviors[id])));
    drivers_.push_back(std::make_unique<transport::RealtimeDriver>(
        node_sims_.back().get(), &adapters_.back()->endpoint()));
    obs::AdminGate* gate = admin_enabled ? admin_gates_[id].get() : nullptr;
    if (scenario_.pipeline.enabled) {
      // Staged receive path: the endpoint hands raw frames to the worker
      // pool, whose checks seed the authenticator's shared memo; the
      // driver delivers the decoded results on the node's own thread, so
      // the consensus core skips re-verification (runtime/pipeline.h).
      pipelines_.push_back(
          std::make_unique<VerifyPipeline>(auth_.get(), make_codec(), scenario_.pipeline));
      VerifyPipeline* pipeline = pipelines_.back().get();
      transport::TcpTransportAdapter* adapter = adapters_.back().get();
      adapter->endpoint().set_raw_sink(
          [pipeline](ProcessId from, std::span<const std::uint8_t> payload) {
            return pipeline->submit(from, payload);
          });
      drivers_.back()->set_pump([this, id, pipeline, adapter, gate] {
        pipeline->drain([&](VerifyPipeline::Result&& result) {
          adapter->deliver_decoded(result.from, result.msg);
        });
        if (gate != nullptr) {
          gate->drain(
              [this, id](const obs::AdminCommand& command) { return apply_admin(id, command); });
        }
      });
      pipeline->start();
    } else {
      pipelines_.push_back(nullptr);
      if (gate != nullptr) {
        // Admin commands apply on the node's driver thread: the pump is
        // the only place that thread surfaces between simulator slices.
        drivers_.back()->set_pump([this, id, gate] {
          gate->drain(
              [this, id](const obs::AdminCommand& command) { return apply_admin(id, command); });
        });
      }
    }
  }
  schedule_faults_tcp();
}

std::string Cluster::apply_admin(ProcessId id, const obs::AdminCommand& command) {
  transport::TcpTransportAdapter& adapter = *adapters_[id];
  switch (command.kind) {
    case obs::AdminKind::kBehavior: {
      auto behavior = adversary::make_behavior(command.behavior);
      if (behavior == nullptr) return "ERR unknown behavior '" + command.behavior + "'";
      const bool byzantine = command.behavior != "honest";
      nodes_[id]->set_behavior(std::move(behavior));
      if (byzantine) {
        // Sticky, like scheduled behavior changes: an ever-Byzantine node
        // never re-enters the honest accounting.
        ever_byzantine_[id] = 1;
        if (status_board_ != nullptr) status_board_->set_ever_byzantine(id);
      }
      return "OK";
    }
    case obs::AdminKind::kDrop:
      if (command.peer >= scenario_.params.n) return "ERR peer out of range";
      adapter.set_link_drop(command.peer, command.probability);
      return "OK";
    case obs::AdminKind::kDelay:
      if (command.peer >= scenario_.params.n) return "ERR peer out of range";
      adapter.set_link_delay(command.peer, command.delay);
      return "OK";
    case obs::AdminKind::kIsolate:
      adapter.set_isolated(true);
      return "OK";
    case obs::AdminKind::kHeal:
      adapter.clear_shaping();
      adapter.clear_partition();
      return "OK";
    case obs::AdminKind::kCrash:
      return "ERR crash disabled";
    case obs::AdminKind::kLedger:
      return render_ledger(nodes_[id]->ledger());
  }
  return "ERR unhandled";
}

void Cluster::start() {
  if (started_) return;
  started_ = true;
  for (auto& workload : workloads_) {
    if (workload) workload->start();
  }
  for (auto& node : nodes_) node->start();
}

obs::NodeStatus Cluster::node_status(ProcessId id) const {
  LUMIERE_ASSERT_MSG(id < nodes_.size(), "node_status: unknown node");
  obs::NodeStatus status;
  status.node = id;
  if (status_board_ != nullptr) {
    // TCP: the node itself is owned by its driver thread — serve the
    // board's relaxed counters instead of touching protocol state.
    status.view = status_board_->view(id);
    status.height = status_board_->height(id);
    status.last_commit_height = status_board_->last_commit(id);
    status.ever_byzantine = status_board_->ever_byzantine(id);
    status.mempool_depth = status_board_->mempool_depth(id);
    status.requests_committed = status_board_->requests_committed(id);
  } else {
    status.view = nodes_[id]->current_view();
    status.height = nodes_[id]->ledger().size();
    if (!nodes_[id]->ledger().empty()) {
      status.last_commit_height =
          static_cast<std::uint64_t>(nodes_[id]->ledger().entries().back().view);
    }
    status.ever_byzantine = ever_byzantine_[id] != 0;
    if (workloads_[id] != nullptr) {
      status.mempool_depth = workloads_[id]->mempool().pending();
      status.requests_committed = workloads_[id]->stats().committed;
    }
  }
  if (id < pipelines_.size() && pipelines_[id] != nullptr) {
    const VerifyPipeline::Stats stats = pipelines_[id]->stats();
    status.pipeline_queue_depth = stats.frames_in - stats.frames_out;
  }
  if (tracer_ != nullptr) {
    status.msgs_sent = tracer_->msgs_sent(id);
    status.bytes_sent = tracer_->bytes_sent(id);
    status.auth_ops = tracer_->auth_snapshot(id).total();
    // Sim runs own the one true clock; a TCP status thread has no safe
    // clock, so the open span's duration reads 0 there (costs are live).
    const TimePoint now =
        scenario_.transport == TransportKind::kSim ? sim_.now() : TimePoint::origin();
    status.current_sync = tracer_->open_span(id, now);
    status.last_sync = tracer_->last_span(id);
  }
  return status;
}

workload::Report Cluster::workload_report() const {
  workload::Report report;
  for (const auto& workload : workloads_) {
    if (workload) report.merge(*workload);
  }
  return report;
}

void Cluster::run_for(Duration d) {
  start();
  if (scenario_.transport == TransportKind::kSim) {
    sim_.run_for(d);
    return;
  }
  if (d <= Duration::zero()) return;
  // TCP: one wall-clock driver thread per node (1 simulated us = 1 us);
  // sub-millisecond remainders round up rather than silently vanish.
  const auto wall = std::chrono::milliseconds((d.ticks() + 999) / 1000);
  metrics_->begin_recording_window();
  std::vector<std::thread> threads;
  threads.reserve(drivers_.size());
  for (auto& driver : drivers_) {
    threads.emplace_back([&driver, wall] { driver->run_for(wall); });
  }
  for (auto& thread : threads) thread.join();
  metrics_->end_recording_window();
}

void Cluster::run_until(TimePoint t) {
  if (scenario_.transport == TransportKind::kSim) {
    start();
    sim_.run_until(t);
    return;
  }
  // Already-passed targets no-op, matching Simulator::run_until.
  run_for(t - (node_sims_.empty() ? TimePoint::origin() : node_sims_.front()->now()));
}

std::vector<ProcessId> Cluster::honest_ids() const {
  std::vector<ProcessId> out;
  for (const auto& node : nodes_) {
    if (!ever_byzantine_[node->id()]) out.push_back(node->id());
  }
  return out;
}

std::vector<bool> Cluster::byzantine_mask() const {
  return {ever_byzantine_.begin(), ever_byzantine_.end()};
}

core::HonestGapTracker Cluster::honest_gap_tracker() const {
  std::vector<const sim::LocalClock*> clocks;
  for (const auto& node : nodes_) {
    if (!ever_byzantine_[node->id()]) clocks.push_back(&node->local_clock());
  }
  return core::HonestGapTracker(std::move(clocks));
}

View Cluster::min_honest_view() const {
  View lo = std::numeric_limits<View>::max();
  for (const auto& node : nodes_) {
    if (!ever_byzantine_[node->id()]) lo = std::min(lo, node->current_view());
  }
  return lo;
}

View Cluster::max_honest_view() const {
  View hi = -1;
  for (const auto& node : nodes_) {
    if (!ever_byzantine_[node->id()]) hi = std::max(hi, node->current_view());
  }
  return hi;
}

}  // namespace lumiere::runtime
