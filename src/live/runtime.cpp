#include "live/runtime.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/check.hpp"

namespace snapstab::live {

// Context backend bound to one hosted node. Only used by the owning thread
// while it holds the node mutex; protocol code reaches it through
// sim::Context's generic (one virtual hop) path.
class Runtime::NodeContext final : public sim::ContextBackend {
 public:
  NodeContext(Runtime& rt, Node& node) : rt_(rt), node_(node) {}

  int degree() const override { return rt_.topology_.degree(node_.id); }

  bool send(int channel_index, const Message& m) override {
    // Same local-index mapping as the simulator: the shared Topology.
    return rt_.send(node_.id, rt_.topology_.out_edge(node_.id, channel_index),
                    m);
  }

  void observe(sim::Layer layer, sim::ObsKind kind, int peer,
               const Value& value) override {
    rt_.observe_external(node_.id, layer, kind, peer, value);
  }

  Rng& rng() override { return node_.rng; }

  std::uint64_t now() const override {
    return rt_.event_counter_.load(std::memory_order_relaxed);
  }

 private:
  Runtime& rt_;
  Node& node_;
};

Runtime::Runtime(const sim::Topology& topology, std::uint64_t seed,
                 double loss_rate, const std::vector<int>& hosted)
    : topology_(topology),
      loss_rate_(loss_rate),
      pool_(&current_string_pool()) {
  SNAPSTAB_CHECK_MSG(topology_.connected(),
                     "the model requires a connected network");
  const int n = topology_.process_count();
  slot_.assign(static_cast<std::size_t>(n), -1);
  Rng seeder(seed);
  nodes_.reserve(hosted.size());
  for (const int p : hosted) {
    SNAPSTAB_CHECK(p >= 0 && p < n);
    auto node = std::make_unique<Node>();
    node->id = p;
    node->rng = seeder.fork(static_cast<std::uint64_t>(p) + 1);
    node->filter_rng =
        Rng(seed ^ 0x50CE7F17ull).fork(static_cast<std::uint64_t>(p));
    slot_[static_cast<std::size_t>(p)] = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(node));
  }
  edge_faults_ = std::make_unique<EdgeFault[]>(
      static_cast<std::size_t>(topology_.edge_count()));
}

Runtime::~Runtime() { shutdown(); }

bool Runtime::hosts(int node) const noexcept {
  return node >= 0 && node < process_count() &&
         slot_[static_cast<std::size_t>(node)] >= 0;
}

Runtime::Node& Runtime::local(int p) {
  SNAPSTAB_CHECK_MSG(hosts(p), "node is not hosted by this process");
  return *nodes_[static_cast<std::size_t>(slot_[static_cast<std::size_t>(p)])];
}

void Runtime::add_process(std::unique_ptr<sim::Process> p) {
  SNAPSTAB_CHECK(p != nullptr);
  for (auto& node : nodes_) {
    if (node->process == nullptr) {
      node->process = std::move(p);
      return;
    }
  }
  SNAPSTAB_CHECK_MSG(false, "more processes than hosted nodes");
}

void Runtime::deliver(Node& node, sim::Context& ctx, sim::EdgeId e,
                      const Message& m) {
  const EdgeFault& fault = edge_faults_[static_cast<std::size_t>(e)];
  if (fault.down.load(std::memory_order_relaxed)) {
    down_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (loss_rate_ > 0.0 && node.filter_rng.chance(loss_rate_)) {
    loss_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const double drop = fault.drop.load(std::memory_order_relaxed);
  if (drop > 0.0 && node.filter_rng.chance(drop)) {
    filter_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  sim::Process& proc = *node.process;
  const int ch = topology_.edge_index_at_dst(e);
  proc.on_message(ctx, ch, m);
  delivered_.fetch_add(1, std::memory_order_relaxed);
  const double dup = fault.duplicate.load(std::memory_order_relaxed);
  if (dup > 0.0 && node.filter_rng.chance(dup) && !proc.busy()) {
    proc.on_message(ctx, ch, m);
    delivered_.fetch_add(1, std::memory_order_relaxed);
    filter_duplicates_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Runtime::thread_main(Node& node) {
  // Every node thread interns into the runtime's shared (thread-safe) pool.
  ScopedStringPool pool_scope(*pool_);
  NodeContext backend(*this, node);
  sim::Context ctx(backend);
  // Never less than one pass over the node's in-channels.
  const int budget =
      std::max(topology_.degree(node.id), kMaxReceivesPerActivation);
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(node.mu);
      sim::Process& proc = *node.process;
      // Receive until the transport has nothing pending, within the budget;
      // a process busy in its critical section receives nothing and its
      // channels keep the backlog.
      for (int k = 0; k < budget && !proc.busy(); ++k) {
        const Inbound in = receive(node.id, k);
        if (in.edge >= 0) deliver(node, ctx, in.edge, in.message);
        if (!in.more) break;
      }
      if (proc.tick_enabled()) proc.on_tick(ctx);
    }
    std::this_thread::sleep_for(kActivationPause);
  }
}

void Runtime::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  for (const auto& node : nodes_)
    SNAPSTAB_CHECK_MSG(node->process != nullptr,
                       "install all hosted processes before start()");
  for (auto& node : nodes_) {
    Node* raw = node.get();
    node->thread = std::thread([this, raw] { thread_main(*raw); });
  }
}

bool Runtime::run(const std::function<bool()>& done,
                  std::chrono::milliseconds timeout) {
  if (stop_.load(std::memory_order_acquire)) return done();
  start();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

void Runtime::shutdown() {
  stop_.store(true, std::memory_order_release);
  for (auto& node : nodes_)
    if (node->thread.joinable()) node->thread.join();
}

std::vector<sim::Observation> Runtime::observations() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  const auto head = log_.begin() + static_cast<std::ptrdiff_t>(log_head_);
  std::vector<sim::Observation> out(head, log_.end());
  out.insert(out.end(), log_.begin(), head);
  return out;
}

void Runtime::observe_external(int process, sim::Layer layer,
                               sim::ObsKind kind, int peer,
                               const Value& value) {
  // Stamp under the lock: the log's order is then its step order.
  std::lock_guard<std::mutex> lock(log_mu_);
  const std::uint64_t step =
      event_counter_.fetch_add(1, std::memory_order_relaxed);
  sim::Observation obs{step, process, layer, kind, peer, value};
  if (log_.size() < kObservationLogCapacity) {
    log_.push_back(std::move(obs));
    return;
  }
  log_[log_head_] = std::move(obs);
  log_head_ = (log_head_ + 1) % kObservationLogCapacity;
}

void Runtime::set_edge_drop(sim::EdgeId e, double rate) {
  SNAPSTAB_CHECK(e >= 0 && e < topology_.edge_count());
  edge_faults_[static_cast<std::size_t>(e)].drop.store(
      rate, std::memory_order_relaxed);
}

void Runtime::set_edge_duplicate(sim::EdgeId e, double rate) {
  SNAPSTAB_CHECK(e >= 0 && e < topology_.edge_count());
  edge_faults_[static_cast<std::size_t>(e)].duplicate.store(
      rate, std::memory_order_relaxed);
}

void Runtime::set_edge_down(sim::EdgeId e, bool down) {
  SNAPSTAB_CHECK(e >= 0 && e < topology_.edge_count());
  edge_faults_[static_cast<std::size_t>(e)].down.store(
      down, std::memory_order_relaxed);
}

void Runtime::clear_edge_faults() {
  for (sim::EdgeId e = 0; e < topology_.edge_count(); ++e) {
    set_edge_drop(e, 0.0);
    set_edge_duplicate(e, 0.0);
    set_edge_down(e, false);
  }
}

Runtime::FilterStats Runtime::filter_stats() const {
  FilterStats out;
  out.delivered = delivered_.load(std::memory_order_relaxed);
  out.loss_drops = loss_drops_.load(std::memory_order_relaxed);
  out.filter_drops = filter_drops_.load(std::memory_order_relaxed);
  out.filter_duplicates = filter_duplicates_.load(std::memory_order_relaxed);
  out.down_drops = down_drops_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace snapstab::live
