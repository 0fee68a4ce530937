// runtime.hpp — the live execution backend: one OS thread per hosted node.
//
// The paper closes with "actually implementing them is a future challenge";
// a live::Runtime takes the same Process objects the simulator runs and
// executes them under genuine concurrency. Everything that does not depend
// on how bytes travel lives here, once:
//   * the node table and the per-node Context backend;
//   * the node-thread loop: unless the process is busy in its critical
//     section, receive until the transport reports nothing pending (at
//     most kMaxReceivesPerActivation attempts, or one pass over a node's
//     in-channels if it has more), then on_tick, then a fixed pause;
//   * the receive-side fault filter between the transport and dispatch:
//     the `loss_rate` option plus per-edge drop, duplicate and down, drawn
//     from a per-node filter RNG separate from the protocol RNG (the filter
//     never perturbs protocol randomness);
//   * the observation log, stamped under its lock so log order is step
//     order, and bounded: a ring keeping the newest
//     kObservationLogCapacity entries;
//   * one persistent lifecycle: start() spawns the node threads, run()
//     polls a predicate, shutdown() joins. The threads keep serving across
//     run() calls, so a timed-out await can simply be awaited again.
//
// A transport subclass supplies the three-call seam: send(node, edge, m),
// receive(node, k) and inject(edge, m). runtime::ThreadRuntime carries
// messages in bounded in-process mailboxes (the paper's bounded-capacity
// channel); net::SocketRuntime carries them as UDP datagrams through the
// kernel (its unbounded lossy channel).
//
// Concurrency discipline: a process's state is touched only under its node
// mutex — by its own thread during an activation, or by with_process() /
// the run() predicate from the driving thread. Filter rates are atomics the
// fault injector flips while the node threads run.
#ifndef SNAPSTAB_LIVE_RUNTIME_HPP
#define SNAPSTAB_LIVE_RUNTIME_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "msg/message.hpp"
#include "msg/strpool.hpp"
#include "sim/process.hpp"
#include "sim/topology.hpp"

namespace snapstab::live {

// Pause between consecutive activations of one node thread; keeps an idle
// node from spinning a core.
inline constexpr std::chrono::microseconds kActivationPause{20};

// Receive attempts one activation may make before on_tick runs. A transport
// ends the loop sooner once it has nothing pending; the bound keeps a
// flooding peer from starving the node's own retransmissions.
inline constexpr int kMaxReceivesPerActivation = 64;

// Observations the live log retains; older ones are overwritten.
inline constexpr std::size_t kObservationLogCapacity = 4096;

class Runtime {
 public:
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  // Shuts down. A transport subclass must call shutdown() in its own
  // destructor, before the state its seam reads is destroyed.
  virtual ~Runtime();

  // Install exactly one process per hosted node, in ascending node order.
  void add_process(std::unique_ptr<sim::Process> p);

  int process_count() const noexcept { return topology_.process_count(); }
  const sim::Topology& topology() const noexcept { return topology_; }
  // Whether node `node` runs in this OS process (a multi-process UDP
  // deployment hosts a subset; the rest live elsewhere).
  bool hosts(int node) const noexcept;

  // Spawns the node threads (idempotent; run() calls it on demand).
  void start();
  // Polls `done()` every millisecond until it holds or `timeout` elapses;
  // returns whether it held. The threads keep serving afterwards. After
  // shutdown() no progress is possible and run() polls once.
  bool run(const std::function<bool()>& done,
           std::chrono::milliseconds timeout);
  // Stops and joins the node threads. Idempotent.
  void shutdown();
  bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stop_.load(std::memory_order_acquire);
  }

  // Executes `f` on hosted node `p` (cast to T) under its node lock. Safe
  // from the run() predicate and after shutdown().
  template <typename T, typename F>
  auto with_process(int p, F&& f) {
    Node& node = local(p);
    std::lock_guard<std::mutex> lock(node.mu);
    return f(dynamic_cast<T&>(*node.process));
  }

  // The retained window of the observation stream (at most
  // kObservationLogCapacity entries), oldest first. Its size never shrinks.
  std::vector<sim::Observation> observations() const;
  // Observations recorded since construction, retained or not.
  std::uint64_t observations_recorded() const noexcept {
    return event_counter_.load(std::memory_order_relaxed);
  }
  // Appends a driver-side event (the svc layer records submissions here,
  // mirroring the simulator's request events).
  void observe_external(int process, sim::Layer layer, sim::ObsKind kind,
                        int peer, const Value& value);

  // The runtime's StringPool (the constructing thread's current pool): all
  // node threads intern into and resolve against it, so observation values
  // compare correctly with values interned by the driving thread.
  StringPool& string_pool() const noexcept { return *pool_; }

  // --- the receive-side fault filter (fault::RuntimeInjector) -------------
  void set_edge_drop(sim::EdgeId e, double rate);
  void set_edge_duplicate(sim::EdgeId e, double rate);
  void set_edge_down(sim::EdgeId e, bool down);
  void clear_edge_faults();

  // Puts `m` into channel `e` as garbage (the paper's arbitrary initial
  // channel content). Returns whether the channel accepted it.
  virtual bool inject(sim::EdgeId e, const Message& m) = 0;

 protected:
  // `hosted`: the nodes this OS process runs, ascending. `seed` seeds the
  // per-node protocol and filter RNGs.
  Runtime(const sim::Topology& topology, std::uint64_t seed, double loss_rate,
          const std::vector<int>& hosted);

  // What the filter did, summed over every hosted node; safe to read
  // concurrently.
  struct FilterStats {
    std::uint64_t delivered = 0;   // dispatched to on_message
    std::uint64_t loss_drops = 0;  // loss_rate discards
    std::uint64_t filter_drops = 0;
    std::uint64_t filter_duplicates = 0;
    std::uint64_t down_drops = 0;  // edge-down discards
  };
  FilterStats filter_stats() const;

  // One receive attempt. `edge` < 0: nothing to deliver this attempt;
  // `more` false: the transport has nothing pending, end the activation's
  // receive loop.
  struct Inbound {
    sim::EdgeId edge = -1;
    Message message;
    bool more = true;
  };

  // The transport seam. Called by node `node`'s thread under its node lock.
  virtual bool send(int node, sim::EdgeId e, const Message& m) = 0;
  // Receive attempt `k` of one activation, k = 0, 1, ... until an Inbound
  // says `more` is false (or the per-activation bound is reached).
  virtual Inbound receive(int node, int k) = 0;

 private:
  struct Node {
    int id = -1;
    std::mutex mu;
    std::unique_ptr<sim::Process> process;
    std::thread thread;
    Rng rng{0};         // protocol draws (Context::rng)
    Rng filter_rng{0};  // loss/drop/duplicate filter draws
  };
  struct EdgeFault {
    std::atomic<double> drop{0.0};
    std::atomic<double> duplicate{0.0};
    std::atomic<bool> down{false};
  };
  class NodeContext;

  Node& local(int p);
  void thread_main(Node& node);
  // The fault filter, then dispatch (and a filter duplicate).
  void deliver(Node& node, sim::Context& ctx, sim::EdgeId e,
               const Message& m);

  sim::Topology topology_;
  double loss_rate_;
  StringPool* pool_;
  std::vector<std::unique_ptr<Node>> nodes_;  // hosted nodes, ascending id
  std::vector<int> slot_;                     // node id -> nodes_ index | -1
  std::unique_ptr<EdgeFault[]> edge_faults_;  // one per directed edge

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> loss_drops_{0};
  std::atomic<std::uint64_t> filter_drops_{0};
  std::atomic<std::uint64_t> filter_duplicates_{0};
  std::atomic<std::uint64_t> down_drops_{0};

  std::atomic<std::uint64_t> event_counter_{0};
  mutable std::mutex log_mu_;
  // Grows on demand up to kObservationLogCapacity, then wraps: log_head_
  // is the oldest entry once full.
  std::vector<sim::Observation> log_;
  std::size_t log_head_ = 0;
};

}  // namespace snapstab::live

#endif  // SNAPSTAB_LIVE_RUNTIME_HPP
