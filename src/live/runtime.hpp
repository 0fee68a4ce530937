// runtime.hpp — the live execution backend: one OS thread per hosted node.
//
// The paper closes with "actually implementing them is a future challenge";
// a live::Runtime takes the same Process objects the simulator runs and
// executes them under genuine concurrency. Everything that does not depend
// on how bytes travel lives here, once:
//   * the node table and the per-node Context backend;
//   * the node-thread loop, driven by readiness and one retransmission
//     timer instead of a fixed pause. A node thread blocks in ppoll() on
//     its wake eventfd and the transport's ready_fd(), with the timer's
//     deadline as the timeout. Each activation, unless the process is busy
//     in its critical section, receives until the transport reports nothing
//     pending (at most kMaxReceivesPerActivation attempts, or one pass over
//     a node's in-channels if it has more); then, only if the timer is due,
//     on_tick — the paper's PIF resends its flag until acknowledged, and
//     that resend is this timeout. The period starts at kRetransmitPeriod,
//     doubles after every tick without a delivery since the one before, up
//     to kRetransmitPeriodCap, and any delivery resets it. A node whose tick
//     is disabled and which is not busy waits with no timeout at all; one
//     busy in its critical section waits for the timer without watching the
//     transport (its input stays queued). An activation ends with a
//     progress notification if a run() caller waits;
//   * the receive-side fault filter between the transport and dispatch:
//     the `loss_rate` option plus per-edge drop, duplicate and down, drawn
//     from a per-node filter RNG separate from the protocol RNG (the filter
//     never perturbs protocol randomness);
//   * the observation log, stamped under its lock so log order is step
//     order, and bounded: a ring keeping the newest
//     kObservationLogCapacity entries;
//   * one persistent lifecycle: start() spawns the node threads, run()
//     waits for a predicate, shutdown() wakes every node and joins. The
//     threads keep serving across run() calls, so a timed-out await can
//     simply be awaited again. run() re-evaluates its predicate only when it
//     could have changed: every activation ends by bumping a progress epoch
//     while a run() caller is waiting, and shutdown() wakes a blocked run()
//     at once. A predicate over state outside the runtime (an injector's
//     schedule, say) needs whoever changes that state to call
//     notify_progress(): idle nodes make no activations.
//
// A transport subclass supplies the seam: send(node, edge, m),
// receive(node, k), inject(edge, m), and how a node learns of input.
// runtime::ThreadRuntime carries messages in bounded in-process mailboxes
// (the paper's bounded-capacity channel) and calls wake(node) after each
// accepted push; net::SocketRuntime carries them as UDP datagrams through
// the kernel (its unbounded lossy channel), and its ready_fd(node) is the
// node's socket.
//
// Concurrency discipline: a process's state is touched only under its node
// mutex — by its own thread during an activation, or by with_process() /
// the run() predicate from the driving thread. with_process() wakes the
// node when `f` enables its tick. Filter rates are atomics the fault
// injector flips while the node threads run.
#ifndef SNAPSTAB_LIVE_RUNTIME_HPP
#define SNAPSTAB_LIVE_RUNTIME_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
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

// The retransmission timer: a node whose tick is enabled runs on_tick this
// long after its previous tick, and at most this long after a delivery...
inline constexpr std::chrono::microseconds kRetransmitPeriod{20};
// ...doubling after each tick that saw no delivery, up to this cap, which
// bounds the resends a node aims at a stalled peer.
inline constexpr std::chrono::microseconds kRetransmitPeriodCap{640};

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
  // Evaluates `done()` now and again after every node activation, until it
  // holds, `timeout` elapses or shutdown() is called (from any thread);
  // returns whether it held. The threads keep serving afterwards. After
  // shutdown() no progress is possible and run() evaluates `done()` once.
  bool run(const std::function<bool()>& done,
           std::chrono::milliseconds timeout);
  // Stops and joins the node threads. Idempotent.
  void shutdown();
  bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stop_.load(std::memory_order_acquire);
  }

  // Executes `f` on hosted node `p` (cast to T) under its node lock, and
  // wakes the node if `f` enabled its tick (a submission, a crash-restart).
  // Safe from the run() predicate and after shutdown().
  template <typename T, typename F>
  auto with_process(int p, F&& f) {
    Node& node = local(p);
    std::lock_guard<std::mutex> lock(node.mu);
    const WakeIfTickEnabled guard{*this, node};
    return f(dynamic_cast<T&>(*node.process));
  }

  // Bumps the progress epoch and wakes every waiting run(). Node
  // activations do this themselves; call it after changing state outside
  // the runtime that a run() predicate reads.
  void notify_progress();

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
  // A descriptor that polls readable while node `node` has input pending,
  // or -1 if the transport calls wake() for each message instead.
  virtual int ready_fd(int /*node*/) const { return -1; }

  // Signals hosted node `node` that input arrived: its thread runs one more
  // activation. Thread-safe.
  void wake(int node);

 private:
  struct Node {
    int id = -1;
    int wake_fd = -1;  // semaphore eventfd: one activation per signal
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

  // with_process()'s wake: signals the node if its tick went from disabled
  // to enabled while the guard lived.
  struct WakeIfTickEnabled {
    Runtime& rt;
    Node& node;
    const bool was_enabled = node.process->tick_enabled();
    ~WakeIfTickEnabled() {
      if (!was_enabled && node.process->tick_enabled()) rt.signal(node);
    }
  };

  Node& local(int p);
  void thread_main(Node& node);
  static void signal(const Node& node);
  // The fault filter, then dispatch (and a filter duplicate). Returns
  // whether on_message ran.
  bool deliver(Node& node, sim::Context& ctx, sim::EdgeId e,
               const Message& m);

  sim::Topology topology_;
  double loss_rate_;
  StringPool* pool_;
  std::vector<std::unique_ptr<Node>> nodes_;  // hosted nodes, ascending id
  std::vector<int> slot_;                     // node id -> nodes_ index | -1
  std::unique_ptr<EdgeFault[]> edge_faults_;  // one per directed edge

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  // The progress epoch run() waits on: bumped after every activation while
  // `waiters_` (the run() calls in progress) is non-zero, and by shutdown().
  std::mutex progress_mu_;
  std::condition_variable progress_cv_;
  std::uint64_t progress_epoch_ = 0;  // guarded by progress_mu_
  std::atomic<int> waiters_{0};

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
