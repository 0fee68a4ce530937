// runtime_injector.hpp — applies a FaultPlan to a live runtime.
//
// The live-runtime counterpart of fault::Injector: a dedicated injection
// thread maps the plan's step-clock window spans onto wall time (one step =
// `step_duration`) and applies the same effects against real concurrency,
// through the transport-neutral surface of live::Runtime:
//   * CrashRestart — a hosted node is re-scrambled under its node lock
//     (with_process) every poll of the window; a node registered as living
//     in another OS process (set_node_pid) gets a real SIGKILL when the
//     window opens;
//   * ChannelGarbage — random messages put into the edge through the
//     transport's inject();
//   * EdgeLoss / EdgeDuplicate / LinkDown / LinkPartition — the runtime's
//     receive-side per-edge filter: rates armed when a window opens,
//     re-asserted every poll, cleared when it closes.
// The thread sleeps on a condition variable until the plan's next event
// (a window opening or closing), waking every `poll_interval` only while a
// window is open; stop() wakes it at once. When the last window has closed
// it notifies the runtime's progress, so a run() predicate waiting for
// done() is re-evaluated even if every node is idle.
// Unlike the simulator path this is NOT replayable bit-for-bit (the whole
// runtime is racy by design); what it preserves is the fault *schedule* and
// the recovery contract under test: after stop() the fault has ceased and
// fresh sessions must complete.
#ifndef SNAPSTAB_FAULT_RUNTIME_INJECTOR_HPP
#define SNAPSTAB_FAULT_RUNTIME_INJECTOR_HPP

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "live/runtime.hpp"

namespace snapstab::fault {

struct RuntimeInjectorOptions {
  // Wall-clock length of one plan step: a window [b, e) runs from
  // b*step_duration to e*step_duration after start().
  std::chrono::microseconds step_duration{50};
  // How often an open window is re-asserted (crash scrambles, garbage
  // bursts, filter rates); no polling happens between windows.
  std::chrono::milliseconds poll_interval{2};
};

class RuntimeInjector {
 public:
  RuntimeInjector(const FaultPlan& plan, live::Runtime& rt,
                  RuntimeInjectorOptions options = {});
  ~RuntimeInjector();  // stops and joins

  RuntimeInjector(const RuntimeInjector&) = delete;
  RuntimeInjector& operator=(const RuntimeInjector&) = delete;

  // Multi-process: declares that node `node` lives in OS process `pid`. A
  // CrashRestart window targeting it delivers a real SIGKILL when it opens
  // (once per opening). Call before start().
  void set_node_pid(int node, ::pid_t pid);

  // Spawns the injection thread; the plan's step 0 is "now".
  void start();
  // Signals and joins. Idempotent. After stop() returns no further fault
  // effect is applied — the fault has ceased.
  void stop();
  // True once every window span has elapsed (the thread exits on its own;
  // stop() is still required before destruction to join it).
  bool done() const noexcept { return done_.load(std::memory_order_acquire); }
  // Blocks until done() or `timeout`; returns done().
  bool wait_done(std::chrono::milliseconds timeout);

  struct Counters {
    std::uint64_t crashes = 0;
    std::uint64_t garbage_bursts = 0;
    std::uint64_t drops = 0;            // EdgeLoss windows opened
    std::uint64_t duplicates = 0;       // EdgeDuplicate windows opened
    std::uint64_t partition_wipes = 0;  // edges cut by opened partitions
    std::uint64_t down_wipes = 0;       // LinkDown windows opened
    std::uint64_t process_kills = 0;    // SIGKILLs delivered
  };
  // Stable only after stop().
  const Counters& counters() const noexcept { return counters_; }

 private:
  // A window opening, held open (re-asserted every poll), or closing.
  enum class Phase : std::uint8_t { Open, Hold, Close };

  void thread_main();
  // Sets done_ and wakes wait_done() callers and run() predicates.
  void finish();
  void apply_window(const FaultWindow& w, Phase phase);
  void crash(sim::ProcessId p);
  void garbage(sim::EdgeId e);

  const FaultPlan* plan_;
  live::Runtime* rt_;
  RuntimeInjectorOptions options_;
  Rng rng_;
  std::unordered_map<int, ::pid_t> node_pids_;
  std::thread thread_;
  // stop_ and done_ change under mu_, so a wait on cv_ cannot miss them;
  // done_ is atomic for the lock-free done().
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<bool> done_{false};
  Counters counters_{};
};

}  // namespace snapstab::fault

#endif  // SNAPSTAB_FAULT_RUNTIME_INJECTOR_HPP
