// simulator.hpp — discrete-event execution of the transition system.
//
// A Simulator owns the network, the processes and the observation log; a
// Scheduler chooses steps, the Simulator executes them. Every source of
// nondeterminism is seeded, so any execution is reproducible from
// (code, seed, initial configuration).
//
// Enabled-step index: the simulator maintains, incrementally, the exact sets
// a scheduler chooses from — the tick-enabled processes and the deliverable
// edges (non-empty channel, receiver not busy in its CS) — as bitmap-backed
// order-statistics sets (common/rankset.hpp: O(1) membership flips,
// branchless popcount-scan selection). The simulator binds itself as every
// channel's transition listener, so occupancy reaches the index straight
// from the channels (exact under arbitrary channel mutation); process
// predicates (tick_enabled, busy) are re-read after each executed
// step for the acting process, and reconciled in bulk at run() start and
// after each stop-predicate call (stop predicates are allowed to mutate
// process state, e.g. submit new requests). Schedulers therefore pick a
// uniformly random enabled step without rescanning all n² channels.
//
// The simulator can also *record* executions: per-process activation
// sequences (ticks and received messages in order). Recording is what makes
// the Theorem-1 impossibility construction executable — record the bad
// factor, stuff the recorded message sequences into the channels of a fresh
// initial configuration, replay each process's activations verbatim.
//
// Sealed step loop: run() switches once on the installed scheduler's
// SchedulerKind and drives the non-virtual next_step fast path of the three
// built-in schedulers, a closed set; the per-step Context is concrete and
// fully inlined. Code that needs its own step order drives execute() by
// hand.
#ifndef SNAPSTAB_SIM_SIMULATOR_HPP
#define SNAPSTAB_SIM_SIMULATOR_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rankset.hpp"
#include "msg/strpool.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/scheduler.hpp"

namespace snapstab::sim {

struct Metrics {
  std::uint64_t steps = 0;
  std::uint64_t ticks = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t adversary_losses = 0;
  std::uint64_t sends = 0;          // send attempts by processes
  std::uint64_t sends_lost_full = 0;  // attempts refused by a full channel
};

// One entry of a recorded per-process activation sequence.
struct Activation {
  StepKind kind = StepKind::Tick;  // Tick or Deliver
  int channel_index = -1;          // local index of the sender for Deliver
  Message message;                 // the delivered message for Deliver
};

// Cadence of the stop-predicate check in run(). The default (1) preserves
// the historic behavior: the predicate runs after every executed step, and
// because predicates may mutate process state, each check is followed by an
// O(n) reconcile of the enabled-step index. Bulk runs (benchmarks, fixed
// trial budgets) can raise check_every to amortize both costs; the run may
// then overshoot the predicate's first holding point by up to
// check_every - 1 steps. 0 is treated as 1.
//
// on_progress replaces the cadence with an event: the predicate runs only
// after a step whose acting process called Context::progress() (or when the
// previous check itself called it), and check_every is ignored. It is exact
// — not an approximation — for a predicate whose answer can flip only on
// such steps, as svc::Client::await_all's session poll does: it stops on the
// same step as check_every = 1 and skips the checks and reconciles of every
// step in between.
struct StopPolicy {
  std::uint64_t check_every = 1;
  bool on_progress = false;
};

class Simulator final : private ChannelListener {
 public:
  Simulator(Topology topology, std::size_t channel_capacity,
            std::uint64_t seed);
  // The paper's fully-connected network (historic constructor).
  Simulator(int process_count, std::size_t channel_capacity,
            std::uint64_t seed);

  // Process installation; exactly `process_count` processes must be added
  // before the first step. The simulator owns them.
  void add_process(std::unique_ptr<Process> p);
  int process_count() const noexcept { return network_.process_count(); }

  Process& process(ProcessId p);
  const Process& process(ProcessId p) const;
  template <typename T>
  T& process_as(ProcessId p) {
    return dynamic_cast<T&>(process(p));
  }

  Network& network() noexcept { return network_; }
  const Network& network() const noexcept { return network_; }
  const Topology& topology() const noexcept { return network_.topology(); }
  ObservationLog& log() noexcept { return log_; }
  const ObservationLog& log() const noexcept { return log_; }
  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }
  std::uint64_t step_count() const noexcept { return metrics_.steps; }

  void set_scheduler(std::unique_ptr<Scheduler> s);
  Scheduler* scheduler() noexcept { return scheduler_.get(); }

  // Unique over the process lifetime (never reused, unlike addresses);
  // lets per-simulator caches in schedulers detect a simulator change.
  std::uint64_t instance_id() const noexcept { return instance_id_; }

  // The StringPool this simulator's text payloads are interned in — the
  // thread's current pool at construction time. run() re-installs it as the
  // current pool for the duration, so a simulator driven from a different
  // thread (the parallel trial harness) keeps one consistent id space.
  StringPool& string_pool() const noexcept { return *pool_; }

  // Executes one explicit step. Returns false when the step was a no-op
  // (e.g., delivering from an empty channel); the step still counts.
  bool execute(const Step& step);

  enum class StopReason { Predicate, Quiescent, BudgetExhausted };

  // Runs until `stop` holds (checked per `policy`, default after every
  // step), the scheduler finds no enabled step, or `max_steps` further
  // steps have been executed.
  StopReason run(std::uint64_t max_steps,
                 const std::function<bool(Simulator&)>& stop = {},
                 StopPolicy policy = {});

  // --- enabled-step index (scheduler interface) ---
  // Members are reported in ascending id / canonical edge order, which is
  // exactly the order the historic scanning schedulers enumerated.
  int tick_enabled_count() const noexcept { return tick_set_.count(); }
  ProcessId nth_tick_enabled(int k) const { return tick_set_.kth(k); }
  int deliverable_count() const noexcept { return deliverable_set_.count(); }
  EdgeId nth_deliverable(int k) const { return deliverable_set_.kth(k); }
  // Re-reads tick_enabled()/busy() for every installed process. Call after
  // mutating process state outside of execute() (fuzzers, adversaries,
  // tests poking at process variables between runs do not need to — run()
  // reconciles on entry).
  void reconcile_enabled_index();

  // --- recording (Theorem-1 machinery) ---
  void enable_recording();
  const std::vector<Activation>& activations(ProcessId p) const;
  // Messages delivered over the channel src -> dst, in delivery order.
  const std::vector<Message>& delivered(ProcessId src, ProcessId dst) const;

 private:
  friend class Context;  // the sim backend inlines straight into the engine

  // Channel `tag` (its EdgeId) flipped between empty and non-empty.
  void channel_transition(int tag, bool nonempty) override;
  // Re-reads tick_enabled()/busy() for one process and fixes the index.
  void refresh_process(ProcessId p);
  void refresh_deliverable(EdgeId e);

  // execute() minus the install check (hoisted out of the sealed loop);
  // branches once on recording_ into a straight-line variant.
  bool execute_step(const Step& step);
  template <bool Recording>
  bool execute_impl(const Step& step);
  // EdgeId of a Deliver/Lose step: the scheduler-provided edge when
  // present (checked against the endpoints), else derived via edge_between.
  EdgeId step_edge(const Step& step) const;
  // The sealed step loop; Sched exposes a non-virtual
  // `bool next_step(Simulator&, Step&)`.
  template <typename Sched>
  StopReason run_loop(Sched& sched, std::uint64_t max_steps,
                      const std::function<bool(Simulator&)>& stop,
                      StopPolicy policy);

  std::uint64_t instance_id_;
  StringPool* pool_;
  Network network_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Rng> process_rngs_;
  ObservationLog log_;
  Metrics metrics_;
  std::unique_ptr<Scheduler> scheduler_;

  // Enabled-step index.
  RankSet tick_set_;         // processes with tick_enabled()
  RankSet deliverable_set_;  // edges: non-empty ∧ receiver not busy
  std::vector<char> busy_bit_;  // last busy() seen, to detect busy flips

  bool progress_ = false;  // set by Context::progress(), read by run_loop

  bool recording_ = false;
  std::vector<std::vector<Activation>> recorded_activations_;
  std::vector<std::vector<Message>> recorded_deliveries_;  // per EdgeId
};

// ---------------------------------------------------------------------------
// Inline fast paths. Context's sim backend and the sealed schedulers'
// next_step need the Simulator definition, so their bodies live here; any
// translation unit calling them must include this header.
// ---------------------------------------------------------------------------

inline int Context::degree() const {
  if (sim_ != nullptr) return sim_->network_.topology().degree(self_);
  return backend_->degree();
}

inline bool Context::send(int channel_index, const Message& m) {
  if (sim_ != nullptr) {
    Simulator& sim = *sim_;
    const EdgeId e = sim.network_.topology().out_edge(self_, channel_index);
    ++sim.metrics_.sends;
    if (!sim.network_.edge_channel(e).push(m)) {
      ++sim.metrics_.sends_lost_full;
      return false;
    }
    return true;
  }
  return backend_->send(channel_index, m);
}

inline void Context::observe(Layer layer, ObsKind kind, int peer,
                             const Value& value) {
  if (sim_ != nullptr) {
    sim_->log_.emit(
        Observation{sim_->metrics_.steps, self_, layer, kind, peer, value});
    return;
  }
  backend_->observe(layer, kind, peer, value);
}

inline Rng& Context::rng() {
  if (sim_ != nullptr)
    return sim_->process_rngs_[static_cast<std::size_t>(self_)];
  return backend_->rng();
}

inline std::uint64_t Context::now() const {
  if (sim_ != nullptr) return sim_->metrics_.steps;
  return backend_->now();
}

inline void Context::progress() {
  if (sim_ != nullptr) sim_->progress_ = true;
}

inline bool RandomScheduler::next_step(Simulator& sim, Step& out) {
  const int ticks = sim.tick_enabled_count();
  const int chans = sim.deliverable_count();
  const std::size_t total =
      static_cast<std::size_t>(ticks) + static_cast<std::size_t>(chans);
  if (total == 0) return false;

  const auto pick = rng_.below(total);
  if (pick < static_cast<std::size_t>(ticks)) {
    out = Step::tick(sim.nth_tick_enabled(static_cast<int>(pick)));
    return true;
  }

  const EdgeId e = sim.nth_deliverable(static_cast<int>(pick) - ticks);
  const ProcessId src = sim.topology().edge_src(e);
  const ProcessId dst = sim.topology().edge_dst(e);
  if (loss_.rate > 0.0) {
    int& streak = streaks_.streak(sim, e);
    if (streak < loss_.max_consecutive && rng_.chance(loss_.rate)) {
      ++streak;
      out = Step::lose_on(e, src, dst);
      return true;
    }
    streak = 0;
  }
  out = Step::deliver_on(e, src, dst);
  return true;
}

inline bool RoundRobinScheduler::next_step(Simulator& sim, Step& out) {
  while (true) {
    if (head_ == pending_.size()) {
      pending_.clear();
      head_ = 0;
      refill(sim);
      if (pending_.empty()) return false;
    }
    const Step step = pending_[head_++];
    // Steps scheduled at round formation may have become stale (channel
    // drained by the receiving action of an earlier delivery, process gone
    // busy). Skip stale steps rather than executing no-ops.
    switch (step.kind) {
      case StepKind::Tick:
        if (!sim.process(step.target).tick_enabled()) continue;
        break;
      case StepKind::Deliver:
        if (!sim.network().edge_nonempty(step.edge)) continue;
        if (sim.process(step.target).busy()) continue;
        break;
      case StepKind::Lose:
        if (!sim.network().edge_nonempty(step.edge)) continue;
        break;
    }
    out = step;
    return true;
  }
}

}  // namespace snapstab::sim

#endif  // SNAPSTAB_SIM_SIMULATOR_HPP
