// scheduler.hpp — activation orders (the "daemon") and the loss adversary.
//
// The paper's executions are maximal sequences of steps chosen by an
// adversarial environment subject to fair loss. Three schedulers realize
// three useful adversaries:
//
//   RandomScheduler     — uniformly random enabled step each time, with a
//                         probabilistic message-loss adversary capped by a
//                         maximum number of consecutive losses per channel
//                         (so finite runs keep the fair-loss guarantee);
//   RoundRobinScheduler — synchronous rounds: every process ticks, then
//                         every non-empty channel delivers once; yields the
//                         round-complexity metric used in the experiments;
//   ScriptedScheduler   — replays an explicit step list; used by the
//                         Figure-1 worst case and the Theorem-1 construction.
//
// RandomScheduler and RoundRobinScheduler choose from the simulator's
// incremental enabled-step index: a uniformly random enabled step costs
// O(log n) with no allocation, instead of the historic O(n²) channel scan.
// The candidate enumeration order (tick-enabled processes ascending, then
// deliverable edges in ascending (src, dst) order) and the per-step RNG
// consumption are exactly those of the scanning implementation, so
// executions are bit-identical for the same (code, seed, configuration).
//
// Sealed dispatch: the schedulers are a closed set. Each is `final` and
// carries a SchedulerKind tag; Simulator::run switches on the tag and drives
// its non-virtual `next_step` fast path (plain Step + bool, fully inlined —
// bodies at the bottom of sim/simulator.hpp). A new scheduler is a new
// SchedulerKind plus a case in Simulator::run; a one-off step order is
// driven by hand through Simulator::execute.
#ifndef SNAPSTAB_SIM_SCHEDULER_HPP
#define SNAPSTAB_SIM_SCHEDULER_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/observation.hpp"
#include "sim/topology.hpp"

namespace snapstab::sim {

class Simulator;

enum class StepKind : std::uint8_t {
  Tick,     // activate process `target`: run its enabled spontaneous actions
  Deliver,  // deliver head of channel src -> target
  Lose,     // drop head of channel src -> target (loss adversary)
};

struct Step {
  StepKind kind = StepKind::Tick;
  ProcessId target = 0;  // process being activated / receiving
  ProcessId src = -1;    // sending endpoint for Deliver / Lose
  // Dense EdgeId of src -> target when the producer already knows it (the
  // sealed schedulers pick steps *by* edge, so Simulator::execute skips the
  // edge_between re-lookup); -1 means "derive from (src, target)". A cache,
  // not identity — equality ignores it.
  EdgeId edge = -1;

  static Step tick(ProcessId p) { return {StepKind::Tick, p, -1, -1}; }
  static Step deliver(ProcessId src, ProcessId dst) {
    return {StepKind::Deliver, dst, src, -1};
  }
  static Step lose(ProcessId src, ProcessId dst) {
    return {StepKind::Lose, dst, src, -1};
  }
  static Step deliver_on(EdgeId e, ProcessId src, ProcessId dst) {
    return {StepKind::Deliver, dst, src, e};
  }
  static Step lose_on(EdgeId e, ProcessId src, ProcessId dst) {
    return {StepKind::Lose, dst, src, e};
  }

  friend bool operator==(const Step& a, const Step& b) {
    return a.kind == b.kind && a.target == b.target && a.src == b.src;
  }
};

// Type tag for the sealed fast paths, one per scheduler.
enum class SchedulerKind : std::uint8_t {
  Random,
  RoundRobin,
  Scripted,
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  SchedulerKind kind() const noexcept { return kind_; }

 protected:
  explicit Scheduler(SchedulerKind kind) noexcept : kind_(kind) {}

 private:
  SchedulerKind kind_;
};

struct LossOptions {
  double rate = 0.0;  // probability that a chosen delivery is lost instead
  // Fair-loss cap: after this many consecutive losses on one channel the
  // next chosen transmission on it is forcibly delivered.
  int max_consecutive = 8;
};

// Flat per-edge consecutive-loss streaks; sized lazily from the simulator's
// topology on first use so the hot path is allocation-free. Streaks reset
// when the scheduler is driven against a different simulator (EdgeIds are
// only meaningful within one topology).
class LossStreaks {
 public:
  int& streak(Simulator& sim, int edge);

 private:
  std::uint64_t last_sim_id_ = 0;  // no simulator has id 0
  std::vector<int> counts_;
};

class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed, LossOptions loss = {});

  // Sealed fast path: writes the chosen step to `out`, false on quiescence.
  // Body inline in sim/simulator.hpp.
  bool next_step(Simulator& sim, Step& out);

 private:
  Rng rng_;
  LossOptions loss_;
  LossStreaks streaks_;
};

class RoundRobinScheduler final : public Scheduler {
 public:
  explicit RoundRobinScheduler(std::uint64_t seed, LossOptions loss = {});

  // Sealed fast path; see RandomScheduler::next_step.
  bool next_step(Simulator& sim, Step& out);

  std::uint64_t rounds() const noexcept { return rounds_; }

 private:
  void refill(Simulator& sim);

  Rng rng_;
  LossOptions loss_;
  // The current round, emitted through a head cursor; clear() keeps the
  // capacity, so refills after the first round never allocate.
  std::vector<Step> pending_;
  std::size_t head_ = 0;
  LossStreaks streaks_;
  std::uint64_t rounds_ = 0;
};

class ScriptedScheduler final : public Scheduler {
 public:
  explicit ScriptedScheduler(std::vector<Step> script)
      : Scheduler(SchedulerKind::Scripted), script_(std::move(script)) {}

  // Sealed fast path, false once the script is exhausted; needs no
  // simulator state.
  bool next_step(Simulator&, Step& out) noexcept {
    if (pos_ >= script_.size()) return false;
    out = script_[pos_++];
    return true;
  }

  std::size_t position() const noexcept { return pos_; }

 private:
  std::vector<Step> script_;
  std::size_t pos_ = 0;
};

}  // namespace snapstab::sim

#endif  // SNAPSTAB_SIM_SCHEDULER_HPP
