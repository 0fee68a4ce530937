// plan.hpp — deterministic, step-clock-driven fault schedules.
//
// The paper's fault model is the transient fault: a burst of arbitrary
// corruption that eventually *ceases*, after which every new request must
// be served correctly. The sim::Adversary realizes that model between
// requests; a FaultPlan realizes it *during* them — a seeded schedule of
// timed fault windows (process crash-restart, channel garbage, per-edge
// loss/duplication, link partitions) compiled against a concrete topology
// into a begin/end event list sorted on the engine's step clock.
//
// Determinism contract: a plan is a pure function of (spec, topology), and
// applying it (fault::Injector) draws only from the plan's own seeded
// stream at stop-predicate boundaries — so the same (seed, plan) replays
// bit-identically, and any failing run is reproducible from the one-line
// repro_line(): seed + plan digest.
#ifndef SNAPSTAB_FAULT_PLAN_HPP
#define SNAPSTAB_FAULT_PLAN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/topology.hpp"

namespace snapstab::fault {

enum class FaultKind : std::uint8_t {
  CrashRestart,    // process state scrambled arbitrary (the transient fault)
  ChannelGarbage,  // one directed channel cleared and refilled with garbage
  EdgeLoss,        // per-poll probabilistic head drop on one directed edge
  EdgeDuplicate,   // per-poll probabilistic head re-enqueue on one edge
  LinkPartition,   // channels crossing a node cut wiped while open
  LinkDown,        // one directed edge fully dead: every poll wipes it
};

inline constexpr int kFaultKindCount = 6;

// Exhaustive-switch constexpr name helper, matching service_name /
// obs_kind_name: -Wswitch flags a missing enumerator, the static_assert
// forces the count to track the enum.
constexpr const char* fault_kind_name(FaultKind k) noexcept {
  static_assert(kFaultKindCount == static_cast<int>(FaultKind::LinkDown) + 1,
                "new FaultKind: update kFaultKindCount and every switch");
  switch (k) {
    case FaultKind::CrashRestart: return "crash-restart";
    case FaultKind::ChannelGarbage: return "channel-garbage";
    case FaultKind::EdgeLoss: return "edge-loss";
    case FaultKind::EdgeDuplicate: return "edge-duplicate";
    case FaultKind::LinkPartition: return "link-partition";
    case FaultKind::LinkDown: return "link-down";
  }
  return "?";
}

// Correlated fault patterns: each PatternSpec compiles into a *sequence* of
// plain FaultWindows (same event list, same Injector machinery, same
// digest/repro contract) whose spans and targets are correlated the way
// real outages are, instead of independently drawn.
enum class PatternKind : std::uint8_t {
  RollingPartition,  // a cut sweeping the process space segment by segment
  CrashStorm,        // burst-arrival crash-restarts on k distinct hosts
  FlappingLink,      // periodic up/down (LinkDown phases) on one link
  Cascade,           // a trigger window spawning dependent follow-ons
};

inline constexpr int kPatternKindCount = 4;

constexpr const char* pattern_kind_name(PatternKind k) noexcept {
  static_assert(kPatternKindCount ==
                    static_cast<int>(PatternKind::Cascade) + 1,
                "new PatternKind: update kPatternKindCount and every switch");
  switch (k) {
    case PatternKind::RollingPartition: return "rolling-partition";
    case PatternKind::CrashStorm: return "crash-storm";
    case PatternKind::FlappingLink: return "flapping-link";
    case PatternKind::Cascade: return "cascade";
  }
  return "?";
}

// One pattern-generator instance. Field use is kind-specific (the unused
// ones are ignored):
//   RollingPartition: `count` segments swept across [begin, begin+span),
//                     each cut open for `len` steps (n <= 64).
//   CrashStorm:       `count` crash windows of `len` steps on distinct
//                     hosts, begins a burst-arrival walk over the span
//                     (uniform gaps, mean span/count).
//   FlappingLink:     `count` down-phases of `len` steps every `period`
//                     steps on `edge` (both directions; -1 draws the edge).
//   Cascade:          one `trigger` window at begin, then `count` dependent
//                     `follow` windows, each lagging its predecessor by a
//                     drawn 1..lag_max steps.
struct PatternSpec {
  PatternKind kind = PatternKind::CrashStorm;
  std::uint64_t begin = 0;     // anchor step of the pattern
  std::uint64_t span = 4'000;  // sweep / burst span (RollingPartition, CrashStorm)
  int count = 3;               // segments | crashes | flaps | followers
  std::uint64_t len = 400;     // length of each generated window
  double rate = 1.0;           // carried into rate-bearing windows
  std::uint64_t period = 800;  // FlappingLink: down+up cycle length
  sim::EdgeId edge = -1;       // FlappingLink: directed edge; -1 = drawn
  FaultKind trigger = FaultKind::CrashRestart;   // Cascade: trigger kind
  FaultKind follow = FaultKind::ChannelGarbage;  // Cascade: follow-on kind
  std::uint64_t lag_max = 600;  // Cascade: per-follower lag bound (>= 1)
};

// One timed fault window [begin, end) on the engine's step clock. The
// target fields are kind-specific: `process` for CrashRestart, `edge` for
// the channel kinds, `partition_mask` (bit p = side-A membership, n <= 64)
// for LinkPartition.
struct FaultWindow {
  FaultKind kind = FaultKind::CrashRestart;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  sim::ProcessId process = -1;
  sim::EdgeId edge = -1;
  double rate = 0.5;  // EdgeLoss / EdgeDuplicate per-poll probability
  std::uint64_t partition_mask = 0;

  bool covers(std::uint64_t step) const noexcept {
    return step >= begin && step < end;
  }
};

// How many windows of each kind to draw, over what horizon, at what
// severity. All-zero window counts compile to an empty (inert) plan — the
// load generator's faults-off default.
struct FaultPlanSpec {
  std::uint64_t seed = 1;
  std::uint64_t horizon = 20'000;  // window begins drawn in [0, horizon)
  int crash_windows = 0;
  int garbage_windows = 0;
  int loss_windows = 0;
  int duplicate_windows = 0;
  int partition_windows = 0;  // requires n <= 64 at compile()
  std::uint64_t min_len = 200;   // window length bounds, inclusive
  std::uint64_t max_len = 2'000;
  double rate = 0.5;             // loss/duplication per-poll probability
  std::int32_t flag_limit = 4;   // garbage flag domain (the PIF bound)
  // When > 0, garbage refills also draw forwarding kinds with packed
  // headers over this many processes (see sim::FuzzOptions).
  int forward_header_n = 0;

  // Correlated storm patterns, compiled AFTER the independent windows above
  // (so a patterns-free spec draws the exact stream it always did). Each
  // entry expands into several windows in the same sorted event list.
  std::vector<PatternSpec> patterns;

  // Independent (non-pattern) window count; the compiled plan may hold more
  // windows when `patterns` is non-empty.
  int total_windows() const noexcept {
    return crash_windows + garbage_windows + loss_windows +
           duplicate_windows + partition_windows;
  }
  // True when compiling this spec can yield a non-empty plan — the load
  // generator's faults-on switch.
  bool enabled() const noexcept {
    return total_windows() > 0 || !patterns.empty();
  }
};

// A compiled schedule: the windows plus a begin/end event list sorted on
// the step clock (what the Injector's cursor walks).
class FaultPlan {
 public:
  struct Event {
    std::uint64_t step = 0;
    std::uint32_t window = 0;  // index into windows()
    bool open = false;         // begin (true) or end (false)
  };

  // Draws every window from spec.seed against the topology's process/edge
  // address space. Pure: same (spec, topology shape) => same plan.
  static FaultPlan compile(const FaultPlanSpec& spec,
                           const sim::Topology& topology);

  const std::vector<FaultWindow>& windows() const noexcept {
    return windows_;
  }
  const std::vector<Event>& events() const noexcept { return events_; }
  bool empty() const noexcept { return windows_.empty(); }
  std::uint64_t seed() const noexcept { return seed_; }

  // Close of the last window: the paper's "the fault ceases" instant.
  // Every session submitted at or after this step must complete correctly.
  std::uint64_t last_end() const noexcept { return last_end_; }
  std::uint64_t first_begin() const noexcept { return first_begin_; }

  // FNV-1a over the serialized window list — stable across platforms, so
  // (seed, digest) pins the schedule a failing run executed.
  std::uint64_t digest() const noexcept;
  // The one-line repro: "fault-plan seed=S windows=N plan-digest=HEX".
  std::string repro_line() const;

  // Garbage-generation parameters, carried from the spec for the Injector.
  std::int32_t flag_limit() const noexcept { return flag_limit_; }
  int forward_header_n() const noexcept { return forward_header_n_; }

 private:
  std::int32_t flag_limit_ = 4;
  int forward_header_n_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t first_begin_ = 0;
  std::uint64_t last_end_ = 0;
  std::vector<FaultWindow> windows_;
  std::vector<Event> events_;  // sorted by (step, !open, window)
};

}  // namespace snapstab::fault

#endif  // SNAPSTAB_FAULT_PLAN_HPP
