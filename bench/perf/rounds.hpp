// rounds.hpp — the round script shared by sim_rounds, mailbox_rounds and
// the two UDP workloads.
//
// One round: every origin p submits PifBroadcast{r·n+p}, origin r mod n
// submits Election, the driver awaits all of them, checks every result and
// releases every session. It is a closed loop — the paper's Request
// variable makes an origin wait for Done before it asks again.
#ifndef SNAPSTAB_BENCH_PERF_ROUNDS_HPP
#define SNAPSTAB_BENCH_PERF_ROUNDS_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "perf.hpp"

namespace snapstab::perf {

// What one phase of rounds measured.
struct RoundsStats {
  std::uint64_t rounds = 0;
  std::uint64_t sessions = 0;  // submitted
  std::uint64_t ok = 0;        // Done with the right result
  std::uint64_t coalesced = 0;
  std::uint64_t wall_ns = 0;
  Usage process;  // deltas over the phase
  Usage driver;
  load::LatencyHistogram latency_ns;     // submit -> completion callback
  load::LatencyHistogram latency_steps;  // the same, in steps
  load::LatencyHistogram overshoot_ns;   // await return - last callback
  std::uint64_t steps = 0;         // engine steps / live activations
  std::uint64_t await_ns = 0;      // time inside await_all
  std::uint64_t observations = 0;  // Simulator log events
  // Live counters (traced phases only).
  std::uint64_t mailbox_pushed = 0;
  std::uint64_t mailbox_lost_on_full = 0;
  net::SocketRuntime::WireStats wire;  // deltas over the phase
  std::uint64_t injected = 0;          // hostile datagrams sent
  load::LatencyHistogram rx_queue_bytes;  // /proc/net/udp, per port per round
  std::uint64_t kernel_drops = 0;
  std::uint64_t live_observations = 0;
};

class RoundScript {
 public:
  // `fresh_per_round`: build a new backend every round (the one-shot
  // ThreadRuntime). `inject_per_round`: hostile datagrams per round, half
  // noise and half corrupted frames (UDP only).
  RoundScript(BackendSpec spec, bool fresh_per_round, int inject_per_round);

  // Builds the backend and runs `warmup_rounds`, `reps` times from scratch;
  // returns each repetition's wall seconds. The last backend is kept.
  std::vector<double> setup(int reps, int warmup_rounds, Tracer& tracer);

  // Runs rounds until `seconds` have elapsed or `max_rounds` ran. Step
  // latencies are recorded for the phase's first `step_rounds` rounds only,
  // so on the Simulator they are identical for the same seed however many
  // rounds the clock allows.
  RoundsStats run(double seconds, std::uint64_t max_rounds,
                  std::uint64_t step_rounds, Tracer& tracer);

  Backend* backend() noexcept { return backend_.get(); }
  bool broken() const noexcept { return broken_; }
  // Hostile datagrams injected into the current backend since it was built.
  std::uint64_t injected_total() const noexcept { return injected_total_; }

 private:
  struct Slot {
    std::uint64_t submit_ns = 0;
    std::uint64_t done_ns = 0;
    std::uint64_t submit_steps = 0;
    std::uint64_t done_steps = 0;
    std::int64_t payload = 0;  // PifBroadcast; -1 marks the Election
    int origin = 0;
    bool done = false;
    bool ok = false;
  };

  void build(Tracer& tracer);
  // One round; `stats` is null during warmup.
  void round(RoundsStats* stats, bool record_steps, Tracer& tracer);
  void inject_garbage();
  void sample_live_counters(RoundsStats& stats);

  BackendSpec spec_;
  bool fresh_per_round_;
  int inject_per_round_;
  std::atomic<std::uint64_t> activations_{0};
  std::uint64_t next_round_ = 0;
  std::uint64_t injected_total_ = 0;
  bool broken_ = false;  // a round timed out; no further rounds run
  Rng garbage_rng_;
  std::vector<ElectionAnswer> answers_;  // per origin
  std::vector<Slot> slots_;
  std::vector<svc::Session> sessions_;
  // Last, so it is destroyed first: a live runtime's node threads may still
  // run completion callbacks that write into slots_ until it is joined.
  std::unique_ptr<Backend> backend_;
};

}  // namespace snapstab::perf

#endif  // SNAPSTAB_BENCH_PERF_ROUNDS_HPP
