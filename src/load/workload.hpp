// workload.hpp — the coordinated load generator over svc::Client.
//
// A Workload drives one svc world at production intensity: a weighted
// per-service mix (any subset of the eight ServiceIds), an arrival model
// (closed-loop with a fixed in-flight target, or open-loop with a
// deterministic seeded inter-arrival stream and an in-flight cap), a
// warmup phase whose completions are discarded, and a measure phase whose
// submit->Done latencies land in a LatencyHistogram (engine steps always;
// wall ns when requested). Sessions are recycled through the svc free list
// the moment they complete, so in-flight populations of 10^5-10^6 run at
// O(live) memory however many sessions pass through.
//
// Sharding (run_sharded) fans ONE workload across N shards: shard i runs
// its own Simulator + StringPool + histogram (the load::parallel_shards
// pattern) over the i-th share of the aggregate concurrency and completion
// targets, and the shard results merge in index order. Every shard derives
// all of its randomness from (spec.seed, shard, shard_count), never from
// the worker that happened to run it, so the merged report — and its
// deterministic_json() — is bit-identical for any --threads value
// (tests/test_load.cpp pins 1 vs 2 vs 4). Wall-clock fields are the one
// deliberate exception: they are reported beside the deterministic core
// and never inside it.
#ifndef SNAPSTAB_LOAD_WORKLOAD_HPP
#define SNAPSTAB_LOAD_WORKLOAD_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "load/histogram.hpp"
#include "svc/service.hpp"

namespace snapstab::load {

// Resubmissions a faulted request gets after its first attempt.
inline constexpr int kFaultMaxRetries = 8;

struct WorkloadSpec {
  // World shape: "complete" | "ring" | "line" | "star" | "tree".
  std::string topology = "ring";
  int n = 16;                        // processes
  std::size_t channel_capacity = 1;  // the paper's known bound c
  std::uint64_t seed = 1;

  // Integer weight per service (index = ServiceId). All-zero defaults to
  // a pure PifBroadcast mix. A CriticalSection weight > 0 requires every
  // other weight except ForwardMsg to be zero: an ME host's phase cycle
  // owns its IDL/PIF stack, so a CS world serves CS (+ forwarding) only.
  std::array<std::uint32_t, svc::kServiceIdCount> weights{};

  enum class Arrival : std::uint8_t { Closed, Open };
  Arrival arrival = Arrival::Closed;
  // Closed loop: aggregate in-flight session target, split across shards.
  std::uint64_t concurrency = 64;
  // Open loop: mean engine steps between arrivals, per shard; the actual
  // gaps are drawn uniformly from [1, 2*mean-1] (mean preserved) off the
  // shard's seeded stream. Arrivals beyond max_in_flight are shed.
  std::uint64_t inter_arrival = 4;
  std::uint64_t max_in_flight = 1u << 20;

  // Completion targets, aggregate across shards: the first `warmup`
  // completions per shard-share are discarded, the next `measure` are
  // recorded, then the shard stops (abandoning whatever is still queued).
  std::uint64_t warmup = 256;
  std::uint64_t measure = 4096;

  std::uint64_t max_steps = 500'000'000;  // per-shard engine budget
  int check_every = 64;                   // driver pump cadence (steps)
  // Record wall-clock latency per session (two clock reads per completion)
  // in addition to the always-on engine-step latency.
  bool record_wall = false;

  // Fault engine (inert when !enabled() — no windows, no patterns, the
  // default — in which case every draw stream and the deterministic_json
  // bytes are identical to a faults-free build). Each shard compiles its
  // own plan from
  // (faults.seed, shard derivation) against its own topology and polls a
  // fault::Injector from the driver pump.
  fault::FaultPlanSpec faults;
  // Faulted sessions only: an attempt killed by a crash-restart or past
  // this step deadline is resubmitted with the SAME descriptor, up to
  // kFaultMaxRetries times; latency spans all attempts. An admission
  // refusal (ForwardMsg backpressure) is never resubmitted, in any mode.
  std::uint64_t fault_deadline = 20'000;  // per-attempt deadline, steps

  void set_weight(svc::ServiceId s, std::uint32_t w) {
    weights[static_cast<std::size_t>(s)] = w;
  }
};

struct WorkloadCounters {
  std::uint64_t submitted = 0;  // driver submissions (incl. coalesced)
  std::uint64_t completed = 0;  // sessions run to Done with completed=true
  std::uint64_t coalesced = 0;  // submissions that joined a queued twin
  std::uint64_t refused = 0;    // ForwardMsg admissions refused
  std::uint64_t shed = 0;       // open-loop arrivals dropped at the cap
  // Faulted runs only (always zero otherwise):
  std::uint64_t retries = 0;    // killed/expired-attempt resubmissions
  std::uint64_t failed = 0;     // requests abandoned after the retry cap

  void merge(const WorkloadCounters& o) noexcept {
    submitted += o.submitted;
    completed += o.completed;
    coalesced += o.coalesced;
    refused += o.refused;
    shed += o.shed;
    retries += o.retries;
    failed += o.failed;
  }
  bool operator==(const WorkloadCounters&) const = default;
};

struct ShardResult {
  WorkloadCounters counters;
  LatencyHistogram steps_hist;  // submit->Done, engine steps (deterministic)
  LatencyHistogram wall_hist;   // submit->Done, wall ns (record_wall only)
  std::uint64_t steps = 0;      // engine steps this shard executed
  std::uint64_t wall_ns = 0;    // shard wall time (never in deterministic_json)
  bool hit_step_budget = false;
  bool stalled = false;         // quiescent with live work and no way forward

  // Recovery metrics, recorded only when the spec carries a fault plan.
  // The fault span is [fault_first_begin, fault_last_end) on this shard's
  // step clock; completions are bucketed by where their completion step
  // falls relative to it (goodput during vs after the fault).
  std::uint64_t fault_first_begin = 0;
  std::uint64_t fault_last_end = 0;
  std::uint64_t plan_digest = 0;
  std::uint64_t fault_windows = 0;  // compiled windows (patterns included)
  std::uint64_t completed_during_fault = 0;
  std::uint64_t completed_after_fault = 0;
  // Steps from the last window's close to the first completion of a session
  // SUBMITTED at/after that close — the paper's snap-stabilization latency
  // seen by the load generator. Valid iff `recovered`.
  std::uint64_t first_success_after_fault = 0;
  bool recovered = false;
  // submit->Done latency of sessions submitted after the fault ceased.
  LatencyHistogram recovery_hist;
};

struct LoadReport {
  ShardResult total;               // in-index-order merge of `shards`
  std::vector<ShardResult> shards;
  int shard_count = 1;
  int threads = 1;
  std::uint64_t harness_wall_ns = 0;  // wall around the whole fan

  // The deterministic core: spec echo, merged counters, step totals, and
  // the steps-latency histogram (count/min/p50/p90/p99/p999/max/sum plus
  // its FNV digest), with per-shard completed/steps arrays. Bit-identical
  // for any thread count; contains no wall-clock field.
  std::string deterministic_json(const WorkloadSpec& spec) const;
};

// Runs shard `shard` of `shard_count` to completion on the calling thread.
ShardResult run_workload_shard(const WorkloadSpec& spec, int shard,
                               int shard_count);

// Fans `shards` shard runs over `threads` workers (parallel_shards) and
// merges in shard order.
LoadReport run_sharded(const WorkloadSpec& spec, int shards, int threads);

}  // namespace snapstab::load

#endif  // SNAPSTAB_LOAD_WORKLOAD_HPP
