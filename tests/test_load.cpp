// test_load.cpp — the load subsystem: histogram exactness against a
// sorted-vector oracle, shard-merge algebra, session recycling, and the
// sharded workload determinism pin (bit-identical aggregate JSON for any
// worker-thread count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "load/histogram.hpp"
#include "load/workload.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"

namespace snapstab::load {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram vs the oracle: nearest-rank percentile over the sorted
// sample vector. The histogram answer must be >= the exact one (it reports
// a bucket's inclusive upper bound) and within the 1/32 relative
// quantization error above it.
// ---------------------------------------------------------------------------

std::uint64_t oracle_percentile(std::vector<std::uint64_t> sorted,
                                double pct) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::uint64_t>(
      std::ceil(pct / 100.0 * n));
  if (rank < 1) rank = 1;
  return sorted[static_cast<std::size_t>(rank - 1)];
}

TEST(LoadHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  std::vector<std::uint64_t> vals;
  Rng rng(41);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(32);  // one bucket per value: exact
    h.record(v);
    vals.push_back(v);
  }
  std::sort(vals.begin(), vals.end());
  for (const double pct : {1.0, 50.0, 90.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(h.percentile(pct), oracle_percentile(vals, pct)) << pct;
  EXPECT_EQ(h.min(), vals.front());
  EXPECT_EQ(h.max(), vals.back());
  EXPECT_EQ(h.count(), vals.size());
}

TEST(LoadHistogram, WideRangeWithinQuantizationBound) {
  LatencyHistogram h;
  std::vector<std::uint64_t> vals;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform-ish spread across ~12 orders of magnitude.
    const int shift = static_cast<int>(rng.below(40));
    const std::uint64_t v = rng.below(std::uint64_t{1} << shift | 1);
    h.record(v);
    vals.push_back(v);
  }
  std::sort(vals.begin(), vals.end());
  for (const double pct : {50.0, 90.0, 99.0, 99.9}) {
    const std::uint64_t exact = oracle_percentile(vals, pct);
    const std::uint64_t got = h.percentile(pct);
    EXPECT_GE(got, exact) << pct;
    EXPECT_LE(got, exact + exact / 32 + 1) << pct;
  }
  EXPECT_EQ(h.min(), vals.front());
  EXPECT_EQ(h.max(), vals.back());
}

TEST(LoadHistogram, EmptyAndSingleton) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.record(777);
  for (const double pct : {0.0, 50.0, 100.0})
    EXPECT_EQ(h.percentile(pct), 777u) << pct;  // clamped to the max
  EXPECT_EQ(h.mean(), 777.0);
}

TEST(LoadHistogram, BucketGeometryRoundTrips) {
  Rng rng(43);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.next() >> rng.below(64);
    const int idx = LatencyHistogram::index_of(v);
    const std::uint64_t hi = LatencyHistogram::bucket_high(idx);
    EXPECT_GE(hi, v);
    EXPECT_LE(hi - v, v / 32);  // relative quantization error <= 1/32
                                // (hi - v: v + v/32 overflows near 2^64)
    if (idx > 0)
      EXPECT_LT(LatencyHistogram::bucket_high(idx - 1), v);
  }
}

// ---------------------------------------------------------------------------
// Merge is element-wise addition: associative, commutative, bit-exact.
// ---------------------------------------------------------------------------

TEST(LoadHistogram, MergeIsAssociativeAndCommutative) {
  LatencyHistogram a, b, c;
  Rng rng(44);
  for (int i = 0; i < 3000; ++i) a.record(rng.below(1u << 20));
  for (int i = 0; i < 2000; ++i) b.record(rng.below(1u << 10));
  for (int i = 0; i < 1000; ++i) c.record(rng.next() >> 20);

  LatencyHistogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  LatencyHistogram bc = b;
  bc.merge(c);
  LatencyHistogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c.digest(), a_bc.digest());

  LatencyHistogram ba = b;
  ba.merge(a);
  LatencyHistogram ab = a;
  ab.merge(b);
  EXPECT_EQ(ab, ba);

  LatencyHistogram empty;
  LatencyHistogram a_e = a;
  a_e.merge(empty);
  EXPECT_EQ(a_e, a);  // identity element
}

// ---------------------------------------------------------------------------
// Session recycling: a submit -> complete -> release loop leaves no
// residue in the host's session map (O(live) memory, not O(total)).
// ---------------------------------------------------------------------------

TEST(LoadRecycle, HostSessionMapStaysEmptyAcrossRecycledSessions) {
  auto sim = std::make_unique<sim::Simulator>(2, 1, 45);
  for (int i = 0; i < 2; ++i)
    sim->add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = 1}));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(45));
  svc::Client client(*sim);
  auto& host = sim->process_as<svc::ServiceHost>(0);
  for (int i = 0; i < 500; ++i) {
    const svc::Session s =
        client.submit(0, svc::PifBroadcast{Value::integer(i)});
    EXPECT_EQ(host.session_count(), 1);
    ASSERT_EQ(client.await_all({s}), svc::AwaitResult::Done);
    client.release(s);
    EXPECT_EQ(host.session_count(), 0) << "iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// The sharded workload determinism pin: the aggregate deterministic JSON is
// bit-identical for any worker-thread count, for both arrival models and a
// forwarding-heavy mix.
// ---------------------------------------------------------------------------

WorkloadSpec mixed_spec() {
  WorkloadSpec spec;
  spec.topology = "ring";
  spec.n = 6;
  spec.seed = 1234;
  spec.set_weight(svc::ServiceId::PifBroadcast, 3);
  spec.set_weight(svc::ServiceId::Idl, 2);
  spec.set_weight(svc::ServiceId::Snapshot, 1);
  spec.set_weight(svc::ServiceId::TermDetect, 1);
  spec.set_weight(svc::ServiceId::Election, 1);
  spec.concurrency = 24;
  spec.warmup = 8;
  spec.measure = 96;
  spec.check_every = 16;
  return spec;
}

TEST(LoadSharding, MergedJsonBitIdenticalAcrossThreadCounts) {
  const WorkloadSpec spec = mixed_spec();
  const int shards = 4;
  const std::string one = run_sharded(spec, shards, 1)
                              .deterministic_json(spec);
  for (const int threads : {2, 4, 8}) {
    const std::string t = run_sharded(spec, shards, threads)
                              .deterministic_json(spec);
    EXPECT_EQ(one, t) << "threads=" << threads;
  }
  // And the run did real work: every measured completion was recorded.
  const LoadReport r = run_sharded(spec, shards, 2);
  EXPECT_GE(r.total.counters.completed, spec.measure);
  EXPECT_GE(r.total.steps_hist.count(), spec.measure);
}

TEST(LoadSharding, OpenLoopForwardMixDeterministicAndSheds) {
  WorkloadSpec spec;
  spec.topology = "complete";
  spec.n = 5;
  spec.seed = 77;
  spec.arrival = WorkloadSpec::Arrival::Open;
  spec.inter_arrival = 2;
  spec.set_weight(svc::ServiceId::PifBroadcast, 1);
  spec.set_weight(svc::ServiceId::ForwardMsg, 2);
  spec.warmup = 4;
  spec.measure = 64;
  spec.check_every = 8;
  const std::string one = run_sharded(spec, 3, 1).deterministic_json(spec);
  const std::string four = run_sharded(spec, 3, 4).deterministic_json(spec);
  EXPECT_EQ(one, four);
  const LoadReport r = run_sharded(spec, 3, 2);
  EXPECT_GE(r.total.counters.completed, spec.measure);
}

TEST(LoadSharding, CriticalSectionMixCompletesDeterministically) {
  WorkloadSpec spec;
  spec.topology = "complete";
  spec.n = 4;
  spec.seed = 55;
  spec.set_weight(svc::ServiceId::CriticalSection, 1);
  spec.concurrency = 8;
  spec.warmup = 2;
  spec.measure = 24;
  spec.check_every = 8;
  const std::string one = run_sharded(spec, 2, 1).deterministic_json(spec);
  const std::string two = run_sharded(spec, 2, 2).deterministic_json(spec);
  EXPECT_EQ(one, two);
}

// The load path against a recorded value, not only against itself: one
// faulted closed-loop run on ring/16 (crash-restarts, garbage, loss and
// duplication windows under a mixed service load) must reproduce the
// deterministic JSON recorded before the driver drained its observation log
// at every pump. A change to the load path that moves any draw, step,
// completion, retry or recovery figure shows up here.
TEST(LoadSharding, FaultedClosedLoopMatchesRecordedJson) {
  WorkloadSpec spec = mixed_spec();
  spec.n = 16;
  spec.seed = 2501;
  spec.concurrency = 32;
  spec.warmup = 200;
  spec.measure = 2000;
  spec.check_every = 64;
  spec.faults.seed = 77;
  spec.faults.horizon = 10'000;
  spec.faults.min_len = 200;
  spec.faults.max_len = 800;
  spec.faults.crash_windows = 2;
  spec.faults.garbage_windows = 3;
  spec.faults.loss_windows = 2;
  spec.faults.duplicate_windows = 1;
  const std::string recorded =
      R"({"topology":"ring","n":16,"seed":2501,"arrival":"closed","shards":2,)"
      R"("counters":{"submitted":2256,"completed":2204,"coalesced":66,)"
      R"("refused":0,"shed":0},"steps_total":98048,"budget_hit":false,)"
      R"("stalled":false,"latency_steps":{"count":2004,"min":153,"p50":591,)"
      R"("p90":1215,"p99":1855,"p999":2431,"max":2466,"sum":1365717,)"
      R"("digest":"1d56481c8076547d"},"per_shard":{"completed":[1103,1101],)"
      R"("steps":[49216,48832]},"faults":{"windows":8,"plan_seed":77,)"
      R"("retries":26,"failed":2,"completed_during":353,"completed_after":1816,)"
      R"("recovered":true,"first_success_after":374,"recovery_latency":)"
      R"({"count":1786,"p50":591,"p99":1855,"max":2466,)"
      R"("digest":"ef02c380e04fe07b"},)"
      R"("plan_digests":["e9fa9fb7d7f5fe58","e5539b51f37e34ed"]}})";
  EXPECT_EQ(run_sharded(spec, 2, 2).deterministic_json(spec), recorded);
}

// A ForwardMsg admission refusal is buffer backpressure, not a fault: it
// ends the request under a fault plan exactly as it does without one. A
// forward-heavy load far above the hop buffers under one loss window must
// count refusals but retry none of them and fail none (the deadline is out
// of reach, and a loss window kills no session).
TEST(LoadSharding, FaultedRefusalsEndTheRequestWithoutRetry) {
  WorkloadSpec spec;
  spec.topology = "ring";
  spec.n = 16;
  spec.set_weight(svc::ServiceId::PifBroadcast, 1);
  spec.set_weight(svc::ServiceId::ForwardMsg, 3);
  spec.concurrency = 1024;
  spec.warmup = 100;
  spec.measure = 2000;
  spec.fault_deadline = 1'000'000'000;
  spec.faults.horizon = 2'000;
  spec.faults.min_len = 50;
  spec.faults.max_len = 100;
  spec.faults.loss_windows = 1;
  const LoadReport r = run_sharded(spec, 2, 2);
  EXPECT_GT(r.total.counters.refused, 0u);
  EXPECT_EQ(r.total.counters.retries, 0u);
  EXPECT_EQ(r.total.counters.failed, 0u);
  EXPECT_GE(r.total.counters.completed, spec.warmup + spec.measure);
}

// Shard results fold through the same merge whatever grouping the caller
// uses — merging per-shard results in index order equals merging a
// two-level tree (the associativity the parallel fan relies on).
TEST(LoadSharding, ShardMergeIsGroupingInvariant) {
  const WorkloadSpec spec = mixed_spec();
  std::vector<ShardResult> parts;
  for (int i = 0; i < 4; ++i) parts.push_back(run_workload_shard(spec, i, 4));

  LatencyHistogram flat;
  for (const ShardResult& p : parts) flat.merge(p.steps_hist);

  LatencyHistogram left = parts[0].steps_hist;
  left.merge(parts[1].steps_hist);
  LatencyHistogram right = parts[2].steps_hist;
  right.merge(parts[3].steps_hist);
  left.merge(right);

  EXPECT_EQ(flat, left);
  EXPECT_EQ(flat.digest(), left.digest());
}

}  // namespace
}  // namespace snapstab::load
