// exp_baselines — Experiment E10: self- vs snap-stabilization, measured.
//
// The qualitative claim of the paper's introduction, made quantitative:
// from a corrupted initial configuration,
//   - Protocol PIF (snap): correct from request #1, always;
//   - mod-K sequence PIF (self): request #1 may be wrong (probability
//     falling with K), later requests are correct once the stale state has
//     been flushed — it converges instead of being immediately correct;
//   - naive PIF: wrong or deadlocked, and never recovers by itself.
// The table is the per-request-index violation rate per protocol.
#include <array>

#include "baselines/naive_pif.hpp"
#include "baselines/seq_pif.hpp"
#include "exp_common.hpp"

namespace snapstab::bench {
namespace {

using baselines::NaivePifProcess;
using baselines::SeqPifProcess;
using sim::Simulator;

constexpr int kRequests = 5;

struct Curve {
  std::array<int, kRequests> violations{};  // per request index
  std::array<int, kRequests> deadlocks{};
  int trials = 0;
};

enum class Kind { Snap, Naive, Seq };

// Round payloads sit far outside the fuzzer's integer range so a stale
// preloaded message can never masquerade as a genuine receipt.
Value round_payload(int round) { return Value::integer(1'000'000 + round); }

void submit(Simulator& world, Kind kind, int round) {
  const Value payload = round_payload(round);
  switch (kind) {
    case Kind::Snap:
      pif_at(world, 0).request(payload);
      break;
    case Kind::Naive:
      dynamic_cast<NaivePifProcess&>(world.process(0)).request(payload);
      break;
    case Kind::Seq:
      dynamic_cast<SeqPifProcess&>(world.process(0)).request(payload);
      break;
  }
}

bool is_done(Simulator& world, Kind kind) {
  switch (kind) {
    case Kind::Snap:
      return pif_at(world, 0).done();
    case Kind::Naive:
      return dynamic_cast<NaivePifProcess&>(world.process(0)).done();
    case Kind::Seq:
      return dynamic_cast<SeqPifProcess&>(world.process(0)).done();
  }
  return false;
}

Curve run_curve(Kind kind, int k, int n, int trials, std::uint64_t seed0) {
  Curve curve;
  curve.trials = trials;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    Simulator world(n, 1, seed);
    for (int i = 0; i < n; ++i) {
      switch (kind) {
        case Kind::Snap:
          world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
              .degree = n - 1}));
          break;
        case Kind::Naive:
          world.add_process(std::make_unique<NaivePifProcess>(n - 1));
          break;
        case Kind::Seq:
          world.add_process(std::make_unique<SeqPifProcess>(n - 1, k));
          break;
      }
    }
    // Corrupted initial configuration: full channels, fuzzed states.
    // (request() below overwrites the initiator's request variable, so
    // request #1 really is request #1 for every protocol.)
    Rng rng(seed ^ 0x5EED);
    sim::fuzz(world, rng,
              sim::FuzzOptions{.channel_fill = 1.0, .flag_limit = 4});
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));

    for (int round = 0; round < kRequests; ++round) {
      submit(world, kind, round);
      const auto reason = world.run(
          300'000, [kind](Simulator& s) { return is_done(s, kind); });
      if (reason != Simulator::StopReason::Predicate) {
        ++curve.deadlocks[static_cast<std::size_t>(round)];
        break;  // a deadlocked protocol serves nothing further
      }
      // Correctness of this computation: every peer must have generated a
      // receive-brd for this round's payload within the run so far.
      const auto& events = world.log().events();
      std::vector<bool> got(static_cast<std::size_t>(n), false);
      for (const auto& e : events)
        if (e.kind == sim::ObsKind::RecvBrd && e.value == round_payload(round))
          got[static_cast<std::size_t>(e.process)] = true;
      bool all = true;
      for (int p = 1; p < n; ++p)
        if (!got[static_cast<std::size_t>(p)]) all = false;
      if (!all) ++curve.violations[static_cast<std::size_t>(round)];
    }
  }
  return curve;
}

std::string pct(int count, int trials) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.0f%%",
                100.0 * count / std::max(1, trials));
  return buf;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "n", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 200));
  const int n = static_cast<int>(args.get_int("n", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1111));

  banner("E10: exp_baselines",
         "self- vs snap-stabilization (§1, §2 'Self- vs Snap-')",
         "Per-request-index violation rate from corrupted starts: snap is\n"
         "correct from request #1; self-stabilizing sequence numbers\n"
         "converge; the naive attempt never recovers.");

  struct Row {
    const char* name;
    Kind kind;
    int k;
  };
  const Row rows[] = {
      {"snap PIF (Algorithm 1)", Kind::Snap, 0},
      {"naive PIF (Section 4.1)", Kind::Naive, 0},
      {"seq PIF, K=2", Kind::Seq, 2},
      {"seq PIF, K=4", Kind::Seq, 4},
      {"seq PIF, K=16", Kind::Seq, 16},
      {"seq PIF, K=64", Kind::Seq, 64},
  };

  TextTable table({"protocol", "req#1 bad", "req#2 bad", "req#3 bad",
                   "req#4 bad", "req#5 bad", "deadlocked"});
  bool snap_clean = true;
  bool seq_first_dirty = false;
  bool seq_later_clean = true;
  for (const auto& row : rows) {
    const auto curve = run_curve(row.kind, row.k, n, trials,
                                 seed + static_cast<std::uint64_t>(row.k));
    int deadlocks = 0;
    for (const int d : curve.deadlocks) deadlocks += d;
    std::vector<std::string> cells = {row.name};
    for (int r = 0; r < kRequests; ++r)
      cells.push_back(
          pct(curve.violations[static_cast<std::size_t>(r)], curve.trials));
    cells.push_back(pct(deadlocks, curve.trials));
    table.add_row(std::move(cells));

    if (row.kind == Kind::Snap)
      for (const int v : curve.violations)
        if (v != 0) snap_clean = false;
    if (row.kind == Kind::Seq && row.k <= 4) {
      if (curve.violations[0] > 0) seq_first_dirty = true;
      for (int r = 2; r < kRequests; ++r)
        if (curve.violations[static_cast<std::size_t>(r)] > 0)
          seq_later_clean = false;
    }
  }
  table.print();

  verdict(snap_clean,
          "snap-stabilizing PIF: zero violations from the very first "
          "request");
  verdict(seq_first_dirty,
          "sequence-number PIF: early requests violated (stale collisions)");
  verdict(seq_later_clean,
          "sequence-number PIF: converged after flushing (self- but not "
          "snap-stabilizing)");

  BenchJson json("exp_baselines");
  json.set("trials", trials);
  json.set("snap_clean", snap_clean);
  json.set("seq_first_dirty", seq_first_dirty);
  json.set("seq_later_clean", seq_later_clean);
  json.write_if_requested(args);
  return 0;
}
