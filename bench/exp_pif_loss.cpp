// exp_pif_loss — Experiment E9: fair loss vs the two PIF designs.
//
// Protocol PIF retransmits until each per-neighbor handshake completes, so
// it terminates under any loss rate < 1 (the fair-loss assumption of §2).
// The naive Section-4.1 attempt sends each message once: a single loss on
// the broadcast or feedback path deadlocks the computation. The table shows
// rounds-to-decision for Protocol PIF and completion rate for both.
#include "baselines/naive_pif.hpp"
#include "exp_common.hpp"

namespace snapstab::bench {
namespace {

using baselines::NaivePifProcess;
using sim::Simulator;

struct SnapCell {
  Summary rounds;
  int completed = 0;
  int runs = 0;
  // Exact per-channel accounting: `delivered` sums Channel::Stats::popped
  // (actual deliveries only), `dropped` sums the adversary's drops. The
  // channel-level drop count must reconcile with the scheduler-level loss
  // metric — `exact` records that it did, for every run.
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  bool exact = true;
};

SnapCell run_snap(int n, double loss, int trials, std::uint64_t seed0) {
  SnapCell cell;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    auto world = pif_world(n, 1, seed);
    world->set_scheduler(std::make_unique<sim::RoundRobinScheduler>(
        seed, sim::LossOptions{.rate = loss, .max_consecutive = 8}));
    pif_at(*world, 0).request(Value::integer(t));
    const auto reason = world->run(5'000'000, [](Simulator& s) {
      return pif_at(s, 0).done();
    });
    ++cell.runs;
    const auto chan = world->network().aggregate_channel_stats();
    cell.delivered += chan.popped;
    cell.dropped += chan.dropped;
    if (chan.dropped != world->metrics().adversary_losses ||
        chan.popped != world->metrics().deliveries)
      cell.exact = false;
    if (reason == Simulator::StopReason::Predicate) {
      ++cell.completed;
      cell.rounds.add(static_cast<double>(rounds_of(*world)));
    }
  }
  return cell;
}

int run_naive(int n, double loss, int trials, std::uint64_t seed0) {
  int completed = 0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    Simulator world(n, 1, seed);
    for (int i = 0; i < n; ++i)
      world.add_process(std::make_unique<NaivePifProcess>(n - 1));
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(
        seed, sim::LossOptions{.rate = loss, .max_consecutive = 8}));
    dynamic_cast<NaivePifProcess&>(world.process(0))
        .request(Value::integer(t));
    const auto reason = world.run(400'000, [](Simulator& s) {
      return dynamic_cast<NaivePifProcess&>(s.process(0)).done();
    });
    if (reason == Simulator::StopReason::Predicate) ++completed;
  }
  return completed;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 30));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 9000));

  banner("E9: exp_pif_loss", "fair-loss model (§2) vs the naive attempt",
         "Completion and rounds-to-decision under increasing loss: the\n"
         "snap-stabilizing PIF always terminates; the naive attempt's\n"
         "completion rate collapses with the loss rate.");

  TextTable table({"n", "loss", "snap-PIF completed", "snap rounds (mean)",
                   "snap rounds (p95)", "delivered", "dropped",
                   "naive completed"});
  bool snap_always = true;
  bool accounting_exact = true;
  std::uint64_t total_delivered = 0;
  std::uint64_t total_dropped = 0;
  int naive_losses_seen = 0;
  for (int n : {4, 16}) {
    for (double loss : {0.0, 0.05, 0.1, 0.2, 0.4}) {
      const auto snap = run_snap(n, loss, trials,
                                 seed + static_cast<std::uint64_t>(n * 100));
      const int naive = run_naive(n, loss, trials,
                                  seed + static_cast<std::uint64_t>(n * 200));
      if (snap.completed != snap.runs) snap_always = false;
      accounting_exact = accounting_exact && snap.exact;
      total_delivered += snap.delivered;
      total_dropped += snap.dropped;
      if (loss > 0 && naive < trials) ++naive_losses_seen;
      char frac_snap[32];
      std::snprintf(frac_snap, sizeof frac_snap, "%d/%d", snap.completed,
                    snap.runs);
      char frac_naive[32];
      std::snprintf(frac_naive, sizeof frac_naive, "%d/%d", naive, trials);
      table.add_row({TextTable::cell(n), TextTable::cell(loss, 2), frac_snap,
                     snap.rounds.empty()
                         ? "-"
                         : TextTable::cell(snap.rounds.mean(), 1),
                     snap.rounds.empty()
                         ? "-"
                         : TextTable::cell(snap.rounds.percentile(95), 1),
                     TextTable::cell(static_cast<double>(snap.delivered), 0),
                     TextTable::cell(static_cast<double>(snap.dropped), 0),
                     frac_naive});
    }
  }
  table.print();
  verdict(snap_always, "Protocol PIF terminated in every lossy run");
  verdict(naive_losses_seen > 0,
          "the naive attempt deadlocked under loss (as §4.1 predicts)");
  verdict(accounting_exact,
          "channel-level delivered/dropped counts reconciled exactly with "
          "the scheduler's delivery and loss metrics in every run");

  BenchJson json("exp_pif_loss");
  json.set("trials", trials);
  json.set("snap_always_terminated", snap_always);
  json.set("total_delivered", total_delivered);
  json.set("total_dropped", total_dropped);
  json.set("accounting_exact", accounting_exact);
  json.write_if_requested(args);
  return 0;
}
