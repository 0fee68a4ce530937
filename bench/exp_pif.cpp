// exp_pif — Protocol PIF against each of the paper's PIF claims.
//
// Three sections, every table row folded from one trial function:
//
//  1. Cost (E8 + E7). Rounds and messages of one computation under the
//     synchronous round-robin daemon: vs n, clean vs corrupted start (§4.1:
//     rounds stay O(1) in n, messages grow Θ(n), corruption adds a constant
//     of stale fuel), and vs the channel capacity c (the §4 remark: flag
//     range {0..2c+2}, fuzzed Specification-1 checks per c). Then the
//     mismatch attack: a protocol believing c' < c channels can be fooled.
//  2. Snap (E3 + E6). Theorem 2: Specification-1 violations from fuzzed
//     initial configurations under loss, plus Property 1 (the terminated
//     computation flushed markers planted in the initiator's channels).
//  3. Loss (E9). Fair loss (§2): Protocol PIF retransmits until each
//     handshake completes, so it terminates under any loss rate < 1; the
//     naive §4.1 attempt sends each message once and deadlocks on a loss.
//
// Each sweep keeps its own base seed and trial count (scaling 5000/20,
// capacity 7000/25, snap 1000/60, loss 9000/30). --trials overrides every
// count; --seed is an offset added to every base seed. Trials fan out
// through load::parallel_shards, so results do not depend on --threads.
// --json keys are prefixed by sweep: scaling.*, capacity.*, snap.*, loss.*.
#include "baselines/naive_pif.hpp"
#include "exp_common.hpp"
#include "load/shard.hpp"

namespace snapstab::bench {
namespace {

using sim::Simulator;

struct Cell {
  int n = 2;
  int c = 1;
  // RandomScheduler seeded seed + 1 instead of RoundRobinScheduler(seed).
  bool random = false;
  sim::LossOptions loss{};
  // Seed of the fuzz Rng as a function of the trial seed; null = clean start.
  std::uint64_t (*fuzz_seed)(std::uint64_t seed) = nullptr;
  // Plant Property-1 markers in the initiator's incident channels.
  bool markers = false;
};

struct Trial {
  bool completed = false;
  std::uint64_t rounds = 0;
  std::uint64_t steps = 0;
  std::uint64_t sends = 0;
  bool spec_ok = false;
  int property1_failures = 0;
  // Channel-level delivered/dropped counts equal the scheduler's delivery
  // and loss metrics.
  bool accounting_exact = false;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

Trial run_trial(const Cell& cell, std::uint64_t seed) {
  Trial out;
  auto world = pif_world(cell.n, cell.c, seed);
  if (cell.fuzz_seed != nullptr) {
    Rng rng(cell.fuzz_seed(seed));
    sim::fuzz(*world, rng, {.flag_limit = 2 * cell.c + 2});
  }
  auto& net = world->network();
  const Value marker = Value::text("ghost-marker");
  if (cell.markers) {
    // Replaces whatever fuzz put there: still an arbitrary configuration.
    for (int other = 1; other < cell.n; ++other) {
      net.channel(other, 0).clear();
      net.channel(0, other).clear();
      net.channel(other, 0).push(Message::pif(marker, marker, 2, 2));
      net.channel(0, other).push(Message::pif(marker, marker, 1, 0));
    }
  }
  if (cell.random)
    world->set_scheduler(
        std::make_unique<sim::RandomScheduler>(seed + 1, cell.loss));
  else
    world->set_scheduler(
        std::make_unique<sim::RoundRobinScheduler>(seed, cell.loss));
  pif_at(*world, 0).request(Value::integer(static_cast<int>(seed)));
  const auto reason = world->run(5'000'000, [](Simulator& s) {
    return pif_at(s, 0).done();
  });

  const auto chan = net.aggregate_channel_stats();
  out.delivered = chan.popped;
  out.dropped = chan.dropped;
  out.accounting_exact = chan.dropped == world->metrics().adversary_losses &&
                         chan.popped == world->metrics().deliveries;
  if (reason != Simulator::StopReason::Predicate) return out;
  out.completed = true;
  out.rounds = rounds_of(*world);
  out.steps = world->step_count();
  out.sends = world->metrics().sends;
  out.spec_ok = core::check_pif_spec(*world, {.require_termination = false,
                                              .require_start = false})
                    .ok();
  if (cell.markers) {
    for (int other = 1; other < cell.n; ++other) {
      for (const auto& m : net.channel(other, 0).contents())
        if (m.b == marker) ++out.property1_failures;
      for (const auto& m : net.channel(0, other).contents())
        if (m.b == marker) ++out.property1_failures;
    }
  }
  return out;
}

std::vector<Trial> run_cell(const Cell& cell, int trials, std::uint64_t seed0,
                            int threads) {
  return load::parallel_shards(trials, threads, [&](int t) {
    return run_trial(cell, seed0 + static_cast<std::uint64_t>(t));
  });
}

std::uint64_t fuzz_x31(std::uint64_t seed) { return seed * 31; }
std::uint64_t fuzz_x7(std::uint64_t seed) { return seed * 7; }
std::uint64_t fuzz_f00d(std::uint64_t seed) { return seed ^ 0xF00D; }

// The flags every section reads.
struct Sweep {
  const CliArgs& args;
  std::uint64_t seed_offset;

  int trials(int fallback) const {
    return static_cast<int>(args.get_int("trials", fallback));
  }
  std::uint64_t seed(std::uint64_t base) const { return base + seed_offset; }
};

void cost_section(const Sweep& sweep, BenchJson& json) {
  banner("E8 + E7: cost",
         "Protocol PIF complexity (§4.1) and capacity c (§4)",
         "Rounds and messages for one PIF computation under the synchronous\n"
         "daemon, vs n (clean vs corrupted start) and vs the capacity c; and\n"
         "what happens when the believed bound is wrong.");

  const int trials_n = sweep.trials(20);
  const int threads_n = trial_thread_count(sweep.args, trials_n);
  const int max_n = static_cast<int>(sweep.args.get_int("max-n", 64));
  std::printf("--- vs n (capacity 1) ---\n");
  TextTable by_n({"n", "initial config", "rounds (mean)", "rounds (max)",
                  "msgs sent (mean)", "msgs/n", "failures"});
  bool constant_rounds = true;
  double rounds_n2 = 0;
  for (int n = 2; n <= max_n; n *= 2) {
    for (const bool corrupted : {false, true}) {
      const Cell cell{.n = n, .fuzz_seed = corrupted ? fuzz_x31 : nullptr};
      Summary rounds;
      Summary sends;
      int failures = 0;
      for (const auto& t :
           run_cell(cell, trials_n,
                    sweep.seed(5000) + static_cast<std::uint64_t>(n),
                    threads_n)) {
        if (!t.completed) {
          ++failures;
          continue;
        }
        rounds.add(static_cast<double>(t.rounds));
        sends.add(static_cast<double>(t.sends));
      }
      if (n == 2 && !corrupted) rounds_n2 = rounds.mean();
      if (!corrupted && rounds.mean() > rounds_n2 * 4) constant_rounds = false;
      by_n.add_row({TextTable::cell(n), corrupted ? "arbitrary" : "clean",
                    TextTable::cell(rounds.mean(), 1),
                    TextTable::cell(rounds.max(), 0),
                    TextTable::cell(sends.mean(), 1),
                    TextTable::cell(sends.mean() / n, 1),
                    TextTable::cell(failures)});
    }
  }
  by_n.print();
  verdict(constant_rounds,
          "round complexity is O(1) in n (parallel per-neighbor handshakes)");
  json.set("scaling.trials", trials_n);
  json.set("scaling.threads", threads_n);
  json.set("scaling.max_n", max_n);
  json.set("scaling.rounds_mean_n2_clean", rounds_n2);
  json.set("scaling.constant_rounds", constant_rounds);

  const int trials_c = sweep.trials(25);
  const int threads_c = trial_thread_count(sweep.args, trials_c);
  std::printf("\n--- vs c (matching bound): validation and cost ---\n");
  TextTable by_c({"capacity c", "flag range", "n", "runs", "violations",
                  "rounds (mean)", "msgs (mean)"});
  int total_violations = 0;
  for (int c : {1, 2, 4, 8}) {
    for (int n : {2, 8}) {
      const Cell cell{.n = n, .c = c, .fuzz_seed = fuzz_x7};
      Summary rounds;
      Summary sends;
      int violations = 0;
      for (const auto& t : run_cell(
               cell, trials_c,
               sweep.seed(7000) + static_cast<std::uint64_t>(c * 100 + n),
               threads_c)) {
        if (!t.completed || !t.spec_ok) ++violations;
        if (!t.completed) continue;
        rounds.add(static_cast<double>(t.rounds));
        sends.add(static_cast<double>(t.sends));
      }
      total_violations += violations;
      char range[24];
      std::snprintf(range, sizeof range, "{0..%d}", 2 * c + 2);
      by_c.add_row({TextTable::cell(c), range, TextTable::cell(n),
                    TextTable::cell(trials_c), TextTable::cell(violations),
                    TextTable::cell(rounds.mean(), 1),
                    TextTable::cell(sends.mean(), 0)});
    }
  }
  by_c.print();

  // The mismatch attack of test_capacity: channels hold `real` messages,
  // the protocol believes `believed`; stale flags 0.. fill the channel to
  // p, then one tick, `real` deliveries and a tick. A ghost decision is p
  // deciding on that stale fuel alone.
  std::printf(
      "\n--- Mismatched bound: the attack of Theorem 1's boundary ---\n");
  TextTable attack({"believed c'", "real capacity", "ghost decision?"});
  bool under_fooled = false;
  bool exact_safe = true;
  for (int believed : {1, 2}) {
    for (int real : {1, 2, 4, 8}) {
      Simulator world(2, static_cast<std::size_t>(real), 1);
      for (int i = 0; i < 2; ++i)
        world.add_process(std::make_unique<svc::ServiceHost>(
            svc::HostConfig{.degree = 1, .channel_capacity = believed}));
      for (std::int32_t flag = 0; flag < 2 * believed + 2 && flag < real;
           ++flag)
        world.network().channel(1, 0).push(
            Message::pif(Value::text("stale"), Value::text("stale"), 0, flag));
      pif_at(world, 0).request(Value::text("real"));
      world.execute(sim::Step::tick(0));
      for (int i = 0; i < real; ++i) world.execute(sim::Step::deliver(1, 0));
      world.execute(sim::Step::tick(0));
      const bool fooled = pif_at(world, 0).done();
      if (real > 2 * believed + 1 && fooled) under_fooled = true;
      if (real <= believed && fooled) exact_safe = false;
      attack.add_row({TextTable::cell(believed), TextTable::cell(real),
                      fooled ? "YES" : "no"});
    }
  }
  attack.print();

  verdict(total_violations == 0,
          "Specification 1 held for every capacity with a matching bound");
  verdict(under_fooled,
          "underestimating the capacity admits ghost decisions (the bound "
          "must be known, exactly as Theorem 1 requires)");
  verdict(exact_safe, "a correct bound was never fooled");
  json.set("capacity.trials", trials_c);
  json.set("capacity.threads", threads_c);
  json.set("capacity.total_violations", total_violations);
  json.set("capacity.under_fooled", under_fooled);
  json.set("capacity.exact_safe", exact_safe);
}

void snap_section(const Sweep& sweep, BenchJson& json) {
  banner("E3/E6: snap",
         "Theorem 2 (Protocol PIF is snap-stabilizing) + Property 1",
         "Specification-1 violations across fuzzed initial configurations,\n"
         "loss rates and system sizes; plus Property-1 channel flushing.");

  const int trials = sweep.trials(60);
  const int threads = trial_thread_count(sweep.args, trials);
  TextTable table({"n", "initial config", "loss", "runs", "spec violations",
                   "Property-1 failures", "steps to decide",
                   "messages sent"});
  int total_violations = 0;
  int total_p1 = 0;
  for (int n : {2, 3, 5, 8}) {
    for (const bool corrupted : {false, true}) {
      for (const double loss : {0.0, 0.2}) {
        const Cell cell{.n = n,
                        .random = true,
                        .loss = {.rate = loss, .max_consecutive = 6},
                        .fuzz_seed = corrupted ? fuzz_f00d : nullptr,
                        .markers = true};
        Summary steps;
        Summary messages;
        int violations = 0;
        int p1 = 0;
        for (const auto& t :
             run_cell(cell, trials,
                      sweep.seed(1000) + static_cast<std::uint64_t>(n) * 7919,
                      threads)) {
          if (!t.completed || !t.spec_ok) ++violations;
          p1 += t.property1_failures;
          if (!t.completed) continue;
          steps.add(static_cast<double>(t.steps));
          messages.add(static_cast<double>(t.sends));
        }
        total_violations += violations;
        total_p1 += p1;
        table.add_row({TextTable::cell(n), corrupted ? "arbitrary" : "clean",
                       TextTable::cell(loss, 2), TextTable::cell(trials),
                       TextTable::cell(violations), TextTable::cell(p1),
                       steps.brief(), messages.brief()});
      }
    }
  }
  table.print();
  verdict(total_violations == 0,
          "zero Specification-1 violations: every started computation was "
          "correct from the first request");
  verdict(total_p1 == 0,
          "Property 1 held: terminated computations flushed the "
          "initiator's channels");
  json.set("snap.trials", trials);
  json.set("snap.total_violations", total_violations);
  json.set("snap.property1_failures", total_p1);
}

// Completed runs of the naive §4.1 attempt (each message sent once).
int naive_completed(int n, double loss, int trials, std::uint64_t seed0,
                    int threads) {
  using baselines::NaivePifProcess;
  int completed = 0;
  for (const int done : load::parallel_shards(trials, threads, [&](int t) {
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
         return reason == Simulator::StopReason::Predicate ? 1 : 0;
       }))
    completed += done;
  return completed;
}

void loss_section(const Sweep& sweep, BenchJson& json) {
  banner("E9: loss", "fair-loss model (§2) vs the naive attempt",
         "Completion and rounds-to-decision under increasing loss: the\n"
         "snap-stabilizing PIF always terminates; the naive attempt's\n"
         "completion rate collapses with the loss rate.");

  const int trials = sweep.trials(30);
  const int threads = trial_thread_count(sweep.args, trials);
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
      const Cell cell{.n = n, .loss = {.rate = loss, .max_consecutive = 8}};
      Summary rounds;
      int completed = 0;
      std::uint64_t delivered = 0;
      std::uint64_t dropped = 0;
      for (const auto& t : run_cell(
               cell, trials,
               sweep.seed(9000) + static_cast<std::uint64_t>(n * 100),
               threads)) {
        delivered += t.delivered;
        dropped += t.dropped;
        accounting_exact = accounting_exact && t.accounting_exact;
        if (!t.completed) continue;
        ++completed;
        rounds.add(static_cast<double>(t.rounds));
      }
      const int naive = naive_completed(
          n, loss, trials,
          sweep.seed(9000) + static_cast<std::uint64_t>(n * 200), threads);
      if (completed != trials) snap_always = false;
      total_delivered += delivered;
      total_dropped += dropped;
      if (loss > 0 && naive < trials) ++naive_losses_seen;
      char frac_snap[32];
      std::snprintf(frac_snap, sizeof frac_snap, "%d/%d", completed, trials);
      char frac_naive[32];
      std::snprintf(frac_naive, sizeof frac_naive, "%d/%d", naive, trials);
      table.add_row(
          {TextTable::cell(n), TextTable::cell(loss, 2), frac_snap,
           rounds.empty() ? "-" : TextTable::cell(rounds.mean(), 1),
           rounds.empty() ? "-" : TextTable::cell(rounds.percentile(95), 1),
           TextTable::cell(static_cast<double>(delivered), 0),
           TextTable::cell(static_cast<double>(dropped), 0), frac_naive});
    }
  }
  table.print();
  verdict(snap_always, "Protocol PIF terminated in every lossy run");
  verdict(naive_losses_seen > 0,
          "the naive attempt deadlocked under loss (as §4.1 predicts)");
  verdict(accounting_exact,
          "channel-level delivered/dropped counts reconciled exactly with "
          "the scheduler's delivery and loss metrics in every run");
  json.set("loss.trials", trials);
  json.set("loss.snap_always_terminated", snap_always);
  json.set("loss.total_delivered", total_delivered);
  json.set("loss.total_dropped", total_dropped);
  json.set("loss.accounting_exact", accounting_exact);
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "max-n", "threads", "json"});
  const Sweep sweep{args, static_cast<std::uint64_t>(args.get_int("seed", 0))};
  BenchJson json("exp_pif");
  cost_section(sweep, json);
  snap_section(sweep, json);
  loss_section(sweep, json);
  return finish(json, args);
}
