// exp_impossibility — Experiment E2: Theorem 1, executed.
//
// Runs the paper's impossibility construction against our own Protocol ME:
// on unbounded channels the stuffed initial configuration drives both
// requesting processes into the critical section concurrently; on channels
// with a known bound the configuration is not installable and the fair run
// keeps the guarantee.
#include "exp_common.hpp"
#include "impossibility/construction.hpp"

int main(int argc, char** argv) {
  snapstab::CliArgs args(argc, argv, {"seed", "json"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  snapstab::bench::banner(
      "E2: exp_impossibility",
      "Theorem 1 (no snap-stabilization with unbounded channels)",
      "Records the bad factor, stuffs it into an initial configuration,\n"
      "replays it to a mutual-exclusion violation; then shows the bounded\n"
      "counterfactual.");

  std::printf("--- Unbounded channels: the construction succeeds ---\n");
  const auto unbounded =
      snapstab::impossibility::run_unbounded_construction(seed);
  for (const auto& line : unbounded.narrative)
    std::printf("  %s\n", line.c_str());

  snapstab::TextTable table({"setting", "stuffed q->p", "stuffed p->q",
                             "refused", "replay mismatches",
                             "ME violated?"});
  table.add_row({"unbounded",
                 snapstab::TextTable::cell(unbounded.preloaded_to_p),
                 snapstab::TextTable::cell(unbounded.preloaded_to_q),
                 snapstab::TextTable::cell(unbounded.preload_refused),
                 snapstab::TextTable::cell(unbounded.replay_mismatches),
                 unbounded.both_in_cs_concurrently ? "YES (as proved)"
                                                   : "no"});

  std::printf("\n--- Bounded channels: the construction collapses ---\n");
  for (std::size_t capacity : {1u, 2u}) {
    const auto bounded =
        snapstab::impossibility::run_bounded_counterfactual(capacity, seed);
    for (const auto& line : bounded.narrative)
      std::printf("  %s\n", line.c_str());
    char name[32];
    std::snprintf(name, sizeof name, "capacity %zu", capacity);
    table.add_row({name, snapstab::TextTable::cell(bounded.preloaded_to_p),
                   snapstab::TextTable::cell(bounded.preloaded_to_q),
                   snapstab::TextTable::cell(bounded.preload_refused),
                   "-",
                   bounded.both_in_cs_concurrently ? "YES (bug!)" : "no"});
  }
  std::printf("\n");
  table.print();

  snapstab::bench::verdict(unbounded.both_in_cs_concurrently,
                           "unbounded channels reproduce the bad factor");
  snapstab::bench::verdict(unbounded.replay_mismatches == 0,
                           "the replay was byte-exact");

  snapstab::bench::BenchJson json("exp_impossibility");
  json.set("both_in_cs_concurrently", unbounded.both_in_cs_concurrently);
  json.set("replay_mismatches",
           static_cast<std::int64_t>(unbounded.replay_mismatches));
  return snapstab::bench::finish(json, args);
}
