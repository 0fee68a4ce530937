// test_equivalence.cpp — the refactored engine reproduces the seed.
//
// tests/golden/ holds observation-log traces recorded from the pre-topology
// implementation: dense n×n channel array, schedulers rescanning
// nonempty_channels() per step. The sparse edge-indexed Network and the
// incremental enabled-step index must produce bit-identical executions on
// complete topologies for the same (code, seed, configuration) — the
// enumeration order of candidate steps and the per-step RNG consumption are
// part of the engine's contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "golden_scenarios.hpp"

namespace snapstab {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << path
                            << " (regenerate with tools/record_golden)";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Equivalence, CompleteTopologyRunsMatchSeedRecordedTraces) {
  for (const auto& scenario : golden::scenarios()) {
    SCOPED_TRACE(scenario.file);
    const std::string expected =
        read_file(std::string(SNAPSTAB_GOLDEN_DIR) + "/" + scenario.file);
    ASSERT_FALSE(expected.empty());
    auto sim = scenario.run();
    const std::string actual = golden::render(*sim);
    // Compare line counts first for a readable failure, then the content.
    const auto count_lines = [](const std::string& s) {
      return std::count(s.begin(), s.end(), '\n');
    };
    EXPECT_EQ(count_lines(actual), count_lines(expected));
    EXPECT_EQ(actual, expected);
  }
}

// The two constructors of Simulator are the same world: an explicit
// complete Topology and the historic (n, capacity, seed) form execute
// identically.
TEST(Equivalence, ExplicitCompleteTopologyMatchesHistoricConstructor) {
  const auto run_with = [](bool explicit_topology) {
    auto sim = explicit_topology
                   ? std::make_unique<sim::Simulator>(
                         sim::Topology::complete(5), std::size_t{1}, 21)
                   : std::make_unique<sim::Simulator>(5, 1, 21);
    for (int i = 0; i < 5; ++i)
      sim->add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
          .degree = 4}));
    sim->process_as<svc::ServiceHost>(2).pif().request(Value::integer(7));
    sim->set_scheduler(std::make_unique<sim::RandomScheduler>(21));
    sim->run(100'000, golden::all_pif_done);
    return golden::render(*sim);
  };
  EXPECT_EQ(run_with(true), run_with(false));
}

}  // namespace
}  // namespace snapstab
