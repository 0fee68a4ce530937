// test_exp_common.cpp — the experiments' exit rule: finish() fails the run
// on any [FAIL] verdict or an unwritable --json file, so a CI smoke cannot
// pass on a failed claim. Also pins the --json meta block's CPU count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "../bench/exp_common.hpp"

namespace snapstab::bench {
namespace {

CliArgs args_with_json(const std::string& path) {
  const char* argv[] = {"exp_test", "--json", path.c_str()};
  return CliArgs(3, argv, {"json"});
}

TEST(ExpFinish, PassingVerdictsExitZero) {
  const char* argv[] = {"exp_test"};
  const CliArgs args(1, argv, {"json"});
  verdict(true, "first claim");
  verdict(true, "second claim");
  EXPECT_EQ(finish(BenchJson("exp_test"), args), 0);
}

TEST(ExpFinish, OneFailedVerdictFailsTheRunAndWritesTheJson) {
  const std::string path = testing::TempDir() + "exp_finish.json";
  verdict(true, "a claim that holds");
  verdict(false, "a claim that does not");
  EXPECT_NE(finish(BenchJson("exp_test"), args_with_json(path)), 0);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "the JSON is written even when a verdict failed";
  std::fclose(f);
  std::remove(path.c_str());
  // The count was consumed: the next run starts clean.
  verdict(true, "a later claim");
  EXPECT_EQ(finish(BenchJson("exp_test"), args_with_json(path)), 0);
  std::remove(path.c_str());
}

TEST(ExpFinish, UnwritableJsonFailsTheRun) {
  verdict(true, "a claim that holds");
  const std::string path = testing::TempDir() + "no-such-dir/out.json";
  EXPECT_NE(finish(BenchJson("exp_test"), args_with_json(path)), 0);
}

TEST(ExpJson, MetaRecordsTheHardwareThreadCount) {
  const std::string path = testing::TempDir() + "exp_meta.json";
  ASSERT_EQ(finish(BenchJson("exp_test"), args_with_json(path)), 0);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  const std::string cpus =
      "\"cpus\": " + std::to_string(std::thread::hardware_concurrency()) +
      "\n";
  EXPECT_NE(text.str().find(cpus), std::string::npos) << text.str();
}

}  // namespace
}  // namespace snapstab::bench
