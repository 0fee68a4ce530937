// exp_common.hpp — shared plumbing for the experiment binaries (exp_*).
//
// Every experiment prints: a header naming the experiment and its paper
// anchor, one or more TextTables with the measured rows, and a PASS/FAIL
// verdict where the experiment validates a property. Binaries run with no
// arguments using defaults sized to finish in seconds; sweep parameters are
// adjustable via --flags (see each binary's `kKnownFlags`). Every main ends
// with `return finish(json, args);`, so a [FAIL] verdict fails the run.
#ifndef SNAPSTAB_BENCH_EXP_COMMON_HPP
#define SNAPSTAB_BENCH_EXP_COMMON_HPP

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if __has_include("snapstab_git_sha.hpp")
#include "snapstab_git_sha.hpp"  // SNAPSTAB_GIT_SHA, see cmake/git_stamp.cmake
#endif

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/specs.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/host.hpp"

namespace snapstab::bench {

// Machine-readable result sink: every exp_* binary accepts --json <path>
// and dumps its key metrics as one flat JSON object, so per-PR perf and
// validation trajectories (BENCH_*.json) can be recorded and diffed.
class BenchJson {
 public:
  explicit BenchJson(std::string experiment)
      : experiment_(std::move(experiment)) {}

  void set(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    entries_.emplace_back(key, buf);
  }
  void set(const std::string& key, std::int64_t v) {
    entries_.emplace_back(key, std::to_string(v));
  }
  void set(const std::string& key, int v) {
    set(key, static_cast<std::int64_t>(v));
  }
  void set(const std::string& key, std::uint64_t v) {
    entries_.emplace_back(key, std::to_string(v));
  }
  void set(const std::string& key, bool v) {
    entries_.emplace_back(key, v ? "true" : "false");
  }
  void set(const std::string& key, const std::string& v) {
    entries_.emplace_back(key, "\"" + escaped(v) + "\"");
  }
  void set(const std::string& key, const char* v) {
    set(key, std::string(v));
  }
  // Pre-rendered JSON (an object or array the caller built, e.g. a
  // LoadReport's deterministic block) embedded verbatim under `key`.
  void set_raw(const std::string& key, std::string json) {
    entries_.emplace_back(key, std::move(json));
  }

  // Experiment-specific provenance for the meta block (e.g. the swept
  // topology); compiler/SHA/build type/CPU count are filled in
  // automatically.
  void set_meta(const std::string& key, const std::string& v) {
    meta_.emplace_back(key, "\"" + escaped(v) + "\"");
  }

  // Writes {"experiment": ..., "meta": {...}, "results": {...}} to the
  // --json path, if one was given. Returns false (and complains) when the
  // file cannot be written. The meta block makes every BENCH_*.json entry
  // traceable: git SHA and build type (stamped by CMake), the compiler,
  // the hardware thread count, plus whatever the experiment added via
  // set_meta.
  bool write_if_requested(const CliArgs& args) const {
    if (!args.has("json")) return true;
    const std::string path = args.get("json", "");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --json file %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"experiment\": \"%s\",\n  \"meta\": {",
                 escaped(experiment_).c_str());
    std::vector<std::pair<std::string, std::string>> meta;
    meta.emplace_back("git_sha", "\"" + escaped(kGitSha) + "\"");
    meta.emplace_back("build_type", "\"" + escaped(kBuildType) + "\"");
    meta.emplace_back("compiler", "\"" + escaped(kCompiler) + "\"");
    meta.emplace_back("cpus",
                      std::to_string(std::thread::hardware_concurrency()));
    meta.insert(meta.end(), meta_.begin(), meta_.end());
    for (std::size_t i = 0; i < meta.size(); ++i)
      std::fprintf(f, "%s\n    \"%s\": %s", i == 0 ? "" : ",",
                   escaped(meta[i].first).c_str(), meta[i].second.c_str());
    std::fprintf(f, "\n  },\n  \"results\": {");
    for (std::size_t i = 0; i < entries_.size(); ++i)
      std::fprintf(f, "%s\n    \"%s\": %s", i == 0 ? "" : ",",
                   escaped(entries_[i].first).c_str(),
                   entries_[i].second.c_str());
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("json results written to %s\n", path.c_str());
    return true;
  }

  // Build provenance: the git stamp is the header cmake/git_stamp.cmake
  // writes at build time, the build type a compile definition on the
  // bench targets; both "unknown" outside that build system.
#ifdef SNAPSTAB_GIT_SHA
  static constexpr const char* kGitSha = SNAPSTAB_GIT_SHA;
#else
  static constexpr const char* kGitSha = "unknown";
#endif
#ifdef SNAPSTAB_BUILD_TYPE
  static constexpr const char* kBuildType = SNAPSTAB_BUILD_TYPE;
#else
  static constexpr const char* kBuildType = "unknown";
#endif
#ifdef __VERSION__
  static constexpr const char* kCompiler = "gcc/clang " __VERSION__;
#else
  static constexpr const char* kCompiler = "unknown";
#endif

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\n') {
        out += "\\n";
      } else if (c == '\t') {
        out += "\\t";
      } else if (c == '\r') {
        out += "\\r";
      } else if (u < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", u);
        out += buf;
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string experiment_;
  std::vector<std::pair<std::string, std::string>> entries_;  // key -> json
  std::vector<std::pair<std::string, std::string>> meta_;     // key -> json
};

inline void banner(const char* experiment, const char* anchor,
                   const char* what) {
  std::printf("\n=== %s — %s ===\n%s\n\n", experiment, anchor, what);
}

// [FAIL] verdicts printed since the last finish().
inline int failed_verdicts = 0;

inline void verdict(bool ok, const char* what) {
  if (!ok) ++failed_verdicts;
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
}

// The exit status of an experiment: writes the --json file, if one was
// asked for, and returns non-zero when it could not be written or when any
// verdict since the last finish() failed. Resets the failure count.
inline int finish(const BenchJson& json, const CliArgs& args) {
  const bool written = json.write_if_requested(args);
  const bool passed = std::exchange(failed_verdicts, 0) == 0;
  return written && passed ? 0 : 1;
}

// Worker count for `trials` independent trials fanned out through
// load::parallel_shards: the --threads flag when given (0 = auto), otherwise
// all hardware threads, never more than one per trial. Trials derive all
// randomness from their index, so results do not depend on this count.
inline int trial_thread_count(const CliArgs& args, int trials) {
  int threads = static_cast<int>(args.get_int("threads", 0));
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw != 0 ? static_cast<int>(hw) : 1;
  }
  if (threads > trials) threads = trials;
  return threads > 0 ? threads : 1;
}

// Builds a PIF-only world of n processes over capacity-c channels.
inline std::unique_ptr<sim::Simulator> pif_world(int n, int capacity,
                                                 std::uint64_t seed) {
  return svc::service_world(sim::Topology::complete(n),
                            static_cast<std::size_t>(capacity), seed,
                            /*config_of=*/nullptr);
}

// The PIF layer of process p's host (the PIF experiments drive and poll
// the layer directly).
inline core::Pif& pif_at(sim::Simulator& world, sim::ProcessId p) {
  return world.process_as<svc::ServiceHost>(p).pif();
}

// Builds an ME world with ids 1..n (process 0 is the leader).
inline std::unique_ptr<sim::Simulator> me_world(
    int n, std::uint64_t seed, core::MeOptions options = {}) {
  return svc::service_world(
      sim::Topology::complete(n), 1, seed, [&options](sim::ProcessId p) {
        return svc::HostConfig{.id = p + 1, .with_me = true,
                               .me_options = options};
      });
}

// Round count when the world runs under a RoundRobinScheduler.
inline std::uint64_t rounds_of(sim::Simulator& world) {
  auto* rr = dynamic_cast<sim::RoundRobinScheduler*>(world.scheduler());
  return rr != nullptr ? rr->rounds() : 0;
}

}  // namespace snapstab::bench

#endif  // SNAPSTAB_BENCH_EXP_COMMON_HPP
