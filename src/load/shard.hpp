// shard.hpp — the one-simulator-per-worker parallel fan primitive.
//
// Fans seeded jobs across a pool of std::threads, one StringPool installed
// per worker for the worker's lifetime, every job claiming its index from a
// shared counter and writing its result into a job-indexed slot.
// Determinism then rests solely on each job deriving all of its randomness
// from its index — results are identical for any worker count, including
// threads == 1, and the caller folds them in index order so aggregation
// order is fixed too.
//
// Two kinds of caller share this one code path: the experiment binaries
// (bench/exp_*) run N independent seeded trials on it, and the sharded load
// generator (load/workload.hpp) runs N shards of ONE workload (pinned by
// tests/test_trial_runner.cpp and tests/test_load.cpp).
//
// Jobs must return plain data (numbers, POD structs, strings). Returning a
// Value or an Observation would dangle: it carries a StrId into the worker's
// pool, which dies with the worker.
#ifndef SNAPSTAB_LOAD_SHARD_HPP
#define SNAPSTAB_LOAD_SHARD_HPP

#include <atomic>
#include <thread>
#include <type_traits>
#include <vector>

#include "msg/strpool.hpp"

namespace snapstab::load {

// Executes fn(0..jobs-1) across `threads` workers (clamped to [1, jobs]);
// result i is fn(i) regardless of which worker ran it.
template <typename Fn>
auto parallel_shards(int jobs, int threads, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, int>> {
  using Result = std::invoke_result_t<Fn&, int>;
  static_assert(std::is_default_constructible_v<Result>);
  // vector<bool> packs results into shared words — concurrent writes to
  // results[i] from different workers would race. Return a struct instead.
  static_assert(!std::is_same_v<Result, bool>,
                "shard results must not be bool (vector<bool> slots share "
                "words across workers); wrap the flag in a struct");
  std::vector<Result> results(static_cast<std::size_t>(jobs > 0 ? jobs : 0));
  if (jobs <= 0) return results;
  if (threads > jobs) threads = jobs;

  // Work claiming is a single shared counter, not a static partition: every
  // index in [0, jobs) is claimed exactly once whatever the jobs-to-threads
  // ratio, and each result lands in its own index-addressed slot.
  std::atomic<int> next{0};
  const auto worker = [&]() {
    StringPool pool;  // one Simulator + one pool per worker thread
    ScopedStringPool scope(pool);
    for (int i = next.fetch_add(1); i < jobs; i = next.fetch_add(1))
      results[static_cast<std::size_t>(i)] = fn(i);
  };

  if (threads <= 1) {
    worker();
    return results;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) workers.emplace_back(worker);
  for (auto& w : workers) w.join();
  return results;
}

}  // namespace snapstab::load

#endif  // SNAPSTAB_LOAD_SHARD_HPP
