// probes.hpp — fixed-size timed loops over single layers, run after the
// traced phase: the engine's draw and execute, the codec, the wire frame,
// a loopback socket pair and a standalone mailbox.
#ifndef SNAPSTAB_BENCH_PERF_PROBES_HPP
#define SNAPSTAB_BENCH_PERF_PROBES_HPP

#include "perf.hpp"

namespace snapstab::perf {

struct ProbeResult {
  double draw_ns = 0;  // RandomScheduler::next_step
  double execute_ns = 0;  // Simulator::execute
  double encode_ns = 0;  // msg codec
  double decode_ns = 0;
  double frame_encode_ns = 0;  // net wire frame (codec included)
  double frame_decode_ns = 0;
  double sendto_ns = 0;  // loopback UDP, frame-sized datagrams
  double recv_ns = 0;
  double push_ns = 0;  // runtime::Mailbox
  double pop_ns = 0;
  bool ok = true;  // every round trip returned what went in
};

// Runs every probe on a Simulator world of `shape` (its topology, size and
// host layers); message probes use messages sampled from its channels.
// `scale` shrinks the iteration counts (smoke runs).
ProbeResult run_probes(const BackendSpec& shape, double scale);

}  // namespace snapstab::perf

#endif  // SNAPSTAB_BENCH_PERF_PROBES_HPP
