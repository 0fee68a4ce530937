// idl.hpp — Protocol IDL (Algorithm 2 of the paper): IDs-Learning.
//
// A direct application of Protocol PIF: broadcast the IDL query, collect
// every neighbor's identity in the feedbacks. After one complete (started)
// computation, ID-Tab[q] holds the identity of the neighbor on channel q
// and minID holds the minimum identity of the system — which is how the
// mutual-exclusion layer elects its leader.
//
// Actions (paper numbering):
//   A1  Request = Wait -> Request := In; minID := ID;
//                         PIF.B-Mes := IDL; PIF.Request := Wait     (start)
//   A2  Request = In and PIF.Request = Done -> Request := Done  (terminate)
//   A3  receive-brd<IDL> from q -> PIF.F-Mes[q] := ID
//   A4  receive-fck<qID> from q -> ID-Tab[q] := qID; minID := min(...)
//
// A3/A4 are invoked through the protocol-stack dispatch (svc/host.hpp): a
// received broadcast payload IDL selects A3; a feedback while our own
// PIF.B-Mes is IDL selects A4.
#ifndef SNAPSTAB_CORE_IDL_HPP
#define SNAPSTAB_CORE_IDL_HPP

#include <cstdint>
#include <vector>

#include "core/pif.hpp"
#include "core/request.hpp"

namespace snapstab::core {

class Idl {
 public:
  Idl(std::int64_t own_id, int degree, Pif& pif);

  void request();  // external Request := Wait
  RequestState request_state() const noexcept { return st_.request; }
  bool done() const noexcept { return st_.request == RequestState::Done; }

  std::int64_t own_id() const noexcept { return own_id_; }
  std::int64_t min_id() const noexcept { return st_.min_id; }
  std::int64_t id_tab(int ch) const {
    return st_.id_tab[static_cast<std::size_t>(ch)];
  }

  // Spontaneous actions A1 and A2, in text order.
  void tick(sim::Context& ctx);
  bool tick_enabled() const noexcept;

  // Dispatch targets (see svc/host.hpp).
  Value on_brd(sim::Context& ctx, int ch);                  // A3
  void on_fck(sim::Context& ctx, int ch, const Value& f);   // A4

  void randomize(Rng& rng);

  struct State {
    RequestState request = RequestState::Done;
    std::int64_t min_id = 0;
    std::vector<std::int64_t> id_tab;
  };
  const State& state() const noexcept { return st_; }
  State& mutable_state() noexcept { return st_; }

 private:
  std::int64_t own_id_;
  int degree_;
  Pif& pif_;
  State st_;
};

}  // namespace snapstab::core

#endif  // SNAPSTAB_CORE_IDL_HPP
