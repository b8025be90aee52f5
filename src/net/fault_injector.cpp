#include "net/fault_injector.hpp"

#include <algorithm>
#include <cmath>

namespace turq::net {

GilbertElliott::LinkState& GilbertElliott::link(ProcessId src, ProcessId dst) {
  if (src >= n_ || dst >= n_) grow(std::max(src, dst) + 1);
  return links_[static_cast<std::size_t>(src) * n_ + dst];
}

void GilbertElliott::grow(std::uint32_t n) {
  std::vector<LinkState> links(static_cast<std::size_t>(n) * n);
  for (std::size_t src = 0; src < n_; ++src) {
    std::copy_n(links_.begin() + static_cast<std::ptrdiff_t>(src * n_), n_,
                links.begin() + static_cast<std::ptrdiff_t>(src * n));
  }
  links_ = std::move(links);
  n_ = n;
}

bool GilbertElliott::drop(ProcessId src, ProcessId dst, SimTime now,
                          std::size_t) {
  LinkState& state = link(src, dst);
  // Evolve the two-state chain over the elapsed interval: with exponential
  // dwell times, the probability of at least one transition in Δt is
  // 1 - exp(-Δt / mean_dwell); we apply transitions until the remaining
  // budget is exhausted (a thinning approximation adequate at frame rates).
  SimDuration elapsed = now - state.last_update;
  state.last_update = now;
  while (elapsed > 0) {
    const SimDuration dwell =
        state.bad ? params_.mean_bad_dwell : params_.mean_good_dwell;
    const double p_flip =
        1.0 - std::exp(-static_cast<double>(elapsed) / static_cast<double>(dwell));
    if (!rng_.bernoulli(p_flip)) break;
    // Transition occurred at a uniformly chosen point; keep evolving the
    // remainder of the interval from the new state.
    const auto at = static_cast<SimDuration>(rng_.uniform_double() *
                                             static_cast<double>(elapsed));
    state.bad = !state.bad;
    elapsed -= at + 1;
  }
  const double p_loss = state.bad ? params_.loss_bad : params_.loss_good;
  return rng_.bernoulli(p_loss);
}

}  // namespace turq::net
