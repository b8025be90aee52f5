#include "baselines/threshold_coin.hpp"

#include <utility>

#include "common/assert.hpp"

namespace turq::baselines {

Bytes share_message(std::uint8_t type, std::uint32_t round, std::uint8_t vote,
                    const crypto::ThresholdShare& share, std::size_t pad) {
  Writer w;
  w.u8(type);
  w.u32(round);
  w.u8(vote);
  w.u32(share.party);
  w.u64(share.sigma);
  w.u64(share.proof.challenge);
  w.u64(share.proof.response);
  w.bytes(Bytes(pad, 0));
  return w.take();
}

std::optional<crypto::ThresholdShare> decode_share(Reader& r) {
  const auto party = r.u32();
  const auto sigma = r.u64();
  const auto c = r.u64();
  const auto z = r.u64();
  if (!party || !sigma || !c || !z) return std::nullopt;
  return crypto::ThresholdShare{
      .party = *party, .sigma = *sigma, .proof = {.challenge = *c, .response = *z}};
}

ThresholdCoin::ThresholdCoin(runtime::Runtime& rt,
                             const crypto::CostModel& costs,
                             const crypto::ThresholdScheme& scheme,
                             std::string tag, ProcessId id, ShareStats& stats)
    : rt_(rt),
      costs_(costs),
      scheme_(scheme),
      tag_(std::move(tag)),
      id_(id),
      stats_(stats) {}

Bytes ThresholdCoin::name(std::uint32_t round) const {
  Writer w;
  w.str(tag_);
  w.u32(round);
  return w.take();
}

std::optional<crypto::ThresholdShare> ThresholdCoin::reveal(
    std::uint32_t round, Rng& rng) {
  Round& r = rounds_[round];
  if (r.revealed) return std::nullopt;
  r.revealed = true;
  ++stats_.shares_generated;
  rt_.charge(costs_.threshold_share_generate());
  return scheme_.generate_share(id_, name(round), rng);
}

bool ThresholdCoin::add(std::uint32_t round,
                        const crypto::ThresholdShare& share) {
  Round& r = rounds_[round];
  for (const auto& s : r.shares) {
    if (s.party == share.party) return false;
  }
  r.shares.push_back(share);
  if (!r.value.has_value() && r.shares.size() >= scheme_.threshold()) {
    ++stats_.combines;
    rt_.charge(costs_.threshold_combine(scheme_.threshold()));
    const Bytes statement = name(round);
    const auto combined = scheme_.combine(statement, r.shares);
    TURQ_ASSERT(combined.has_value());
    r.value = scheme_.coin_bit(statement, *combined);
  }
  return true;
}

std::optional<bool> ThresholdCoin::value(std::uint32_t round) const {
  const auto it = rounds_.find(round);
  if (it == rounds_.end()) return std::nullopt;
  return it->second.value;
}

}  // namespace turq::baselines
