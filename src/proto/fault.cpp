#include "lesslog/proto/fault.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lesslog::proto {

namespace {

[[nodiscard]] bool valid_probability(double p) noexcept {
  return p >= 0.0 && p <= 1.0;  // rejects NaN too
}

[[nodiscard]] std::uint64_t link_key(core::Pid from, core::Pid to) noexcept {
  return (std::uint64_t{from.value()} << 30) | to.value();
}

}  // namespace

const char* fault_kind_name(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kBurstLoss: return "burst_loss";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelaySpike: return "delay_spike";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kPartition: return "partition";
  }
  return "???";
}

FaultRule FaultRule::burst_loss(double start, double stop,
                                double p_good_to_bad, double p_bad_to_good,
                                double loss_bad, double loss_good) {
  FaultRule r;
  r.kind = FaultKind::kBurstLoss;
  r.start = start;
  r.stop = stop;
  r.p_good_to_bad = p_good_to_bad;
  r.p_bad_to_good = p_bad_to_good;
  r.loss_bad = loss_bad;
  r.loss_good = loss_good;
  return r;
}

FaultRule FaultRule::duplicate(double start, double stop,
                               double probability) {
  FaultRule r;
  r.kind = FaultKind::kDuplicate;
  r.start = start;
  r.stop = stop;
  r.probability = probability;
  return r;
}

FaultRule FaultRule::delay_spike(double start, double stop,
                                 double probability, double extra_delay) {
  FaultRule r;
  r.kind = FaultKind::kDelaySpike;
  r.start = start;
  r.stop = stop;
  r.probability = probability;
  r.extra_delay = extra_delay;
  return r;
}

FaultRule FaultRule::corrupt(double start, double stop, double probability) {
  FaultRule r;
  r.kind = FaultKind::kCorrupt;
  r.start = start;
  r.stop = stop;
  r.probability = probability;
  return r;
}

FaultRule FaultRule::partition(double start, double stop,
                               std::vector<std::uint32_t> group) {
  FaultRule r;
  r.kind = FaultKind::kPartition;
  r.start = start;
  r.stop = stop;
  r.group = std::move(group);
  return r;
}

void FaultPlan::validate() const {
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const FaultRule& r = rules[i];
    const auto fail = [&](const std::string& why) {
      throw std::invalid_argument("FaultPlan rule " + std::to_string(i) +
                                  " (" + fault_kind_name(r.kind) +
                                  "): " + why);
    };
    if (std::isnan(r.start) || r.start < 0.0) {
      fail("start must be a non-negative time");
    }
    if (std::isnan(r.stop) || r.stop <= r.start) {
      fail("stop must be after start");
    }
    switch (r.kind) {
      case FaultKind::kBurstLoss:
        if (!valid_probability(r.p_good_to_bad) ||
            !valid_probability(r.p_bad_to_good)) {
          fail("transition probabilities must be in [0, 1]");
        }
        if (!valid_probability(r.loss_good) ||
            !valid_probability(r.loss_bad)) {
          fail("loss rates must be in [0, 1]");
        }
        break;
      case FaultKind::kDuplicate:
      case FaultKind::kCorrupt:
        if (!valid_probability(r.probability)) {
          fail("probability must be in [0, 1]");
        }
        break;
      case FaultKind::kDelaySpike:
        if (!valid_probability(r.probability)) {
          fail("probability must be in [0, 1]");
        }
        if (std::isnan(r.extra_delay) || r.extra_delay <= 0.0 ||
            std::isinf(r.extra_delay)) {
          fail("extra_delay must be a positive finite time");
        }
        break;
      case FaultKind::kPartition:
        if (r.group.empty()) fail("partition group must be non-empty");
        break;
    }
  }
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(plan_.seed ^ 0xC4A05'F417ULL),
      active_(plan_.rules.size(), false),
      link_state_(plan_.rules.size()),
      generation_(plan_.rules.size(), 0) {
  // Partition membership tests binary-search the group.
  for (FaultRule& r : plan_.rules) {
    if (r.kind == FaultKind::kPartition) {
      std::sort(r.group.begin(), r.group.end());
    }
  }
}

void FaultInjector::activate(std::size_t rule_index) {
  assert(rule_index < active_.size());
  if (!active_[rule_index]) {
    active_[rule_index] = true;
    ++active_count_;
    // Each opening of the window is a new generation: chains seeded under
    // it never replay a previous window's streams.
    ++generation_[rule_index];
  }
}

void FaultInjector::deactivate(std::size_t rule_index) {
  assert(rule_index < active_.size());
  if (active_[rule_index]) {
    active_[rule_index] = false;
    --active_count_;
    // A healed burst window forgets its link states: the next window
    // starts every chain Good again.
    link_state_[rule_index].clear();
  }
}

bool FaultInjector::in_group(const std::vector<std::uint32_t>& group,
                             std::uint32_t pid) const noexcept {
  return std::binary_search(group.begin(), group.end(), pid);
}

bool FaultInjector::partition_blocks(core::Pid from, core::Pid to) {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    if (!active_[i]) continue;
    const FaultRule& r = plan_.rules[i];
    if (r.kind != FaultKind::kPartition) continue;
    if (in_group(r.group, from.value()) != in_group(r.group, to.value())) {
      ++stats_.partition_dropped;
      return true;
    }
  }
  return false;
}

bool FaultInjector::duplicate() {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    if (!active_[i] || plan_.rules[i].kind != FaultKind::kDuplicate) continue;
    if (rng_.bernoulli(plan_.rules[i].probability)) {
      ++stats_.duplicated;
      return true;
    }
  }
  return false;
}

std::uint64_t FaultInjector::chain_seed(std::size_t rule_index,
                                        std::uint64_t key) const noexcept {
  // A short splitmix walk folding in every scoping ingredient; each
  // intermediate call avalanches the previous XOR before the next one.
  std::uint64_t x = plan_.seed ^ 0xC4A05'F417ULL;
  x ^= util::splitmix64(x) ^ (static_cast<std::uint64_t>(rule_index) + 1);
  x ^= util::splitmix64(x) ^ generation_[rule_index];
  x ^= util::splitmix64(x) ^ key;
  return util::splitmix64(x);
}

bool FaultInjector::burst_drop(core::Pid from, core::Pid to) {
  bool lost = false;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    if (!active_[i] || plan_.rules[i].kind != FaultKind::kBurstLoss) continue;
    const FaultRule& r = plan_.rules[i];
    const std::uint64_t key = link_key(from, to);
    auto it = link_state_[i].find(key);
    if (it == link_state_[i].end()) {
      // First datagram on this link under this window: materialize the
      // chain Good with its own deterministic stream. Loss and state
      // advance draw from that stream only, so the chain depends solely
      // on how many datagrams this link has carried — not on traffic
      // elsewhere in the network (shard-count invariance).
      it = link_state_[i]
               .emplace(key, LinkChain{util::Rng(chain_seed(i, key)), false})
               .first;
    }
    LinkChain& chain = it->second;
    // Loss is decided by the current state, then the chain advances — so
    // a chain that flips Good->Bad on this datagram starts losing at the
    // *next* datagram on the link (the classic Gilbert–Elliott step).
    if (chain.rng.bernoulli(chain.bad ? r.loss_bad : r.loss_good)) {
      lost = true;
    }
    chain.bad = chain.rng.bernoulli(chain.bad ? 1.0 - r.p_bad_to_good
                                              : r.p_good_to_bad);
  }
  if (lost) ++stats_.burst_dropped;
  return lost;
}

bool FaultInjector::corrupt(WireBuffer& wire) {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    if (!active_[i] || plan_.rules[i].kind != FaultKind::kCorrupt) continue;
    if (!rng_.bernoulli(plan_.rules[i].probability)) continue;
    // Scramble one random byte, then force the type tag invalid (valid
    // tags are 1..14) so the receiver's decode is guaranteed to reject:
    // a corrupted datagram must never be delivered as a valid message.
    wire[rng_.bounded(wire.size())] ^=
        static_cast<std::uint8_t>(1 + rng_.bounded(255));
    wire[8] |= 0x80;
    ++stats_.corrupted;
    return true;
  }
  return false;
}

double FaultInjector::delay_spike() {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    if (!active_[i] || plan_.rules[i].kind != FaultKind::kDelaySpike) {
      continue;
    }
    if (rng_.bernoulli(plan_.rules[i].probability)) {
      ++stats_.delay_spikes;
      return plan_.rules[i].extra_delay;
    }
  }
  return 0.0;
}

double FaultInjector::jitter(double magnitude) {
  return magnitude > 0.0 ? rng_.uniform01() * magnitude : 0.0;
}

}  // namespace lesslog::proto
