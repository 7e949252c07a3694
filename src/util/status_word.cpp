#include "lesslog/util/status_word.hpp"

#include <cassert>

namespace lesslog::util {

StatusWord::StatusWord(int m)
    : m_(m), words_((space_size(m) + 63u) / 64u, 0) {
  assert(valid_width(m));
}

StatusWord::StatusWord(int m, std::uint32_t live_count) : StatusWord(m) {
  assert(live_count <= capacity());
  for (std::uint32_t pid = 0; pid < live_count; ++pid) set_live(pid);
}

void StatusWord::set_live(std::uint32_t pid) noexcept {
  assert(pid < capacity());
  std::uint64_t& w = words_[pid >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (pid & 63u);
  if ((w & bit) == 0) {
    w |= bit;
    ++live_;
  }
}

void StatusWord::set_dead(std::uint32_t pid) noexcept {
  assert(pid < capacity());
  std::uint64_t& w = words_[pid >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (pid & 63u);
  if ((w & bit) != 0) {
    w &= ~bit;
    --live_;
  }
}

std::vector<std::uint32_t> StatusWord::live_pids() const {
  std::vector<std::uint32_t> out;
  out.reserve(live_);
  for (std::uint32_t pid = 0; pid < capacity(); ++pid) {
    if (is_live(pid)) out.push_back(pid);
  }
  return out;
}

std::uint32_t StatusWord::first_dead() const noexcept {
  for (std::uint32_t pid = 0; pid < capacity(); ++pid) {
    if (!is_live(pid)) return pid;
  }
  return capacity();
}

}  // namespace lesslog::util
