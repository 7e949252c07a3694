#include "lesslog/util/bits.hpp"

namespace lesslog::util {

std::string to_binary(std::uint32_t v, int m) {
  assert(valid_width(m));
  std::string out(static_cast<std::size_t>(m), '0');
  for (int i = 0; i < m; ++i) {
    if (test_bit(v, m - 1 - i)) out[static_cast<std::size_t>(i)] = '1';
  }
  return out;
}

}  // namespace lesslog::util
