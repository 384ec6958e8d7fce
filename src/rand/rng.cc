#include "rand/rng.h"

namespace omcast::rnd {
namespace {

// The upper 33 bits of `hi` joined to the lower 31 of `lo`, twisted. The
// matrix term is selected with a mask: libstdc++ 12 writes
// `(y & 1) ? a : 0`, which g++ 12 -O2 compiles to a data-dependent branch
// that mispredicts on about half the words of a refill.
std::uint64_t Twist(std::uint64_t far, std::uint64_t hi, std::uint64_t lo) {
  const std::uint64_t y = (hi & 0xffffffff80000000ULL) | (lo & 0x7fffffffULL);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
}

}  // namespace

void Mt19937_64::Refill() {
  std::size_t k = 0;
  for (; k < kWords - kMiddle; ++k)
    x_[k] = Twist(x_[k + kMiddle], x_[k], x_[k + 1]);
  for (; k < kWords - 1; ++k)
    x_[k] = Twist(x_[k + kMiddle - kWords], x_[k], x_[k + 1]);
  x_[kWords - 1] = Twist(x_[kMiddle - 1], x_[kWords - 1], x_[0]);
  next_ = 0;
}

}  // namespace omcast::rnd
