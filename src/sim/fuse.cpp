#include "sim/fuse.hpp"

#include "common/error.hpp"

namespace xpuf::sim {

FuseBank::FuseBank(std::size_t n_fuses) : blown_(n_fuses, false) {}

bool FuseBank::intact(std::size_t index) const {
  XPUF_REQUIRE(index < blown_.size(), "fuse index out of range");
  return !blown_[index];
}

void FuseBank::blow_all() {
  for (std::size_t i = 0; i < blown_.size(); ++i) blown_[i] = true;
}

bool FuseBank::all_blown() const {
  for (bool b : blown_)
    if (!b) return false;
  return true;
}

}  // namespace xpuf::sim
