// One-time-programmable fuse bank guarding individual-PUF response taps.
//
// The paper's chips expose each internal arbiter PUF's output through fused
// taps during enrollment; burning the fuses (high current/voltage) before
// deployment makes the taps — and therefore the individual responses the
// modeling attack would need — permanently inaccessible (Sec 3, ref [11]).
#pragma once

#include <cstddef>
#include <vector>

namespace xpuf::sim {

class FuseBank {
 public:
  /// One fuse per guarded tap; all intact initially.
  explicit FuseBank(std::size_t n_fuses);

  std::size_t size() const { return blown_.size(); }

  /// True while the tap is readable.
  bool intact(std::size_t index) const;

  /// Burns every fuse — the pre-deployment step in the paper's Fig 6.
  /// Irreversible; burning an already-blown fuse is a no-op (matches real
  /// eFuse behaviour).
  void blow_all();

  /// True when every fuse is blown (chip is in deployed state).
  bool all_blown() const;

 private:
  std::vector<bool> blown_;
};

}  // namespace xpuf::sim
