#include "pfs/range_lock.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace llio::pfs {

bool RangeLock::conflicts(Off lo, Off hi, bool shared) const {
  return std::any_of(held_.begin(), held_.end(), [&](const Range& r) {
    return r.lo < hi && lo < r.hi && !(shared && r.shared);
  });
}

void RangeLock::acquire(Off lo, Off hi, bool shared) {
  LLIO_REQUIRE(lo <= hi, Errc::InvalidArgument, "RangeLock: lo > hi");
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return !conflicts(lo, hi, shared); });
  held_.push_back({lo, hi, shared});
}

void RangeLock::release(Off lo, Off hi, bool shared) {
  std::lock_guard lock(mu_);
  const auto it =
      std::find_if(held_.begin(), held_.end(), [&](const Range& r) {
        return r.lo == lo && r.hi == hi && r.shared == shared;
      });
  LLIO_REQUIRE(it != held_.end(), Errc::InvalidArgument,
               "RangeLock: unlock of range not held");
  held_.erase(it);
  cv_.notify_all();
}

}  // namespace llio::pfs
