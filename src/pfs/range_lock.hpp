// Byte-range lock manager used by data sieving write-back (paper §2.2):
// a sieving write reads a whole file block, patches it, and writes it
// back; the region must be locked so concurrent writers do not clobber
// unrelated bytes in the gaps.  Shared holders (MemFile's in-place
// readers) may overlap each other but no exclusive holder.
#pragma once

#include <condition_variable>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"

namespace llio::pfs {

class RangeLock {
 public:
  /// Block until [lo, hi) is free of other holders, then acquire it.
  void lock(Off lo, Off hi) { acquire(lo, hi, false); }

  /// Block until no exclusive holder overlaps [lo, hi), then acquire it
  /// shared.
  void lock_shared(Off lo, Off hi) { acquire(lo, hi, true); }

  /// Release a previously acquired range (exact match, same mode).
  void unlock(Off lo, Off hi) { release(lo, hi, false); }
  void unlock_shared(Off lo, Off hi) { release(lo, hi, true); }

 private:
  struct Range {
    Off lo, hi;
    bool shared;
  };

  void acquire(Off lo, Off hi, bool shared);
  void release(Off lo, Off hi, bool shared);
  bool conflicts(Off lo, Off hi, bool shared) const;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Range> held_;
};

/// RAII guard for a RangeLock range.
class ScopedRangeLock {
 public:
  ScopedRangeLock(RangeLock& rl, Off lo, Off hi, bool shared = false)
      : rl_(rl), lo_(lo), hi_(hi), shared_(shared) {
    if (shared_)
      rl_.lock_shared(lo_, hi_);
    else
      rl_.lock(lo_, hi_);
  }
  ~ScopedRangeLock() {
    if (shared_)
      rl_.unlock_shared(lo_, hi_);
    else
      rl_.unlock(lo_, hi_);
  }
  ScopedRangeLock(const ScopedRangeLock&) = delete;
  ScopedRangeLock& operator=(const ScopedRangeLock&) = delete;

 private:
  RangeLock& rl_;
  Off lo_, hi_;
  bool shared_;
};

}  // namespace llio::pfs
