#include "pfs/mem_file.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace llio::pfs {

namespace {

/// [lo, hi) hull of a batch's segments; lo >= hi when it has no bytes.
template <class Vec>
std::pair<Off, Off> hull(std::span<const Vec> iov) {
  Off lo = std::numeric_limits<Off>::max();
  Off hi = 0;
  for (const Vec& v : iov) {
    lo = std::min(lo, v.offset);
    hi = std::max(hi, v.offset + to_off(v.buf.size()));
  }
  return {lo, hi};
}

}  // namespace

MemFile::MemFile(Off initial_size) : data_(to_size(initial_size)) {}

std::shared_ptr<MemFile> MemFile::create(Off initial_size) {
  LLIO_REQUIRE(initial_size >= 0, Errc::InvalidArgument,
               "MemFile: negative initial size");
  return std::shared_ptr<MemFile>(new MemFile(initial_size));
}

Off MemFile::size() const {
  std::shared_lock lock(mu_);
  return to_off(data_.size());
}

void MemFile::resize(Off new_size) {
  LLIO_REQUIRE(new_size >= 0, Errc::InvalidArgument,
               "MemFile: negative size");
  std::unique_lock lock(mu_);
  data_.resize(to_size(new_size));
}

ByteVec MemFile::contents() const {
  std::unique_lock lock(mu_);  // excludes every in-place writer
  return ByteVec(data_.begin(), data_.end());
}

Off MemFile::do_pread(Off offset, ByteSpan out) {
  std::shared_lock lock(mu_);
  const Off fsize = to_off(data_.size());
  if (offset >= fsize) return 0;
  const Off n = std::min<Off>(to_off(out.size()), fsize - offset);
  ScopedRangeLock range(ranges_, offset, offset + n, /*shared=*/true);
  std::memcpy(out.data(), data_.data() + offset, to_size(n));
  return n;
}

void MemFile::do_pwrite(Off offset, ConstByteSpan data) {
  const ConstIoVec one{offset, data};
  do_pwritev(std::span<const ConstIoVec>(&one, 1));
}

Off MemFile::do_preadv(std::span<const IoVec> iov) {
  std::shared_lock lock(mu_);  // one lock acquisition for the whole batch
  const Off fsize = to_off(data_.size());
  const auto [lo, hi] = hull(iov);
  std::optional<ScopedRangeLock> range;
  if (lo < std::min(hi, fsize))
    range.emplace(ranges_, lo, std::min(hi, fsize), /*shared=*/true);
  Off total = 0;
  for (const IoVec& v : iov) {
    const Off want = to_off(v.buf.size());
    const Off n = v.offset >= fsize ? 0 : std::min<Off>(want, fsize - v.offset);
    if (n > 0) std::memcpy(v.buf.data(), data_.data() + v.offset, to_size(n));
    if (n < want) std::memset(v.buf.data() + n, 0, to_size(want - n));
    total += n;
  }
  return total;
}

void MemFile::do_pwritev(std::span<const ConstIoVec> iov) {
  // One lock acquisition (and at most one resize) per batch.  MPI-IO
  // leaves the data of conflicting concurrent accesses undefined, but the
  // byte store itself must not be a C++ data race against readers.
  const auto [lo, hi] = hull(iov);
  auto store = [&] {
    for (const ConstIoVec& v : iov)
      if (!v.buf.empty())
        std::memcpy(data_.data() + v.offset, v.buf.data(), v.buf.size());
  };
  {
    std::shared_lock lock(mu_);
    if (hi <= to_off(data_.size())) {
      if (lo >= hi) return;
      ScopedRangeLock range(ranges_, lo, hi);
      store();
      return;
    }
  }
  std::unique_lock lock(mu_);
  if (hi > to_off(data_.size())) data_.resize(to_size(hi));
  store();
}

}  // namespace llio::pfs
