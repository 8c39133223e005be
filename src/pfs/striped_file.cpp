#include "pfs/striped_file.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace llio::pfs {

StripedFile::StripedFile(std::vector<FilePtr> devices, Off stripe_bytes,
                         const StripeLayout& layout)
    : devices_(std::move(devices)), stripe_(stripe_bytes), layout_(layout) {}

std::shared_ptr<StripedFile> StripedFile::create(std::vector<FilePtr> devices,
                                                 Off stripe_bytes) {
  return create(std::move(devices), stripe_bytes, StripeLayout{});
}

std::shared_ptr<StripedFile> StripedFile::create(std::vector<FilePtr> devices,
                                                 Off stripe_bytes,
                                                 const StripeLayout& layout) {
  LLIO_REQUIRE(!devices.empty(), Errc::InvalidArgument,
               "StripedFile: no devices");
  for (const FilePtr& d : devices)
    LLIO_REQUIRE(d != nullptr, Errc::InvalidArgument,
                 "StripedFile: null device");
  LLIO_REQUIRE(stripe_bytes > 0, Errc::InvalidArgument,
               "StripedFile: non-positive stripe size");
  return std::shared_ptr<StripedFile>(
      new StripedFile(std::move(devices), stripe_bytes, layout));
}

Off StripedFile::row_stripe(Off dev, Off row) const {
  if (!layout_.rotate) return dev;
  const Off nd = static_cast<Off>(devices_.size());
  Off k = (dev - row) % nd;
  if (k < 0) k += nd;
  return k;
}

template <typename Fn>
void StripedFile::for_each_piece(Off offset, Off len, Fn&& fn) const {
  const Off nd = static_cast<Off>(devices_.size());
  Off at = offset;
  Off remaining = len;
  Off buf_off = 0;
  while (remaining > 0) {
    const Off stripe_idx = at / stripe_;
    const Off within = at % stripe_;
    const Off row = stripe_idx / nd;  // device-stripe row
    const Off k = stripe_idx % nd;    // position within the row
    // FFS cylinder-group rotation: row r starts on device r % nd.
    const Off dev = layout_.rotate ? (k + row) % nd : k;
    const Off n = std::min(remaining, stripe_ - within);
    fn(to_size(dev), row * stripe_ + within, buf_off, n);
    at += n;
    buf_off += n;
    remaining -= n;
  }
}

Off StripedFile::do_pread(Off offset, ByteSpan out) {
  // Logical EOF: reads stop at the striped size.
  const Off fsize = size();
  if (offset >= fsize) return 0;
  const Off len = std::min<Off>(to_off(out.size()), fsize - offset);
  Off got_total = 0;
  for_each_piece(offset, len, [&](std::size_t dev, Off dev_off, Off buf_off,
                                  Off n) {
    const Off got = devices_[dev]->pread(
        dev_off, ByteSpan(out.data() + buf_off, to_size(n)));
    if (got < n)  // hole within a device: zero-fill
      std::memset(out.data() + buf_off + got, 0, to_size(n - got));
    got_total += n;
  });
  return got_total;
}

void StripedFile::do_pwrite(Off offset, ConstByteSpan data) {
  for_each_piece(offset, to_off(data.size()),
                 [&](std::size_t dev, Off dev_off, Off buf_off, Off n) {
                   devices_[dev]->pwrite(
                       dev_off,
                       ConstByteSpan(data.data() + buf_off, to_size(n)));
                 });
}

Off StripedFile::do_preadv(std::span<const IoVec> iov) {
  // Split every logical segment into per-device pieces and issue one
  // vectored read per device, preserving segment order within a device.
  const Off fsize = size();
  std::vector<std::vector<IoVec>> per_dev(devices_.size());
  Off total = 0;
  for (const IoVec& v : iov) {
    const Off want = to_off(v.buf.size());
    const Off len =
        v.offset >= fsize ? 0 : std::min<Off>(want, fsize - v.offset);
    if (len < want)  // past logical EOF: zero-fill
      std::memset(v.buf.data() + len, 0, to_size(want - len));
    for_each_piece(v.offset, len,
                   [&](std::size_t dev, Off dev_off, Off buf_off, Off n) {
                     per_dev[dev].push_back(
                         {dev_off,
                          ByteSpan(v.buf.data() + buf_off, to_size(n))});
                     total += n;
                   });
  }
  for (std::size_t d = 0; d < per_dev.size(); ++d)
    if (!per_dev[d].empty()) devices_[d]->preadv(per_dev[d]);
  return total;
}

void StripedFile::do_pwritev(std::span<const ConstIoVec> iov) {
  std::vector<std::vector<ConstIoVec>> per_dev(devices_.size());
  for (const ConstIoVec& v : iov)
    for_each_piece(v.offset, to_off(v.buf.size()),
                   [&](std::size_t dev, Off dev_off, Off buf_off, Off n) {
                     per_dev[dev].push_back(
                         {dev_off,
                          ConstByteSpan(v.buf.data() + buf_off, to_size(n))});
                   });
  for (std::size_t d = 0; d < per_dev.size(); ++d)
    if (!per_dev[d].empty()) devices_[d]->pwritev(per_dev[d]);
}

Off StripedFile::size() const {
  // Reconstruct the logical size from per-device sizes: at device-stripe
  // row r, device d holds logical stripe r*nd + row_stripe(d, r) (the
  // rotation inverse; identity without rotation).  The logical stripe
  // number grows strictly with the row, so only the last row matters.
  const Off nd = static_cast<Off>(devices_.size());
  Off logical = 0;
  for (Off d = 0; d < nd; ++d) {
    const Off s = devices_[to_size(d)]->size();
    if (s == 0) continue;
    const Off full = s / stripe_;
    const Off rem = s % stripe_;
    // The last (possibly partial) device stripe ends at this logical off:
    const Off last_row = full - (rem == 0 ? 1 : 0);
    const Off tail = rem == 0 ? stripe_ : rem;
    const Off end =
        (last_row * nd + row_stripe(d, last_row)) * stripe_ + tail;
    logical = std::max(logical, end);
  }
  return logical;
}

void StripedFile::resize(Off new_size) {
  LLIO_REQUIRE(new_size >= 0, Errc::InvalidArgument,
               "StripedFile: negative size");
  const Off nd = static_cast<Off>(devices_.size());
  for (Off d = 0; d < nd; ++d) {
    // Bytes of device d below logical new_size: full rounds contribute a
    // stripe each; in the partial last round (row = full_rounds) device d
    // holds logical stripe row_stripe(d, full_rounds) of that row.
    const Off full_rounds = new_size / (stripe_ * nd);
    const Off rem = new_size % (stripe_ * nd);
    Off dev_size = full_rounds * stripe_;
    const Off rem_start = row_stripe(d, full_rounds) * stripe_;
    if (rem > rem_start)
      dev_size += std::min(stripe_, rem - rem_start);
    devices_[to_size(d)]->resize(dev_size);
  }
}

void StripedFile::sync() {
  for (const FilePtr& d : devices_) d->sync();
}

}  // namespace llio::pfs
