// RAID-0-style striped file: fixed-size stripes dealt round-robin over N
// inner backends.  Models the paper's §4.1 remark that "accessing a file
// system in parallel may increase the accumulated bandwidth if the file
// system is using a storage system with a suitable striping
// configuration": with per-device throttled backends, concurrent
// non-overlapping accesses scale until the devices saturate.
#pragma once

#include <memory>
#include <vector>

#include "pfs/file_backend.hpp"

namespace llio::pfs {

/// Layout policy for StripedFile.
struct StripeLayout {
  /// FFS cylinder-group rotation: row r of stripes (logical stripes
  /// r*nd .. r*nd+nd-1) starts on device r % nd instead of device 0, so
  /// collective IOP windows that all begin at a stripe boundary fan out
  /// across every device instead of hammering device 0 in lockstep.
  bool rotate = false;
};

class StripedFile final : public FileBackend {
 public:
  /// Stripe unit `stripe_bytes` over the given devices (>= 1), classic
  /// layout (no rotation).
  static std::shared_ptr<StripedFile> create(std::vector<FilePtr> devices,
                                             Off stripe_bytes);
  static std::shared_ptr<StripedFile> create(std::vector<FilePtr> devices,
                                             Off stripe_bytes,
                                             const StripeLayout& layout);

  Off size() const override;
  void resize(Off new_size) override;
  void sync() override;
  void set_iov_batch_max(Off n) override {
    FileBackend::set_iov_batch_max(n);
    for (const FilePtr& d : devices_) d->set_iov_batch_max(n);
  }

  int device_count() const { return static_cast<int>(devices_.size()); }
  Off stripe_bytes() const { return stripe_; }
  const StripeLayout& layout() const { return layout_; }

 protected:
  Off do_pread(Off offset, ByteSpan out) override;
  void do_pwrite(Off offset, ConstByteSpan data) override;
  Off do_preadv(std::span<const IoVec> iov) override;
  void do_pwritev(std::span<const ConstIoVec> iov) override;

 private:
  StripedFile(std::vector<FilePtr> devices, Off stripe_bytes,
              const StripeLayout& layout);

  /// Map a logical range onto per-device (offset, length) pieces and
  /// apply `fn(device, dev_off, buf_slice)`.
  template <typename Fn>
  void for_each_piece(Off offset, Off len, Fn&& fn) const;

  /// Which logical stripe (0..nd-1 within its row) device `dev` holds at
  /// device-stripe row `row` — the inverse of the rotation map.
  Off row_stripe(Off dev, Off row) const;

  std::vector<FilePtr> devices_;
  Off stripe_;
  StripeLayout layout_;
};

}  // namespace llio::pfs
