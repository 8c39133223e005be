// RAM-backed file shared among rank-threads.
#pragma once

#include <shared_mutex>
#include <vector>

#include "pfs/file_backend.hpp"
#include "pfs/range_lock.hpp"

namespace llio::pfs {

/// In-memory file.  An access inside the current size holds `mu_` shared
/// plus a byte-range lock on the [lo, hi) hull of its call (one per
/// pread/pwrite or vectored batch): shared for reads, exclusive for
/// writes.  So non-overlapping accesses proceed in parallel, as on a fast
/// local file system, while a read that overlaps a concurrent write sees
/// each of the write's bytes either wholly old or wholly new.  Growth
/// takes `mu_` exclusive.
class MemFile final : public FileBackend {
 public:
  static std::shared_ptr<MemFile> create(Off initial_size = 0);

  Off size() const override;
  void resize(Off new_size) override;

  /// Snapshot of the whole contents (test helper).
  ByteVec contents() const;

 protected:
  Off do_pread(Off offset, ByteSpan out) override;
  void do_pwrite(Off offset, ConstByteSpan data) override;
  Off do_preadv(std::span<const IoVec> iov) override;
  void do_pwritev(std::span<const ConstIoVec> iov) override;

 private:
  explicit MemFile(Off initial_size);

  mutable std::shared_mutex mu_;  ///< shared: in place; exclusive: resize
  RangeLock ranges_;              ///< byte ranges of in-place accesses
  /// Zero-initialising, unlike ByteVec: holes and growth read as zero.
  std::vector<Byte> data_;
};

}  // namespace llio::pfs
