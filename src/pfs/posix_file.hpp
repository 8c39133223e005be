// POSIX-backed file (pread/pwrite on a local path), with an
// O_DIRECT-style aligned read-modify-write mode.  Queue depth comes from
// composition: AsyncQdFile::wrap(PosixFile, n).
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "pfs/file_backend.hpp"
#include "pfs/range_lock.hpp"

namespace llio::pfs {

/// Tuning knobs for PosixFile::open (backend spec `posix:<dir>,direct=1`
/// maps onto these).
struct PosixConfig {
  /// Engage the aligned read-modify-write discipline and request
  /// O_DIRECT.  The RMW path always runs when this is set (so behavior
  /// is identical whether or not the kernel honors the flag); the
  /// O_DIRECT flag itself is best-effort — tmpfs/overlayfs reject it
  /// and the file silently falls back to buffered I/O, which
  /// direct_active() reports.
  bool direct = false;

  /// Block alignment for the direct path: offsets, lengths and bounce
  /// buffers are rounded to this.  Power of two, >= 512.
  Off direct_align = 4096;
};

class PosixFile final : public FileBackend {
 public:
  /// Open (creating if needed) `path` for read/write.  With `truncate`
  /// the file starts empty.
  static std::shared_ptr<PosixFile> open(const std::string& path,
                                         bool truncate = false);
  static std::shared_ptr<PosixFile> open(const std::string& path,
                                         bool truncate,
                                         const PosixConfig& cfg);

  /// Create an anonymous scratch file in `dir`: unique name, unlinked
  /// immediately after open, so the storage vanishes with the handle no
  /// matter how the process exits (bench temp-file lifecycle).
  static std::shared_ptr<PosixFile> open_temp(const std::string& dir,
                                              const PosixConfig& cfg = {});

  ~PosixFile() override;

  Off size() const override;
  void resize(Off new_size) override;
  void sync() override;
  std::optional<AsyncInfo> async_info() const override;

  /// Remove a file from the file system (MPI_File_delete analogue).
  static void remove(const std::string& path);

  const std::string& path() const noexcept { return path_; }
  const PosixConfig& config() const noexcept { return cfg_; }

  /// True when the kernel accepted the O_DIRECT flag.  False either when
  /// cfg.direct is off or when the filesystem rejected the flag (the
  /// aligned RMW path still runs, over buffered I/O).
  bool direct_active() const noexcept { return direct_active_; }

 protected:
  Off do_pread(Off offset, ByteSpan out) override;
  void do_pwrite(Off offset, ConstByteSpan data) override;
  Off do_preadv(std::span<const IoVec> iov) override;
  void do_pwritev(std::span<const ConstIoVec> iov) override;

 private:
  PosixFile(std::string path, int fd, const PosixConfig& cfg,
            bool direct_active, Off initial_size);

  Off read_group_plain(std::span<const IoVec> group);
  void write_group_plain(std::span<const ConstIoVec> group);
  Off read_group_direct(std::span<const IoVec> group);
  void write_group_direct(std::span<const ConstIoVec> group);

  /// pread/pwrite loops: retry EINTR, read short only at end of file.
  Off pread_full(Off offset, ByteSpan out) const;
  void pwrite_full(Off offset, ConstByteSpan data) const;

  std::string path_;
  int fd_;
  PosixConfig cfg_;
  bool direct_active_ = false;

  /// Direct mode tracks the byte count the user actually wrote: aligned
  /// writes round the physical file up to a block boundary, so st_size
  /// over-reports.  size() returns this; reads clamp to it and zero-fill
  /// beyond.  Bytes between here and the physical end are always zero
  /// (every RMW write preserves that invariant).
  std::atomic<Off> logical_size_{0};

  RangeLock edge_lock_;  ///< direct mode: serializes aligned-range writes
};

}  // namespace llio::pfs
