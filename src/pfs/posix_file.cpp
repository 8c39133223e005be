#include "pfs/posix_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/uio.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "pfs/iovec_util.hpp"

namespace llio::pfs {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw_error(Errc::Io, what + ": " + std::strerror(errno));
}

// Kernel cap on iovec entries per call; stay well below IOV_MAX.
constexpr std::size_t kMaxIov = 512;

/// Bounce buffer whose address satisfies O_DIRECT's memory-alignment
/// requirement (size is always a multiple of the alignment here).
class AlignedBuf {
 public:
  AlignedBuf(Off align, Off size)
      : size_(to_size(size)),
        p_(static_cast<Byte*>(std::aligned_alloc(to_size(align), size_))) {
    LLIO_REQUIRE(p_ != nullptr, Errc::Io, "PosixFile: aligned_alloc failed");
  }
  ~AlignedBuf() { std::free(p_); }
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;

  Byte* data() noexcept { return p_; }
  ByteSpan span() noexcept { return {p_, size_}; }
  ConstByteSpan cspan() const noexcept { return {p_, size_}; }

 private:
  std::size_t size_;
  Byte* p_;
};

Off group_len(std::span<const IoVec> group) {
  Off n = 0;
  for (const IoVec& v : group) n += to_off(v.buf.size());
  return n;
}

Off group_len(std::span<const ConstIoVec> group) {
  Off n = 0;
  for (const ConstIoVec& v : group) n += to_off(v.buf.size());
  return n;
}

}  // namespace

PosixFile::PosixFile(std::string path, int fd, const PosixConfig& cfg,
                     bool direct_active, Off initial_size)
    : path_(std::move(path)),
      fd_(fd),
      cfg_(cfg),
      direct_active_(direct_active),
      logical_size_(initial_size) {}

std::shared_ptr<PosixFile> PosixFile::open(const std::string& path,
                                           bool truncate) {
  return open(path, truncate, PosixConfig{});
}

std::shared_ptr<PosixFile> PosixFile::open(const std::string& path,
                                           bool truncate,
                                           const PosixConfig& cfg) {
  LLIO_REQUIRE(!cfg.direct || (cfg.direct_align >= 512 &&
                               (cfg.direct_align &
                                (cfg.direct_align - 1)) == 0),
               Errc::InvalidArgument,
               "PosixFile: direct_align must be a power of two >= 512");
  int flags = O_RDWR | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  int fd = -1;
  bool direct_active = false;
#if defined(O_DIRECT)
  if (cfg.direct) {
    // Best-effort: tmpfs/overlayfs reject O_DIRECT with EINVAL — fall
    // back to buffered I/O while keeping the aligned RMW discipline.
    fd = ::open(path.c_str(), flags | O_DIRECT, 0644);
    direct_active = fd >= 0;
  }
#endif
  if (fd < 0) fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) throw_errno("open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat " + path);
  }
  return std::shared_ptr<PosixFile>(new PosixFile(
      path, fd, cfg, direct_active, static_cast<Off>(st.st_size)));
}

std::shared_ptr<PosixFile> PosixFile::open_temp(const std::string& dir,
                                                const PosixConfig& cfg) {
  std::string tmpl = dir + "/llio-posix-XXXXXX";
  std::vector<char> name(tmpl.begin(), tmpl.end());
  name.push_back('\0');
  const int tfd = ::mkstemp(name.data());
  if (tfd < 0) throw_errno("mkstemp " + tmpl);
  ::close(tfd);
  const std::string path(name.data());
  auto file = open(path, true, cfg);
  if (::unlink(path.c_str()) != 0) throw_errno("unlink " + path);
  return file;
}

PosixFile::~PosixFile() {
  if (fd_ >= 0) ::close(fd_);
}

Off PosixFile::size() const {
  if (cfg_.direct) return logical_size_.load(std::memory_order_acquire);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) throw_errno("fstat " + path_);
  return static_cast<Off>(st.st_size);
}

void PosixFile::resize(Off new_size) {
  LLIO_REQUIRE(new_size >= 0, Errc::InvalidArgument,
               "PosixFile: negative size");
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0)
    throw_errno("ftruncate " + path_);
  logical_size_.store(new_size, std::memory_order_release);
}

void PosixFile::sync() {
  if (::fsync(fd_) != 0) throw_errno("fsync " + path_);
}

void PosixFile::remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0) throw_errno("unlink " + path);
}

std::optional<AsyncInfo> PosixFile::async_info() const {
  // Synchronous, but report direct mode so an AsyncQdFile over this
  // file (or a bench reading it) can show it.
  if (!cfg_.direct) return std::nullopt;
  AsyncInfo info;
  info.direct = true;
  return info;
}

// ---- full-length syscall loops ----------------------------------------

Off PosixFile::pread_full(Off offset, ByteSpan out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset) +
                                  static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread " + path_);
    }
    if (n == 0) break;  // EOF
    done += static_cast<std::size_t>(n);
  }
  return to_off(done);
}

void PosixFile::pwrite_full(Off offset, ConstByteSpan data) const {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset) +
                                   static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pwrite " + path_);
    }
    done += static_cast<std::size_t>(n);
  }
}

// ---- scalar entry points -----------------------------------------------

Off PosixFile::do_pread(Off offset, ByteSpan out) {
  if (cfg_.direct) {
    const IoVec one[1] = {{offset, out}};
    return read_group_direct(one);
  }
  return pread_full(offset, out);
}

void PosixFile::do_pwrite(Off offset, ConstByteSpan data) {
  if (cfg_.direct) {
    const ConstIoVec one[1] = {{offset, data}};
    write_group_direct(one);
    return;
  }
  pwrite_full(offset, data);
}

// ---- vectored entry points ---------------------------------------------
//
// Both split the batch into file-contiguous groups of at most kMaxIov
// segments and run them in order on the calling thread: one vectored
// syscall per group, or the aligned-RMW path in direct mode.

Off PosixFile::do_preadv(std::span<const IoVec> iov) {
  Off total = 0;
  for (std::size_t i = 0; i < iov.size();) {
    const std::size_t j = contig_group_end(iov, i, kMaxIov);
    const std::span<const IoVec> group = iov.subspan(i, j - i);
    total += cfg_.direct ? read_group_direct(group) : read_group_plain(group);
    i = j;
  }
  return total;
}

void PosixFile::do_pwritev(std::span<const ConstIoVec> iov) {
  for (std::size_t i = 0; i < iov.size();) {
    const std::size_t j = contig_group_end(iov, i, kMaxIov);
    const std::span<const ConstIoVec> group = iov.subspan(i, j - i);
    if (cfg_.direct)
      write_group_direct(group);
    else
      write_group_plain(group);
    i = j;
  }
}

// ---- plain (buffered) group I/O ----------------------------------------

#if defined(__linux__)

Off PosixFile::read_group_plain(std::span<const IoVec> group) {
  // One preadv2 run per contiguous group; memory may be scattered.
  std::vector<struct iovec> vs;
  vs.reserve(group.size());
  const off_t group_off = static_cast<off_t>(group.front().offset);
  for (const IoVec& v : group) vs.push_back({v.buf.data(), v.buf.size()});
  const Off len = group_len(group);
  Off done = 0;
  while (done < len) {
    // Advance the iovec array past `done` consumed bytes.
    std::size_t k = 0;
    Off skip = done;
    while (k < vs.size() && skip >= to_off(vs[k].iov_len))
      skip -= to_off(vs[k].iov_len), ++k;
    struct iovec first = vs[k];
    first.iov_base = static_cast<char*>(first.iov_base) + skip;
    first.iov_len -= to_size(skip);
    std::vector<struct iovec> rest(vs.begin() + static_cast<long>(k),
                                   vs.end());
    rest[0] = first;
    const ssize_t n =
        ::preadv2(fd_, rest.data(), static_cast<int>(rest.size()),
                  group_off + static_cast<off_t>(done), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("preadv2 " + path_);
    }
    if (n == 0) break;  // EOF: zero-fill the rest of the group
    done += static_cast<Off>(n);
  }
  // Zero-fill any group tail past EOF.
  Off fill_from = done;
  for (std::size_t k = 0; k < vs.size(); ++k) {
    const Off seg = to_off(vs[k].iov_len);
    if (fill_from < seg)
      std::memset(static_cast<char*>(vs[k].iov_base) + fill_from, 0,
                  to_size(seg - fill_from));
    fill_from = std::max<Off>(0, fill_from - seg);
  }
  return done;
}

void PosixFile::write_group_plain(std::span<const ConstIoVec> group) {
  std::vector<struct iovec> vs;
  vs.reserve(group.size());
  const off_t group_off = static_cast<off_t>(group.front().offset);
  for (const ConstIoVec& v : group)
    vs.push_back({const_cast<Byte*>(v.buf.data()), v.buf.size()});
  const Off len = group_len(group);
  Off done = 0;
  while (done < len) {
    std::size_t k = 0;
    Off skip = done;
    while (k < vs.size() && skip >= to_off(vs[k].iov_len))
      skip -= to_off(vs[k].iov_len), ++k;
    struct iovec first = vs[k];
    first.iov_base = static_cast<char*>(first.iov_base) + skip;
    first.iov_len -= to_size(skip);
    std::vector<struct iovec> rest(vs.begin() + static_cast<long>(k),
                                   vs.end());
    rest[0] = first;
    const ssize_t n =
        ::pwritev2(fd_, rest.data(), static_cast<int>(rest.size()),
                   group_off + static_cast<off_t>(done), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pwritev2 " + path_);
    }
    done += static_cast<Off>(n);
  }
}

#else  // !__linux__: per-segment loops, same EOF semantics

Off PosixFile::read_group_plain(std::span<const IoVec> group) {
  Off total = 0;
  for (const IoVec& v : group) {
    const Off got = pread_full(v.offset, v.buf);
    if (got < to_off(v.buf.size()))
      std::memset(v.buf.data() + got, 0, v.buf.size() - to_size(got));
    total += got;
  }
  return total;
}

void PosixFile::write_group_plain(std::span<const ConstIoVec> group) {
  for (const ConstIoVec& v : group) pwrite_full(v.offset, v.buf);
}

#endif

// ---- direct (aligned RMW) group I/O ------------------------------------
//
// Reads clamp to the logical size, stage the aligned covering range in a
// bounce buffer, and scatter into the segment buffers; no lock is needed
// because a concurrent writer holds the aligned-range lock for the whole
// read-patch-write cycle and only ever changes bytes the contract says a
// racing reader may not depend on.  Writes lock the aligned covering
// range, read back partial edge blocks (the sieve's RMW discipline at
// block granularity), gather, and issue one aligned write.

Off PosixFile::read_group_direct(std::span<const IoVec> group) {
  const Off off = group.front().offset;
  const Off len = group_len(group);
  const Off logical = logical_size_.load(std::memory_order_acquire);
  const Off readable = std::clamp<Off>(logical - off, 0, len);
  if (readable > 0) {
    const Off align = cfg_.direct_align;
    const Off a0 = round_down(off, align);
    const Off a1 = round_up(off + readable, align);
    AlignedBuf buf(align, a1 - a0);
    const Off got = pread_full(a0, buf.span());
    if (got < a1 - a0)
      std::memset(buf.data() + got, 0, to_size(a1 - a0 - got));
    Off at = off - a0;
    Off remaining = readable;
    for (const IoVec& v : group) {
      const Off want = to_off(v.buf.size());
      const Off n = std::min(want, remaining);
      if (n > 0) std::memcpy(v.buf.data(), buf.data() + at, to_size(n));
      if (n < want)
        std::memset(v.buf.data() + n, 0, to_size(want - n));
      at += want;
      remaining -= n;
    }
  } else {
    for (const IoVec& v : group)
      std::memset(v.buf.data(), 0, v.buf.size());
  }
  return readable;
}

void PosixFile::write_group_direct(std::span<const ConstIoVec> group) {
  const Off off = group.front().offset;
  const Off len = group_len(group);
  if (len == 0) return;
  const Off align = cfg_.direct_align;
  const Off a0 = round_down(off, align);
  const Off a1 = round_up(off + len, align);
  ScopedRangeLock hold(edge_lock_, a0, a1);
  AlignedBuf buf(align, a1 - a0);
  const Off head = off - a0;
  const Off tail = a1 - (off + len);
  // Preserve partial edge blocks: read them back under the range lock,
  // zeroing anything past the physical end.
  const auto fetch_block = [&](Off blk) {
    ByteSpan dst{buf.data() + (blk - a0), to_size(align)};
    const Off got = pread_full(blk, dst);
    if (got < align)
      std::memset(dst.data() + got, 0, to_size(align - got));
  };
  if (head > 0) fetch_block(a0);
  if (tail > 0 && (head == 0 || a1 - align != a0)) fetch_block(a1 - align);
  Off at = head;
  for (const ConstIoVec& v : group) {
    std::memcpy(buf.data() + at, v.buf.data(), v.buf.size());
    at += to_off(v.buf.size());
  }
  pwrite_full(a0, buf.cspan());
  // Publish the new logical end (monotonic max).
  const Off end = off + len;
  Off cur = logical_size_.load(std::memory_order_relaxed);
  while (cur < end && !logical_size_.compare_exchange_weak(
                          cur, end, std::memory_order_acq_rel)) {
  }
}

}  // namespace llio::pfs
