// Storage substrate: the file abstraction the MPI-IO layer accesses.
//
// The paper's platform is the NEC SX local file system (~6.5 GB/s write,
// ~8 GB/s read sustained).  We substitute:
//   * MemFile      - RAM-backed, shared among rank-threads; reproduces the
//                    paper's regime where storage is fast relative to the
//                    CPU/memory work of datatype handling.
//   * PosixFile    - real pread/pwrite on a local path.
//   * ThrottledFile- wraps any backend with a bandwidth/latency cost model
//                    to explore the opposite regime (slow storage).
//
// All backends are thread-safe for non-overlapping concurrent accesses and
// track access statistics (ops and bytes, read and write).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/bytes.hpp"

namespace llio::pfs {

class ViewIo;

struct FileStats {
  std::uint64_t read_ops = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t write_bytes = 0;
};

/// One segment of a vectored read: fill `buf` from file offset `offset`.
struct IoVec {
  Off offset = 0;
  ByteSpan buf;
};

/// One segment of a vectored write: store `buf` at file offset `offset`.
struct ConstIoVec {
  Off offset = 0;
  ConstByteSpan buf;
};

/// Lifetime counters of an AsyncIo submission engine (pfs/async_io.hpp).
struct AsyncIoStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t inflight_peak = 0;  ///< max ops concurrently in flight
  double op_s = 0;                  ///< summed per-op wall time
};

/// What an async-capable backend reports through async_info(): the
/// configured queue depth, whether O_DIRECT is actually engaged, and the
/// engine's since-open counters (shared by every handle on the backend).
struct AsyncInfo {
  int queue_depth = 1;
  bool direct = false;
  AsyncIoStats stats;
};

class FileBackend {
 public:
  virtual ~FileBackend() = default;

  /// Read up to out.size() bytes at `offset`; returns bytes read (short
  /// reads only at end of file).
  Off pread(Off offset, ByteSpan out);

  /// Write data at `offset`, growing the file as needed.
  void pwrite(Off offset, ConstByteSpan data);

  /// Batched scatter read: fill every segment from its file offset in one
  /// call, zero-filling the bytes past end of file.  Returns the number of
  /// bytes actually read from the file (the rest were zero-filled).
  /// Counts as a single read op in the stats.
  Off preadv(std::span<const IoVec> iov);

  /// Batched gather write: store every segment at its file offset in one
  /// call, growing the file as needed.  Counts as a single write op.
  void pwritev(std::span<const ConstIoVec> iov);

  virtual Off size() const = 0;

  /// Grow or shrink the file to exactly `new_size` bytes.
  virtual void resize(Off new_size) = 0;

  /// Flush buffered data to stable storage (no-op for memory backends).
  virtual void sync() {}

  /// Batch ceiling for vectored accesses: the public preadv/pwritev
  /// wrappers normalize oversized or messy batches (drop zero-length
  /// segments, coalesce adjacent runs) and split them into successive
  /// do_preadv/do_pwritev calls of at most this many segments.  0
  /// (default) = unbounded, leaving standalone backends bit-identical to
  /// the pre-batching behavior.  File::open seeds this from
  /// Options::iov_batch_max; decorators forward it inward so every layer
  /// splits identically.
  virtual void set_iov_batch_max(Off n) {
    iov_batch_max_.store(n, std::memory_order_relaxed);
  }
  Off iov_batch_max() const {
    return iov_batch_max_.load(std::memory_order_relaxed);
  }

  /// Optional capability: execute whole-fileview accesses on the storage
  /// side (see pfs/view_io.hpp).  A backend that can replay a serialized
  /// datatype tree remotely returns itself; everything else (including
  /// decorators that model storage cost or inject faults — they must see
  /// every byte, so the capability is deliberately masked) returns null
  /// and the engines fall back to pread/pwrite through this object.
  virtual ViewIo* view_io() { return nullptr; }

  /// Optional capability: the backend runs a queue-depth async submission
  /// engine (AsyncQdFile) or direct I/O (PosixFile in direct mode).
  /// Purely observational — decorators forward inward so engines and
  /// benches can report queue depth and in-flight statistics no matter
  /// how the stack is wrapped.
  virtual std::optional<AsyncInfo> async_info() const { return std::nullopt; }

  FileStats stats() const;
  void reset_stats();

 protected:
  virtual Off do_pread(Off offset, ByteSpan out) = 0;
  virtual void do_pwrite(Off offset, ConstByteSpan data) = 0;

  /// Default vectored implementations loop over do_pread/do_pwrite;
  /// backends override for a genuinely batched path.
  virtual Off do_preadv(std::span<const IoVec> iov);
  virtual void do_pwritev(std::span<const ConstIoVec> iov);

  /// The generic per-segment loop (with EOF zero-fill for reads), for
  /// wrappers that want the base behavior explicitly.
  Off preadv_fallback(std::span<const IoVec> iov);
  void pwritev_fallback(std::span<const ConstIoVec> iov);

  /// Account one operation performed outside the pread/pwrite wrappers —
  /// the ViewIo capability path goes straight to view_write/view_read, so
  /// the implementing backend calls these to keep FileStats truthful.
  void note_read(Off bytes);
  void note_write(Off bytes);

 private:
  std::atomic<std::uint64_t> read_ops_{0}, read_bytes_{0};
  std::atomic<std::uint64_t> write_ops_{0}, write_bytes_{0};
  std::atomic<Off> iov_batch_max_{0};
};

using FilePtr = std::shared_ptr<FileBackend>;

}  // namespace llio::pfs
