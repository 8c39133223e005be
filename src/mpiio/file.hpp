// The public MPI-IO-style file handle.
//
// Mirrors the MPI_File API surface the paper exercises:
//   open / set_view / read_at / write_at / read_at_all / write_at_all,
// plus an individual file pointer (seek / read / write).  The `method`
// option selects the list-based baseline or the listless engine; both
// expose identical semantics, so a workload can be run against either and
// the file images compared byte for byte (our equivalence tests do).
//
// Usage (inside sim::Runtime::run):
//   auto fs = pfs::MemFile::create();
//   auto f  = mpiio::File::open(comm, fs, {.method = Method::Listless});
//   f.set_view(0, dt::byte(), filetype);
//   f.write_at_all(0, buf.data(), n, memtype);
#pragma once

#include <future>
#include <memory>

#include "dtype/datatype.hpp"
#include "mpiio/engine.hpp"
#include "mpiio/info.hpp"
#include "mpiio/io_stats.hpp"
#include "mpiio/options.hpp"
#include "mpiio/view.hpp"
#include "obs/agg.hpp"
#include "pfs/file_backend.hpp"
#include "simmpi/comm.hpp"

namespace llio::mpiio {

/// Handle for a nonblocking independent operation (MPI_Request analogue).
/// wait() returns the bytes moved and rethrows any operation error.  A
/// request dropped or overwritten before wait() blocks until its
/// operation finishes and discards the result: the operation holds raw
/// pointers to the engine and the buffer, so it must not outlive them.
class Request {
 public:
  Request() = default;
  Request(Request&&) noexcept = default;
  Request& operator=(Request&& other) noexcept {
    if (this != &other) {
      drain();
      fut_ = std::move(other.fut_);
    }
    return *this;
  }
  ~Request() { drain(); }

  /// Block until the operation finishes; returns bytes moved.
  Off wait() {
    LLIO_REQUIRE(fut_.valid(), Errc::InvalidArgument,
                 "Request::wait: empty or already-completed request");
    return fut_.get();
  }

  /// True when wait() would not block.
  bool test() const {
    return fut_.valid() &&
           fut_.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  }

  bool valid() const { return fut_.valid(); }

 private:
  friend class File;
  explicit Request(std::future<Off> fut) : fut_(std::move(fut)) {}

  /// Wait without get(): a stored error stays in the shared state.
  void drain() noexcept {
    if (fut_.valid()) fut_.wait();
  }

  std::future<Off> fut_;
};

class File {
 public:
  /// Collective: every rank of `comm` opens the same backend.
  static File open(sim::Comm& comm, pfs::FilePtr backend,
                   const Options& opts = {});

  /// Collective open with MPI_Info-style hints applied on top of `base`.
  static File open(sim::Comm& comm, pfs::FilePtr backend, const Info& info,
                   const Options& base = {});

  File(File&&) noexcept;
  File& operator=(File&&) noexcept;
  ~File();

  /// Collective: install (disp, etype, filetype) and reset the individual
  /// file pointer (MPI_File_set_view semantics).
  void set_view(Off disp, const dt::Type& etype, const dt::Type& filetype);

  const View& view() const;

  // -- explicit-offset accesses (offsets in etype units) -----------------
  Off read_at(Off offset, void* buf, Off count, const dt::Type& memtype);
  Off write_at(Off offset, const void* buf, Off count,
               const dt::Type& memtype);
  Off read_at_all(Off offset, void* buf, Off count, const dt::Type& memtype);
  Off write_at_all(Off offset, const void* buf, Off count,
                   const dt::Type& memtype);

  // -- individual file pointer -------------------------------------------
  enum class Whence { Set, Cur, End };
  void seek(Off offset_etypes, Whence whence = Whence::Set);
  Off tell() const;  ///< current position in etype units
  Off read(void* buf, Off count, const dt::Type& memtype);
  Off write(const void* buf, Off count, const dt::Type& memtype);

  // -- nonblocking independent access (MPI_File_iread_at/iwrite_at) ------
  //
  // The operation runs on a helper thread, overlapping with the caller;
  // operations on one handle serialize against each other (engine-level
  // mutex), so mixing sync and async calls is safe.  The buffer must stay
  // valid until wait(), as MPI requires.  Only independent operations are
  // offered nonblocking: collectives must retain their call order across
  // ranks, which an unsynchronized helper thread cannot guarantee.

  Request iread_at(Off offset, void* buf, Off count, const dt::Type& memtype);
  Request iwrite_at(Off offset, const void* buf, Off count,
                    const dt::Type& memtype);

  // -- split collectives (MPI_File_*_at_all_begin/end) --------------------
  //
  // Implemented synchronously, as MPI permits (and as ROMIO's default
  // does): begin performs the collective eagerly, end returns its result.
  // One split operation may be pending per handle; begin/end pairs must
  // match by buffer.

  void write_at_all_begin(Off offset, const void* buf, Off count,
                          const dt::Type& memtype);
  Off write_at_all_end(const void* buf);
  void read_at_all_begin(Off offset, void* buf, Off count,
                         const dt::Type& memtype);
  Off read_at_all_end(void* buf);

  // -- file management ----------------------------------------------------

  /// File size in bytes (backend view, not the fileview).
  Off size() const;

  /// Collective: truncate/grow the file to exactly `bytes`.
  void set_size(Off bytes);

  /// Collective: ensure the file is at least `bytes` long.
  void preallocate(Off bytes);

  /// Collective: flush to stable storage.
  void sync();

  /// Collective: toggle atomic mode (MPI_File_set_atomicity) — when on,
  /// concurrent overlapping independent accesses are sequentially
  /// consistent (each holds a lock over its whole file span).
  void set_atomicity(bool atomic);
  bool atomicity() const;

  /// Collective: job-level observability close (the MPI_File_close-time
  /// aggregation point).  Every rank flushes its trace buffer and
  /// contributes its cumulative phase decomposition (pack / exchange /
  /// preread / io / wait) and counters; every rank returns the same
  /// obs::JobReport — cross-rank min/median/max per phase, straggler
  /// rank, the backend's psrv and queue-depth engine counters, and the
  /// critical path over the trace (when tracing is on).  Rank 0 writes
  /// the report JSON to Options::report_path when set.  The handle stays
  /// usable afterwards: close() finalizes observability, not the backend
  /// (simulated backends have no OS handle to release).
  obs::JobReport close();

  /// Statistics of this rank's most recent operation.
  const IoOpStats& last_stats() const;

  /// Statistics accumulated across all operations since open.
  const IoOpStats& cumulative_stats() const;
  void reset_cumulative_stats();

  const Options& options() const;

  /// Effective options rendered as hints (MPI_File_get_info).
  Info info() const;

  /// The engine (for engine-specific introspection in benches/tests).
  IoEngine& engine();

 private:
  File(std::unique_ptr<IoEngine> engine, pfs::FilePtr backend);

  /// Advance the individual pointer by the etypes consumed by `bytes`.
  void advance(Off bytes);

  std::unique_ptr<IoEngine> engine_;
  pfs::FilePtr backend_;
  Off pointer_etypes_ = 0;

  enum class SplitState { Idle, Writing, Reading };
  SplitState split_state_ = SplitState::Idle;
  const void* split_buf_ = nullptr;
  Off split_result_ = 0;
};

}  // namespace llio::mpiio
