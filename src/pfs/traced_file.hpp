// Observability wrapper: records every file access as a trace span
// (llio_trace=full) carrying its position and byte count.
//
// mpiio::File::open wraps its backend in a TracedFile when tracing sits
// at Full, so individual pread/pwrite/preadv/pwritev calls show up as
// slices under the pipeline's window spans; a file-op latency quantile is
// computed from those spans.  Wrapping is per-rank and purely additive:
// calls forward to the shared inner backend, whose own locking and
// statistics still apply.
#pragma once

#include "pfs/file_backend.hpp"
#include "pfs/view_io.hpp"

namespace llio::pfs {

class TracedFile final : public FileBackend, public ViewIo {
 public:
  static std::shared_ptr<TracedFile> wrap(FilePtr inner);

  Off size() const override { return inner_->size(); }
  void resize(Off new_size) override { inner_->resize(new_size); }
  void sync() override { inner_->sync(); }
  void set_iov_batch_max(Off n) override {
    FileBackend::set_iov_batch_max(n);
    inner_->set_iov_batch_max(n);
  }
  std::optional<AsyncInfo> async_info() const override {
    return inner_->async_info();
  }

  /// Purely observational wrapper, so — unlike the cost/fault decorators —
  /// the view-I/O capability is forwarded, interposed so the spans still
  /// see those accesses.  Both forms forward as they are: the stream form
  /// stays unstaged under tracing.
  ViewIo* view_io() override {
    return inner_->view_io() != nullptr ? this : nullptr;
  }
  Off view_write(const dt::Type& filetype, Off disp, Off stream_lo,
                 ConstByteSpan data) override;
  Off view_read(const dt::Type& filetype, Off disp, Off stream_lo,
                ByteSpan out) override;
  Off view_write_stream(const dt::Type& filetype, Off disp, Off stream_lo,
                        Off n, const Fill& fill) override;
  Off view_read_stream(const dt::Type& filetype, Off disp, Off stream_lo,
                       Off n, const Drain& drain) override;

  const FilePtr& inner() const { return inner_; }

 protected:
  Off do_pread(Off offset, ByteSpan out) override;
  void do_pwrite(Off offset, ConstByteSpan data) override;
  Off do_preadv(std::span<const IoVec> iov) override;
  void do_pwritev(std::span<const ConstIoVec> iov) override;

 private:
  explicit TracedFile(FilePtr inner);

  FilePtr inner_;
};

}  // namespace llio::pfs
