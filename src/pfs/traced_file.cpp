#include "pfs/traced_file.hpp"

#include "common/error.hpp"
#include "obs/phase.hpp"

namespace llio::pfs {

namespace {

/// One file op: a Full-level span carrying its position and byte count.
/// `seconds` is the phase's field; nothing reads it.
struct FileOp {
  double seconds = 0;
  obs::Phase phase;

  explicit FileOp(const char* span)
      : phase(seconds, span, obs::TraceLevel::Full) {}

  void done(const char* key, Off where, Off bytes) {
    phase.arg(key, where);
    phase.arg("bytes", bytes);
  }
};

}  // namespace

TracedFile::TracedFile(FilePtr inner) : inner_(std::move(inner)) {}

std::shared_ptr<TracedFile> TracedFile::wrap(FilePtr inner) {
  LLIO_REQUIRE(inner != nullptr, Errc::InvalidArgument,
               "TracedFile: null inner backend");
  return std::shared_ptr<TracedFile>(new TracedFile(std::move(inner)));
}

Off TracedFile::do_pread(Off offset, ByteSpan out) {
  FileOp op("file_pread");
  const Off n = inner_->pread(offset, out);
  op.done("offset", offset, n);
  return n;
}

void TracedFile::do_pwrite(Off offset, ConstByteSpan data) {
  FileOp op("file_pwrite");
  inner_->pwrite(offset, data);
  op.done("offset", offset, to_off(data.size()));
}

Off TracedFile::do_preadv(std::span<const IoVec> iov) {
  FileOp op("file_preadv");
  const Off n = inner_->preadv(iov);
  op.done("segments", to_off(iov.size()), n);
  return n;
}

void TracedFile::do_pwritev(std::span<const ConstIoVec> iov) {
  FileOp op("file_pwritev");
  inner_->pwritev(iov);
  Off total = 0;
  for (const ConstIoVec& v : iov) total += to_off(v.buf.size());
  op.done("segments", to_off(iov.size()), total);
}

namespace {
ViewIo& inner_view_io(const FilePtr& inner) {
  ViewIo* vio = inner->view_io();
  LLIO_REQUIRE(vio != nullptr, Errc::Unsupported,
               "TracedFile: inner backend lost its view-io capability");
  return *vio;
}
}  // namespace

Off TracedFile::view_write(const dt::Type& filetype, Off disp, Off stream_lo,
                           ConstByteSpan data) {
  ViewIo& vio = inner_view_io(inner_);
  FileOp op("file_view_write");
  const Off n = vio.view_write(filetype, disp, stream_lo, data);
  op.done("stream_lo", stream_lo, n);
  note_write(n);
  return n;
}

Off TracedFile::view_read(const dt::Type& filetype, Off disp, Off stream_lo,
                          ByteSpan out) {
  ViewIo& vio = inner_view_io(inner_);
  FileOp op("file_view_read");
  const Off n = vio.view_read(filetype, disp, stream_lo, out);
  op.done("stream_lo", stream_lo, n);
  note_read(n);
  return n;
}

Off TracedFile::view_write_stream(const dt::Type& filetype, Off disp,
                                  Off stream_lo, Off n, const Fill& fill) {
  ViewIo& vio = inner_view_io(inner_);
  FileOp op("file_view_write");
  const Off got = vio.view_write_stream(filetype, disp, stream_lo, n, fill);
  op.done("stream_lo", stream_lo, got);
  note_write(got);
  return got;
}

Off TracedFile::view_read_stream(const dt::Type& filetype, Off disp,
                                 Off stream_lo, Off n, const Drain& drain) {
  ViewIo& vio = inner_view_io(inner_);
  FileOp op("file_view_read");
  const Off got = vio.view_read_stream(filetype, disp, stream_lo, n, drain);
  op.done("stream_lo", stream_lo, got);
  note_read(got);
  return got;
}

}  // namespace llio::pfs
