#include "pfs/traced_file.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace llio::pfs {

namespace {

/// One file op: a Full-level span plus, with metrics on, its latency
/// (µs) and bytes histograms.  `seconds` is the phase's field; nothing
/// reads it.
struct FileOp {
  double seconds = 0;
  obs::Phase phase;
  const char* bytes_hist;

  FileOp(const char* span, const char* latency, const char* bytes)
      : phase(seconds, span, obs::TraceLevel::Full,
              obs::metrics_enabled()
                  ? &obs::Registry::instance().histogram(latency)
                  : nullptr),
        bytes_hist(bytes) {}

  void done(const char* key, Off where, Off bytes) {
    phase.arg(key, where);
    phase.arg("bytes", bytes);
    if (obs::metrics_enabled())
      obs::Registry::instance().histogram(bytes_hist).record(bytes);
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
  FileOp op("file_pread", "file.pread_us", "file.read_bytes");
  const Off n = inner_->pread(offset, out);
  op.done("offset", offset, n);
  return n;
}

void TracedFile::do_pwrite(Off offset, ConstByteSpan data) {
  FileOp op("file_pwrite", "file.pwrite_us", "file.write_bytes");
  inner_->pwrite(offset, data);
  op.done("offset", offset, to_off(data.size()));
}

Off TracedFile::do_preadv(std::span<const IoVec> iov) {
  FileOp op("file_preadv", "file.pread_us", "file.read_bytes");
  const Off n = inner_->preadv(iov);
  op.done("segments", to_off(iov.size()), n);
  return n;
}

void TracedFile::do_pwritev(std::span<const ConstIoVec> iov) {
  FileOp op("file_pwritev", "file.pwrite_us", "file.write_bytes");
  inner_->pwritev(iov);
  Off total = 0;
  for (const ConstIoVec& v : iov) total += to_off(v.buf.size());
  op.done("segments", to_off(iov.size()), total);
}

Off TracedFile::view_write(const dt::Type& filetype, Off disp, Off stream_lo,
                           ConstByteSpan data) {
  ViewIo* vio = inner_->view_io();
  LLIO_REQUIRE(vio != nullptr, Errc::Unsupported,
               "TracedFile: inner backend lost its view-io capability");
  FileOp op("file_view_write", "file.pwrite_us", "file.write_bytes");
  const Off n = vio->view_write(filetype, disp, stream_lo, data);
  op.done("stream_lo", stream_lo, n);
  note_write(n);
  return n;
}

Off TracedFile::view_read(const dt::Type& filetype, Off disp, Off stream_lo,
                          ByteSpan out) {
  ViewIo* vio = inner_->view_io();
  LLIO_REQUIRE(vio != nullptr, Errc::Unsupported,
               "TracedFile: inner backend lost its view-io capability");
  FileOp op("file_view_read", "file.pread_us", "file.read_bytes");
  const Off n = vio->view_read(filetype, disp, stream_lo, out);
  op.done("stream_lo", stream_lo, n);
  note_read(n);
  return n;
}

}  // namespace llio::pfs
