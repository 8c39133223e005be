// Optional backend capability: fileview ("listless I/O over the wire").
//
// A FileBackend that also implements ViewIo can execute a whole
// non-contiguous fileview access on the storage side: the caller hands
// over the filetype tree, a displacement, and a dense stream range, and
// the backend performs the scatter/gather where the data lives.  This is
// the server-side half of the paper's argument — instead of the client
// flattening the view into an ol-list (or sieving around it), the compact
// datatype tree itself travels to the file servers (psrv), which navigate
// it locally exactly like the listless engine does in-process.
//
// Each access comes in two forms.  The span forms take the dense stream
// as one buffer.  The stream forms take a callback instead and hand it
// the backend's own buffers piece by piece, so the caller packs straight
// into (or unpacks straight out of) the backend's messages with no
// client staging buffer: that is the form the engines use.  A backend
// that only implements the span forms gets stream forms that stage the
// whole range through them.
//
// The engines probe FileBackend::view_io() on the independent access path
// and use this interface when it is non-null; semantics must match what
// the same access would produce through pread/pwrite on the same backend.
#pragma once

#include <functional>

#include "common/bytes.hpp"
#include "dtype/datatype.hpp"

namespace llio::pfs {

class ViewIo {
 public:
  /// Stream-form callbacks: `fill` writes, and `drain` consumes, the
  /// dense stream bytes [s, s + n) at `p`.  Calls cover the op's range
  /// exactly, in any order, and each byte at most once except on a
  /// backend retry, which calls `fill` again for the same range.
  using Fill = std::function<void(Byte* p, Off s, Off n)>;
  using Drain = std::function<void(const Byte* p, Off s, Off n)>;

  virtual ~ViewIo() = default;

  /// Write the dense stream bytes [stream_lo, stream_lo + data.size()) of
  /// the tiling of `filetype` displaced by `disp`, scattering them to the
  /// view's file offsets.  The filetype must be navigable (validated by
  /// the view layer).  Returns the number of stream bytes written
  /// (always data.size() on success; errors throw).
  virtual Off view_write(const dt::Type& filetype, Off disp, Off stream_lo,
                         ConstByteSpan data) = 0;

  /// Read counterpart: gather the dense stream bytes [stream_lo,
  /// stream_lo + out.size()) from the view's file offsets into `out`,
  /// zero-filling bytes past end of file.  Returns out.size().
  virtual Off view_read(const dt::Type& filetype, Off disp, Off stream_lo,
                        ByteSpan out) = 0;

  /// view_write of the `n` stream bytes from `stream_lo` that `fill`
  /// produces.  Returns n.
  virtual Off view_write_stream(const dt::Type& filetype, Off disp,
                                Off stream_lo, Off n, const Fill& fill) {
    ByteVec buf(to_size(n));
    fill(buf.data(), stream_lo, n);
    return view_write(filetype, disp, stream_lo, buf);
  }

  /// view_read of `n` stream bytes from `stream_lo`, handed to `drain`.
  /// Returns n.
  virtual Off view_read_stream(const dt::Type& filetype, Off disp,
                               Off stream_lo, Off n, const Drain& drain) {
    ByteVec buf(to_size(n));
    const Off got = view_read(filetype, disp, stream_lo, buf);
    drain(buf.data(), stream_lo, n);
    return got;
  }
};

}  // namespace llio::pfs
