// List-based StreamMover: flattens the memtype into a fresh ol-list for
// every access (ROMIO behaviour: memtype lists "are not stored beyond the
// single access operation", paper §2.1) and copies tuple by tuple.
#pragma once

#include "dtype/flatten.hpp"
#include "listio/ol_walker.hpp"
#include "mpiio/io_stats.hpp"
#include "mpiio/navigator.hpp"

namespace llio::listio {

class ListMover final : public mpiio::StreamMover {
 public:
  /// Flattens `memtype` at construction; the flatten time and the list
  /// memory are charged to `stats` (list_build_s / list_mem_bytes).
  ListMover(const void* buf, Off count, const dt::Type& memtype,
            mpiio::IoOpStats* stats);

  void to_stream(Byte* dst, Off s, Off n) override;
  void from_stream(const Byte* src, Off s, Off n) override;

  /// Zero-copy descriptors from the ol-list: the walker's contiguous
  /// blocks for [s, s + n) become spans over the user buffer (adjacent
  /// blocks coalesced).  Declines under the budget's run-count and
  /// average-run-length limits, like the fotf plan path.
  bool mem_runs(Off s, Off n, const mpiio::RunBudget& budget,
                std::vector<ByteSpan>& out) override;

 private:
  void copy_position(Off s);

  Byte* buf_;
  dt::OlList list_;
  OlWalker walker_;
  Off avg_run_;  ///< fotf::avg_run of the memtype
  Off next_stream_ = -1;
};

}  // namespace llio::listio
