// The list-based I/O engine: a faithful model of ROMIO's non-contiguous
// access handling (paper §2).  set_view explicitly flattens the filetype
// into a stored ol-list (§2.1); independent access navigates it linearly
// and copies tuple by tuple (§2.2).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dtype/flatten.hpp"
#include "listio/ol_nav.hpp"
#include "mpiio/engine.hpp"

namespace llio::listio {

/// The list-based AccessCodec (§2.3): every collective call, an AP
/// expands its fileview over each IOP's domain into a fresh
/// absolute-offset ol-list (N_coll tuples) and ships it as Meta; the IOP
/// walks the received lists window by window (merged for the coverage
/// test by analyze_tuple_domain) and copies tuple by tuple.  No fileview
/// caching: lists are rebuilt and re-sent on every call.
class OlListCodec final : public mpiio::AccessCodec {
 public:
  /// `view` and `ft_list` are the engine's fileview and its stored
  /// flattening; list costs are charged to `stats`.  All must outlive
  /// the codec.
  OlListCodec(const mpiio::View& view, const dt::OlList& ft_list,
              mpiio::IoOpStats& stats)
      : view_(view), ft_list_(ft_list), stats_(stats) {}

  bool ships_lists() const override { return true; }
  void describe(const mpiio::AccessRange& mine,
                const std::vector<mpiio::Domain>& doms,
                std::vector<mpiio::StreamSlice>& slices) override;
  void append_list(std::size_t iop, ByteVec& out) override;
  void serve(const std::vector<mpiio::PeerSlice>& peers) override;
  mpiio::DomainWindows analyze(
      const mpiio::Domain& dom, Off win,
      const std::vector<mpiio::AccessRange>& ranges) override;
  bool plan_window(Off lo, Off hi) override;
  bool window_runs(Off lo, Off hi, const mpiio::RunBudget& budget,
                   std::vector<pfs::IoVec>& runs) override;
  Off fill_window(Off lo, ByteSpan win, bool write) override;

 private:
  /// A position in a received list: the current tuple and the bytes
  /// consumed of it and of the peer's data stream.
  struct Cursor {
    std::size_t idx = 0;
    Off within = 0;
    Off data_off = 0;
  };
  /// A received list, read in place from the peer's Meta payload.
  struct RecvList {
    std::span<const dt::OlTuple> tuples;  ///< absolute file offsets
    Byte* data = nullptr;  ///< the peer's dense stream slice
    Off avg_run = 0;       ///< slice bytes per tuple
    Cursor planned;        ///< where the next window starts
  };
  /// One peer's part of a planned window: its cursor at the window start.
  struct Queued {
    const RecvList* src;
    Cursor from;
  };

  /// Advance `c` through `tuples` to the window end `hi`, calling
  /// unit(file_off, len, data_off) for each tuple clipped to the window.
  template <class Unit>
  static void walk(std::span<const dt::OlTuple> tuples, Cursor& c, Off lo,
                   Off hi, Unit&& unit);

  const mpiio::View& view_;
  const dt::OlList& ft_list_;
  mpiio::IoOpStats& stats_;
  /// Mine, per IOP; cleared by the next describe.  These lists and the
  /// IOP-side buffers below keep their capacity across ops: regrowing
  /// them on every collective cost page faults and system time, which
  /// are no part of the list costs the paper charges to ROMIO (§2.3).
  std::vector<std::vector<dt::OlTuple>> lists_;
  std::vector<RecvList> recvs_;
  /// Planned, not yet filled windows: window k's cursors are
  /// queued_[win_end_[k-1] .. win_end_[k]); filled_ windows are done.
  std::vector<Queued> queued_;
  std::vector<std::size_t> win_end_;
  std::size_t filled_ = 0;
};

class ListEngine final : public mpiio::IoEngine {
 public:
  using mpiio::IoEngine::IoEngine;

  void set_view(const mpiio::View& v) override;

  /// Stored ol-list memory for the current fileview.
  Off view_list_bytes() const { return ft_list_.memory_bytes(); }

 protected:
  mpiio::ViewNav& nav() override { return *nav_; }
  mpiio::AccessCodec& codec() override { return codec_; }

  std::unique_ptr<mpiio::StreamMover> make_nc_mover(
      const void* buf, Off count, const dt::Type& mt) override;

 private:
  dt::OlList ft_list_;  ///< stored flattened filetype (one instance)
  std::unique_ptr<OlViewNav> nav_;
  OlListCodec codec_{view_, ft_list_, stats_};
};

}  // namespace llio::listio
