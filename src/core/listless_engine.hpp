// The listless I/O engine (paper §3): flattening-on-the-fly navigation
// for independent access, and *fileview caching* for two-phase collective
// access — each rank's (disp, filetype) is exchanged in compact form
// exactly once, at set_view, so collective operations move only file
// data, never ol-lists.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/fotf_mover.hpp"
#include "core/listless_nav.hpp"
#include "mpiio/engine.hpp"

namespace llio::core {

/// The listless AccessCodec (§3.2.3): an AP describes its slice by the
/// stream interval alone; the IOP maps each window onto it by navigating
/// the sender's cached fileview (file_to_stream) and copies with fotf
/// scatter/gather.  The merge analysis runs k-way over the cached views
/// (analyze_view_domain).
class CachedViewCodec final : public mpiio::AccessCodec {
 public:
  /// Collective: normalize my fileview and cache every rank's.  Navigator
  /// counters land in `stats`, which must outlive the codec.
  void set_view(sim::Comm& comm, const mpiio::View& v,
                mpiio::IoOpStats* stats);

  /// Navigator over my own view (valid after set_view).
  ListlessNav& own_nav() { return *nav_; }

  bool ships_lists() const override { return false; }
  void describe(const mpiio::AccessRange& mine,
                const std::vector<mpiio::Domain>& doms,
                std::vector<mpiio::StreamSlice>& slices) override;
  void serve(const std::vector<mpiio::PeerSlice>& peers) override;
  mpiio::DomainWindows analyze(
      const mpiio::Domain& dom, Off win,
      const std::vector<mpiio::AccessRange>& ranges) override;
  bool plan_window(Off lo, Off hi) override;
  bool window_runs(Off lo, Off hi, const mpiio::RunBudget& budget,
                   std::vector<pfs::IoVec>& runs) override;
  Off fill_window(Off lo, ByteSpan win, bool write) override;

 private:
  /// A rank's cached fileview.
  struct CachedView {
    Off disp = 0;
    dt::Type filetype;
    std::unique_ptr<ListlessNav> nav;
  };
  /// Stream bytes [s1, s2) of a peer inside the current window.
  struct Slice {
    const mpiio::PeerSlice* peer;
    Off s1, s2;
  };

  Off disp_ = 0;
  std::unique_ptr<ListlessNav> nav_;  ///< my own view
  std::vector<CachedView> cached_;    ///< one per rank, incl. self
  std::vector<mpiio::PeerSlice> peers_;
  std::deque<std::vector<Slice>> queued_;  ///< planned, not yet filled
  fotf::IoVecSpan layout_;  ///< one slice's runs, reused by window_runs
};

class ListlessEngine final : public mpiio::IoEngine {
 public:
  using mpiio::IoEngine::IoEngine;

  void set_view(const mpiio::View& v) override;

 protected:
  mpiio::ViewNav& nav() override { return codec_.own_nav(); }
  mpiio::AccessCodec& codec() override { return codec_; }

  std::unique_ptr<mpiio::StreamMover> make_nc_mover(
      const void* buf, Off count, const dt::Type& mt) override;

 private:
  CachedViewCodec codec_;
  MemtypePlans mem_plans_{&stats_};  ///< the ops' memtype run table
};

}  // namespace llio::core
