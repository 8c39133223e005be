// Listless ViewNav: fileview navigation and data movement via
// flattening-on-the-fly (paper §3).  All positioning is O(depth) and all
// copying is proportional to the bytes moved — no ol-lists anywhere.
//
// Data movement replays a per-view PackPlan (compiled lazily on first
// use, owned by this nav and therefore recreated — i.e. invalidated —
// whenever set_view rebuilds the navs): the flat run table instead of a
// type-tree walk.  Only when PackPlan::compile declines does it stream
// through the nav's SegmentCursor, which sequential calls reuse without
// re-seeking.
#pragma once

#include <cstddef>
#include <memory>

#include "fotf/cursor.hpp"
#include "fotf/plan.hpp"
#include "mpiio/io_stats.hpp"
#include "mpiio/navigator.hpp"

namespace llio::core {

class ListlessNav final : public mpiio::ViewNav {
 public:
  /// `max_runs` caps the per-instance run table PackPlan::compile may
  /// build; a view with more runs walks the cursor instead.
  explicit ListlessNav(dt::Type filetype,
                       std::size_t max_runs = fotf::PackPlan::kDefaultMaxRuns);

  /// Where plan counters land; unbound = not counted.  The pointee
  /// must outlive the nav (the engine binds its own stats_ member, whose
  /// identity survives the per-op reset).
  void bind_stats(mpiio::IoOpStats* stats) { stats_ = stats; }

  Off stream_to_file_start(Off s) override;
  Off stream_to_file_end(Off s) override;
  Off file_to_stream(Off mem) override;
  void scatter(Byte* win, Off bias, Off s, const Byte* src, Off n) override;
  void gather(Byte* dst, const Byte* win, Off bias, Off s, Off n) override;
  void for_each_segment(
      Off s, Off n, const std::function<void(Off, Off, Off)>& fn) override;

  /// The run walk: visit stream bytes [s, s+n) in stream order as
  /// fn(layout offset, stream offset, length), adjacent runs coalesced.
  /// Replays the compiled plan's runs; walks the cursor only when the
  /// view has no plan (PackPlan::compile declined).
  template <class Fn>
  void for_each_run(Off s, Off n, Fn&& fn);

  /// Describe stream bytes [s, s+n) as layout runs into `out` (stream,
  /// hence layout, order; adjacent runs coalesced).  False, `out`
  /// cleared, without a plan or past `max_runs` runs.
  bool layout_runs(Off s, Off n, std::size_t max_runs, fotf::IoVecSpan& out);

 private:
  /// Ensure the cursor covers stream bytes up to `hi` and is positioned
  /// at `s` (re-seeks only on non-sequential access).
  fotf::SegmentCursor& at(Off s, Off hi);

  /// Filetype instances a plan replay of stream bytes below `hi` spans.
  Off instances_below(Off hi) const { return ceil_div(hi, ft_->size()) + 1; }

  /// The compiled plan (lazy, one compile attempt per view) or nullptr
  /// when declined; counts the compile as a miss.
  const fotf::PackPlan* compiled();

  /// compiled(), counting every later call as a plan hit (a replay).
  const fotf::PackPlan* plan();

  dt::Type ft_;
  const std::size_t max_runs_;  ///< PackPlan::compile's run cap
  std::shared_ptr<const fotf::PackPlan> plan_;
  bool plan_tried_ = false;
  mpiio::IoOpStats* stats_ = nullptr;
  std::unique_ptr<fotf::SegmentCursor> cur_;
  Off cur_instances_ = 0;
  Off next_stream_ = -1;  ///< stream position the cursor currently sits at
};

template <class Fn>
void ListlessNav::for_each_run(Off s, Off n, Fn&& fn) {
  if (n <= 0) return;
  if (const fotf::PackPlan* pl = compiled()) {
    Off stream = s;
    pl->for_each_run(0, instances_below(s + n), s, n, [&](Off mem, Off len) {
      fn(mem, stream, len);
      stream += len;
      return true;
    });
    return;
  }
  fotf::SegmentCursor& cur = at(s, s + n);
  next_stream_ = -1;  // if fn throws mid-walk, the next walk re-seeks
  Off run_mem = cur.run_mem();
  Off run_s = s;
  Off run_len = 0;
  for (Off done = 0; done < n;) {
    if (cur.run_mem() != run_mem + run_len) {
      fn(run_mem, run_s, run_len);
      run_mem = cur.run_mem();
      run_s = s + done;
      run_len = 0;
    }
    const Off len = std::min(cur.run_len(), n - done);
    cur.consume(len);
    run_len += len;
    done += len;
  }
  fn(run_mem, run_s, run_len);
  next_stream_ = s + n;
}

}  // namespace llio::core
