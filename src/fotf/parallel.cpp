#include "fotf/parallel.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/worker_pool.hpp"
#include "fotf/pack.hpp"
#include "obs/phase.hpp"

namespace llio::fotf {

namespace {

/// Floor on slice size: below this the O(depth) seek and the pool
/// round-trip outweigh the copy.
constexpr Off kMinSliceBytes = Off{64} << 10;

template <bool ToPack>
Off slice_move(const Type& t, Off count, Byte* typed, Off bias,
               const PackPlan* plan, Off lo, Byte* pk, Off len) {
  if (plan != nullptr) {
    if constexpr (ToPack)
      return plan->pack(typed, bias, count, lo, pk, len);
    else
      return plan->unpack(typed, bias, count, lo, pk, len);
  }
  SegmentCursor cur(t, count);
  cur.seek(std::min(lo, cur.total_bytes()));
  if constexpr (ToPack)
    return transfer_pack(cur, typed, bias, pk, len);
  else
    return transfer_unpack(cur, typed, bias, pk, len);
}

template <bool ToPack>
Off range_impl(const Type& t, Off count, Byte* typed, Off bias, Off skip,
               Byte* pk, Off n, const PackConfig& cfg, const PackPlan* plan,
               RangeStats* stats, SegmentCursor* reuse) {
  LLIO_REQUIRE(skip >= 0 && n >= 0, Errc::InvalidArgument,
               "pack_range: negative skip or size");
  LLIO_REQUIRE(t != nullptr, Errc::InvalidDatatype, "pack_range: null type");
  const Off total = count * t->size();
  n = std::min(n, std::max<Off>(0, total - skip));
  if (n <= 0) return 0;

  if (!will_parallelize(cfg, n)) {
    if (plan != nullptr) {
      if (stats != nullptr) stats->used_plan = true;
      return slice_move<ToPack>(t, count, typed, bias, plan, skip, pk, n);
    }
    if (reuse != nullptr) {
      if (stats != nullptr) stats->used_cursor = true;
      if (reuse->stream_pos() != skip)
        reuse->seek(std::min(skip, reuse->total_bytes()));
      if constexpr (ToPack)
        return transfer_pack(*reuse, typed, bias, pk, n);
      else
        return transfer_unpack(*reuse, typed, bias, pk, n);
    }
    return slice_move<ToPack>(t, count, typed, bias, nullptr, skip, pk, n);
  }

  const int nt = static_cast<int>(
      std::min<Off>(cfg.threads, std::max<Off>(2, n / kMinSliceBytes)));
  WorkerPool& pool = WorkerPool::shared();
  WorkerPool::Reservation res = pool.reserve(nt - 1);
  const int owner = obs::current_pid();
  const bool traced = obs::trace_enabled(obs::TraceLevel::Full);

  std::vector<double> secs(to_size(Off{nt}), 0.0);
  auto run_slice = [&](int i) {
    const Off lo = skip + n * i / nt;
    const Off hi = skip + n * (i + 1) / nt;
    obs::Phase p(secs[to_size(Off{i})], "pack_slice", obs::TraceLevel::Full);
    p.arg("slice", i);
    p.arg("bytes", hi - lo);
    const Off moved = slice_move<ToPack>(t, count, typed, bias, plan, lo,
                                         pk + (lo - skip), hi - lo);
    LLIO_ASSERT(moved == hi - lo, "pack_range: short slice");
  };

  std::vector<std::future<void>> futs;
  futs.reserve(to_size(Off{nt - 1}));
  for (int i = 1; i < nt; ++i)
    futs.push_back(pool.submit([&run_slice, owner, traced, i] {
      // Per-job track guard: events land on the owning rank's worker
      // tracks (tid >= 1) and the guard's destructor flushes the thread
      // buffer so persistent pool threads never hold events back.
      std::optional<obs::ThreadTrackGuard> track;
      if (traced && owner >= 0)
        track.emplace(owner, i, "", "io worker " + std::to_string(i));
      run_slice(i);
    }));
  run_slice(0);

  std::exception_ptr err;
  for (std::future<void>& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);

  if (stats != nullptr) {
    stats->threads_used = std::max(stats->threads_used, nt);
    stats->slices += static_cast<std::uint64_t>(nt);
    for (double s : secs) {
      stats->slice_max_s = std::max(stats->slice_max_s, s);
      stats->slice_total_s += s;
    }
    stats->used_plan = plan != nullptr;
  }
  return n;
}

}  // namespace

bool will_parallelize(const PackConfig& cfg, Off n) noexcept {
  return cfg.threads > 1 && n >= cfg.parallel_min && n >= 2 * kMinSliceBytes;
}

Off pack_range(const Type& t, Off count, const Byte* typed_base, Off mem_bias,
               Off skip, Byte* dst, Off n, const PackConfig& cfg,
               const PackPlan* plan, RangeStats* stats, SegmentCursor* reuse) {
  return range_impl<true>(t, count, const_cast<Byte*>(typed_base), mem_bias,
                          skip, dst, n, cfg, plan, stats, reuse);
}

Off unpack_range(const Type& t, Off count, Byte* typed_base, Off mem_bias,
                 Off skip, const Byte* src, Off n, const PackConfig& cfg,
                 const PackPlan* plan, RangeStats* stats,
                 SegmentCursor* reuse) {
  return range_impl<false>(t, count, typed_base, mem_bias, skip,
                           const_cast<Byte*>(src), n, cfg, plan, stats, reuse);
}

}  // namespace llio::fotf
