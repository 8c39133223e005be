#include "fotf/plan.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "fotf/cursor.hpp"
#include "fotf/pack.hpp"

namespace llio::fotf {

std::shared_ptr<const PackPlan> PackPlan::compile(const Type& t,
                                                  std::size_t max_runs) {
  if (t == nullptr || t->size() <= 0) return nullptr;
  if (t->block_count() > to_off(max_runs)) return nullptr;
  auto plan = std::make_shared<PackPlan>();
  plan->size_ = t->size();
  plan->extent_ = t->extent();

  // One instance walk; memory-adjacent runs merge (the packed stream is
  // contiguous by construction, so stream adjacency is implied).
  SegmentCursor cur(t, 1);
  Off stream = 0;
  while (!cur.at_end()) {
    const Off mem = cur.run_mem();
    const Off len = cur.run_len();
    if (!plan->mem_.empty() && plan->mem_.back() + plan->len_.back() == mem) {
      plan->len_.back() += len;
    } else {
      if (plan->mem_.size() >= max_runs) return nullptr;
      plan->mem_.push_back(mem);
      plan->len_.push_back(len);
      plan->prefix_.push_back(stream);
    }
    stream += len;
    cur.consume(len);
  }
  plan->prefix_.push_back(stream);
  LLIO_ASSERT(stream == plan->size_, "PackPlan: size mismatch");

  const std::size_t nr = plan->len_.size();
  if (nr >= 1) {
    bool uni = true;
    for (std::size_t r = 1; r < nr && uni; ++r)
      uni = plan->len_[r] == plan->len_[0];
    const Off d =
        nr >= 2 ? plan->mem_[1] - plan->mem_[0] : plan->extent_;
    for (std::size_t r = 2; r < nr && uni; ++r)
      uni = plan->mem_[r] - plan->mem_[r - 1] == d;
    if (nr >= 2)  // wrap: last run of instance i to first run of i+1
      uni = uni && plan->mem_[0] + plan->extent_ - plan->mem_.back() == d;
    if (uni) {
      plan->uniform_ = true;
      plan->useg_ = plan->len_[0];
      plan->ustride_ = d;
    }
  }
  return plan;
}

Off avg_run(const Type& t) {
  if (t == nullptr || t->block_count() <= 0) return 0;
  if (t->is_contiguous()) return std::numeric_limits<Off>::max();
  return t->size() / t->block_count();
}

template <bool ToPack>
Off PackPlan::transfer(Byte* typed, Off bias, Off count, Off skip, Byte* pk,
                       Off n) const {
  LLIO_REQUIRE(skip >= 0 && n >= 0, Errc::InvalidArgument,
               "PackPlan: negative skip or size");
  if (size_ <= 0 || count <= 0) return 0;
  const Off total = count * size_;
  if (skip >= total) return 0;
  n = std::min(n, total - skip);

  const Off nruns = static_cast<Off>(len_.size());
  Off inst = skip / size_;
  const Off rem = skip - inst * size_;
  Off r = std::upper_bound(prefix_.begin(), prefix_.end(), rem) -
          prefix_.begin() - 1;
  Off inrun = rem - prefix_[to_size(r)];

  Off done = 0;
  while (done < n) {
    if (uniform_ && inrun == 0 && n - done >= 2 * useg_) {
      // At a segment boundary of a uniform plan: one strided kernel call
      // moves every remaining full segment (instance wraps included).
      const Off g = inst * nruns + r;  // global segment index
      const Off k = std::min((n - done) / useg_, count * nruns - g);
      Byte* t = typed + (inst * extent_ + mem_[to_size(r)] - bias);
      if constexpr (ToPack)
        strided_gather(pk + done, t, useg_, ustride_, k);
      else
        strided_scatter(t, ustride_, pk + done, useg_, k);
      done += k * useg_;
      const Off g2 = g + k;
      inst = g2 / nruns;
      r = g2 - inst * nruns;
      continue;
    }
    const Off take = std::min(len_[to_size(r)] - inrun, n - done);
    Byte* t = typed + (inst * extent_ + mem_[to_size(r)] + inrun - bias);
    if constexpr (ToPack)
      dense_copy(pk + done, t, take);
    else
      dense_copy(t, pk + done, take);
    done += take;
    inrun += take;
    if (inrun == len_[to_size(r)]) {
      inrun = 0;
      if (++r == nruns) {
        r = 0;
        ++inst;
      }
    }
  }
  return done;
}

bool PackPlan::materialize(Off mem_bias, Off count, Off skip, Off n,
                           std::size_t max_runs, IoVecSpan& out) const {
  out.clear();
  const bool fits = for_each_run(mem_bias, count, skip, n, [&](Off mem,
                                                               Off len) {
    if (out.runs.size() >= max_runs) return false;
    out.runs.push_back({mem, len});
    out.total += len;
    return true;
  });
  if (!fits) out.clear();
  return fits;
}

Off PackPlan::pack(const Byte* typed_base, Off mem_bias, Off count, Off skip,
                   Byte* dst, Off n) const {
  return transfer<true>(const_cast<Byte*>(typed_base), mem_bias, count, skip,
                        dst, n);
}

Off PackPlan::unpack(Byte* typed_base, Off mem_bias, Off count, Off skip,
                     const Byte* src, Off n) const {
  return transfer<false>(typed_base, mem_bias, count, skip,
                         const_cast<Byte*>(src), n);
}

}  // namespace llio::fotf
