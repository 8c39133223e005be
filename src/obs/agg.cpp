#include "obs/agg.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/error.hpp"
#include "common/format.hpp"

namespace llio::obs {

// ---- snapshot wire format ----------------------------------------------
//
// Flat little-endian layout, host byte order (rank threads share one
// process; the simulated wire never leaves it):
//   u32 rank
//   u32 nphases { u32 len, bytes, f64 seconds }*
//   u32 ncounters { u32 len, bytes, u64 value }*

namespace {

template <class T>
void put(ByteVec& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

void put_str(ByteVec& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  const std::size_t at = out.size();
  out.resize(at + s.size());
  std::memcpy(out.data() + at, s.data(), s.size());
}

struct Reader {
  ConstByteSpan raw;
  std::size_t pos = 0;

  template <class T>
  T get() {
    LLIO_REQUIRE(pos + sizeof(T) <= raw.size(), Errc::Protocol,
                 "RankSnapshot: truncated payload");
    T v;
    std::memcpy(&v, raw.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::string get_str() {
    const std::uint32_t len = get<std::uint32_t>();
    LLIO_REQUIRE(pos + len <= raw.size(), Errc::Protocol,
                 "RankSnapshot: truncated string");
    std::string s(reinterpret_cast<const char*>(raw.data() + pos), len);
    pos += len;
    return s;
  }
};

}  // namespace

ByteVec RankSnapshot::serialize() const {
  ByteVec out;
  put<std::uint32_t>(out, static_cast<std::uint32_t>(rank));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(phases.size()));
  for (const auto& [name, s] : phases) {
    put_str(out, name);
    put<double>(out, s);
  }
  put<std::uint32_t>(out, static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, v] : counters) {
    put_str(out, name);
    put<std::uint64_t>(out, v);
  }
  return out;
}

RankSnapshot RankSnapshot::deserialize(ConstByteSpan raw) {
  Reader r{raw};
  RankSnapshot s;
  s.rank = static_cast<int>(r.get<std::uint32_t>());
  const std::uint32_t nphases = r.get<std::uint32_t>();
  s.phases.reserve(nphases);
  for (std::uint32_t i = 0; i < nphases; ++i) {
    std::string name = r.get_str();
    const double v = r.get<double>();
    s.phases.push_back({std::move(name), v});
  }
  const std::uint32_t ncounters = r.get<std::uint32_t>();
  s.counters.reserve(ncounters);
  for (std::uint32_t i = 0; i < ncounters; ++i) {
    std::string name = r.get_str();
    const std::uint64_t v = r.get<std::uint64_t>();
    s.counters.push_back({std::move(name), v});
  }
  LLIO_REQUIRE(r.pos == raw.size(), Errc::Protocol,
               "RankSnapshot: trailing bytes");
  return s;
}

// ---- collector ---------------------------------------------------------

namespace {

/// Imbalance below this does not name a straggler: with a handful of
/// ranks over fast simulated storage, a few percent of spread is
/// scheduling noise, not a finding.
constexpr double kStragglerThreshold = 1.05;

PhaseStats build_phase(const std::string& name,
                       const std::vector<double>& per_rank,
                       const std::vector<int>& ranks) {
  PhaseStats p;
  p.name = name;
  p.per_rank_s = per_rank;
  const std::size_t n = per_rank.size();
  if (n == 0) return p;
  p.min_s = per_rank[0];
  p.max_s = per_rank[0];
  p.min_rank = ranks[0];
  p.max_rank = ranks[0];
  for (std::size_t i = 0; i < n; ++i) {
    p.sum_s += per_rank[i];
    if (per_rank[i] < p.min_s) {
      p.min_s = per_rank[i];
      p.min_rank = ranks[i];
    }
    if (per_rank[i] > p.max_s) {
      p.max_s = per_rank[i];
      p.max_rank = ranks[i];
    }
  }
  p.mean_s = p.sum_s / static_cast<double>(n);
  std::vector<double> sorted = per_rank;
  std::sort(sorted.begin(), sorted.end());
  p.median_s = n % 2 == 1 ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  p.imbalance = p.mean_s > 0 ? p.max_s / p.mean_s : 0.0;
  return p;
}

}  // namespace

JobReport Collector::build(const std::vector<RankSnapshot>& ranks) {
  std::vector<const RankSnapshot*> order;
  order.reserve(ranks.size());
  for (const RankSnapshot& r : ranks) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const RankSnapshot* a, const RankSnapshot* b) {
              return a->rank < b->rank;
            });

  JobReport job;
  job.nranks = static_cast<int>(order.size());
  for (const RankSnapshot* r : order) job.ranks.push_back(r->rank);

  // Phases: the union of names, each aligned to the rank order (a rank
  // that never reported a phase contributes 0).
  std::map<std::string, std::vector<double>> phases;
  for (std::size_t i = 0; i < order.size(); ++i)
    for (const auto& [name, s] : order[i]->phases) {
      auto& v = phases[name];
      v.resize(order.size(), 0.0);
      v[i] += s;
    }
  for (auto& [name, v] : phases) {
    v.resize(order.size(), 0.0);
    job.phases.push_back(build_phase(name, v, job.ranks));
  }

  std::map<std::string, std::vector<std::uint64_t>> counters;
  for (std::size_t i = 0; i < order.size(); ++i)
    for (const auto& [name, v] : order[i]->counters) {
      auto& per_rank = counters[name];
      per_rank.resize(order.size(), 0);
      per_rank[i] += v;
    }
  for (auto& [name, per_rank] : counters) {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : per_rank) sum += v;
    job.counters.push_back({name, sum});
    job.counters_per_rank.push_back({name, std::move(per_rank)});
  }

  if (const PhaseStats* total = job.phase("total");
      total != nullptr && total->imbalance > kStragglerThreshold) {
    job.straggler_rank = total->max_rank;
    job.straggler_imbalance = total->imbalance;
  }
  return job;
}

const PhaseStats* JobReport::phase(const std::string& name) const {
  for (const PhaseStats& p : phases)
    if (p.name == name) return &p;
  return nullptr;
}

// ---- critical path -----------------------------------------------------

CriticalPathReport critical_path(const std::vector<TraceEvent>& events) {
  struct Window {
    double window_us = 0;
    double io_us = 0;    // io_wait + inline preread/pwrite (serial loop)
    double pack_us = 0;
  };
  // The numeric "win" argument the pipeline stamps on its window spans.
  auto win_arg = [](const TraceEvent& ev) -> long long {
    for (const TraceArg& a : ev.args)
      if (!a.is_text && a.key == "win") return a.value;
    return -1;
  };

  std::map<std::pair<int, long long>, Window> windows;
  CriticalPathReport report;
  for (const TraceEvent& ev : events) {
    if (ev.phase != 'X') continue;
    if (ev.name == "exchange") {
      // Phase exchanges run outside the window loop; they are context for
      // the job totals, not part of any one window's budget.
      if (ev.tid == 0) report.exchange_us += ev.dur_us;
      continue;
    }
    if (ev.tid != 0) continue;  // worker-side I/O is hidden by definition
    const bool is_window = ev.name == "window";
    const bool is_io = ev.name == "io_wait" || ev.name == "preread" ||
                       ev.name == "pwrite";
    const bool is_pack = ev.name == "pack";
    if (!is_window && !is_io && !is_pack) continue;
    const long long idx = win_arg(ev);
    if (idx < 0) continue;
    Window& w = windows[{ev.pid, idx}];
    if (is_window) w.window_us += ev.dur_us;
    if (is_io) w.io_us += ev.dur_us;
    if (is_pack) w.pack_us += ev.dur_us;
  }

  double attributed_us = 0;
  for (const auto& [key, w] : windows) {
    if (w.window_us <= 0) continue;
    ++report.windows;
    report.window_us += w.window_us;
    // Components are nested inside the window span on the same thread, so
    // their sum cannot exceed it except by clock-read jitter; clamp.
    const double io = std::min(w.io_us, w.window_us);
    const double pack = std::min(w.pack_us, w.window_us - io);
    const double other = w.window_us - io - pack;
    report.io_us += io;
    report.pack_us += pack;
    report.other_us += other;
    attributed_us += io + pack;
    if (io >= pack && io >= other)
      ++report.io_limited_windows;
    else if (pack >= other)
      ++report.pack_limited_windows;
    else
      ++report.other_limited_windows;
  }
  report.attributed_frac =
      report.window_us > 0 ? attributed_us / report.window_us : 0.0;
  return report;
}

// ---- report JSON -------------------------------------------------------

std::string JobReport::to_json() const {
  // Metric/phase names are our own C identifiers — nothing to escape.
  std::string out = strprintf("{\"schema\":\"llio_report/v1\",\"nranks\":%d,",
                              nranks);
  out += "\"ranks\":[";
  for (std::size_t i = 0; i < ranks.size(); ++i)
    out += strprintf(i == 0 ? "%d" : ",%d", ranks[i]);
  out += "],\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseStats& p = phases[i];
    if (i != 0) out += ',';
    out += strprintf(
        "{\"name\":\"%s\",\"min_s\":%.6f,\"median_s\":%.6f,\"max_s\":%.6f,"
        "\"mean_s\":%.6f,\"sum_s\":%.6f,\"min_rank\":%d,\"max_rank\":%d,"
        "\"imbalance\":%.3f,\"per_rank_s\":[",
        p.name.c_str(), p.min_s, p.median_s, p.max_s, p.mean_s, p.sum_s,
        p.min_rank, p.max_rank, p.imbalance);
    for (std::size_t r = 0; r < p.per_rank_s.size(); ++r)
      out += strprintf(r == 0 ? "%.6f" : ",%.6f", p.per_rank_s[r]);
    out += "]}";
  }
  out += "],\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i)
    out += strprintf(i == 0 ? "\"%s\":%llu" : ",\"%s\":%llu",
                     counters[i].first.c_str(),
                     static_cast<unsigned long long>(counters[i].second));
  out += "},\"counters_per_rank\":{";
  for (std::size_t i = 0; i < counters_per_rank.size(); ++i) {
    const auto& [name, per_rank] = counters_per_rank[i];
    out += strprintf(i == 0 ? "\"%s\":[" : ",\"%s\":[", name.c_str());
    for (std::size_t r = 0; r < per_rank.size(); ++r)
      out += strprintf(r == 0 ? "%llu" : ",%llu",
                       static_cast<unsigned long long>(per_rank[r]));
    out += "]";
  }
  out += strprintf("},\"straggler\":{\"rank\":%d,\"imbalance\":%.3f}",
                   straggler_rank, straggler_imbalance);
  if (critical) {
    const CriticalPathReport& c = *critical;
    out += strprintf(
        ",\"critical_path\":{\"windows\":%lld,\"window_us\":%.1f,"
        "\"io_us\":%.1f,\"pack_us\":%.1f,\"other_us\":%.1f,"
        "\"exchange_us\":%.1f,\"attributed_frac\":%.4f,"
        "\"limiter\":\"%s\",\"io_limited_windows\":%lld,"
        "\"pack_limited_windows\":%lld,\"other_limited_windows\":%lld}",
        c.windows, c.window_us, c.io_us, c.pack_us, c.other_us,
        c.exchange_us, c.attributed_frac, c.limiter(), c.io_limited_windows,
        c.pack_limited_windows, c.other_limited_windows);
  }
  out += ",\"global_counters\":{";
  for (std::size_t i = 0; i < global_counters.size(); ++i)
    out += strprintf(i == 0 ? "\"%s\":%llu" : ",\"%s\":%llu",
                     global_counters[i].first.c_str(),
                     static_cast<unsigned long long>(global_counters[i].second));
  out += "}}";
  return out;
}

}  // namespace llio::obs
