#include "obs/snapshot.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

namespace llio::obs {

namespace {

bool sample_from_env() {
  const char* v = std::getenv("LLIO_OBS_SAMPLE");
  if (v == nullptr || *v == '\0') return true;  // always-on by default
  const std::string s = v;
  return !(s == "off" || s == "0" || s == "false");
}

std::size_t ring_from_env() {
  const char* v = std::getenv("LLIO_OBS_RING");
  if (v == nullptr || *v == '\0') return 1024;
  const long n = std::strtol(v, nullptr, 10);
  return n >= 1 ? static_cast<std::size_t>(n) : 1024;
}

/// Interning table: id 0 is reserved for "" so a default-constructed
/// OpSample resolves to empty dimensions.
struct Interner {
  std::mutex mu;
  std::map<std::string, std::uint32_t> ids;
  std::vector<std::string> names{""};
};

Interner& interner() {
  static Interner* t = new Interner;  // leaked: see Tracer::instance
  return *t;
}

}  // namespace

/// Every field a writer touches is an atomic: the version protocol makes
/// torn *logical* states detectable, the atomics make the concurrent
/// accesses themselves race-free (a plain-field seqlock is a C++ data
/// race even when the version check would discard the result).
struct Sampler::Slot {
  std::atomic<std::uint64_t> ver{0};  ///< even = stable, odd = writing
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::int32_t> rank{-1};
  std::atomic<std::uint32_t> op{0};
  std::atomic<std::uint32_t> engine{0};
  std::atomic<std::uint32_t> backend{0};
  std::atomic<std::uint32_t> net{0};
  std::atomic<std::int32_t> qd{1};
  std::atomic<long long> bytes{0};
  std::atomic<long long> runs{0};
  std::atomic<long long> dur_ns{0};
};

struct Sampler::Ring {
  explicit Ring(std::size_t n) : slots(n) {}
  std::atomic<std::uint64_t> head{0};
  std::vector<Slot> slots;
  Ring* retired = nullptr;  ///< the ring this one replaced (never freed)
};

Sampler::Sampler()
    : enabled_(sample_from_env()), ring_(new Ring(ring_from_env())) {}

Sampler& Sampler::instance() {
  static Sampler* s = new Sampler;  // leaked: recordings may outlive main
  return *s;
}

void Sampler::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Sampler::set_capacity(std::size_t n) { replace_ring(n < 1 ? 1 : n); }

void Sampler::replace_ring(std::size_t n) {
  // The old ring is never freed: writers may still hold its pointer, and
  // ring replacements are rare config-time events — a use-after-free
  // guard would cost the hot path more than the memory.  It stays
  // reachable from the (leaked) Sampler through the new ring.
  Ring* fresh = new Ring(n);
  fresh->retired = ring_.exchange(fresh, std::memory_order_acq_rel);
}

std::size_t Sampler::capacity() const {
  return ring_.load(std::memory_order_acquire)->slots.size();
}

std::uint32_t Sampler::intern(const std::string& s) {
  Interner& t = interner();
  std::lock_guard lock(t.mu);
  const auto it = t.ids.find(s);
  if (it != t.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(t.names.size());
  t.names.push_back(s);
  t.ids.emplace(s, id);
  return id;
}

std::string Sampler::name(std::uint32_t id) const {
  Interner& t = interner();
  std::lock_guard lock(t.mu);
  return id < t.names.size() ? t.names[id] : "?";
}

std::uint32_t Sampler::dim_count() const {
  Interner& t = interner();
  std::lock_guard lock(t.mu);
  return static_cast<std::uint32_t>(t.names.size());
}

void Sampler::record(OpSample sample) {
  if (!enabled()) return;
  Ring* ring = ring_.load(std::memory_order_acquire);
  const std::uint64_t seq =
      ring->head.fetch_add(1, std::memory_order_relaxed);
  produced_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring->slots[seq % ring->slots.size()];
  std::uint64_t v = slot.ver.load(std::memory_order_relaxed);
  if ((v & 1) != 0 ||
      !slot.ver.compare_exchange_strong(v, v + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    // Another writer lapped the ring into this slot mid-write: drop
    // rather than wait — the sampler must never add blocking to an op.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.rank.store(sample.rank, std::memory_order_relaxed);
  slot.op.store(sample.op, std::memory_order_relaxed);
  slot.engine.store(sample.engine, std::memory_order_relaxed);
  slot.backend.store(sample.backend, std::memory_order_relaxed);
  slot.net.store(sample.net, std::memory_order_relaxed);
  slot.qd.store(sample.qd, std::memory_order_relaxed);
  slot.bytes.store(sample.bytes, std::memory_order_relaxed);
  slot.runs.store(sample.runs, std::memory_order_relaxed);
  slot.dur_ns.store(sample.dur_ns, std::memory_order_relaxed);
  slot.ver.store(v + 2, std::memory_order_release);
}

MetricsSnapshot Sampler::snapshot() const {
  MetricsSnapshot out;
  const Ring* ring = ring_.load(std::memory_order_acquire);
  out.capacity = ring->slots.size();
  out.produced = produced_.load(std::memory_order_relaxed);
  out.dropped = dropped_.load(std::memory_order_relaxed);
  out.samples.reserve(ring->slots.size());
  for (const Slot& slot : ring->slots) {
    const std::uint64_t v1 = slot.ver.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) continue;  // never written / mid-write
    OpSample s;
    s.seq = slot.seq.load(std::memory_order_relaxed);
    s.rank = slot.rank.load(std::memory_order_relaxed);
    s.op = slot.op.load(std::memory_order_relaxed);
    s.engine = slot.engine.load(std::memory_order_relaxed);
    s.backend = slot.backend.load(std::memory_order_relaxed);
    s.net = slot.net.load(std::memory_order_relaxed);
    s.qd = slot.qd.load(std::memory_order_relaxed);
    s.bytes = slot.bytes.load(std::memory_order_relaxed);
    s.runs = slot.runs.load(std::memory_order_relaxed);
    s.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.ver.load(std::memory_order_relaxed) != v1) continue;  // torn
    out.samples.push_back(s);
  }
  std::sort(out.samples.begin(), out.samples.end(),
            [](const OpSample& a, const OpSample& b) { return a.seq < b.seq; });
  return out;
}

MetricsSnapshot Sampler::snapshot_since(std::uint64_t min_seq) const {
  MetricsSnapshot out = snapshot();
  std::erase_if(out.samples,
                [&](const OpSample& s) { return s.seq < min_seq; });
  return out;
}

void Sampler::reset() {
  replace_ring(capacity());
  produced_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace llio::obs
