// Byte-buffer aliases and checked integer helpers shared across llio.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace llio {

using Byte = std::byte;
using ByteSpan = std::span<Byte>;
using ConstByteSpan = std::span<const Byte>;

/// std::allocator, except that value-initialising construction (what
/// `vector(n)` and `resize(n)` use) default-initialises: the new bytes of
/// a staging or wire buffer are left unwritten, since the next step
/// overwrites them end to end.  Builds without NDEBUG write 0xA5 there
/// instead, so a reader that relies on implicit zeros fails every run.
template <class T>
struct DefaultInitAlloc {
  using value_type = T;

  DefaultInitAlloc() = default;
  template <class U>
  constexpr DefaultInitAlloc(const DefaultInitAlloc<U>&) noexcept {}

  T* allocate(std::size_t n) { return std::allocator<T>{}.allocate(n); }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
  }

  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
#ifndef NDEBUG
    std::memset(static_cast<void*>(p), 0xA5, sizeof(U));
#endif
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const DefaultInitAlloc&,
                         const DefaultInitAlloc&) noexcept {
    return true;
  }
};

/// A byte buffer whose growth leaves the new bytes unspecified.  Ask for
/// zeros explicitly where file semantics need them: `ByteVec(n, Byte{0})`.
using ByteVec = std::vector<Byte, DefaultInitAlloc<Byte>>;

/// Append `src` to `out`: grow, then one memcpy.  Use it, not insert,
/// to append to a ByteVec: with DefaultInitAlloc libstdc++ copies element
/// by element, in insert and in the relocation when resize or reserve
/// grows the buffer, so a growth here moves the old bytes by memcpy too.
inline void append_bytes(ByteVec& out, ConstByteSpan src) {
  const std::size_t at = out.size();
  const std::size_t need = at + src.size();
  if (need > out.capacity()) {
    ByteVec grown;
    grown.reserve(std::max(need, 2 * out.capacity()));
    grown.resize(need);
    if (at != 0) std::memcpy(grown.data(), out.data(), at);
    out.swap(grown);
  } else {
    out.resize(need);
  }
  if (!src.empty()) std::memcpy(out.data() + at, src.data(), src.size());
}

/// Signed 64-bit offset/length used throughout (mirrors MPI_Offset/MPI_Aint).
using Off = std::int64_t;

inline Byte* as_bytes(void* p) noexcept { return static_cast<Byte*>(p); }
inline const Byte* as_bytes(const void* p) noexcept {
  return static_cast<const Byte*>(p);
}

/// Checked narrowing from Off to std::size_t (for memcpy sizes, indices).
inline std::size_t to_size(Off v) {
  LLIO_REQUIRE(v >= 0, Errc::InvalidArgument, "negative size/offset");
  return static_cast<std::size_t>(v);
}

/// Checked widening from std::size_t to Off.
inline Off to_off(std::size_t v) {
  LLIO_REQUIRE(v <= static_cast<std::size_t>(std::numeric_limits<Off>::max()),
               Errc::InvalidArgument, "size overflows Off");
  return static_cast<Off>(v);
}

/// floor(a / b) for b > 0, correct for negative a.
constexpr Off floor_div(Off a, Off b) noexcept {
  Off q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

/// ceil(a / b) for b > 0.
constexpr Off ceil_div(Off a, Off b) noexcept { return floor_div(a + b - 1, b); }

constexpr Off round_down(Off a, Off b) noexcept { return floor_div(a, b) * b; }
constexpr Off round_up(Off a, Off b) noexcept { return ceil_div(a, b) * b; }

}  // namespace llio
