// Wire protocol between psrv clients and file-server threads.
//
// One request message, one response message per round trip, both plain
// byte buffers over sim::Comm (so the CommCostModel charges them like any
// other traffic).  All offsets/lengths are little helpers over memcpy —
// client and servers share a process, but the format is kept explicit so
// the byte volumes the benches report are honest.
//
// Request layout (after the leading op byte):
//   Read         off, len                       — shard-local offsets
//   Write        off, payload
//   ReadList     n, n x (off, len)
//   WriteList    n, n x (off, len), payload     — payload packed in list
//                                                 order
//   ReadView     view_id, disp, stream_lo, len, tree_len, tree
//   WriteView    view_id, disp, stream_lo, tree_len, tree, payload
//   Resize       new_global_size
//   Sync         —
//   Stop         —
//
// View requests address the *global* file through the fileview (the
// server clips to its shard); tree_len may be 0 when the client believes
// the server already caches view_id — the server answers UnknownView if
// it does not (e.g. after eviction) and the client retries with the tree.
// The client sends each server's slice of a view access as requests of
// at most one stripe of stream bytes; a WriteView's payload is packed
// straight into its request, and a ReadView's reply payload is unpacked
// straight into user memory.
//
// Response layout:
//   status Ok          n, payload (reads)
//   status UnknownView —
//   status Fail        errc, message bytes
#pragma once

#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace llio::psrv::wire {

enum class Op : std::uint8_t {
  Read = 1,
  Write,
  ReadList,
  WriteList,
  ReadView,
  WriteView,
  Resize,
  Sync,
  Stop,
};

enum class Status : std::uint8_t {
  Ok = 0,
  UnknownView = 1,
  Fail = 2,
};

constexpr int kTagRequest = 11;
constexpr int kTagResponse = 12;

inline void put_u8(ByteVec& b, std::uint8_t v) {
  b.push_back(static_cast<Byte>(v));
}

inline void put_i64(ByteVec& b, std::int64_t v) {
  append_bytes(b, ConstByteSpan(as_bytes(&v), sizeof(v)));
}

inline void put_bytes(ByteVec& b, ConstByteSpan s) { append_bytes(b, s); }

/// Start a request: its op byte.
inline ByteVec request_header(Op op) {
  ByteVec b;
  put_u8(b, static_cast<std::uint8_t>(op));
  return b;
}

/// Sequential decoder; underruns are protocol violations.
class Reader {
 public:
  explicit Reader(ConstByteSpan s) : p_(s.data()), end_(s.data() + s.size()) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(*p_++);
  }

  std::int64_t i64() {
    need(sizeof(std::int64_t));
    std::int64_t v;
    std::memcpy(&v, p_, sizeof(v));
    p_ += sizeof(v);
    return v;
  }

  ConstByteSpan bytes(Off n) {
    need(to_size(n));
    ConstByteSpan out(p_, to_size(n));
    p_ += n;
    return out;
  }

  /// The rest of the message (a trailing payload).
  ConstByteSpan rest() {
    ConstByteSpan out(p_, static_cast<std::size_t>(end_ - p_));
    p_ = end_;
    return out;
  }

 private:
  void need(std::size_t n) const {
    LLIO_REQUIRE(static_cast<std::size_t>(end_ - p_) >= n, Errc::Protocol,
                 "psrv wire: truncated message");
  }

  const Byte* p_;
  const Byte* end_;
};

inline ByteVec fail_response(Errc code, const std::string& what) {
  ByteVec resp;
  resp.reserve(2 + what.size());
  put_u8(resp, static_cast<std::uint8_t>(Status::Fail));
  put_u8(resp, static_cast<std::uint8_t>(code));
  const Byte* msg = as_bytes(what.data());
  put_bytes(resp, ConstByteSpan(msg, what.size()));
  return resp;
}

inline ByteVec ok_response(Off n, Off payload_reserve = 0) {
  ByteVec resp;
  resp.reserve(to_size(to_off(sizeof(std::int64_t)) + 1 + payload_reserve));
  put_u8(resp, static_cast<std::uint8_t>(Status::Ok));
  put_i64(resp, n);
  return resp;
}

}  // namespace llio::psrv::wire
