#include "psrv/server_file.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "core/listless_nav.hpp"
#include "dtype/normalize.hpp"
#include "dtype/serialize.hpp"
#include "pfs/async_io.hpp"
#include "pfs/mem_file.hpp"
#include "pfs/posix_file.hpp"
#include "psrv/wire.hpp"
#include "simmpi/net_model.hpp"

namespace llio::psrv {

RequestClass request_class_from_name(const std::string& name) {
  if (name == "contig") return RequestClass::Contig;
  if (name == "list") return RequestClass::List;
  if (name == "view") return RequestClass::View;
  throw_error(Errc::InvalidArgument,
              "psrv request class (want contig|list|view): " + name);
}

const char* request_class_name(RequestClass cls) noexcept {
  switch (cls) {
    case RequestClass::Contig:
      return "contig";
    case RequestClass::List:
      return "list";
    case RequestClass::View:
      return "view";
  }
  return "?";
}

/// Client-side cached fileview: the serialized normalized tree, a
/// navigator for shard splitting, and which servers have it installed.
struct ServerFile::ClientView {
  std::int64_t id = 0;
  dt::Type ft;   ///< normalized filetype (owned, pins the tree)
  ByteVec tree;  ///< dt::serialize(ft) — what travels on first use
  std::mutex nav_mu;
  std::unique_ptr<core::ListlessNav> nav;
  std::unique_ptr<std::atomic<bool>[]> installed;  ///< per server
};

/// One wire round trip: request message plus where its response goes.
struct ServerFile::SubReq {
  int server = 0;
  sim::MsgClass cls = sim::MsgClass::Meta;
  ByteVec msg;

  /// Contig/list write payloads, gathered onto the wire straight from
  /// user memory (send_gather) instead of being staged into `msg`.  The
  /// spans must stay valid until transact() returns.
  std::vector<ConstByteSpan> payload_runs;

  /// Contig/list Ok-response payload destinations, filled sequentially
  /// (reads).
  std::vector<ByteSpan> dests;

  /// View requests (non-null `view`): the stream range [slo, slo + slen)
  /// of the view displaced by `disp`.  The message is built at send time,
  /// its write payload packed by the op's fill straight into it, and
  /// built again with the tree attached on an UnknownView retry.
  ClientView* view = nullptr;
  Off disp = 0, slo = 0, slen = 0;
  bool retried = false;
};

ServerFile::ServerFile(std::shared_ptr<ServerPool> pool, RequestClass cls)
    : pool_(std::move(pool)), cls_(cls) {
  LLIO_REQUIRE(pool_ != nullptr, Errc::InvalidArgument, "psrv: null pool");
}

std::shared_ptr<ServerFile> ServerFile::create(std::shared_ptr<ServerPool> pool,
                                               RequestClass cls) {
  return std::shared_ptr<ServerFile>(new ServerFile(std::move(pool), cls));
}

namespace {

/// A view request's message: header, the tree when `with_tree`, and on a
/// write the payload that `fill` packs in place.
ByteVec view_request(const ServerFile::SubReq& r, bool with_tree,
                     const pfs::ViewIo::Fill* fill) {
  const bool writing = fill != nullptr;
  const ByteVec& tree = r.view->tree;
  const Off tree_len = with_tree ? to_off(tree.size()) : 0;
  ByteVec m;
  m.reserve(to_size(1 + 5 * to_off(sizeof(std::int64_t)) + tree_len +
                    (writing ? r.slen : 0)));
  wire::put_u8(m, static_cast<std::uint8_t>(writing ? wire::Op::WriteView
                                                    : wire::Op::ReadView));
  wire::put_i64(m, r.view->id);
  wire::put_i64(m, r.disp);
  wire::put_i64(m, r.slo);
  if (!writing) wire::put_i64(m, r.slen);
  wire::put_i64(m, tree_len);
  if (with_tree) wire::put_bytes(m, tree);
  if (writing) {
    const std::size_t at = m.size();
    m.resize(at + to_size(r.slen));
    (*fill)(m.data() + at, r.slo, r.slen);
  }
  return m;
}

}  // namespace

void ServerFile::transact(std::vector<SubReq>& reqs,
                          const pfs::ViewIo::Fill* fill,
                          const pfs::ViewIo::Drain* drain) {
  if (reqs.empty()) return;
  ServerPool::Endpoint ep = pool_->checkout();
  std::vector<std::optional<ServerPool::Credit>> credits(reqs.size());
  std::optional<Errc> err;
  std::string err_what;
  // A fill or drain that throws stops further sends; the responses
  // already owed are still drained, so the endpoint goes back clean.
  std::exception_ptr callback_err;

  // Send request `r`; false when its fill threw (nothing was sent).
  const auto send = [&](SubReq& r, bool with_tree) {
    if (r.view == nullptr) {
      ep.comm().send_gather(r.server, wire::kTagRequest, ConstByteSpan(r.msg),
                            r.payload_runs, r.cls);
      return true;
    }
    ByteVec m;
    try {
      m = view_request(r, with_tree, fill);
    } catch (...) {
      if (!callback_err) callback_err = std::current_exception();
      return false;
    }
    ep.comm().send(r.server, wire::kTagRequest, std::move(m), r.cls);
    return true;
  };

  // Consume request `r`'s response; true when it was re-sent instead
  // (an UnknownView retry, whose response is owed later).
  const auto process_response = [&](SubReq& r) {
    const ByteVec resp = ep.comm().recv(r.server, wire::kTagResponse);
    wire::Reader rd(resp);
    const auto status = static_cast<wire::Status>(rd.u8());
    if (status == wire::Status::UnknownView && r.view != nullptr &&
        !r.retried) {
      // Server-side cache eviction: retry once with the tree attached,
      // reusing the credit this request already holds.  The retry goes
      // behind this endpoint's other requests on that server, so its
      // response is matched after theirs.
      r.view->installed[to_size(r.server)].store(false,
                                                 std::memory_order_relaxed);
      r.retried = true;
      return send(r, /*with_tree=*/true);
    }
    switch (status) {
      case wire::Status::Ok: {
        rd.i64();  // op result count (informational)
        if (r.view != nullptr) {
          if (drain != nullptr && !callback_err) {
            const ConstByteSpan chunk = rd.bytes(r.slen);
            try {
              (*drain)(chunk.data(), r.slo, r.slen);
            } catch (...) {
              callback_err = std::current_exception();
            }
          }
          r.view->installed[to_size(r.server)].store(
              true, std::memory_order_relaxed);
        }
        for (const ByteSpan& dst : r.dests) {
          const ConstByteSpan chunk = rd.bytes(to_off(dst.size()));
          std::memcpy(dst.data(), chunk.data(), chunk.size());
        }
        break;
      }
      case wire::Status::Fail: {
        if (!err) {
          err = static_cast<Errc>(rd.u8());
          const ConstByteSpan what = rd.rest();
          err_what.assign(reinterpret_cast<const char*>(what.data()),
                          what.size());
        }
        break;
      }
      default:
        if (!err) {
          err = Errc::Protocol;
          err_what = "psrv: unexpected response status";
        }
        break;
    }
    return false;
  };

  // Sliding window: send when a credit is free, otherwise drain the
  // oldest outstanding response (which frees one).  Blocking on a credit
  // is only safe with nothing of ours outstanding — with fewer credits
  // than sub-requests on one server, send-all-then-drain would deadlock.
  // The credits are shared by every handle on the pool, but a blocked
  // call holds none, so every credit it waits for is held by a call that
  // is making progress.  `order` lists requests in send order: one server
  // answers one endpoint in that order, so its front's response is the
  // next one that server sends here.
  std::vector<std::size_t> order;
  order.reserve(reqs.size());
  std::size_t head = 0, next = 0;
  while (head < order.size() || (next < reqs.size() && !callback_err)) {
    if (next < reqs.size() && !callback_err) {
      SubReq& r = reqs[next];
      std::optional<ServerPool::Credit> credit =
          pool_->acquire_credit(r.server, /*wait=*/head == order.size());
      if (credit) {
        if (send(r, r.view != nullptr &&
                        !r.view->installed[to_size(r.server)].load(
                            std::memory_order_relaxed))) {
          credits[next] = std::move(credit);
          order.push_back(next);
        }
        ++next;
        continue;
      }
    }
    const std::size_t i = order[head++];
    if (process_response(reqs[i]))
      order.push_back(i);
    else
      credits[i].reset();  // response consumed: free the queue slot
  }
  if (callback_err) std::rethrow_exception(callback_err);
  if (err) throw_error(*err, err_what);
}

// ---- contig / list translation -------------------------------------------

namespace {

/// A shard-local slice of one access.
template <typename SpanT>
struct Piece {
  int server = 0;
  Off local_off = 0;
  SpanT buf;
};

using WPiece = Piece<ConstByteSpan>;
using RPiece = Piece<ByteSpan>;

/// Split a contiguous file extent into per-shard pieces, in file order.
template <typename SpanT>
void split_extent(const ServerPool& pool, Off off, SpanT buf,
                  std::vector<Piece<SpanT>>& out) {
  Off len = to_off(buf.size());
  if (len <= 0) return;
  int s = pool.owner(off);
  const auto& domains = pool.domains();
  Off done = 0;
  while (len > 0) {
    const mpiio::Domain& d = domains[to_size(Off{s})];
    if (d.empty() || off >= d.hi) {
      ++s;
      LLIO_ASSERT(s < static_cast<int>(domains.size()),
                  "psrv: extent ran past the last shard");
      continue;
    }
    const Off take = std::min(len, d.hi - off);
    out.push_back({s, off - d.lo, buf.subspan(to_size(done), to_size(take))});
    off += take;
    done += take;
    len -= take;
  }
}

/// One Read/Write round trip per piece (the chatty contig baseline).
template <typename SpanT>
void encode_contig(std::vector<Piece<SpanT>>& pieces, bool writing,
                   std::vector<ServerFile::SubReq>& reqs) {
  for (Piece<SpanT>& p : pieces) {
    ServerFile::SubReq r;
    r.server = p.server;
    if (writing) {
      r.cls = sim::MsgClass::Data;
      r.msg = wire::request_header(wire::Op::Write);
      wire::put_i64(r.msg, p.local_off);
      r.payload_runs.push_back(ConstByteSpan(p.buf.data(), p.buf.size()));
    } else {
      r.cls = sim::MsgClass::Meta;
      r.msg = wire::request_header(wire::Op::Read);
      wire::put_i64(r.msg, p.local_off);
      wire::put_i64(r.msg, to_off(p.buf.size()));
      if constexpr (std::is_same_v<SpanT, ByteSpan>) r.dests.push_back(p.buf);
    }
    reqs.push_back(std::move(r));
  }
}

/// Group pieces per server into ol-list messages, coalescing adjacent
/// extents client-side (the "batching of adjacent extents").  When
/// `batch_max` > 0 a server's list is split into multiple messages of at
/// most that many coalesced extents each, mirroring how the local
/// backends honor Options::iov_batch_max.
template <typename SpanT>
void encode_list(std::vector<Piece<SpanT>>& pieces, bool writing, int nservers,
                 Off batch_max, std::vector<ServerFile::SubReq>& reqs) {
  const std::size_t max_extents = batch_max > 0
                                      ? to_size(batch_max)
                                      : std::numeric_limits<std::size_t>::max();
  for (int s = 0; s < nservers; ++s) {
    std::vector<std::pair<Off, Off>> extents;  // (local_off, len)
    std::vector<Piece<SpanT>*> chunk;
    const auto flush = [&] {
      if (extents.empty()) return;
      ServerFile::SubReq r;
      r.server = s;
      r.cls = writing ? sim::MsgClass::Data : sim::MsgClass::Meta;
      r.msg = wire::request_header(writing ? wire::Op::WriteList
                                           : wire::Op::ReadList);
      wire::put_i64(r.msg, to_off(extents.size()));
      for (const auto& [off, len] : extents) {
        wire::put_i64(r.msg, off);
        wire::put_i64(r.msg, len);
      }
      for (Piece<SpanT>* p : chunk) {
        if (writing)
          r.payload_runs.push_back(ConstByteSpan(p->buf.data(), p->buf.size()));
        else if constexpr (std::is_same_v<SpanT, ByteSpan>)
          r.dests.push_back(p->buf);
      }
      reqs.push_back(std::move(r));
      extents.clear();
      chunk.clear();
    };
    for (Piece<SpanT>& p : pieces) {
      if (p.server != s) continue;
      const Off len = to_off(p.buf.size());
      if (!extents.empty() &&
          extents.back().first + extents.back().second == p.local_off) {
        extents.back().second += len;
      } else {
        if (extents.size() >= max_extents) flush();
        extents.emplace_back(p.local_off, len);
      }
      chunk.push_back(&p);
    }
    flush();
  }
}

}  // namespace

void ServerFile::do_pwrite(Off offset, ConstByteSpan data) {
  std::vector<WPiece> pieces;
  split_extent(*pool_, offset, data, pieces);
  std::vector<SubReq> reqs;
  encode_contig(pieces, /*writing=*/true, reqs);
  transact(reqs);
  pool_->grow_size(offset + to_off(data.size()));
}

Off ServerFile::do_pread(Off offset, ByteSpan out) {
  const Off len = to_off(out.size());
  const Off fsize = pool_->logical_size();
  std::vector<RPiece> pieces;
  split_extent(*pool_, offset, out, pieces);
  std::vector<SubReq> reqs;
  encode_contig(pieces, /*writing=*/false, reqs);
  transact(reqs);
  // Servers zero-fill past their shard EOF; the read count follows the
  // logical file size (short reads only at end of file).
  return std::clamp<Off>(fsize - offset, 0, len);
}

void ServerFile::do_pwritev(std::span<const pfs::ConstIoVec> iov) {
  std::vector<WPiece> pieces;
  Off hi = 0;
  for (const pfs::ConstIoVec& v : iov) {
    split_extent(*pool_, v.offset, v.buf, pieces);
    hi = std::max(hi, v.offset + to_off(v.buf.size()));
  }
  std::vector<SubReq> reqs;
  if (cls_ == RequestClass::Contig)
    encode_contig(pieces, /*writing=*/true, reqs);
  else
    encode_list(pieces, /*writing=*/true, pool_->nservers(), iov_batch_max(),
                reqs);
  transact(reqs);
  pool_->grow_size(hi);
}

Off ServerFile::do_preadv(std::span<const pfs::IoVec> iov) {
  const Off fsize = pool_->logical_size();
  std::vector<RPiece> pieces;
  for (const pfs::IoVec& v : iov) split_extent(*pool_, v.offset, v.buf, pieces);
  std::vector<SubReq> reqs;
  if (cls_ == RequestClass::Contig)
    encode_contig(pieces, /*writing=*/false, reqs);
  else
    encode_list(pieces, /*writing=*/false, pool_->nservers(), iov_batch_max(),
                reqs);
  transact(reqs);
  Off got = 0;
  for (const pfs::IoVec& v : iov)
    got += std::clamp<Off>(fsize - v.offset, 0, to_off(v.buf.size()));
  return got;
}

// ---- view translation ----------------------------------------------------

std::shared_ptr<ServerFile::ClientView> ServerFile::intern_view(
    const dt::Type& filetype) {
  ByteVec key = dt::serialize(dt::normalize(filetype));
  std::lock_guard<std::mutex> lock(views_mu_);
  auto it = views_.find(key);
  if (it != views_.end()) return it->second;
  auto cv = std::make_shared<ClientView>();
  cv->id = pool_->alloc_view_id();
  cv->ft = dt::deserialize(key);  // private normalized copy
  cv->tree = key;
  cv->nav = std::make_unique<core::ListlessNav>(cv->ft);
  cv->installed = std::make_unique<std::atomic<bool>[]>(
      to_size(Off{pool_->nservers()}));
  views_.emplace(std::move(key), cv);
  return cv;
}

Off ServerFile::view_access(const dt::Type& filetype, Off disp, Off stream_lo,
                            Off n, const Fill* fill, const Drain* drain) {
  if (n <= 0) return 0;
  LLIO_REQUIRE(stream_lo >= 0 && disp >= 0, Errc::InvalidArgument,
               "psrv view access: negative position");
  const bool writing = fill != nullptr;
  std::shared_ptr<ClientView> cv = intern_view(filetype);

  // Split the stream range at shard boundaries: navigable monotone
  // filetypes map stream order to file order, so the stream bytes below a
  // domain's upper file offset are exactly the bytes this and earlier
  // servers own.
  struct VSeg {
    int server;
    Off slo, shi;
  };
  std::vector<VSeg> segs;
  Off abs_hi = 0;
  {
    std::lock_guard<std::mutex> lock(cv->nav_mu);
    core::ListlessNav& nav = *cv->nav;
    const Off s_hi = stream_lo + n;
    Off cursor = stream_lo;
    const auto& domains = pool_->domains();
    for (std::size_t s = 0; s < domains.size() && cursor < s_hi; ++s) {
      const mpiio::Domain& d = domains[s];
      if (d.empty()) continue;
      Off shi;
      if (d.hi >= ServerPool::kOpenEnd) {
        shi = s_hi;  // open-ended last domain takes the rest
      } else {
        const Off mem_hi = d.hi - disp;
        shi = mem_hi <= 0 ? cursor : nav.file_to_stream(mem_hi);
        shi = std::clamp(shi, cursor, s_hi);
      }
      if (shi > cursor) segs.push_back({static_cast<int>(s), cursor, shi});
      cursor = shi;
    }
    LLIO_ASSERT(cursor == s_hi, "psrv: view split lost stream bytes");
    if (writing) abs_hi = disp + nav.stream_to_file_end(s_hi);
  }

  // Each server's slice travels as requests of at most one stripe of
  // stream bytes, dealt round-robin over the servers: every server starts
  // on its first request while the client still packs the next ones, and
  // a read's replies are unpacked as they arrive.
  const Off chunk = pool_->config().stripe;
  std::size_t nreqs = 0;
  for (const VSeg& seg : segs)
    nreqs += to_size((seg.shi - seg.slo + chunk - 1) / chunk);
  std::vector<SubReq> reqs;
  reqs.reserve(nreqs);
  for (Off k = 0; reqs.size() < nreqs; k += chunk) {
    for (const VSeg& seg : segs) {
      const Off lo = seg.slo + k;
      if (lo >= seg.shi) continue;
      SubReq r;
      r.server = seg.server;
      r.cls = writing ? sim::MsgClass::Data : sim::MsgClass::Meta;
      r.view = cv.get();
      r.disp = disp;
      r.slo = lo;
      r.slen = std::min(chunk, seg.shi - lo);
      reqs.push_back(std::move(r));
    }
  }
  transact(reqs, fill, drain);
  if (writing) pool_->grow_size(abs_hi);
  return n;
}

Off ServerFile::view_write_stream(const dt::Type& filetype, Off disp,
                                  Off stream_lo, Off n, const Fill& fill) {
  const Off got = view_access(filetype, disp, stream_lo, n, &fill, nullptr);
  note_write(got);
  return got;
}

Off ServerFile::view_read_stream(const dt::Type& filetype, Off disp,
                                 Off stream_lo, Off n, const Drain& drain) {
  const Off got = view_access(filetype, disp, stream_lo, n, nullptr, &drain);
  note_read(got);
  return got;
}

Off ServerFile::view_write(const dt::Type& filetype, Off disp, Off stream_lo,
                           ConstByteSpan data) {
  return view_write_stream(
      filetype, disp, stream_lo, to_off(data.size()),
      [&](Byte* p, Off s, Off n) {
        std::memcpy(p, data.data() + (s - stream_lo), to_size(n));
      });
}

Off ServerFile::view_read(const dt::Type& filetype, Off disp, Off stream_lo,
                          ByteSpan out) {
  return view_read_stream(
      filetype, disp, stream_lo, to_off(out.size()),
      [&](const Byte* p, Off s, Off n) {
        std::memcpy(out.data() + (s - stream_lo), p, to_size(n));
      });
}

// ---- admin ---------------------------------------------------------------

void ServerFile::resize(Off new_size) {
  LLIO_REQUIRE(new_size >= 0, Errc::InvalidArgument,
               "psrv resize: negative size");
  std::vector<SubReq> reqs;
  for (int s = 0; s < pool_->nservers(); ++s) {
    SubReq r;
    r.server = s;
    r.msg = wire::request_header(wire::Op::Resize);
    wire::put_i64(r.msg, new_size);
    reqs.push_back(std::move(r));
  }
  transact(reqs);
  pool_->set_size(new_size);
}

void ServerFile::sync() {
  std::vector<SubReq> reqs;
  for (int s = 0; s < pool_->nservers(); ++s) {
    SubReq r;
    r.server = s;
    r.msg = wire::request_header(wire::Op::Sync);
    reqs.push_back(std::move(r));
  }
  transact(reqs);
}

// ---- backend factory -----------------------------------------------------

pfs::FilePtr make_backend(const pfs::BackendSpec& spec, PoolConfig base) {
  using Kind = pfs::BackendSpec::Kind;
  if (!spec.net.empty()) {  // resolved on every kind, so a bad name throws
    base.net = sim::named_cost_model(spec.net);
  }
  if (spec.kind == Kind::Mem) return pfs::MemFile::create();
  if (spec.kind == Kind::Posix) {
    pfs::PosixConfig pc;
    pc.direct = spec.direct;
    pfs::FilePtr f = pfs::PosixFile::open_temp(spec.dir, pc);
    return spec.qd > 1 ? pfs::AsyncQdFile::wrap(std::move(f), spec.qd) : f;
  }
  if (spec.servers > 0) base.nservers = spec.servers;
  if (spec.qd > 0) base.queue_depth = spec.qd;
  return ServerFile::create(ServerPool::create(std::move(base)),
                            request_class_from_name(spec.request));
}

}  // namespace llio::psrv
