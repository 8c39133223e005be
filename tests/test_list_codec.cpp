// The list-based AccessCodec: wire checks on received ol-lists, and
// back-to-back collectives on one handle, whose codec reuses its list
// and cursor buffers from op to op.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "io_test_util.hpp"
#include "listio/list_engine.hpp"

namespace llio::mpiio {
namespace {

using iotest::noncontig_filetype;
using iotest::payload_stream;

/// Serve one peer whose list payload is [n][`tuples` tuples]; returns the
/// error code serve() raised, or nullopt when it accepted the peer.
std::optional<Errc> serve_list(Off n, std::size_t tuples) {
  const View view{0, dt::byte(), dt::byte()};
  const dt::OlList ft_list = dt::flatten(view.filetype);
  IoOpStats stats;
  listio::OlListCodec codec(view, ft_list, stats);
  ByteVec payload;
  put_off(payload, n);
  for (std::size_t i = 0; i < tuples; ++i) {
    put_off(payload, to_off(i) * 16);  // off
    put_off(payload, 8);               // len
  }
  ByteVec data(8 * tuples);
  PeerSlice peer;
  peer.slice = {0, to_off(data.size())};
  peer.payload = payload;
  peer.data = data.data();
  try {
    codec.serve({peer});
  } catch (const Error& e) {
    return e.code();
  }
  codec.serve({});
  return std::nullopt;
}

TEST(OlListCodec, AcceptsWellFormedList) {
  EXPECT_EQ(serve_list(3, 3), std::nullopt);
}

TEST(OlListCodec, RejectsTupleCountThatDisagreesWithSize) {
  EXPECT_EQ(serve_list(3, 2), Errc::Protocol);  // n claims more
  EXPECT_EQ(serve_list(2, 3), Errc::Protocol);  // trailing bytes
  EXPECT_EQ(serve_list(0, 0), Errc::Protocol);  // an empty list
  // n * sizeof(OlTuple) wraps to 0 in 64 bits.
  EXPECT_EQ(serve_list(Off{1} << 60, 0), Errc::Protocol);
}

/// One collective of the back-to-back sequence: every rank accesses
/// `nbytes` stream bytes at `offset`, except rank `idle`, which sends 0.
struct Op {
  bool write;
  Off offset;
  Off nbytes;
  int idle = -1;
};

class ListCodecReuse : public ::testing::TestWithParam<int> {};

// Alternating long, short and one-rank-idle collectives on one list-based
// handle must match the listless engine byte for byte: a stale tuple left
// in reused list or cursor capacity would misplace bytes.
TEST_P(ListCodecReuse, BackToBackCollectivesMatchListless) {
  const int P = 3;
  const Off nblock = 6, sblock = 8;
  const Off inst = nblock * sblock;  // stream bytes per filetype instance
  const std::vector<Op> ops = {
      {true, 0, 5 * inst},            {true, 3 * sblock + 5, 2 * sblock + 3},
      {true, sblock, 3 * inst, 2},    {false, 0, 5 * inst},
      {false, 3 * sblock + 5, 2 * sblock + 3},
      {false, sblock, 3 * inst, 2},   {true, inst + 1, 3 * inst},
      {true, 2, sblock},              {true, 0, 4 * inst + 7, 2},
      {false, 0, 5 * inst},           {false, 2, sblock},
      {false, inst + 1, 3 * inst, 2},
  };
  auto list_fs = pfs::MemFile::create();
  auto listless_fs = pfs::MemFile::create();
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.file_buffer_size = 256;
    o.pipeline_depth = GetParam();
    o.method = Method::ListBased;
    File list = File::open(comm, list_fs, o);
    o.method = Method::Listless;
    File listless = File::open(comm, listless_fs, o);
    const dt::Type ft = noncontig_filetype(nblock, sblock, P, comm.rank());
    list.set_view(0, dt::byte(), ft);
    listless.set_view(0, dt::byte(), ft);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const Off n = comm.rank() == op.idle ? 0 : op.nbytes;
      if (op.write) {
        const ByteVec stream =
            payload_stream(comm.rank() + P * static_cast<int>(i), n + 1);
        EXPECT_EQ(list.write_at_all(op.offset, stream.data(), n, dt::byte()),
                  n);
        EXPECT_EQ(
            listless.write_at_all(op.offset, stream.data(), n, dt::byte()),
            n);
      } else {
        // Both start with the same sentinel, so the compare also checks
        // that neither engine writes past the n requested bytes.
        ByteVec a(to_size(n + 1), Byte{0xEE}), b(to_size(n + 1), Byte{0xEE});
        EXPECT_EQ(list.read_at_all(op.offset, a.data(), n, dt::byte()), n);
        EXPECT_EQ(listless.read_at_all(op.offset, b.data(), n, dt::byte()),
                  n);
        EXPECT_EQ(a, b) << "op " << i << " rank " << comm.rank();
      }
    }
  });
  EXPECT_EQ(list_fs->contents(), listless_fs->contents());
  EXPECT_FALSE(list_fs->contents().empty());
}

INSTANTIATE_TEST_SUITE_P(Depths, ListCodecReuse, ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return std::string("d").append(
                               std::to_string(pinfo.param));
                         });

}  // namespace
}  // namespace llio::mpiio
