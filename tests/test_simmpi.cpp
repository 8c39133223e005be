#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/error.hpp"
#include "simmpi/comm.hpp"

namespace llio::sim {
namespace {

ByteVec bytes_of(const std::string& s) {
  ByteVec v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::string string_of(const ByteVec& v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

TEST(Runtime, RunsAllRanks) {
  std::atomic<int> hits{0};
  Runtime::run(5, [&](Comm& c) {
    EXPECT_EQ(c.size(), 5);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 5);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 5);
}

TEST(Runtime, SingleRank) {
  Runtime::run(1, [&](Comm& c) {
    EXPECT_EQ(c.size(), 1);
    c.barrier();
    auto all = c.allgather(bytes_of("x"));
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(string_of(all[0]), "x");
  });
}

TEST(Runtime, RejectsZeroRanks) {
  EXPECT_THROW(Runtime::run(0, [](Comm&) {}), Error);
}

TEST(PointToPoint, DeliversInOrder) {
  Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 7, bytes_of("first"));
      c.send(1, 7, bytes_of("second"));
    } else {
      EXPECT_EQ(string_of(c.recv(0, 7)), "first");
      EXPECT_EQ(string_of(c.recv(0, 7)), "second");
    }
  });
}

TEST(PointToPoint, MatchesByTag) {
  Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, bytes_of("one"));
      c.send(1, 2, bytes_of("two"));
    } else {
      // Receive out of send order by selecting the tag.
      EXPECT_EQ(string_of(c.recv(0, 2)), "two");
      EXPECT_EQ(string_of(c.recv(0, 1)), "one");
    }
  });
}

TEST(PointToPoint, BadRankThrows) {
  Runtime::run(1, [&](Comm& c) {
    EXPECT_THROW(c.send(5, 0, bytes_of("x")), Error);
    EXPECT_THROW(c.recv(-1, 0), Error);
  });
}

TEST(PointToPoint, MoveSendIsZeroCopy) {
  // The rvalue send overload must hand the sender's buffer to the
  // receiver without reallocating: the receiver sees the same data
  // pointer and capacity, and the stats accounting matches the copying
  // overload.
  Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      ByteVec big = bytes_of("zero-copy payload");
      big.reserve(4096);
      // Ship the buffer's identity out of band so rank 1 can verify.
      const auto ptr = reinterpret_cast<std::uintptr_t>(big.data());
      const auto cap = static_cast<std::uint64_t>(big.capacity());
      ByteVec ident(sizeof(ptr) + sizeof(cap));
      std::memcpy(ident.data(), &ptr, sizeof(ptr));
      std::memcpy(ident.data() + sizeof(ptr), &cap, sizeof(cap));
      c.send(1, 1, ident, MsgClass::Meta);
      c.send(1, 2, std::move(big));
      EXPECT_EQ(c.stats().data_bytes_sent, 17u);  // charged before the move
    } else {
      const ByteVec ident = c.recv(0, 1);
      std::uintptr_t ptr;
      std::uint64_t cap;
      std::memcpy(&ptr, ident.data(), sizeof(ptr));
      std::memcpy(&cap, ident.data() + sizeof(ptr), sizeof(cap));
      const ByteVec got = c.recv(0, 2);
      EXPECT_EQ(string_of(got), "zero-copy payload");
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(got.data()), ptr);
      EXPECT_EQ(static_cast<std::uint64_t>(got.capacity()), cap);
    }
  });
}

TEST(Collectives, AlltoallAndAllgatherMoveTheSelfSlot) {
  Runtime::run(2, [&](Comm& c) {
    std::vector<ByteVec> out(2);
    for (int r = 0; r < 2; ++r) out[to_size(Off{r})] = bytes_of("payload");
    const Byte* self = out[to_size(Off{c.rank()})].data();
    auto in = c.alltoall(std::move(out));
    EXPECT_EQ(in[to_size(Off{c.rank()})].data(), self);

    ByteVec mine = bytes_of("gathered");
    const Byte* mptr = mine.data();
    auto all = c.allgather(std::move(mine));
    EXPECT_EQ(all[to_size(Off{c.rank()})].data(), mptr);
    EXPECT_EQ(string_of(all[to_size(Off{1 - c.rank()})]), "gathered");
  });
}

TEST(Collectives, Allgather) {
  Runtime::run(4, [&](Comm& c) {
    auto all = c.allgather(bytes_of(std::string(1, char('a' + c.rank()))));
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(string_of(all[to_size(Off{r})]), std::string(1, char('a' + r)));
  });
}

TEST(Collectives, Alltoall) {
  Runtime::run(3, [&](Comm& c) {
    std::vector<ByteVec> out(3);
    for (int r = 0; r < 3; ++r)
      out[to_size(Off{r})] =
          bytes_of(std::to_string(c.rank()) + "->" + std::to_string(r));
    auto in = c.alltoall(std::move(out));
    for (int r = 0; r < 3; ++r)
      EXPECT_EQ(string_of(in[to_size(Off{r})]),
                std::to_string(r) + "->" + std::to_string(c.rank()));
  });
}

TEST(Collectives, AlltoallEmptyPayloads) {
  Runtime::run(3, [&](Comm& c) {
    std::vector<ByteVec> out(3);  // all empty
    auto in = c.alltoall(std::move(out));
    for (const auto& v : in) EXPECT_TRUE(v.empty());
  });
}

TEST(Collectives, Bcast) {
  Runtime::run(4, [&](Comm& c) {
    const ByteVec got =
        c.bcast(2, c.rank() == 2 ? bytes_of("root-data") : ByteVec{});
    EXPECT_EQ(string_of(got), "root-data");
  });
}

TEST(Collectives, AllreduceSumMinMax) {
  Runtime::run(4, [&](Comm& c) {
    const Off v = c.rank() + 1;  // 1..4
    EXPECT_EQ(c.allreduce_sum(v), 10);
    EXPECT_EQ(c.allreduce_min(v), 1);
    EXPECT_EQ(c.allreduce_max(v), 4);
  });
}

TEST(Collectives, BarrierSeparatesPhases) {
  std::atomic<int> phase1{0};
  std::atomic<bool> ok{true};
  Runtime::run(4, [&](Comm& c) {
    phase1.fetch_add(1);
    c.barrier();
    if (phase1.load() != 4) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Collectives, RepeatedBarriers) {
  Runtime::run(3, [&](Comm& c) {
    for (int i = 0; i < 50; ++i) c.barrier();
  });
}

TEST(Stats, CountsBytesByClass) {
  Runtime::run(2, [&](Comm& c) {
    c.reset_stats();
    if (c.rank() == 0) {
      c.send(1, 0, bytes_of("12345"), MsgClass::Data);
      c.send(1, 1, bytes_of("123"), MsgClass::Meta);
    } else {
      c.recv(0, 0);
      c.recv(0, 1);
    }
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(c.stats().data_bytes_sent, 5u);
      EXPECT_EQ(c.stats().meta_bytes_sent, 3u);
      EXPECT_EQ(c.stats().msgs_sent, 2u);
    } else {
      EXPECT_EQ(c.stats().total_bytes(), 0u);
    }
    const CommStats g = c.global_stats();
    EXPECT_EQ(g.data_bytes_sent, 5u);
    EXPECT_EQ(g.meta_bytes_sent, 3u);
  });
}

TEST(CostModel, ChargesReceiveTime) {
  CommCostModel net;
  net.latency_s = 2e-3;
  net.bandwidth_bps = 1e6;  // 1 MB/s: 1 KiB costs ~1 ms
  double elapsed = 0;
  Runtime::run(2, net, [&](Comm& c) {
    const ByteVec payload(1024, Byte{1});
    c.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 5; ++i) {
      if (c.rank() == 0)
        c.send(1, 0, payload);
      else
        c.recv(0, 0);
    }
    if (c.rank() == 1)
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  });
  // 5 messages x (2 ms latency + ~1 ms transfer) >= 15 ms.
  EXPECT_GT(elapsed, 0.012);
}

TEST(CostModel, FreeModelAddsNothingMeasurable) {
  Runtime::run(2, CommCostModel{}, [&](Comm& c) {
    if (c.rank() == 0)
      c.send(1, 0, ByteVec(8, Byte{1}));
    else
      EXPECT_EQ(c.recv(0, 0).size(), 8u);
  });
}

TEST(Abort, FailingRankUnblocksPeers) {
  // Rank 1 throws while rank 0 waits in recv: the runtime must abort the
  // wait and rethrow the original error.
  try {
    Runtime::run(2, [&](Comm& c) {
      if (c.rank() == 1) throw_error(Errc::Io, "simulated failure");
      c.recv(1, 0);  // never satisfied
    });
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    SUCCEED();
  }
}

TEST(Abort, FailingRankUnblocksBarrier) {
  EXPECT_THROW(Runtime::run(3, [&](Comm& c) {
    if (c.rank() == 2) throw_error(Errc::Io, "boom");
    c.barrier();
  }), Error);
  // An exception that is not an llio::Error surfaces with its own type.
  EXPECT_THROW(Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 1) throw std::runtime_error("rank body exploded");
    c.barrier();
  }), std::runtime_error);
}

TEST(PointToPoint, TryRecvAnyDrainsWithoutBlocking) {
  Runtime::run(3, [&](Comm& c) {
    if (c.rank() == 0) {
      EXPECT_FALSE(c.try_recv_any(9).has_value());  // nothing sent yet
      c.barrier();
      std::set<int> srcs;
      while (srcs.size() < 2) {
        if (auto m = c.try_recv_any(9)) {
          EXPECT_EQ(string_of(m->second), "ping");
          srcs.insert(m->first);
        }
      }
      EXPECT_EQ(srcs, (std::set<int>{1, 2}));
    } else {
      c.barrier();
      c.send(0, 9, bytes_of("ping"));
    }
  });
}

TEST(Runtime, RunJobsWorldsAreIndependent) {
  // Each job is its own communicator world: collectives see only the
  // job's own ranks, never a neighbor job's.
  std::atomic<int> hits{0};
  Runtime::run_jobs(3, 2, CommCostModel{}, [&](int job, Comm& c) {
    EXPECT_EQ(c.size(), 2);
    const auto all = c.allgather(bytes_of(std::to_string(job * 10 + c.rank())));
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(string_of(all[0]), std::to_string(job * 10));
    EXPECT_EQ(string_of(all[1]), std::to_string(job * 10 + 1));
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 6);
}

TEST(Runtime, RunJobsRethrowsAJobsFailure) {
  EXPECT_THROW(Runtime::run_jobs(2, 1, CommCostModel{},
                                 [&](int job, Comm&) {
                                   if (job == 1)
                                     throw_error(Errc::Io, "job died");
                                 }),
               Error);
}

}  // namespace
}  // namespace llio::sim
