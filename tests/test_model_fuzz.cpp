// Model-based randomized integration test: a trivially-correct reference
// implementation of MPI-IO semantics (explicit flatten + direct byte
// moves on a plain byte vector) is driven with the same random operation
// sequences as both engines.  Any divergence in file image or read-back
// is a bug in the engine under test.
#include <gtest/gtest.h>

#include <future>

#include "io_test_util.hpp"

namespace llio::mpiio {
namespace {

using testutil::Rng;

/// The oracle: a byte-vector "file" accessed through (disp, filetype)
/// views by brute-force stream expansion.
class ModelFile {
 public:
  void set_view(Off disp, dt::Type filetype) {
    disp_ = disp;
    list_ = dt::flatten(filetype, false);
    extent_ = filetype->extent();
  }

  void write(Off offset_bytes, ConstByteSpan payload) {
    apply(offset_bytes, to_off(payload.size()),
          [&](Off abs, Off stream_rel) { at(abs) = payload[to_size(stream_rel)]; });
  }

  ByteVec read(Off offset_bytes, Off n) const {
    ByteVec out(to_size(n), Byte{0});
    apply(offset_bytes, n, [&](Off abs, Off stream_rel) {
      if (abs < to_off(data_.size())) out[to_size(stream_rel)] = data_[to_size(abs)];
    });
    return out;
  }

  const ByteVec& image() const { return data_; }

 private:
  Byte& at(Off abs) {
    if (abs >= to_off(data_.size())) data_.resize(to_size(abs + 1), Byte{0});
    return data_[to_size(abs)];
  }

  template <typename Fn>
  void apply(Off stream_lo, Off n, Fn&& fn) const {
    // Walk stream bytes [stream_lo, stream_lo + n) of the view.
    Off s = 0;
    for (Off inst = 0; s < stream_lo + n; ++inst) {
      for (const auto& tp : list_.tuples()) {
        for (Off j = 0; j < tp.len && s < stream_lo + n; ++j, ++s) {
          if (s >= stream_lo)
            fn(disp_ + inst * extent_ + tp.off + j, s - stream_lo);
        }
      }
    }
  }

  Off disp_ = 0;
  dt::OlList list_ = dt::flatten(dt::byte());
  Off extent_ = 1;
  mutable ByteVec data_;
};

class ModelFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ModelFuzz, SingleRankOpSequencesMatchTheModel) {
  Rng rng(GetParam());
  for (int episode = 0; episode < 5; ++episode) {
    // One episode: a fresh file, a random sequence of view changes and
    // reads/writes, applied to the model and to both engines.
    struct Op {
      enum Kind { SetView, Write, Read } kind;
      dt::Type ft;
      Off disp = 0;
      Off offset = 0;  // etypes == bytes (etype is byte throughout)
      Off nbytes = 0;
      unsigned seed = 0;
    };
    std::vector<Op> ops;
    dt::Type cur = testutil::random_navigable_type(rng, 2);
    ops.push_back({Op::SetView, cur, testutil::rnd(rng, 0, 32)});
    const int nops = 14;
    for (int i = 0; i < nops; ++i) {
      const Off r = testutil::rnd(rng, 0, 9);
      if (r == 0) {
        cur = testutil::random_navigable_type(rng, 2);
        ops.push_back({Op::SetView, cur, testutil::rnd(rng, 0, 32)});
      } else {
        Op op;
        op.kind = r <= 5 ? Op::Write : Op::Read;
        op.offset = testutil::rnd(rng, 0, 2 * cur->size());
        op.nbytes = testutil::rnd(rng, 1, 3 * cur->size());
        op.seed = static_cast<unsigned>(testutil::rnd(rng, 1, 1 << 20));
        ops.push_back(op);
      }
    }

    // Model run.
    ModelFile model;
    std::vector<ByteVec> model_reads;
    {
      dt::Type ft;
      for (const Op& op : ops) {
        switch (op.kind) {
          case Op::SetView:
            model.set_view(op.disp, op.ft);
            break;
          case Op::Write: {
            ByteVec payload(to_size(op.nbytes));
            for (Off j = 0; j < op.nbytes; ++j)
              payload[to_size(j)] = iotest::payload_byte(
                  static_cast<int>(op.seed & 0xFF), j + op.seed);
            model.write(op.offset, payload);
            break;
          }
          case Op::Read:
            model_reads.push_back(model.read(op.offset, op.nbytes));
            break;
        }
      }
      (void)ft;
    }

    // Engine runs: both engines over every backend of the matrix.
    const Off fbs = static_cast<Off>(testutil::rnd(rng, 1, 4)) * 64;
    for (Method m : {Method::ListBased, Method::Listless}) {
      for (const std::string& spec : iotest::backend_specs()) {
        auto fs = iotest::make_backend(spec);
        std::vector<ByteVec> reads;
        sim::Runtime::run(1, [&](sim::Comm& comm) {
          Options o;
          o.method = m;
          o.file_buffer_size = fbs;
          o.pack_buffer_size = 64;
          File f = File::open(comm, fs, o);
          for (const Op& op : ops) {
            switch (op.kind) {
              case Op::SetView:
                f.set_view(op.disp, dt::byte(), op.ft);
                break;
              case Op::Write: {
                ByteVec payload(to_size(op.nbytes));
                for (Off j = 0; j < op.nbytes; ++j)
                  payload[to_size(j)] = iotest::payload_byte(
                      static_cast<int>(op.seed & 0xFF), j + op.seed);
                f.write_at(op.offset, payload.data(), op.nbytes, dt::byte());
                break;
              }
              case Op::Read: {
                ByteVec got(to_size(op.nbytes), Byte{0});
                f.read_at(op.offset, got.data(), op.nbytes, dt::byte());
                reads.push_back(std::move(got));
                break;
              }
            }
          }
        });
        ASSERT_EQ(reads.size(), model_reads.size());
        for (std::size_t i = 0; i < reads.size(); ++i)
          EXPECT_EQ(reads[i], model_reads[i])
              << method_name(m) << " over " << spec << " episode "
              << episode << " read " << i;
        ByteVec img = iotest::backend_image(fs);
        ByteVec want = model.image();
        iotest::pad_to_common(img, want);
        EXPECT_EQ(img, want) << method_name(m) << " over " << spec
                             << " episode " << episode;
      }
    }
  }
}

TEST_P(ModelFuzz, SingleRankCollectivesMatchTheModelAtBothDepths) {
  // Collective counterpart: the same random op sequence is replayed
  // through write_at_all/read_at_all for every engine at pipeline_depth
  // 0 and 2 — the pipelined window loop must be bit-identical to the
  // serial one on every random view.
  Rng rng(GetParam() + 7777u);
  for (int episode = 0; episode < 3; ++episode) {
    const dt::Type ft = testutil::random_navigable_type(rng, 2);
    const Off disp = testutil::rnd(rng, 0, 32);
    struct Op {
      bool write;
      Off offset, nbytes;
      unsigned seed;
    };
    std::vector<Op> ops;
    for (int i = 0; i < 8; ++i) {
      Op op;
      op.write = testutil::rnd(rng, 0, 1) == 0;
      op.offset = testutil::rnd(rng, 0, 2 * ft->size());
      op.nbytes = testutil::rnd(rng, 1, 3 * ft->size());
      op.seed = static_cast<unsigned>(testutil::rnd(rng, 1, 1 << 20));
      ops.push_back(op);
    }
    auto payload_of = [](const Op& op) {
      ByteVec payload(to_size(op.nbytes));
      for (Off j = 0; j < op.nbytes; ++j)
        payload[to_size(j)] = iotest::payload_byte(
            static_cast<int>(op.seed & 0xFF), j + op.seed);
      return payload;
    };

    ModelFile model;
    model.set_view(disp, ft);
    std::vector<ByteVec> model_reads;
    for (const Op& op : ops) {
      if (op.write)
        model.write(op.offset, payload_of(op));
      else
        model_reads.push_back(model.read(op.offset, op.nbytes));
    }

    const Off fbs = static_cast<Off>(testutil::rnd(rng, 1, 4)) * 64;
    for (Method m : {Method::ListBased, Method::Listless}) {
      for (int depth : {0, 2}) {
        for (const std::string& spec : iotest::backend_specs()) {
          auto fs = iotest::make_backend(spec);
          std::vector<ByteVec> reads;
          sim::Runtime::run(1, [&](sim::Comm& comm) {
            Options o;
            o.method = m;
            o.file_buffer_size = fbs;
            o.pack_buffer_size = 64;
            o.pipeline_depth = depth;
            File f = File::open(comm, fs, o);
            f.set_view(disp, dt::byte(), ft);
            for (const Op& op : ops) {
              if (op.write) {
                const ByteVec payload = payload_of(op);
                f.write_at_all(op.offset, payload.data(), op.nbytes,
                               dt::byte());
              } else {
                ByteVec got(to_size(op.nbytes), Byte{0});
                f.read_at_all(op.offset, got.data(), op.nbytes, dt::byte());
                reads.push_back(std::move(got));
              }
            }
          });
          ASSERT_EQ(reads.size(), model_reads.size());
          for (std::size_t i = 0; i < reads.size(); ++i)
            EXPECT_EQ(reads[i], model_reads[i])
                << method_name(m) << " depth " << depth << " over " << spec
                << " episode " << episode << " read " << i;
          ByteVec img = iotest::backend_image(fs);
          ByteVec want = model.image();
          iotest::pad_to_common(img, want);
          EXPECT_EQ(img, want)
              << method_name(m) << " depth " << depth << " over " << spec
              << " episode " << episode;
        }
      }
    }
  }
}

TEST_P(ModelFuzz, MultiRankCollectiveWritesIdenticalOffVsAuto) {
  // Mergeview and zero-copy windows must be pure optimizations, and the
  // pipelined window loop and the storage stack must not matter either:
  // random collective writes and reads produce the same file image and
  // the same read-back as the engine's serial, all-off run on MemFile —
  // across overlapping random views, zero-participation ranks, and
  // pre-existing file contents.
  Rng rng(GetParam() + 31337u);
  for (int episode = 0; episode < 2; ++episode) {
    const int P = static_cast<int>(testutil::rnd(rng, 2, 4));
    std::vector<dt::Type> fts;
    std::vector<Off> disps;
    for (int r = 0; r < P; ++r) {
      fts.push_back(testutil::random_navigable_type(rng, 2));
      // Small random displacements: the ranks' views overlap arbitrarily.
      disps.push_back(testutil::rnd(rng, 0, 48));
    }
    struct Op {
      bool write;
      std::vector<Off> offset, nbytes;
      std::vector<unsigned> seed;
    };
    std::vector<Op> ops;
    for (int i = 0; i < 6; ++i) {
      Op op;
      op.write = testutil::rnd(rng, 0, 2) != 0;
      for (int r = 0; r < P; ++r) {
        op.offset.push_back(testutil::rnd(rng, 0, 2 * fts[to_size(Off{r})]->size()));
        // 1 in 4: this rank participates with zero bytes.
        op.nbytes.push_back(testutil::rnd(rng, 0, 3) == 0
                                ? 0
                                : testutil::rnd(rng, 1, 3 * fts[to_size(Off{r})]->size()));
        op.seed.push_back(static_cast<unsigned>(testutil::rnd(rng, 1, 1 << 20)));
      }
      ops.push_back(std::move(op));
    }
    const Off fbs = static_cast<Off>(testutil::rnd(rng, 1, 4)) * 64;

    struct Result {
      ByteVec image;
      std::vector<ByteVec> reads;  // rank-major, then op order
    };
    auto run = [&](Method m, const std::string& spec, int depth,
                   Zerocopy zc, MergeContig mode) {
      auto fs = iotest::make_backend(spec);
      ByteVec old(2048);
      for (std::size_t i = 0; i < old.size(); ++i)
        old[i] = Byte{static_cast<unsigned char>(0xA0 + (i % 37))};
      fs->pwrite(0, old);
      std::vector<std::vector<ByteVec>> reads(to_size(Off{P}));
      sim::Runtime::run(P, [&](sim::Comm& comm) {
        Options o;
        o.method = m;
        o.file_buffer_size = fbs;
        o.pack_buffer_size = 64;
        o.pipeline_depth = depth;
        o.zerocopy = zc;
        o.merge_contig = mode;
        File f = File::open(comm, fs, o);
        const auto r = to_size(Off{comm.rank()});
        f.set_view(disps[r], dt::byte(), fts[r]);
        for (const Op& op : ops) {
          const Off n = op.nbytes[r];
          ByteVec buf(to_size(n), Byte{0});
          if (op.write) {
            for (Off j = 0; j < n; ++j)
              buf[to_size(j)] = iotest::payload_byte(
                  static_cast<int>(op.seed[r] & 0xFF), j + op.seed[r]);
            f.write_at_all(op.offset[r], buf.data(), n, dt::byte());
          } else {
            f.read_at_all(op.offset[r], buf.data(), n, dt::byte());
            reads[r].push_back(std::move(buf));
          }
        }
      });
      Result res{iotest::backend_image(fs), {}};
      for (auto& rank_reads : reads)
        for (ByteVec& b : rank_reads) res.reads.push_back(std::move(b));
      return res;
    };

    // One thread per engine and backend: the O_DIRECT runs mostly wait
    // on the device, so they overlap with the others instead of adding
    // up.  get() rethrows a failed run's exception on the test thread.
    std::vector<std::future<void>> jobs;
    for (Method m : {Method::ListBased, Method::Listless})
      for (const std::string& spec : iotest::backend_specs())
        jobs.push_back(std::async(std::launch::async, [&, m, spec] {
          const Result ref =
              run(m, "mem", 0, Zerocopy::Off, MergeContig::Off);
          for (int depth : {0, 2})
            for (Zerocopy zc : {Zerocopy::Off, Zerocopy::Auto})
              for (MergeContig mode : {MergeContig::Off, MergeContig::Auto}) {
                Result got = run(m, spec, depth, zc, mode);
                const std::string where =
                    std::string(method_name(m)) + " over " + spec +
                    " depth " + std::to_string(depth) + " zerocopy " +
                    (zc == Zerocopy::Auto ? "auto" : "off") +
                    " mergeview " +
                    (mode == MergeContig::Auto ? "auto" : "off") +
                    " episode " + std::to_string(episode) + " seed " +
                    std::to_string(GetParam());
                ByteVec want = ref.image;
                iotest::pad_to_common(got.image, want);
                EXPECT_EQ(got.image, want) << where;
                EXPECT_EQ(got.reads, ref.reads) << where;
              }
        }));
    for (std::future<void>& job : jobs) job.get();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelFuzz,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace llio::mpiio
