// Particle checkpoint with a struct memtype: each rank holds an
// array-of-structs of particles; the checkpoint stores only id and
// position (skipping velocity and padding) into a compact shared file,
// with ranks interleaved round-robin.  Exercises the nc-nc path with a
// heterogeneous struct memtype — the "filter" role of MPI datatypes the
// paper's introduction describes.
//
//   build/examples/particle_checkpoint [particles_per_rank P]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "dtype/datatype.hpp"
#include "mpiio/file.hpp"
#include "pfs/mem_file.hpp"
#include "simmpi/comm.hpp"

using namespace llio;

namespace {

struct Particle {
  std::int64_t id;
  double pos[3];
  double vel[3];   // not checkpointed
  double charge;   // not checkpointed
};

constexpr Off kRecordBytes = 8 + 3 * 8;  // id + pos in the file

/// Memtype selecting {id, pos} out of one Particle (extent = sizeof).
dt::Type particle_memtype() {
  const Off bls[] = {1, 3};
  const Off ds[] = {offsetof(Particle, id), offsetof(Particle, pos)};
  const dt::Type kids[] = {dt::long_(), dt::double_()};
  return dt::resized(dt::struct_(bls, ds, kids), 0, sizeof(Particle));
}

/// Fileview of rank r: record slots r, r+P, r+2P, ... of the packed file.
dt::Type slot_filetype(int nprocs, int rank) {
  const dt::Type rec = dt::contiguous(kRecordBytes, dt::byte());
  const Off bls[] = {1};
  const Off ds[] = {Off{rank} * kRecordBytes};
  return dt::resized(dt::hindexed(bls, ds, rec), 0,
                     Off{nprocs} * kRecordBytes);
}

}  // namespace

int main(int argc, char** argv) {
  const Off nper = argc > 1 ? std::atoll(argv[1]) : 1000;
  const int P = argc > 2 ? std::atoi(argv[2]) : 3;

  auto storage = pfs::MemFile::create();
  std::atomic<bool> ok{true};

  sim::Runtime::run(P, [&](sim::Comm& comm) {
    std::vector<Particle> particles(to_size(nper));
    for (Off i = 0; i < nper; ++i) {
      Particle& p = particles[to_size(i)];
      p.id = comm.rank() * 1000000 + i;
      for (int d = 0; d < 3; ++d) {
        p.pos[d] = 0.5 * static_cast<double>(i) + d;
        p.vel[d] = -1.0;  // must never reach the file
      }
      p.charge = 42.0;
    }

    mpiio::File file = mpiio::File::open(comm, storage,
                                         {.method = mpiio::Method::Listless});
    file.set_view(0, dt::byte(), slot_filetype(P, comm.rank()));
    file.write_at_all(0, particles.data(), nper, particle_memtype());

    // Restore into zeroed particles: id/pos come back, vel/charge stay 0.
    std::vector<Particle> restored(to_size(nper), Particle{});
    file.read_at_all(0, restored.data(), nper, particle_memtype());
    for (Off i = 0; i < nper; ++i) {
      const Particle& a = particles[to_size(i)];
      const Particle& b = restored[to_size(i)];
      if (a.id != b.id || a.pos[0] != b.pos[0] || a.pos[2] != b.pos[2] ||
          b.vel[0] != 0.0 || b.charge != 0.0)
        ok = false;
    }
  });

  const Off expect = Off{P} * nper * kRecordBytes;
  const bool verified = ok && storage->size() == expect;
  std::printf("checkpoint of %lld particles x %d ranks: %lld bytes "
              "(%.0f%% of the in-memory size) — %s\n",
              (long long)nper, P, (long long)storage->size(),
              100.0 * static_cast<double>(expect) /
                  static_cast<double>(Off{P} * nper *
                                      to_off(sizeof(Particle))),
              verified ? "verified" : "MISMATCH");
  return verified ? 0 : 1;
}
