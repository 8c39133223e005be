// Quickstart: four ranks partition a shared file with strided fileviews
// and move data with a single collective call each — the core llio
// workflow in ~60 lines.
//
//   build/examples/quickstart
#include <cstdio>
#include <vector>

#include "dtype/datatype.hpp"
#include "mpiio/file.hpp"
#include "pfs/mem_file.hpp"
#include "simmpi/comm.hpp"

using namespace llio;

int main() {
  const int P = 4;          // simulated MPI processes (threads)
  const Off nblock = 8;     // blocks each rank owns per filetype instance
  const Off ndoubles = 64;  // doubles each rank writes

  // A shared "file" in memory; swap for pfs::PosixFile::open(path) to use
  // a real file.
  auto storage = pfs::MemFile::create();
  bool verified = false;

  sim::Runtime::run(P, [&](sim::Comm& comm) {
    // Open with the listless engine (the paper's contribution); pass
    // Method::ListBased to feel the ROMIO-style baseline instead.
    mpiio::Options opts;
    opts.method = mpiio::Method::Listless;
    mpiio::File file = mpiio::File::open(comm, storage, opts);

    // Fileview: rank r sees every P-th block of 8 doubles (Fig. 4 of the
    // paper).  All ranks call the same write with the same offset, yet
    // write disjoint bytes.
    const Off block_bytes = 8 * sizeof(double);
    dt::Type blocks =
        dt::hvector(nblock, block_bytes, P * block_bytes, dt::byte());
    const Off bls[] = {1};
    const Off ds[] = {comm.rank() * block_bytes};
    dt::Type filetype = dt::resized(dt::hindexed(bls, ds, blocks), 0,
                                    nblock * P * block_bytes);
    file.set_view(/*disp=*/0, dt::double_(), filetype);

    // Each rank writes its own values...
    std::vector<double> mine(ndoubles);
    for (Off i = 0; i < ndoubles; ++i)
      mine[static_cast<std::size_t>(i)] = 100.0 * comm.rank() + double(i);
    file.write_at_all(0, mine.data(), ndoubles, dt::double_());

    // ...and reads them back through the same view.
    std::vector<double> back(ndoubles, -1.0);
    file.read_at_all(0, back.data(), ndoubles, dt::double_());

    // Every rank's read-back counts, not only rank 0's.
    const bool ok = comm.allreduce_min(back == mine ? 1 : 0) == 1;
    if (comm.rank() == 0) {
      verified = ok;
      std::printf("rank 0 read back: %.0f %.0f %.0f ... (%s)\n", back[0],
                  back[1], back[2], ok ? "verified" : "MISMATCH");
    }
  });

  std::printf("file holds %lld bytes; rank 1's first block starts at byte "
              "64 with value %.0f\n",
              static_cast<long long>(storage->size()),
              *reinterpret_cast<const double*>(storage->contents().data() +
                                               64));
  return verified ? 0 : 1;
}
