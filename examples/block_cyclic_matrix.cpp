// Distributed dense matrix checkpoint: a column-block-cyclic M x N matrix
// (ScaLAPACK-style distribution) is written to a single file in global
// column-major order with one collective call, using a subarray-per-rank
// fileview.  The example runs the same checkpoint with both engines and
// prints the time and the per-operation overhead statistics, showing the
// paper's effect on a workload the intro motivates (scientific arrays
// scattered over processes).
//
//   build/examples/block_cyclic_matrix [M N block_cols P]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/timer.hpp"
#include "dtype/datatype.hpp"
#include "mpiio/file.hpp"
#include "pfs/mem_file.hpp"
#include "simmpi/comm.hpp"

using namespace llio;

namespace {

/// Fileview of rank r: all columns c with (c / bc) % P == r, expressed
/// directly as an HPF block-cyclic distributed array
/// (MPI_Type_create_darray): rows undistributed, columns cyclic(bc) over
/// a 1 x P process grid, Fortran (column-major) storage.
dt::Type cyclic_filetype(Off m, Off n, Off bc, int nprocs, int rank) {
  const Off gsizes[] = {m, n};
  const dt::Distrib dist[] = {dt::Distrib::None, dt::Distrib::Cyclic};
  const Off dargs[] = {dt::kDfltDarg, bc};
  const Off psizes[] = {1, nprocs};
  return dt::darray(nprocs, rank, gsizes, dist, dargs, psizes,
                    dt::Order::Fortran, dt::double_());
}

double global_value(Off row, Off col) {
  return static_cast<double>(col * 100000 + row);
}

}  // namespace

int main(int argc, char** argv) {
  const Off m = argc > 1 ? std::atoll(argv[1]) : 256;   // rows
  const Off n = argc > 2 ? std::atoll(argv[2]) : 240;   // columns
  const Off bc = argc > 3 ? std::atoll(argv[3]) : 4;    // block width
  const int P = argc > 4 ? std::atoi(argv[4]) : 4;

  std::printf("block-cyclic matrix checkpoint: %lld x %lld doubles, "
              "block width %lld, P=%d\n",
              (long long)m, (long long)n, (long long)bc, P);

  bool all_ok = true;
  for (auto method : {mpiio::Method::ListBased, mpiio::Method::Listless}) {
    auto storage = pfs::MemFile::create();
    double io_seconds = 0;
    std::atomic<bool> ok{true};

    sim::Runtime::run(P, [&](sim::Comm& comm) {
      // Local columns, packed dense in owner order (column-major).
      std::vector<double> local;
      for (Off c = 0; c < n; ++c) {
        if ((c / bc) % P != comm.rank()) continue;
        for (Off r = 0; r < m; ++r) local.push_back(global_value(r, c));
      }

      mpiio::Options opts;
      opts.method = method;
      mpiio::File file = mpiio::File::open(comm, storage, opts);
      file.set_view(0, dt::double_(), cyclic_filetype(m, n, bc, P, comm.rank()));

      comm.barrier();
      WallTimer t;
      file.write_at_all(0, local.data(), to_off(local.size()), dt::double_());
      const Off ns = comm.allreduce_max(static_cast<Off>(t.seconds() * 1e9));

      // Restore into a fresh buffer and verify.
      std::vector<double> restored(local.size(), -1.0);
      file.read_at_all(0, restored.data(), to_off(restored.size()),
                       dt::double_());
      if (restored != local) ok = false;

      if (comm.rank() == 0) io_seconds = static_cast<double>(ns) / 1e9;
    });

    // Spot-check the file image in global order.
    const ByteVec img = storage->contents();
    const double* vals = reinterpret_cast<const double*>(img.data());
    for (Off c = 0; c < n && ok; c += 37)
      for (Off r = 0; r < m; r += 97)
        if (vals[c * m + r] != global_value(r, c)) ok = false;

    std::printf("  %-10s  checkpoint %6.2f ms   %s\n",
                mpiio::method_name(method), io_seconds * 1e3,
                ok ? "verified" : "MISMATCH");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}
