// Rank runtime: one entry point that runs a rank function on whichever
// transport the launch provides.
//
//   comm::RankLauncher launcher(argc, argv);
//   launcher.run(ranks, [&](comm::Comm& c) { ... });
//
// Launched plainly, ranks are in-process threads (world.hpp) and `ranks`
// is free to vary — scaling benches sweep 1..32 in one invocation.
// Launched under `mpirun -np N` (with -DMF_WITH_MPI=ON), ranks are real
// MPI processes, `run(N, ...)` binds to MPI_COMM_WORLD, and the same
// binary produces measured (not modeled) communication wall times.
// The environment variable MF_COMM=threads|mpi overrides the automatic
// choice (mpi requires the MPI build and fails loudly otherwise; any
// other non-empty value throws std::invalid_argument).
#pragma once

#include <functional>
#include <vector>

#include "comm/comm.hpp"

namespace mf::comm {

enum class Backend { kThreads, kMpi };

/// "threads" or "mpi".
const char* backend_name(Backend b);

/// True when the binary was compiled with the MPI transport.
bool mpi_compiled();

/// Backend selection plus MPI session management (when compiled in): the
/// first RankLauncher in a process runs MPI_Init, and MPI_Finalize
/// happens at program exit, so constructing several (e.g. across test
/// cases) is safe. Construct before any Comm use.
class RankLauncher {
 public:
  RankLauncher(int argc, char** argv, AlphaBetaModel model = {});
  ~RankLauncher();
  RankLauncher(const RankLauncher&) = delete;
  RankLauncher& operator=(const RankLauncher&) = delete;

  Backend backend() const { return backend_; }
  const char* backend_name() const { return comm::backend_name(backend_); }

  /// True on the rank that should print/write artifacts: the launching
  /// process for the threaded backend, MPI rank 0 for MPI.
  bool is_root() const { return mpi_rank_ == 0; }

  /// World size imposed by the launch: the MPI world size under mpirun,
  /// or 0 when the threaded backend may spawn any number of ranks.
  int fixed_world_size() const {
    return backend_ == Backend::kMpi ? mpi_size_ : 0;
  }

  /// Rank counts a scaling sweep should visit: `defaults` for the
  /// threaded backend, just {mpi world size} under MPI (one mpirun
  /// invocation measures one point of the sweep).
  std::vector<int> sweep_rank_counts(std::vector<int> defaults) const;

  /// Run `fn` on every rank of a `ranks`-sized world. Threads: spawns
  /// `ranks` threads (SerialRegionGuard applies, as always) and rethrows
  /// the first rank exception. MPI: `ranks` must equal the MPI world
  /// size; `fn` runs once in this process with the full OpenMP team
  /// available, and a rank exception MPI_Aborts the whole job (one
  /// unwound rank would deadlock its peers).
  void run(int ranks, const std::function<void(Comm&)>& fn);

 private:
  Backend backend_ = Backend::kThreads;
  AlphaBetaModel model_;
  int mpi_rank_ = 0;
  int mpi_size_ = 1;
};

}  // namespace mf::comm
