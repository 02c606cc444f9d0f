#include "comm/runtime.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "comm/fault_comm.hpp"
#include "comm/world.hpp"

#ifdef MF_HAVE_MPI
#include <mpi.h>

#include "comm/mpi_comm.hpp"
#endif

namespace mf::comm {

#ifdef MF_HAVE_MPI
namespace {

// MPI may be initialized and finalized at most once per process, but a
// process (a test binary, say) may create several RankLaunchers. The
// session is therefore a function-local static: first launcher inits,
// static destruction finalizes at program exit.
struct MpiSession {
  bool we_initialized = false;
  MpiSession(int argc, char** argv) {
    int initialized = 0;
    MPI_Initialized(&initialized);
    if (!initialized) {
      // FUNNELED, not SINGLE: ranks keep their OpenMP teams (and the
      // threaded backend may coexist in the same process), with all MPI
      // calls funneled through the main thread.
      int provided = 0;
      if (argv != nullptr && argc > 0) {
        MPI_Init_thread(&argc, &argv, MPI_THREAD_FUNNELED, &provided);
      } else {
        MPI_Init_thread(nullptr, nullptr, MPI_THREAD_FUNNELED, &provided);
      }
      if (provided < MPI_THREAD_FUNNELED) {
        std::fprintf(stderr,
                     "warning: MPI provides thread level %d < FUNNELED; "
                     "run with OMP_NUM_THREADS=1 to be safe\n",
                     provided);
      }
      we_initialized = true;
    }
  }
  ~MpiSession() {
    if (we_initialized) {
      int finalized = 0;
      MPI_Finalized(&finalized);
      if (!finalized) MPI_Finalize();
    }
  }
};

void ensure_mpi_session(int argc, char** argv) {
  static MpiSession session(argc, argv);
  (void)session;
}

}  // namespace
#endif

const char* backend_name(Backend b) {
  return b == Backend::kMpi ? "mpi" : "threads";
}

bool mpi_compiled() {
#ifdef MF_HAVE_MPI
  return true;
#else
  return false;
#endif
}

RankLauncher::RankLauncher(int argc, char** argv, AlphaBetaModel model)
    : model_(model) {
  const char* forced = std::getenv("MF_COMM");
  const bool force_threads = forced && std::strcmp(forced, "threads") == 0;
  const bool force_mpi = forced && std::strcmp(forced, "mpi") == 0;
  // Empty counts as unset; a misspelling must not silently auto-select
  // (which means MPI under mpirun in an MPI build).
  if (forced && *forced != '\0' && !force_threads && !force_mpi) {
    throw std::invalid_argument(std::string("MF_COMM='") + forced +
                                "': want 'threads' or 'mpi'");
  }
  if (force_mpi && !mpi_compiled()) {
    throw std::runtime_error(
        "MF_COMM=mpi but this binary was built without MPI "
        "(configure with -DMF_WITH_MPI=ON)");
  }
#ifdef MF_HAVE_MPI
  if (!force_threads) {
    ensure_mpi_session(argc, argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &mpi_rank_);
    MPI_Comm_size(MPI_COMM_WORLD, &mpi_size_);
    // A single-process launch keeps the threaded backend (so scaling
    // sweeps still work from a plain ./bench invocation) unless the
    // caller forces MPI.
    if (mpi_size_ > 1 || force_mpi) backend_ = Backend::kMpi;
  }
#else
  (void)argc;
  (void)argv;
#endif
  if (backend_ == Backend::kThreads) {
    // If the threaded backend runs under a process launcher anyway (a
    // non-MPI build under mpirun, or MF_COMM=threads), every process
    // would otherwise think it is root and race on output files. Read
    // the launcher-provided rank so is_root() stays honest.
    for (const char* var : {"OMPI_COMM_WORLD_RANK", "PMI_RANK", "PMIX_RANK",
                            "SLURM_PROCID"}) {
      if (const char* v = std::getenv(var)) {
        const int r = std::atoi(v);
        if (r > 0) mpi_rank_ = r;
        break;
      }
    }
  }
}

RankLauncher::~RankLauncher() = default;

std::vector<int> RankLauncher::sweep_rank_counts(
    std::vector<int> defaults) const {
  if (backend_ == Backend::kMpi) return {mpi_size_};
  return defaults;
}

void RankLauncher::run(int ranks, const std::function<void(Comm&)>& fn) {
  if (ranks < 1) throw std::invalid_argument("RankLauncher::run: ranks < 1");
  // Chaos hatch: MF_FAULT_SPEC wraps every rank's transport in the
  // deterministic fault injector. Parsed once per run() so a bad spec
  // fails fast with its grammar error rather than deadlocking ranks.
  const FaultEnvSpec fault = fault_spec_from_env();
  const auto rank_fn = [&](Comm& inner) {
    if (fault.active) {
      FaultComm faulty(inner, fault.spec);
      fn(faulty);
    } else {
      fn(inner);
    }
  };
  if (backend_ == Backend::kMpi) {
#ifdef MF_HAVE_MPI
    if (ranks != mpi_size_) {
      throw std::invalid_argument(
          "RankLauncher::run: requested " + std::to_string(ranks) +
          " ranks but mpirun launched " + std::to_string(mpi_size_) +
          " processes");
    }
    MpiComm comm(MPI_COMM_WORLD, model_);
    try {
      rank_fn(comm);
    } catch (const std::exception& e) {
      // A rank that unwinds past its peers would deadlock the job (its
      // pending sends never get matched, everyone else blocks in recv),
      // so fail the whole world fast instead.
      std::fprintf(stderr, "rank %d: fatal: %s\n", comm.rank(), e.what());
      MPI_Abort(MPI_COMM_WORLD, 1);
    } catch (...) {
      std::fprintf(stderr, "rank %d: fatal: unknown exception\n", comm.rank());
      MPI_Abort(MPI_COMM_WORLD, 1);
    }
    // Keep invocations of run() separated so a next world's messages
    // cannot race ahead into this one's matching window.
    comm.barrier();
    return;
#endif
  }
  World world(ranks, model_);
  world.run(rank_fn);
}

}  // namespace mf::comm
