// Distributed Mosaic Flow predictor (paper Sec. 4.2, Algorithm 2).
//
// The global domain is split across a 2-D processor grid (row-wise scan).
// Each rank owns a closed block of grid points plus a halo of h = m/2
// points toward every neighbor. Each iteration a rank:
//   1. updates its phase subdomains with SDNet inferences (line 3),
//   2. exchanges the freshly written boundary values that fall inside
//      neighbor windows with all 8 stencil neighbors — one message per
//      neighbor per iteration, the paper's *relaxed synchronization*
//      (line 4, communicate_new_boundaries),
//   3. allreduces the convergence delta (lines 5-8).
// After the loop, every rank infers its subdomain interiors and an
// all_gather assembles the global solution, averaging where processor
// blocks overlap (lines 10-12). Steps 1 and 3 and the interior pass are
// the solve engine's (solve_job.hpp) over the rank's owned corners.
#pragma once

#include "comm/cartesian.hpp"
#include "comm/comm.hpp"
#include "mosaic/predictor.hpp"

namespace mf::mosaic {

struct DistMfpTimings {
  double inference_seconds = 0;
  double boundary_io_seconds = 0;
  double sendrecv_modeled_seconds = 0;
  double allgather_modeled_seconds = 0;
  double allreduce_modeled_seconds = 0;
  double sendrecv_wall_seconds = 0;
  double allgather_wall_seconds = 0;
};

struct DistMfpResult {
  linalg::Grid2D solution;  // assembled global solution (every rank)
  int64_t iterations = 0;
  double final_delta = 0;
  double mae = 0;  // vs reference (if provided)
  DistMfpTimings timings;  // this rank's breakdown
  // Degraded-mode bookkeeping (deadline-aware halo exchange; all zero
  // when deadlines are off or every message makes its deadline).
  int64_t degraded_iterations = 0;  // iterations where >= 1 halo was stale
  int64_t halo_timeouts = 0;        // per-direction deadline misses
  int64_t late_halo_applies = 0;    // halo messages applied after their iter
  int64_t health_events = 0;        // non-finite residual/MAE detections
};

/// Run the distributed MFP on the calling rank, over any comm transport
/// (threaded ranks or MPI processes). All ranks must call with identical
/// arguments. Domain cell counts must be divisible by
/// (processor grid dimension * m).
DistMfpResult distributed_mosaic_predict(
    comm::Comm& comm, const comm::CartesianGrid& grid,
    const SubdomainSolver& solver, int64_t nx_cells, int64_t ny_cells,
    const std::vector<double>& global_boundary, const MfpOptions& options = {});

}  // namespace mf::mosaic
