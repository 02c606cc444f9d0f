// The Schwarz iteration engine (paper Algorithm 2 with Sec. 4.1's phase
// batching). A SolveJob owns one solve's state: the lattice window, the
// four phase corner lists (each split once into neural, classical and
// mask-cut tiles; fully masked tiles are dropped), the iteration count,
// the cycle-delta sums and the stopping rule. Each iteration a driver
//   1. gathers the phase's neural rows into a batch at some offset,
//   2. runs the neural solver over the batch,
//   3. scatters the predictions back, summing the deltas,
//   4. runs the job's local solves (classical, then mask-cut tiles),
//   5. ends the iteration: cycle delta and the tol / MAE stopping rule,
// and once the job is done runs the final interior pass.
//
// mosaic_predict and mosaic_predict_scenario drive one job alone, the
// distributed predictor drives a job over its owned corners with the
// halo exchange between steps 4 and 5, and the serve scheduler drives
// many jobs through shared batches. Every driver runs the same steps in
// the same order, so their results agree bitwise by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mosaic/predictor.hpp"
#include "scenario/scenario.hpp"
#include "util/timing.hpp"

namespace mf::mosaic {

using Corners = std::vector<std::pair<int64_t, int64_t>>;
using Rows = std::vector<std::vector<double>>;

/// Thread-CPU seconds spent in subdomain solves and in boundary
/// gather/scatter.
struct SolveTimes {
  util::StopwatchAccum inference, boundary_io;
};

/// The subdomain positions a job owns: corner indices (units of h) in
/// [cx0, cx1) x [cy0, cy1).
struct CornerRange {
  int64_t cx0, cx1, cy0, cy1;
};

/// What the tile classifier needs beyond plain Poisson on the full
/// rectangle (the default).
struct TileRules {
  /// Scenario field: conditioning suffix of the neural rows, operator
  /// and mask of the mask-cut tiles.
  const scenario::Field* field = nullptr;
  /// Corners with use_classical(gx, gy) go to `classical`.
  const SubdomainSolver* classical = nullptr;
  std::function<bool(int64_t, int64_t)> use_classical;
};

/// Sum over ranks, in place (comm::Comm::allreduce_sum); empty = one rank.
using Reduce = std::function<void(double*, std::size_t)>;

/// The initial full-domain lattice: the global boundary (segments the
/// mask makes inactive zeroed), the Coons fill for kCoons, and masked
/// points pinned at 0.
LatticeWindow initial_lattice(int64_t nx_cells, int64_t ny_cells,
                              const std::vector<double>& global_boundary,
                              LatticeInit init,
                              const scenario::DomainMask& mask = {});

class SolveJob {
 public:
  /// `solver`, `geom`, `options.reference` and the rules' field and
  /// classical solver must outlive the job.
  SolveJob(const SubdomainSolver& solver, const SubdomainGeometry& geom,
           int64_t nx_cells, int64_t ny_cells, LatticeWindow window,
           const MfpOptions& options, CornerRange owned,
           const TileRules& rules = {});

  bool done() const { return done_; }
  bool converged() const { return converged_; }
  int64_t iterations() const { return iter_; }
  double final_delta() const { return final_delta_; }
  int64_t health_events() const { return health_events_; }
  LatticeWindow& window() { return window_; }

  /// Neural rows of this iteration's phase.
  std::size_t rows() const { return phase().neural.size(); }
  /// Fill batch[offset + i] with the i-th neural row: the perimeter,
  /// then the scenario suffix.
  void gather(Rows& batch, std::size_t offset) const;
  /// Write predictions[offset + i] onto the neural centre crosses.
  void scatter(const Rows& predictions, std::size_t offset,
               std::vector<DirtyWrite>* writes = nullptr);
  /// Solve and scatter the phase's classical, then mask-cut tiles.
  void solve_local(std::vector<DirtyWrite>* writes = nullptr);
  /// Fold the phase's deltas into the cycle sums and apply the stopping
  /// rule: `tol` on each full 4-phase cycle, the MAE target every
  /// check_every iterations. Both sums go through `reduce`.
  void end_iteration(const Reduce& reduce = {});

  /// Steps 1-4 with the job as the whole batch, in the calling thread's
  /// phase scratch (the single-rank and distributed drivers).
  void step_alone(SolveTimes& times, std::vector<DirtyWrite>* writes = nullptr);

  /// Final interior pass: the owned tiles' interiors into the window.
  /// Lattice lines keep their iterated values, masked points stay 0.
  void finish(SolveTimes& times);

 private:
  struct Phase {
    Corners neural, classical, cut;
    std::vector<linalg::StencilOperator> cut_ops;  // one per cut tile
  };
  const Phase& phase() const { return phases_[static_cast<std::size_t>(iter_ % 4)]; }
  linalg::Grid2D solve_cut(int64_t gx, int64_t gy,
                           const linalg::StencilOperator& op) const;

  const SubdomainSolver* solver_;
  const SubdomainSolver* classical_;
  const SubdomainGeometry* geom_;
  const scenario::Field* field_;   // null = plain Poisson
  const scenario::Field* suffix_;  // field_ when neural rows carry a suffix
  LatticeWindow window_;
  MfpOptions options_;
  int64_t ox0_, oy0_, ox1_, oy1_;  // owned lattice points for the MAE
  Phase phases_[4];
  PhaseResult phase_sums_;
  double cycle_num_ = 0, cycle_den_ = 0;
  int64_t iter_ = 0;
  double final_delta_ = 0;
  int64_t health_events_ = 0;
  bool done_ = false, converged_ = false;
  Rows local_rows_, local_predictions_;
};

/// The interior pass of SolveJob::finish and predict_interior: predict
/// the interiors of `tiles` and write them into `out` (whose point (0, 0)
/// is global (ox, oy)), skipping lattice-line points. Rows carry the
/// conditioning suffix of `suffix` when it is set.
void predict_tile_interiors(const LatticeWindow& window,
                            const SubdomainSolver& solver,
                            const SubdomainGeometry& geom, const Corners& tiles,
                            const scenario::Field* suffix, linalg::Grid2D& out,
                            int64_t ox, int64_t oy, SolveTimes& times);

}  // namespace mf::mosaic
