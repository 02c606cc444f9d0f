#include "mosaic/distributed_predictor.hpp"

#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <string>

#include "mosaic/solve_job.hpp"

namespace mf::mosaic {

namespace {

constexpr int kHaloTagBase = 500;

struct RankLayout {
  // Owned closed block [ox0, ox1] x [oy0, oy1] (global point indices).
  int64_t ox0, oy0, ox1, oy1;
  // Window = owned + halo where a neighbor exists.
  int64_t wx0, wy0, wx1, wy1;
  // Corner-index range of owned subdomain positions (units of h).
  int64_t ci_x0, ci_x1, ci_y0, ci_y1;
};

RankLayout make_layout(const comm::CartesianGrid& grid, int rank,
                       int64_t nx_cells, int64_t ny_cells, int64_t h) {
  const auto [cx, cy] = grid.coords_of(rank);
  const int64_t lx = nx_cells / grid.px();
  const int64_t ly = ny_cells / grid.py();
  RankLayout L{};
  L.ox0 = cx * lx;
  L.oy0 = cy * ly;
  L.ox1 = L.ox0 + lx;
  L.oy1 = L.oy0 + ly;
  L.wx0 = cx > 0 ? L.ox0 - h : 0;
  L.wy0 = cy > 0 ? L.oy0 - h : 0;
  L.wx1 = cx < grid.px() - 1 ? L.ox1 + h : nx_cells;
  L.wy1 = cy < grid.py() - 1 ? L.oy1 + h : ny_cells;
  // Positions owned by this rank: corner in [ox0, ox1) (half-open so each
  // position has a unique owner).
  L.ci_x0 = L.ox0 / h;
  L.ci_x1 = L.ox1 / h;
  L.ci_y0 = L.oy0 / h;
  L.ci_y1 = L.oy1 / h;
  return L;
}

// Backpressure bound on per-direction un-drained halo requests in
// degraded mode: past this, the exchange blocks on the oldest straggler
// rather than letting the backlog (and the transport's buffered
// messages) grow without bound.
constexpr std::size_t kMaxHaloBacklog = 64;

double resolve_halo_timeout_ms(const MfpOptions& options) {
  if (options.halo_timeout_ms >= 0) return options.halo_timeout_ms;
  const char* v = std::getenv("MF_HALO_TIMEOUT_MS");
  if (!v || *v == '\0') return -1;  // blocking exchange (pre-deadline behavior)
  char* end = nullptr;
  errno = 0;
  const double ms = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(ms) ||
      ms < 0) {
    throw std::invalid_argument(std::string("MF_HALO_TIMEOUT_MS='") + v +
                                "': want a non-negative number of milliseconds");
  }
  return ms;
}

}  // namespace

DistMfpResult distributed_mosaic_predict(
    comm::Comm& comm, const comm::CartesianGrid& grid,
    const SubdomainSolver& solver, int64_t nx_cells, int64_t ny_cells,
    const std::vector<double>& global_boundary, const MfpOptions& options) {
  const int64_t m = solver.m();
  SubdomainGeometry geom(m);
  const int64_t h = geom.h;
  if (nx_cells % (grid.px() * m) != 0 || ny_cells % (grid.py() * m) != 0) {
    throw std::invalid_argument(
        "distributed_mosaic_predict: cells must divide by (grid dim * m)");
  }
  const int rank = comm.rank();
  const RankLayout L = make_layout(grid, rank, nx_cells, ny_cells, h);
  const auto neighbors = grid.neighbors(rank);

  // Neighbor window bounds (deterministic on every rank) for routing
  // dirty writes.
  std::array<RankLayout, comm::kNumDirections> neighbor_layout{};
  for (int d = 0; d < comm::kNumDirections; ++d) {
    const int nr = neighbors[static_cast<std::size_t>(d)];
    if (nr >= 0) {
      neighbor_layout[static_cast<std::size_t>(d)] =
          make_layout(grid, nr, nx_cells, ny_cells, h);
    }
  }

  // ---- initialization: global boundary + transfinite interior ----
  // Every rank evaluates the same deterministic initialization and copies
  // its window (the global boundary is problem input known to all ranks).
  LatticeWindow window(L.wx0, L.wy0, L.wx1, L.wy1);
  {
    const LatticeWindow init =
        initial_lattice(nx_cells, ny_cells, global_boundary, options.init);
    for (int64_t gy = L.wy0; gy <= L.wy1; ++gy)
      for (int64_t gx = L.wx0; gx <= L.wx1; ++gx)
        window.at(gx, gy) = init.at(gx, gy);
  }
  SolveJob job(solver, geom, nx_cells, ny_cells, std::move(window), options,
               {L.ci_x0, L.ci_x1, L.ci_y0, L.ci_y1});
  LatticeWindow& win = job.window();

  DistMfpResult result;
  comm.stats().reset();
  // Outgoing dirty writes per direction, accumulated between halo
  // exchanges (flushed every options.halo_every iterations).
  std::array<std::vector<double>, comm::kNumDirections> pending;
  std::vector<DirtyWrite> writes;
  SolveTimes times;

  // Deadline-aware halo exchange: with a timeout configured, each
  // direction keeps a queue of outstanding receives (oldest first). A
  // direction whose backlog cannot be drained within the deadline leaves
  // this iteration running on the neighbor's last-known boundary values
  // (degraded); the late messages are applied — strictly in send order,
  // so the latest value still wins — on a later iteration or in the
  // final drain. With no timeout the queue always holds exactly one
  // request and is drained blocking: bitwise identical to before.
  const double halo_timeout_ms = resolve_halo_timeout_ms(options);
  const bool halo_deadline = halo_timeout_ms >= 0;
  struct PostedHalo {
    comm::Comm::Request req;
    int64_t iter;
  };
  std::array<std::deque<PostedHalo>, comm::kNumDirections> outstanding;
  const auto apply_packed = [&](const std::vector<double>& packed) {
    for (std::size_t k = 0; k + 2 < packed.size(); k += 3) {
      const int64_t gx = static_cast<int64_t>(packed[k]);
      const int64_t gy = static_cast<int64_t>(packed[k + 1]);
      if (win.contains(gx, gy)) win.at(gx, gy) = packed[k + 2];
    }
  };
  // Convergence (lines 5-8): both stopping rules reduce over all ranks,
  // so every rank leaves the loop at the same iteration.
  const Reduce allreduce = [&comm](double* v, std::size_t n) {
    comm.allreduce_sum(v, n);
  };

  // ---- iteration loop (Algorithm 2, lines 2-9) ----
  while (!job.done()) {
    const int64_t iter = job.iterations();
    writes.clear();
    job.step_alone(times, &writes);

    // communicate_new_boundaries: route this phase's fresh writes to every
    // neighbor whose window contains them. One message per neighbor per
    // exchange (possibly empty — latency-only, as in the paper's 8*I*alpha
    // cost term). With halo_every > 1 (the communication-avoiding variant
    // of Sec. 5.3's open problems) writes accumulate across iterations and
    // are flushed together; receivers apply them in order, so the latest
    // value wins.
    for (int d = 0; d < comm::kNumDirections; ++d) {
      const int nr = neighbors[static_cast<std::size_t>(d)];
      if (nr < 0) continue;
      const RankLayout& NL = neighbor_layout[static_cast<std::size_t>(d)];
      auto& outbox = pending[static_cast<std::size_t>(d)];
      for (const DirtyWrite& w : writes) {
        if (w.gx >= NL.wx0 && w.gx <= NL.wx1 && w.gy >= NL.wy0 && w.gy <= NL.wy1) {
          outbox.push_back(static_cast<double>(w.gx));
          outbox.push_back(static_cast<double>(w.gy));
          outbox.push_back(w.value);
        }
      }
    }
    const bool exchange = (iter + 1) % options.halo_every == 0 ||
                          iter + 1 == options.max_iters;
    // Nonblocking halo: post every receive, then every (buffered) send,
    // so all eight messages are in flight before any rank blocks. The
    // waits only block on stragglers. Received writes are applied in
    // fixed direction order, so the result is bitwise identical to the
    // blocking exchange.
    if (exchange) {
      for (int d = 0; d < comm::kNumDirections; ++d) {
        const int nr = neighbors[static_cast<std::size_t>(d)];
        if (nr < 0) continue;
        // The neighbor tags its message with the direction from *its*
        // perspective, which is the opposite of ours.
        const int tag = kHaloTagBase + static_cast<int>(comm::opposite(
                                           static_cast<comm::Direction>(d)));
        outstanding[static_cast<std::size_t>(d)].push_back(
            PostedHalo{comm.irecv(nr, tag), iter});
      }
      for (int d = 0; d < comm::kNumDirections; ++d) {
        const int nr = neighbors[static_cast<std::size_t>(d)];
        if (nr < 0) continue;
        comm.isend(nr, pending[static_cast<std::size_t>(d)], kHaloTagBase + d);
        pending[static_cast<std::size_t>(d)].clear();
      }
      comm.progress();
      bool degraded_iter = false;
      for (int d = 0; d < comm::kNumDirections; ++d) {
        auto& queue = outstanding[static_cast<std::size_t>(d)];
        if (queue.empty()) continue;
        if (!halo_deadline) {
          // Blocking exchange: the queue always holds exactly this
          // iteration's request.
          apply_packed(comm.wait_recv(queue.front().req));
          queue.pop_front();
          continue;
        }
        const auto dir_start = std::chrono::steady_clock::now();
        bool timed_out = false;
        while (!queue.empty()) {
          double left_ms =
              halo_timeout_ms -
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - dir_start)
                  .count();
          if (left_ms < 0) left_ms = 0;
          std::vector<double> packed;
          if (!comm.wait_recv_for(queue.front().req, left_ms, packed)) {
            timed_out = true;
            break;
          }
          if (queue.front().iter != iter) ++result.late_halo_applies;
          apply_packed(packed);
          queue.pop_front();
        }
        if (timed_out) {
          ++result.halo_timeouts;
          degraded_iter = true;
          // Backpressure: a persistently slow neighbor may not grow an
          // unbounded backlog — block on its oldest straggler instead.
          while (queue.size() > kMaxHaloBacklog) {
            apply_packed(comm.wait_recv(queue.front().req));
            ++result.late_halo_applies;
            queue.pop_front();
          }
        }
      }
      if (degraded_iter) ++result.degraded_iterations;
    }
    job.end_iteration(allreduce);
  }

  // Degraded-mode epilogue: drain every straggler before the final
  // interiors so the freshest boundary data feeds them. All ranks leave
  // the loop at the same iteration, so every matching send has been
  // posted and a blocking drain cannot deadlock. Applies stay in
  // per-direction send order (latest wins).
  for (int d = 0; d < comm::kNumDirections; ++d) {
    auto& queue = outstanding[static_cast<std::size_t>(d)];
    while (!queue.empty()) {
      apply_packed(comm.wait_recv(queue.front().req));
      ++result.late_halo_applies;
      queue.pop_front();
    }
  }

  // ---- final interiors (line 10) ----
  job.finish(times);
  result.iterations = job.iterations();
  result.final_delta = job.final_delta();
  result.health_events = job.health_events();
  result.timings.inference_seconds = times.inference.total();
  result.timings.boundary_io_seconds = times.boundary_io.total();

  // ---- all_gather and averaging (lines 11-12) ----
  {
    // Pack this rank's owned closed block.
    std::vector<double> block;
    block.reserve(static_cast<std::size_t>((L.ox1 - L.ox0 + 1) * (L.oy1 - L.oy0 + 1) + 4));
    block.push_back(static_cast<double>(L.ox0));
    block.push_back(static_cast<double>(L.oy0));
    block.push_back(static_cast<double>(L.ox1));
    block.push_back(static_cast<double>(L.oy1));
    for (int64_t gy = L.oy0; gy <= L.oy1; ++gy)
      for (int64_t gx = L.ox0; gx <= L.ox1; ++gx) block.push_back(win.at(gx, gy));
    auto all = comm.allgatherv(block);

    result.solution = linalg::Grid2D(nx_cells + 1, ny_cells + 1);
    linalg::Grid2D counts(nx_cells + 1, ny_cells + 1);
    for (const auto& blk : all) {
      const int64_t bx0 = static_cast<int64_t>(blk[0]);
      const int64_t by0 = static_cast<int64_t>(blk[1]);
      const int64_t bx1 = static_cast<int64_t>(blk[2]);
      const int64_t by1 = static_cast<int64_t>(blk[3]);
      std::size_t k = 4;
      for (int64_t gy = by0; gy <= by1; ++gy)
        for (int64_t gx = bx0; gx <= bx1; ++gx) {
          result.solution.at(gx, gy) += blk[k++];
          counts.at(gx, gy) += 1;
        }
    }
    // Average where processor blocks overlap (shared border lines).
    for (int64_t gy = 0; gy <= ny_cells; ++gy)
      for (int64_t gx = 0; gx <= nx_cells; ++gx)
        result.solution.at(gx, gy) /= std::max(1.0, counts.at(gx, gy));
  }

  if (options.reference) {
    result.mae = linalg::Grid2D::mean_abs_diff(result.solution, *options.reference);
  }

  const auto& stats = comm.stats();
  result.timings.sendrecv_modeled_seconds = stats.sendrecv.modeled_seconds;
  result.timings.allgather_modeled_seconds = stats.allgather.modeled_seconds;
  result.timings.allreduce_modeled_seconds = stats.allreduce.modeled_seconds;
  result.timings.sendrecv_wall_seconds = stats.sendrecv.wall_seconds;
  result.timings.allgather_wall_seconds = stats.allgather.wall_seconds;
  return result;
}

}  // namespace mf::mosaic
