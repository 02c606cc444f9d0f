#include "serve/scheduler.hpp"

#include <stdexcept>

#include "util/timing.hpp"

namespace mf::serve {

IterationScheduler::IterationScheduler(const std::vector<ServeModel>& zoo,
                                       const SchedulerOptions& opts)
    : zoo_(zoo), opts_(opts) {
  if (zoo_.empty()) {
    throw std::invalid_argument("IterationScheduler: empty model zoo");
  }
  // The per-tenant hot widened plans (cross at warm_batch and base 1,
  // interior at base 1) must survive whatever transient batch shapes
  // drift through the cache.
  mosaic::infer_cache_reserve(3 * zoo_.size() + 4);
}

const mosaic::SubdomainGeometry& IterationScheduler::geometry(int64_t m) {
  return geoms_.try_emplace(m, m).first->second;
}

void IterationScheduler::warm(int64_t warm_batch) {
  if (warm_batch <= 0) return;
  std::vector<std::vector<double>> boundaries(
      static_cast<std::size_t>(warm_batch));
  std::vector<std::vector<double>> one(1);
  std::vector<std::vector<double>> out;
  for (const auto& model : zoo_) {
    const mosaic::SubdomainGeometry& geom = geometry(model.m);
    // Conditioning width = 4m boundary values + the scenario suffix
    // (k perimeter / drift); the net's input layer is sized to it.
    const std::size_t G =
        static_cast<std::size_t>(model.net->config().boundary_size);
    for (auto& b : boundaries) b.assign(G, 0.0);
    one[0].assign(G, 0.0);
    // Two calls each: the cache captures a shape on its second sight and
    // offers the plan for widening. Cross plans warm at warm_batch (so
    // padded multiples replay through the wider base) AND at base 1;
    // interior plans warm at base 1. A base-1 widened plan makes ANY
    // batch size a whole multiple, so with padding off every phase group
    // and every retirement interior still replays wide — no eager rows,
    // no per-shape captures, whatever sizes the traffic produces.
    model.solver->predict(boundaries, geom.cross_queries, out);
    model.solver->predict(boundaries, geom.cross_queries, out);
    model.solver->predict(one, geom.cross_queries, out);
    model.solver->predict(one, geom.cross_queries, out);
    model.solver->predict(one, geom.interior_queries, out);
    model.solver->predict(one, geom.interior_queries, out);
  }
}

void IterationScheduler::admit(SolveRequest req, double now_s) {
  if (req.zoo_index < 0 ||
      static_cast<std::size_t>(req.zoo_index) >= zoo_.size()) {
    throw std::invalid_argument("IterationScheduler: bad zoo index");
  }
  const ServeModel& model = zoo_[static_cast<std::size_t>(req.zoo_index)];
  if (req.field.kind != model.scenario) {
    throw std::invalid_argument(
        "IterationScheduler: request scenario does not match the zoo model");
  }
  if (req.field.mask.defined()) {
    throw std::invalid_argument(
        "IterationScheduler: masked domains are not served; use "
        "mosaic_predict_scenario");
  }
  const mosaic::SubdomainGeometry& geom = geometry(model.m);
  auto job = std::make_unique<ServeJob>();
  job->req = std::move(req);
  const SolveRequest& r = job->req;
  mosaic::MfpOptions mfp;
  mfp.max_iters = r.max_iters;
  mfp.tol = r.tol;
  mfp.relaxation = opts_.relaxation;
  job->solve.emplace(
      *model.solver, geom, r.nx_cells, r.ny_cells,
      mosaic::initial_lattice(r.nx_cells, r.ny_cells, r.boundary, opts_.init),
      mfp, mosaic::CornerRange{0, r.nx_cells / geom.h, 0, r.ny_cells / geom.h},
      mosaic::TileRules{&r.field, nullptr, {}});
  job->admit_s = now_s;
  ++counters_.admitted;
  if (job->solve->done()) finalize(*job, now_s);  // max_iters <= 0
  jobs_.push_back(std::move(job));
}

void IterationScheduler::finalize(ServeJob& job, double now_s) {
  const double t0 = util::wall_seconds();
  mosaic::SolveTimes cpu;  // unused: the counters below keep wall time
  job.solve->finish(cpu);
  job.iter = job.solve->iterations();
  job.final_delta = job.solve->final_delta();
  job.converged = job.solve->converged();
  job.solution = std::move(job.solve->window().grid());
  job.solve.reset();
  job.finish_s = now_s;
  job.done = true;
  ++counters_.retired;
  counters_.finalize_seconds += util::wall_seconds() - t0;
}

void IterationScheduler::dispatch(const ServeModel& model,
                                  const std::vector<ServeJob*>& group) {
  offsets_.clear();
  std::size_t total = 0, contributing = 0;
  for (const ServeJob* job : group) {
    offsets_.push_back(total);
    const std::size_t rows = job->solve->rows();
    total += rows;
    if (rows > 0) ++contributing;
  }
  if (total == 0) return;
  std::size_t padded = total;
  if (opts_.batching && opts_.pad_to > 0) {
    const std::size_t p = static_cast<std::size_t>(opts_.pad_to);
    padded = (total + p - 1) / p * p;
  }
  const mosaic::SubdomainGeometry& geom = geometry(model.m);
  const double t0 = util::wall_seconds();
  batch_boundaries_.resize(padded);
  for (std::size_t i = 0; i < group.size(); ++i) {
    group[i]->solve->gather(batch_boundaries_, offsets_[i]);
  }
  const std::size_t G =
      static_cast<std::size_t>(model.net->config().boundary_size);
  for (std::size_t i = total; i < padded; ++i) {
    batch_boundaries_[i].assign(G, 0.0);
  }
  const double t1 = util::wall_seconds();
  counters_.gather_seconds += t1 - t0;
  model.solver->predict(batch_boundaries_, geom.cross_queries,
                        batch_predictions_);
  const double t2 = util::wall_seconds();
  counters_.predict_seconds += t2 - t1;
  ++counters_.batches;
  counters_.batched_rows += total;
  counters_.pad_rows += padded - total;
  if (contributing >= 2) ++counters_.shared_batches;
  for (std::size_t i = 0; i < group.size(); ++i) {
    group[i]->solve->scatter(batch_predictions_, offsets_[i]);
  }
  counters_.scatter_seconds += util::wall_seconds() - t2;
}

std::size_t IterationScheduler::tick(double now_s) {
  ++counters_.ticks;
  // Deadline check at the iteration boundary. kAccount keeps iterating
  // (degraded-mode accounting, PR 8 style: progress outside the SLO is
  // still progress); kRetire ships the current lattice state now.
  for (auto& jp : jobs_) {
    ServeJob& job = *jp;
    if (job.done || job.req.deadline_ms <= 0) continue;
    if ((now_s - job.req.arrival_s) * 1e3 <= job.req.deadline_ms) continue;
    if (!job.deadline_missed) {
      job.deadline_missed = true;
      ++counters_.deadline_misses;
    }
    if (opts_.deadline_action == DeadlineAction::kRetire) {
      finalize(job, now_s);
    } else {
      ++job.degraded_iterations;
      ++counters_.degraded_iterations;
    }
  }

  // One Schwarz iteration for every in-flight job: one batch per tenant
  // (per job without batching). Jobs sit in different phases (they were
  // admitted at different ticks), but the cross queries — hence the
  // program shape — depend only on m, so the rows still share one
  // (widened) plan.
  for (std::size_t mi = 0; mi < zoo_.size(); ++mi) {
    group_.clear();
    for (auto& jp : jobs_) {
      if (jp->done || static_cast<std::size_t>(jp->req.zoo_index) != mi) {
        continue;
      }
      group_.push_back(jp.get());
      if (!opts_.batching) {
        dispatch(zoo_[mi], group_);
        group_.clear();
      }
    }
    dispatch(zoo_[mi], group_);
  }
  for (auto& jp : jobs_) {
    ServeJob& job = *jp;
    if (job.done) continue;
    job.solve->solve_local();
    job.solve->end_iteration();
    if (job.solve->done()) finalize(job, now_s);
  }

  // Sweep retired jobs out of the in-flight set.
  std::vector<std::unique_ptr<ServeJob>> still;
  still.reserve(jobs_.size());
  for (auto& jp : jobs_) {
    if (jp->done) {
      finished_.push_back(std::move(*jp));
    } else {
      still.push_back(std::move(jp));
    }
  }
  jobs_.swap(still);
  return jobs_.size();
}

std::vector<ServeJob> IterationScheduler::take_finished() {
  std::vector<ServeJob> out;
  out.swap(finished_);
  return out;
}

}  // namespace mf::serve
