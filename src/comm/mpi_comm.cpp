#include "comm/mpi_comm.hpp"

#ifdef MF_HAVE_MPI

#include <bit>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>

#include "util/timing.hpp"

namespace mf::comm {

namespace {

using util::wall_seconds;

void check(int err, const char* what) {
  if (err != MPI_SUCCESS) {
    throw std::runtime_error(std::string("MPI error in ") + what + ": code " +
                             std::to_string(err));
  }
}

int log2_rounds(int P) {
  int rounds = 0;
  for (int dist = 1; dist < P; dist <<= 1) ++rounds;
  return rounds;
}

}  // namespace

MpiComm::MpiComm(MPI_Comm comm, AlphaBetaModel model)
    : Comm(model), comm_(comm) {
  int initialized = 0;
  check(MPI_Initialized(&initialized), "MPI_Initialized");
  if (!initialized) {
    throw std::logic_error(
        "MpiComm: MPI is not initialized (construct a RankLauncher first)");
  }
  check(MPI_Comm_rank(comm_, &rank_), "MPI_Comm_rank");
  check(MPI_Comm_size(comm_, &size_), "MPI_Comm_size");
}

MpiComm::~MpiComm() {
  // Every send a correct program posts gets received, so the remaining
  // requests complete; don't throw from a destructor on the off chance.
  for (auto& p : pending_) {
    MPI_Wait(&p.req, MPI_STATUS_IGNORE);
  }
}

int MpiComm::wire_tag(int tag) {
  // User tags (enforced < kMaxUserTag by the Comm layer) pass through;
  // internal collective tags (small negatives) map into
  // [kMaxUserTag, kMaxUserTag + 1000), inside the >= 32767 floor the MPI
  // standard guarantees for MPI_TAG_UB.
  return tag >= 0 ? tag : kMaxUserTag - tag;
}

void MpiComm::transport_send(int dst, const double* data, std::size_t n,
                             int tag) {
  // The Comm contract requires sends that do not deadlock when every rank
  // sends before receiving (the halo pattern is all-sends-then-all-recvs).
  // A blocking MPI_Send can rendezvous past the eager threshold, so we
  // copy the payload into a pending slot we own and MPI_Isend from it;
  // completed slots are reaped on the next send and in the destructor.
  pending_.push_back(PendingSend{MPI_REQUEST_NULL,
                                 std::vector<double>(data, data + n)});
  PendingSend& slot = pending_.back();
  check(MPI_Isend(slot.buf.data(), static_cast<int>(n), MPI_DOUBLE, dst,
                  wire_tag(tag), comm_, &slot.req),
        "MPI_Isend");
  reap_completed_sends();
}

void MpiComm::reap_completed_sends() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    int done = 0;
    check(MPI_Test(&it->req, &done, MPI_STATUS_IGNORE), "MPI_Test");
    it = done ? pending_.erase(it) : std::next(it);
  }
}

std::vector<double> MpiComm::transport_recv(int src, int tag) {
  MPI_Status status;
  check(MPI_Probe(src, wire_tag(tag), comm_, &status), "MPI_Probe");
  int count = 0;
  check(MPI_Get_count(&status, MPI_DOUBLE, &count), "MPI_Get_count");
  std::vector<double> payload(static_cast<std::size_t>(count));
  check(MPI_Recv(payload.data(), count, MPI_DOUBLE, src, wire_tag(tag), comm_,
                 MPI_STATUS_IGNORE),
        "MPI_Recv");
  return payload;
}

bool MpiComm::transport_try_recv(int src, int tag, std::vector<double>& out) {
  // Progress our own outstanding Isends while polling: a rank spinning in
  // halo progress should also let its sent buffers retire.
  reap_completed_sends();
  int flag = 0;
  MPI_Status status;
  check(MPI_Iprobe(src, wire_tag(tag), comm_, &flag, &status), "MPI_Iprobe");
  if (!flag) return false;
  int count = 0;
  check(MPI_Get_count(&status, MPI_DOUBLE, &count), "MPI_Get_count");
  out.resize(static_cast<std::size_t>(count));
  check(MPI_Recv(out.data(), count, MPI_DOUBLE, src, wire_tag(tag), comm_,
                 MPI_STATUS_IGNORE),
        "MPI_Recv");
  return true;
}

void MpiComm::record_collective(CommStats::Entry& e, int messages,
                                std::size_t bytes, double wall_seconds) {
  e.messages += static_cast<std::uint64_t>(messages);
  e.bytes += bytes;
  // One alpha per round plus the bytes, from the exact counters (as in
  // Comm::record), so the total does not depend on recording order.
  e.modeled_seconds = static_cast<double>(e.messages) * model_.alpha +
                      static_cast<double>(e.bytes) / model_.beta;
  e.wall_seconds += wall_seconds;
}

void MpiComm::record_allreduce(std::size_t n_doubles, double wall_seconds) {
  // Mirror the threaded software allreduce's accounting exactly so
  // CommStats stay comparable across backends: recursive doubling at
  // power-of-two sizes; gather+broadcast otherwise, where the root
  // receives P-1 blocks and every other rank receives 1.
  const std::size_t bytes = n_doubles * sizeof(double);
  if (std::has_single_bit(static_cast<unsigned>(size_))) {
    const int rounds = log2_rounds(size_);
    record_collective(stats_.allreduce, rounds,
                      static_cast<std::size_t>(rounds) * bytes, wall_seconds);
  } else if (rank_ == 0) {
    record_collective(stats_.allreduce, size_ - 1,
                      static_cast<std::size_t>(size_ - 1) * bytes,
                      wall_seconds);
  } else {
    record_collective(stats_.allreduce, 1, bytes, wall_seconds);
  }
}

void MpiComm::allreduce_sum(double* data, std::size_t n) {
  if (size_ == 1) return;
  const double t0 = wall_seconds();
  check(MPI_Allreduce(MPI_IN_PLACE, data, static_cast<int>(n), MPI_DOUBLE,
                      MPI_SUM, comm_),
        "MPI_Allreduce");
  record_allreduce(n, wall_seconds() - t0);
}

void MpiComm::allreduce_max(double* data, std::size_t n) {
  if (size_ == 1) return;
  const double t0 = wall_seconds();
  check(MPI_Allreduce(MPI_IN_PLACE, data, static_cast<int>(n), MPI_DOUBLE,
                      MPI_MAX, comm_),
        "MPI_Allreduce");
  record_allreduce(n, wall_seconds() - t0);
}

std::vector<std::vector<double>> MpiComm::allgatherv(
    const std::vector<double>& local) {
  std::vector<std::vector<double>> all(static_cast<std::size_t>(size_));
  all[static_cast<std::size_t>(rank_)] = local;
  if (size_ == 1) return all;

  const double t0 = wall_seconds();
  const int my_count = static_cast<int>(local.size());
  std::vector<int> counts(static_cast<std::size_t>(size_), 0);
  check(MPI_Allgather(&my_count, 1, MPI_INT, counts.data(), 1, MPI_INT, comm_),
        "MPI_Allgather");
  std::vector<int> displs(static_cast<std::size_t>(size_), 0);
  int total = 0;
  for (int r = 0; r < size_; ++r) {
    displs[static_cast<std::size_t>(r)] = total;
    total += counts[static_cast<std::size_t>(r)];
  }
  std::vector<double> flat(static_cast<std::size_t>(total));
  check(MPI_Allgatherv(local.data(), my_count, MPI_DOUBLE, flat.data(),
                       counts.data(), displs.data(), MPI_DOUBLE, comm_),
        "MPI_Allgatherv");
  std::size_t incoming_bytes = 0;
  for (int r = 0; r < size_; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    all[ru].assign(flat.begin() + displs[ru],
                   flat.begin() + displs[ru] + counts[ru]);
    if (r != rank_) {
      incoming_bytes += static_cast<std::size_t>(counts[ru]) * sizeof(double);
    }
  }
  // Ring shape: P-1 steps, receiving every other rank's block once.
  record_collective(stats_.allgather, size_ - 1, incoming_bytes,
                    wall_seconds() - t0);
  return all;
}

void MpiComm::barrier() {
  if (size_ == 1) return;
  const double t0 = wall_seconds();
  check(MPI_Barrier(comm_), "MPI_Barrier");
  const int rounds = log2_rounds(size_);
  record_collective(stats_.allreduce, rounds,
                    static_cast<std::size_t>(rounds) * sizeof(double),
                    wall_seconds() - t0);
}

}  // namespace mf::comm

#endif  // MF_HAVE_MPI
