#include "comm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>

namespace mf::comm {

void CommStats::Entry::merge(const Entry& o) {
  messages += o.messages;
  bytes += o.bytes;
  modeled_seconds += o.modeled_seconds;
  wall_seconds += o.wall_seconds;
}

CommStats::Entry CommStats::total() const {
  Entry t;
  t.merge(sendrecv);
  t.merge(allreduce);
  t.merge(allgather);
  return t;
}

void CommStats::reset() { *this = CommStats{}; }

CommStats::Entry& Comm::stats_entry(int tag) {
  if (tag == internal_tag::kAllreduce || tag == internal_tag::kBarrier) {
    return stats_.allreduce;
  }
  if (tag == internal_tag::kAllgather) return stats_.allgather;
  return stats_.sendrecv;
}

void Comm::record(CommStats::Entry& e, std::size_t bytes, double wall_seconds) {
  e.messages += 1;
  e.bytes += bytes;
  // Recomputed from the exact counters rather than accumulated: nonblocking
  // receives are recorded in arrival order, and a running float sum would
  // make the low bits depend on thread timing.
  e.modeled_seconds = static_cast<double>(e.messages) * model_.alpha +
                      static_cast<double>(e.bytes) / model_.beta;
  e.wall_seconds += wall_seconds;
}

namespace {

void check_tag(int tag) {
  // The full user range is [0, kMaxUserTag): negative values would alias
  // the internal collective tags, higher values the MPI wire band.
  // Enforced on every backend, so tag misuse cannot hide on the threaded
  // transport and only surface under mpirun.
  if (tag < 0 || tag >= kMaxUserTag) {
    throw std::invalid_argument("comm: user tag " + std::to_string(tag) +
                                " is outside [0, " +
                                std::to_string(kMaxUserTag) + ")");
  }
}

}  // namespace

void Comm::send(int dst, const double* data, std::size_t n, int tag) {
  check_tag(tag);
  send_internal(dst, data, n, tag);
}

void Comm::send(int dst, const std::vector<double>& data, int tag) {
  send(dst, data.data(), data.size(), tag);
}

void Comm::recv(int src, double* data, std::size_t n, int tag) {
  check_tag(tag);
  recv_internal(src, data, n, tag);
}

std::vector<double> Comm::recv_vec(int src, int tag) {
  check_tag(tag);
  return recv_vec_internal(src, tag);
}

void Comm::send_internal(int dst, const double* data, std::size_t n, int tag) {
  // Receiver-side accounting (matching the paper's per-rank cost model):
  // only recv records messages/bytes/time.
  transport_send(dst, data, n, tag);
}

void Comm::recv_internal(int src, double* data, std::size_t n, int tag) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> payload = transport_recv(src, tag);
  if (payload.size() != n) {
    throw std::logic_error("recv: size mismatch (expected " + std::to_string(n) +
                           ", got " + std::to_string(payload.size()) + ")");
  }
  std::copy(payload.begin(), payload.end(), data);
  const auto t1 = std::chrono::steady_clock::now();
  record(stats_entry(tag), n * sizeof(double),
         std::chrono::duration<double>(t1 - t0).count());
}

std::vector<double> Comm::recv_vec_internal(int src, int tag) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> payload = transport_recv(src, tag);
  const auto t1 = std::chrono::steady_clock::now();
  record(stats_entry(tag), payload.size() * sizeof(double),
         std::chrono::duration<double>(t1 - t0).count());
  return payload;
}

void Comm::sendrecv(int peer, const std::vector<double>& out,
                    std::vector<double>& in, int tag) {
  send(peer, out, tag);
  in = recv_vec(peer, tag);
}

void Comm::isend(int dst, const double* data, std::size_t n, int tag) {
  // Both transports' sends are already buffered/non-blocking, so the
  // nonblocking send is the send: the name documents intent at call
  // sites that overlap communication with compute.
  check_tag(tag);
  send_internal(dst, data, n, tag);
}

void Comm::isend(int dst, const std::vector<double>& data, int tag) {
  isend(dst, data.data(), data.size(), tag);
}

Comm::Request Comm::irecv(int src, int tag) {
  check_tag(tag);
  PendingRecv p;
  p.id = next_recv_id_++;
  p.src = src;
  p.tag = tag;
  pending_recvs_.push_back(std::move(p));
  const Request r = pending_recvs_.back().id;
  // Opportunistic drain: earlier posts whose messages already landed
  // complete now, so their buffers stop occupying the transport.
  progress();
  return r;
}

void Comm::progress() {
  // Once a probe for a (src, tag) signature comes back empty this pass,
  // later pending receives with the same signature must not probe again:
  // a message landing between the two probes belongs to the earlier post
  // (post-order matching), not to whichever probe happens to run next.
  // Exhausted signatures go in a hash set, so one pass is O(pending)
  // rather than O(pending * distinct signatures).
  std::unordered_set<std::uint64_t> empty_sigs;
  const auto sig_key = [](int src, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  };
  for (auto& p : pending_recvs_) {
    if (p.done || p.consumed) continue;
    const std::uint64_t key = sig_key(p.src, p.tag);
    if (empty_sigs.count(key) != 0) continue;
    const auto t0 = std::chrono::steady_clock::now();
    if (!transport_try_recv(p.src, p.tag, p.payload)) {
      empty_sigs.insert(key);
      continue;
    }
    const auto t1 = std::chrono::steady_clock::now();
    // Same receiver-side accounting as the blocking path; the wall time
    // is the probe cost, not a block — that is the overlap win.
    record(stats_entry(p.tag), p.payload.size() * sizeof(double),
           std::chrono::duration<double>(t1 - t0).count());
    p.done = true;
  }
}

std::vector<double> Comm::wait_recv(Request r) {
  const auto it = std::lower_bound(
      pending_recvs_.begin(), pending_recvs_.end(), r,
      [](const PendingRecv& q, Request id) { return q.id < id; });
  if (it == pending_recvs_.end() || it->id != r || it->consumed) {
    throw std::logic_error("wait_recv: invalid or already-completed request");
  }
  PendingRecv& p = *it;
  if (!p.done) {
    // Post-order matching (MPI semantics): an earlier posted receive with
    // the same (src, tag) owns the earlier message, even when the caller
    // waits on a later request first.
    for (auto jt = pending_recvs_.begin();; ++jt) {
      PendingRecv& q = *jt;
      if (!q.done && !q.consumed && q.src == p.src && q.tag == p.tag) {
        const auto t0 = std::chrono::steady_clock::now();
        q.payload = transport_recv(q.src, q.tag);
        const auto t1 = std::chrono::steady_clock::now();
        record(stats_entry(q.tag), q.payload.size() * sizeof(double),
               std::chrono::duration<double>(t1 - t0).count());
        q.done = true;
      }
      if (jt == it) break;
    }
  }
  p.consumed = true;
  ++consumed_pending_;
  std::vector<double> payload = std::move(p.payload);
  // Amortized compaction: drop consumed entries once they make up half
  // the table (stable removal, so post-order matching among the
  // survivors is untouched). The table stays O(outstanding posts) even
  // when one straggler is never waited on — previously it could only
  // recycle when *every* post had been consumed, so a single straggler
  // pinned unbounded growth.
  constexpr std::size_t kCompactMin = 16;
  if (consumed_pending_ >= kCompactMin &&
      consumed_pending_ * 2 >= pending_recvs_.size()) {
    pending_recvs_.erase(
        std::remove_if(pending_recvs_.begin(), pending_recvs_.end(),
                       [](const PendingRecv& q) { return q.consumed; }),
        pending_recvs_.end());
    consumed_pending_ = 0;
  }
  return payload;
}

bool Comm::wait_recv_for(Request r, double timeout_ms,
                         std::vector<double>& out) {
  if (timeout_ms < 0) {
    out = wait_recv(r);
    return true;
  }
  const auto find = [this](Request id) {
    return std::lower_bound(
        pending_recvs_.begin(), pending_recvs_.end(), id,
        [](const PendingRecv& q, Request want) { return q.id < want; });
  };
  {
    // Validate the handle up front so a stale handle throws instead of
    // spinning until the deadline.
    const auto it = find(r);
    if (it == pending_recvs_.end() || it->id != r || it->consumed) {
      throw std::logic_error(
          "wait_recv_for: invalid or already-completed request");
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  for (;;) {
    progress();
    const auto it = find(r);
    if (it != pending_recvs_.end() && it->id == r && it->done &&
        !it->consumed) {
      // Completes without blocking and reuses wait_recv's post-order
      // consume + amortized compaction.
      out = wait_recv(r);
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

double Comm::allreduce_sum(double value) {
  allreduce_sum(&value, 1);
  return value;
}

double Comm::allreduce_max(double value) {
  allreduce_max(&value, 1);
  return value;
}

}  // namespace mf::comm
