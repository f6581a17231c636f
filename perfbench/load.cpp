// Load generation: closed loop (one outstanding op per client) or open
// loop (Poisson arrivals, latency from each op's intended send time).
#include <cstdio>
#include <thread>

#include "bench.h"
#include "store/remote.h"

namespace perfbench {

namespace {

struct Op {
  bool read = false;
  std::string key;
  Value value;
};

/// Per-client op generator: the same (seed, client) gives the same ops on
/// the remote run and the in-process replay.
class OpStream {
 public:
  OpStream(const harness::WorkloadModel& model, std::uint64_t seed,
           std::size_t client)
      : model_(model), rng_(mix_seed(seed, 0xec0 + client)) {}

  Op next() {
    Op op;
    op.read = model_.is_read(rng_);
    op.key = model_.key_name(0, model_.key_index(rng_));
    if (!op.read) op.value = Value(make_value(rng_, model_.value_size(rng_)));
    return op;
  }

 private:
  const harness::WorkloadModel& model_;
  Rng rng_;
};

/// Warm-up before each measured window (the first ~0.8 s after set-up
/// carries cold-cache and lazy-initialisation latency).
constexpr double kWarmupS = 1.0;

std::uint64_t frame_bytes(store::RemoteBody body) {
  store::register_store_wire();
  const auto m = store::RemoteMessage::make(0, std::move(body));
  return m->data_bytes() + m->meta_bytes();
}

/// Exact codec size of the request and reply frames an op moves.
/// A get's reply carries `got`, or no value bytes for a tag-only round.
std::uint64_t op_frame_bytes(const Op& op, Tag tag, const Value& got,
                             bool tag_only) {
  store::RemoteReply reply;
  reply.version_known = true;
  reply.tag = tag;
  if (!op.read) {
    return frame_bytes(store::RemotePut{op.key, op.value}) +
           frame_bytes(std::move(reply));
  }
  reply.has_value = true;
  if (!tag_only) reply.value = got;
  const auto mode =
      tag_only ? store::ReadMode::TagOnly : store::ReadMode::Atomic;
  return frame_bytes(store::RemoteGet{op.key, mode}) +
         frame_bytes(std::move(reply));
}

/// What one load thread saw; merged after the threads join.
struct ThreadResult {
  std::vector<double> get_ms, put_ms, late_ms, done_s;
  std::uint64_t attempted = 0, failed = 0, gets = 0, puts = 0;
  std::uint64_t all_gets = 0;
  bool snapshotted = false;
  std::uint64_t hits0 = 0, validations0 = 0, saved0 = 0;
  std::uint64_t put_frames = 0, get_frames = 0, validation_frames = 0;
};

}  // namespace

LoadResult run_load(Deployment& dep, const Workload& w, std::uint64_t seed,
                    double seconds, SpanLog* spans, Layer layer) {
  const harness::WorkloadModel model = workload_model(w);

  const std::size_t n = dep.num_clients();
  std::vector<ThreadResult> per(n);
  // Ops sent during the warm-up fill the client caches and finish lazy
  // set-up; they enter the history but not the measurements.
  const double begin = now_s();
  const double start = begin + kWarmupS;
  const double end = start + seconds;

  const auto worker = [&](std::size_t t) {
    ThreadResult& r = per[t];
    store::Client& client = dep.client(t);
    auto& cq = client.completions();
    OpStream stream(model, seed, t);
    std::vector<Span>* sbuf = spans != nullptr ? spans->buffer() : nullptr;
    const NodeId me = static_cast<NodeId>(t + 2);  // 1 = the preload primer

    // Account one finished op: latency, history, spans, frame bytes.
    const auto finish = [&](const Op& op, const store::Completion& c,
                            double sent, double due, double resp) {
      const bool measured = due >= start;
      const double lat_ms = (resp - due) * 1e3;
      const Status& st = op.read ? c.get.status : c.put.status;
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: %s %s failed: %s\n",
                     op.read ? "get" : "put", op.key.c_str(),
                     st.to_string().c_str());
        ++r.failed;
        return;
      }
      if (measured) {
        r.done_s.push_back(resp - start);
        (op.read ? r.get_ms : r.put_ms).push_back(lat_ms);
      }
      if (op.read) {
        dep.history().record(core::OpKind::Read, op.key, me, sent - dep.t0(),
                             resp - dep.t0(), c.get.tag, c.get.value);
      } else {
        // An absorbed put has no linearization-visible record (the
        // server-side history skips it by design, too).
        if (!c.put.coalesced) {
          dep.history().record(core::OpKind::Write, op.key, me,
                               sent - dep.t0(), resp - dep.t0(), c.put.tag,
                               op.value);
        }
      }
      if (measured && sbuf != nullptr) {
        sbuf->push_back(Span{spans->next_id(), layer, op.read, sent, resp});
        const Tag tag = op.read ? c.get.tag : c.put.tag;
        (op.read ? r.get_frames : r.put_frames) +=
            op_frame_bytes(op, tag, c.get.value, false);
        if (op.read) {
          r.validation_frames += op_frame_bytes(op, tag, c.get.value, true);
        }
      }
    };
    const auto submit = [&](const Op& op, double due) {
      ++r.attempted;
      if (op.read) ++r.all_gets;
      if (due >= start) {
        if (!r.snapshotted) {
          // Cache counters at the start of the window.
          const auto& m = client.metrics();
          r.hits0 = m.counter_total("cache_hits");
          r.validations0 = m.counter_total("cache_validation_rounds");
          r.saved0 = m.counter_total("wire_value_bytes_saved");
          r.snapshotted = true;
        }
        ++(op.read ? r.gets : r.puts);
      }
      return op.read ? client.async_get(op.key)
                     : client.async_put(op.key, op.value);
    };

    store::Completion c;
    if (w.rate <= 0) {
      for (;;) {
        Op op = stream.next();
        const double sent = now_s();
        if (sent >= end) break;
        submit(op, sent);
        if (!cq.wait(&c, 60.0)) {
          ++r.failed;
          break;
        }
        finish(op, c, sent, sent, now_s());
      }
      return;
    }

    // Open loop: arrivals come due on their own seeded clock, never gated
    // on replies; the generator's lateness is reported separately.
    struct Pending {
      Op op;
      double sent, due;
    };
    std::unordered_map<std::uint64_t, Pending> pend;
    Rng arrivals(mix_seed(seed, 0xa77 + t));
    const double interarrival = static_cast<double>(n) / w.rate;
    const auto complete = [&](const store::Completion& done, double resp) {
      auto it = pend.find(done.handle);
      if (it == pend.end()) return;
      finish(it->second.op, done, it->second.sent, it->second.due, resp);
      pend.erase(it);
    };
    double due = begin;
    for (;;) {
      due += arrivals.exponential(interarrival);
      if (due >= end) break;
      Op op = stream.next();
      // Sleep on the completion queue until the op is due, so completions
      // are timestamped as they arrive, not at a polling tick.
      for (double left = due - now_s(); left > 0; left = due - now_s()) {
        if (cq.outstanding() == 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(left));
        } else if (cq.wait(&c, std::max(left, 1e-6))) {
          complete(c, now_s());
        }
      }
      const double sent = now_s();
      if (due >= start) r.late_ms.push_back((sent - due) * 1e3);
      const auto h = submit(op, due);
      pend.emplace(h, Pending{std::move(op), sent, due});
    }
    while (cq.outstanding() > 0 && cq.wait(&c, 60.0)) complete(c, now_s());
    r.failed += pend.size();
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();

  LoadResult out;
  std::uint64_t in_window = 0;
  for (ThreadResult& r : per) {
    out.get_ms.insert(out.get_ms.end(), r.get_ms.begin(), r.get_ms.end());
    out.put_ms.insert(out.put_ms.end(), r.put_ms.begin(), r.put_ms.end());
    out.late_ms.insert(out.late_ms.end(), r.late_ms.begin(), r.late_ms.end());
    for (const double d : r.done_s) {
      if (d < seconds) ++in_window;
      if (d < seconds / 10) ++out.first_tenth;
      if (d >= seconds * 0.9 && d < seconds) ++out.last_tenth;
    }
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.gets += r.gets;
    out.puts += r.puts;
    out.all_gets += r.all_gets;
    out.put_frame_bytes += r.put_frames;
    out.get_frame_bytes += r.get_frames;
    out.validation_frame_bytes += r.validation_frames;
  }
  out.ops_per_s = static_cast<double>(in_window) / seconds;
  for (std::size_t t = 0; t < n; ++t) {
    const auto& m = dep.client(t).metrics();
    out.cache_hits += m.counter_total("cache_hits") - per[t].hits0;
    out.cache_validations +=
        m.counter_total("cache_validation_rounds") - per[t].validations0;
    out.cache_saved += m.counter_total("wire_value_bytes_saved") - per[t].saved0;
  }
  return out;
}

std::vector<double> probe_not_found(Deployment& dep, std::size_t n,
                                    SpanLog* spans, Layer layer) {
  std::vector<double> ms;
  store::Client& client = dep.client(0);
  auto& cq = client.completions();
  std::vector<Span>* sbuf = spans != nullptr ? spans->buffer() : nullptr;
  store::Completion c;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key = "absent-" + std::to_string(i);
    const double sent = now_s();
    client.async_get(key);
    if (!cq.wait(&c, 60.0) || !c.get.status.is(StatusCode::kNotFound)) {
      std::fprintf(stderr, "perfbench: probe get %s did not return NotFound\n",
                   key.c_str());
      return {};
    }
    const double resp = now_s();
    ms.push_back((resp - sent) * 1e3);
    if (sbuf != nullptr) {
      sbuf->push_back(Span{spans->next_id(), layer, true, sent, resp});
    }
  }
  return ms;
}

}  // namespace perfbench
