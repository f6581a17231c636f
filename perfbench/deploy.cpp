// Deployment: one fresh service, its preload, and its connected clients.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <unordered_set>

#include "bench.h"
#include "harness/stress.h"
#include "lds/messages.h"

namespace perfbench {

Bytes make_value(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t r = rng.next_u64();
    std::memcpy(b.data() + i, &r, std::min<std::size_t>(8, n - i));
  }
  return b;
}

namespace {

/// How many preload puts may be in flight on the primer connection.
constexpr std::size_t kPreloadWindow = 32;

}  // namespace

/// Lane-local LDS message counts of one shard (read after quiesce).
struct Deployment::ShardCounters {
  std::atomic<std::uint64_t> lds_messages{0}, write_code_elem{0},
      send_helper{0}, resp_coded{0}, resp_nack{0};
  std::unordered_set<OpId> regen_reads;  ///< shard lane only
};

Deployment::Deployment(const Workload& w, std::uint64_t seed,
                       std::string data_dir, bool remote, bool count)
    : w_(w), data_dir_(std::move(data_dir)), remote_(remote) {
  t0_ = now_s();
  store::StoreOptions sopt = service_options(w, data_dir_);
  if (w.durable) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
    std::filesystem::create_directories(data_dir_, ec);
    if (const Status st =
            store::StoreService::storage_manifest(sopt).verify_or_write(
                data_dir_);
        !st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.to_string().c_str());
      return;
    }
  }
  svc_ = std::make_unique<store::StoreService>(sopt);
  if (count) count_messages();
  if (remote_) {
    store::StoreService::ListenOptions lo;
    lo.net_threads = 1;
    if (const Status st = svc_->listen(0, lo); !st.ok()) {
      std::fprintf(stderr, "perfbench: listen: %s\n", st.to_string().c_str());
      return;
    }
  }

  // Connect one client (one connection) on this service.
  const auto connect = [&](bool cache) -> std::unique_ptr<store::Client> {
    store::CacheOptions c;
    c.enabled = cache;
    c.ttl = 0;
    if (!remote_) return std::make_unique<store::Client>(*svc_, c);
    store::Client::ConnectOptions copts;
    copts.connections = 1;
    copts.cache = c;
    Status st;
    auto client =
        store::Client::connect("127.0.0.1", svc_->listen_port(), &st, copts);
    if (client == nullptr) {
      std::fprintf(stderr, "perfbench: connect: %s\n", st.to_string().c_str());
    }
    return client;
  };

  // Preload every key once, coldest first, pipelined on a primer client
  // that never caches (warming the measured clients' caches is the
  // measured run's job).  Every preload put enters the client history, so
  // every later read must return a recorded write.
  {
    auto primer = connect(false);
    if (primer == nullptr) return;
    const harness::WorkloadModel model = workload_model(w);
    Rng prng(mix_seed(seed, 0x9417));
    struct Pending {
      std::string key;
      Value value;
      double invoked;
    };
    std::unordered_map<std::uint64_t, Pending> pend;
    auto& cq = primer->completions();
    bool failed = false;
    const auto complete = [&](const store::Completion& c) {
      const double resp = now_s() - t0_;
      auto it = pend.find(c.handle);
      if (it == pend.end()) return;
      if (!c.put.status.ok()) {
        std::fprintf(stderr, "perfbench: preload put failed: %s\n",
                     c.put.status.to_string().c_str());
        failed = true;
      } else if (!c.put.coalesced) {
        history_.record(core::OpKind::Write, it->second.key, 1,
                        it->second.invoked, resp, c.put.tag,
                        it->second.value);
      }
      pend.erase(it);
    };
    store::Completion c;
    for (const std::size_t k : model.keys_coldest_first()) {
      while (pend.size() >= kPreloadWindow && cq.wait(&c, 60.0)) complete(c);
      std::string key = model.key_name(0, k);
      Value value(make_value(prng, w.value_size));
      const double inv = now_s() - t0_;
      const auto h = primer->async_put(key, value);
      pend.emplace(h, Pending{std::move(key), std::move(value), inv});
    }
    while (cq.outstanding() > 0 && cq.wait(&c, 60.0)) complete(c);
    primer->close();
    if (failed || !pend.empty()) return;
  }

  for (std::size_t i = 0; i < w.clients; ++i) {
    auto client = connect(w.cache);
    if (client == nullptr) return;
    // One round trip proves the server accepted the connection: stopping
    // the transport while an accept is still pending deadlocks
    // (TcpTransport::stop joins the loop thread under the lock that
    // accept_ready takes).
    client->async_get("setup-probe");
    store::Completion c;
    if (!client->completions().wait(&c, 60.0) ||
        !c.get.status.is(StatusCode::kNotFound)) {
      std::fprintf(stderr, "perfbench: client %zu round trip failed\n", i);
      return;
    }
    clients_.push_back(std::move(client));
  }
  setup_s_ = now_s() - t0_;
  ok_ = true;
}

Deployment::~Deployment() {
  for (auto& c : clients_) c->close();
  clients_.clear();
  svc_.reset();
  if (w_.durable) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
  }
}

void Deployment::count_messages() {
  for (std::size_t s = 0; s < svc_->num_shards(); ++s) {
    counters_.push_back(std::make_unique<ShardCounters>());
    ShardCounters* sc = counters_.back().get();
    core::LdsCluster* lds = svc_->shard_lds(s);
    // The observer runs on the shard's lane; install it there.
    std::promise<void> installed;
    svc_->engine().post(svc_->shard_lane(s), [lds, sc, &installed] {
      lds->net().set_delivery_observer(
          [sc](NodeId, NodeId, const net::Payload& p) {
            const auto* m = dynamic_cast<const core::LdsMessage*>(&p);
            if (m == nullptr) return;  // repair heartbeats
            sc->lds_messages.fetch_add(1, std::memory_order_relaxed);
            const auto& b = m->body();
            if (std::holds_alternative<core::WriteCodeElem>(b)) {
              sc->write_code_elem.fetch_add(1, std::memory_order_relaxed);
            } else if (std::holds_alternative<core::SendHelperElem>(b)) {
              sc->send_helper.fetch_add(1, std::memory_order_relaxed);
            } else if (std::holds_alternative<core::DataRespCoded>(b)) {
              sc->resp_coded.fetch_add(1, std::memory_order_relaxed);
              sc->regen_reads.insert(m->op());
            } else if (std::holds_alternative<core::DataRespNack>(b)) {
              sc->resp_nack.fetch_add(1, std::memory_order_relaxed);
            }
          });
      installed.set_value();
    });
    installed.get_future().wait();
  }
}

Deployment::MessageCounts Deployment::message_counts() const {
  MessageCounts out;
  for (const auto& sc : counters_) {
    out.lds_messages += sc->lds_messages.load();
    out.write_code_elem += sc->write_code_elem.load();
    out.send_helper += sc->send_helper.load();
    out.resp_coded += sc->resp_coded.load();
    out.resp_nack += sc->resp_nack.load();
    out.regen_reads += sc->regen_reads.size();
  }
  return out;
}

bool Deployment::finish() {
  for (auto& c : clients_) c->close();
  clients_.clear();
  if (remote_) svc_->stop_listening();
  svc_->quiesce();
  bool ok = true;
  // The same shard-history verification lds_served runs at shutdown.
  for (std::size_t s = 0; s < svc_->num_shards(); ++s) {
    const auto& h = svc_->shard_history(s);
    if (!h.all_complete()) {
      std::fprintf(stderr, "shard %zu: %zu incomplete operations\n", s,
                   h.incomplete());
      ok = false;
      continue;
    }
    if (const auto r = h.check_atomicity(Bytes{}); !r.ok) {
      std::fprintf(stderr, "shard %zu: ATOMICITY VIOLATION: %s\n", s,
                   r.violation.c_str());
      ok = false;
    }
    if (const auto r = harness::verify_read_freshness(h); !r.ok) {
      std::fprintf(stderr, "shard %zu: FRESHNESS VIOLATION: %s\n", s,
                   r.violation.c_str());
      ok = false;
    }
  }
  return history_.verify(remote_ ? "client history" : "replay history") &&
         ok;
}

}  // namespace perfbench
