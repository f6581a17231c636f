// Layers timed alone: the striped PM-MBR calls a get or put makes, the
// durable backend's put+fdatasync, and the Lemma V.2/V.3 cost cross-check.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "lds/analysis.h"
#include "storage/backend.h"

namespace perfbench {

namespace {

/// Time `call` repeatedly for about `budget_s` (at least `min_reps` calls);
/// returns the median per-call microseconds.  `call` returns false when its
/// output is wrong.
template <typename F>
double time_calls(double budget_s, std::size_t min_reps, SpanLog* spans,
                  Layer layer, bool* ok, F&& call) {
  std::vector<double> us;
  std::vector<Span>* sbuf = spans != nullptr ? spans->buffer() : nullptr;
  const double stop = now_s() + budget_s;
  while (us.size() < min_reps || now_s() < stop) {
    const double t0 = now_s();
    const bool right = call();
    const double t1 = now_s();
    if (!right) *ok = false;
    us.push_back((t1 - t0) * 1e6);
    if (sbuf != nullptr) {
      sbuf->push_back(Span{spans->next_id(), layer, true, t0, t1});
    }
  }
  return percentile(std::move(us), 0.5);
}

}  // namespace

CodesTiming time_codes(const codes::StripedCode& code, std::size_t n1,
                       std::size_t value_size, std::uint64_t seed,
                       double budget_s, SpanLog* spans) {
  Rng rng(mix_seed(seed, 0xc0de));
  const Bytes value = make_value(rng, value_size);
  const std::vector<Bytes> elems = code.encode_value(value);
  const std::size_t k = code.k(), d = code.d();
  CodesTiming t;
  bool ok = elems.size() == code.n();
  const double each = budget_s / 4;

  // Encode: the offload's encode_value, checked by a decode round trip
  // against the reference elements.
  t.encode_us = time_calls(each, 5, spans, Layer::CodesEncode, &ok, [&] {
    return code.encode_value(value) == elems;
  });

  // Helper data for L1 coordinate `target` from L2 coordinate n1 + i, the
  // exact call an L2 server makes per regenerate-from-L2 query.
  std::size_t target = 0;
  std::vector<codes::IndexedBytes> helpers;
  t.helper_us = time_calls(each, 5, spans, Layer::CodesHelper, &ok, [&] {
    const int h = static_cast<int>(n1 + helpers.size() % d);
    Bytes out = code.helper_data(h, elems[static_cast<std::size_t>(h)],
                                 static_cast<int>(target));
    const bool right = out.size() == code.helper_size(value_size);
    if (helpers.size() < d) helpers.emplace_back(h, std::move(out));
    return right;
  });

  // Repair L1 element `target` from d helpers: must equal its encoding.
  t.repair_us = time_calls(each, 5, spans, Layer::CodesRepair, &ok, [&] {
    const auto out = code.repair_element(static_cast<int>(target), helpers);
    return out.has_value() && *out == elems[target];
  });

  // Decode the value from k L1 coordinates (what a reader receives).
  std::vector<codes::IndexedBytes> l1_elems;
  for (std::size_t j = 0; j < k; ++j) {
    l1_elems.emplace_back(static_cast<int>(j), elems[j]);
  }
  t.decode_us = time_calls(each, 5, spans, Layer::CodesDecode, &ok, [&] {
    const auto out = code.decode_value(l1_elems);
    return out.has_value() && *out == value;
  });
  t.ok = ok;
  return t;
}

double time_storage_put(const std::string& dir, std::size_t element_size,
                        std::uint64_t seed, double budget_s, SpanLog* spans) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  storage::DurabilityPolicy policy;
  policy.sync = storage::SyncPolicy::Always;
  auto opened = storage::DurableBackend::open(dir, policy);
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: storage open: %s\n",
                 opened.status().to_string().c_str());
    return -1;
  }
  auto backend = std::move(opened.value());
  Rng rng(mix_seed(seed, 0x5707));
  const Bytes element = make_value(rng, element_size);
  bool ok = true;
  std::uint64_t z = 0;
  const double ms =
      time_calls(budget_s, 20, spans, Layer::StoragePut, &ok, [&] {
        ++z;
        return backend->put(static_cast<ObjectId>(z % 64), Tag{z, 1}, element)
            .ok();
      }) /
      1e3;
  backend.reset();
  std::filesystem::remove_all(dir, ec);
  return ok ? ms : -1;
}

bool cross_check_costs(std::size_t value_size, std::uint64_t seed) {
  // One shard, deterministic engine, no repair heartbeats: every op runs
  // alone and the simulator drains between ops, so reads see delta = 0
  // (L1 has blanked the offloaded values) exactly as Lemma V.2 assumes.
  store::StoreOptions o;
  o.shards = 1;
  o.seed = seed;
  o.enable_repair = false;
  store::StoreService svc(o);
  constexpr std::size_t kKeys = 4;
  Rng rng(mix_seed(seed, 0xc4ec));
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (!svc.put_sync("x" + std::to_string(i), make_value(rng, value_size))
             .ok) {
      return false;
    }
    svc.sim().run();
  }
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (!svc.get_sync("x" + std::to_string(i)).ok) return false;
    svc.sim().run();
  }

  core::LdsCluster& c = *svc.shard_lds(0);
  const auto& cfg = c.ctx().cfg;
  const std::size_t n1 = cfg.n1, n2 = cfg.n2, k = cfg.k(), d = cfg.d();
  double write_bytes = 0, read_bytes = 0;
  std::size_t writes = 0, reads = 0;
  for (const auto& op : svc.shard_history(0).ops()) {
    const double b = static_cast<double>(c.net().costs().by_op(op.id).data_bytes);
    if (op.kind == core::OpKind::Write) {
      write_bytes += b;
      ++writes;
    } else {
      read_bytes += b;
      ++reads;
    }
  }
  const double v = static_cast<double>(value_size * kKeys);
  const double write_cost = write_bytes / v;
  const double read_cost = read_bytes / v;
  const double storage_cost = static_cast<double>(c.meter().l2_bytes()) / v;
  // Values are framed with an 8-byte length header and zero-padded to whole
  // stripes of B = k(2d-k+1)/2 symbols, so coded bytes may exceed the
  // closed form by at most (B + 8) / |v|.
  const double slack =
      static_cast<double>(k * (2 * d - k + 1) / 2 + 8) /
      static_cast<double>(value_size);
  const auto within = [&](const char* what, double measured, double formula) {
    const bool ok = measured >= formula * (1 - 1e-9) &&
                    measured <= formula * (1 + slack) + 1e-9;
    if (!ok) {
      std::fprintf(stderr,
                   "perfbench: %s %.6f does not match the closed form %.6f "
                   "(|v|=%zu)\n",
                   what, measured, formula, value_size);
    }
    return ok;
  };
  const bool counts = writes == kKeys && reads == kKeys;
  if (!counts) {
    std::fprintf(stderr, "perfbench: cross-check saw %zu writes, %zu reads\n",
                 writes, reads);
  }
  return counts &&
         within("write_cost", write_cost,
                core::analysis::write_cost(n1, n2, k, d)) &&
         within("read_cost", read_cost,
                core::analysis::read_cost(n1, n2, k, d, false)) &&
         within("l2_storage_cost", storage_cost,
                core::analysis::l2_storage_per_object(n2, k, d));
}

}  // namespace perfbench
