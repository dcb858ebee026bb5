#include "bdd/bdd.hpp"

#include <algorithm>
#include <string>
#include <string_view>

#include "trace/metrics.hpp"

namespace minpower {

namespace {

// Initial table sizes (powers of two) and the computed-table byte budget.
// The cache is lossy, so the budget caps memory without affecting results:
// 2^19 entries × 20 bytes = 10 MiB per manager at full growth.
constexpr std::size_t kUniqueInitSlots = std::size_t{1} << 11;
constexpr std::size_t kCacheInitEntries = std::size_t{1} << 12;
constexpr std::size_t kCacheMaxEntries = std::size_t{1} << 19;

inline std::uint64_t mix3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL;
  x = (x ^ b) * 0xff51afd7ed558ccdULL;
  x = (x ^ c) * 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 29);
}

}  // namespace

BddManager::BddManager(std::size_t node_limit) : node_limit_(node_limit) {
  if (const Budget* b = Budget::current()) {
    node_limit_ = std::min(node_limit_, b->bdd_node_limit);
    if (b->injected("bdd-limit")) node_limit_ = kInjectedBddNodeLimit;
  }
  nodes_.push_back(BddNode{kLeafVar, kFalse, kFalse});  // 0 = false
  nodes_.push_back(BddNode{kLeafVar, kTrue, kTrue});    // 1 = true
  unique_slots_.assign(kUniqueInitSlots, kInvalid);
  unique_mask_ = kUniqueInitSlots - 1;
  cache_.assign(kCacheInitEntries, CacheEntry{});
  cache_mask_ = kCacheInitEntries - 1;
}

namespace {

/// Phase kind of a budget label ("<circuit>/decomp[0]" → "decomp"). Labels
/// come from the flow engine (session.cpp); anything unlabelled or foreign
/// (tests, verify oracles) lands in "other".
const char* phase_of_label(const std::string& label) {
  const std::size_t slash = label.rfind('/');
  const std::string_view tail =
      slash == std::string::npos
          ? std::string_view(label)
          : std::string_view(label).substr(slash + 1);
  if (tail == "source") return "source";
  if (tail.rfind("decomp[", 0) == 0) return "decomp";
  if (tail.rfind("activity[", 0) == 0) return "activity";
  if (tail.rfind("map[", 0) == 0) return "map";
  return "other";
}

}  // namespace

std::size_t BddManager::node_bytes() const {
  return nodes_.capacity() * sizeof(BddNode);
}

std::size_t BddManager::unique_table_bytes() const {
  return unique_slots_.capacity() * sizeof(BddRef);
}

std::size_t BddManager::cache_bytes() const {
  return cache_.capacity() * sizeof(CacheEntry);
}

std::size_t BddManager::scratch_bytes() const {
  return not_memo_.capacity() * sizeof(BddRef) +
         stamp_.capacity() * sizeof(std::uint32_t) +
         prob_memo_.capacity() * sizeof(double) +
         ref_memo_.capacity() * sizeof(BddRef) +
         scratch_stack_.capacity() * sizeof(BddRef) +
         var_nodes_.capacity() * sizeof(BddRef);
}

std::size_t BddManager::arena_bytes() const {
  return node_bytes() + unique_table_bytes() + cache_bytes() +
         scratch_bytes();
}

BddManager::~BddManager() {
  static metrics::Counter& lookups = metrics::counter("bdd.unique_lookups");
  static metrics::Counter& ites = metrics::counter("bdd.ite_calls");
  static metrics::Counter& hits = metrics::counter("bdd.ite_cache_hits");
  static metrics::Counter& nots = metrics::counter("bdd.not_calls");
  static metrics::Counter& not_hits = metrics::counter("bdd.not_cache_hits");
  static metrics::Gauge& peak = metrics::gauge("bdd.unique_table_peak");
  static metrics::Histogram& final_nodes =
      metrics::histogram("bdd.final_nodes");
  // Byte-accounted arena gauges (DESIGN.md §16). All values derive from
  // vector *capacities*, which are a pure function of the deterministic
  // operation sequence this manager executed — never from the allocator or
  // the OS — so the gauges stay byte-identical across thread counts and
  // across the sharded/in-process split. RSS never enters the registry.
  static metrics::Gauge& live_bytes = metrics::gauge("bdd.mem.live_node_bytes");
  static metrics::Gauge& node_peak = metrics::gauge("bdd.mem.node_bytes_peak");
  static metrics::Gauge& unique_peak =
      metrics::gauge("bdd.mem.unique_bytes_peak");
  static metrics::Gauge& cache_peak =
      metrics::gauge("bdd.mem.cache_bytes_peak");
  static metrics::Gauge& scratch_peak =
      metrics::gauge("bdd.mem.scratch_bytes_peak");
  static metrics::Gauge& arena_peak =
      metrics::gauge("bdd.mem.arena_bytes_peak");
  lookups.add(unique_lookups_);
  ites.add(ite_calls_);
  hits.add(ite_cache_hits_);
  nots.add(not_calls_);
  not_hits.add(not_cache_hits_);
  peak.record_max(nodes_.size());
  final_nodes.record(nodes_.size());
  live_bytes.record_max(nodes_.size() * sizeof(BddNode));
  node_peak.record_max(node_bytes());
  unique_peak.record_max(unique_table_bytes());
  cache_peak.record_max(cache_bytes());
  scratch_peak.record_max(scratch_bytes());
  arena_peak.record_max(arena_bytes());
  // Per-phase high-water mark, attributed through the owning Budget label
  // ("<circuit>/activity[g]" → phase "activity"). Phase names are a small
  // fixed set, so the handle lookup stays off every hot path (dtor only).
  const Budget* b = Budget::current();
  const char* phase =
      b != nullptr ? phase_of_label(b->label) : phase_of_label(std::string());
  metrics::gauge(std::string("bdd.mem.phase_peak_bytes.") + phase)
      .record_max(arena_bytes());
}

BddRef BddManager::var(int index) {
  MP_CHECK(index >= 0);
  while (num_vars_ <= index) {
    var_nodes_.push_back(make(num_vars_, kFalse, kTrue));
    ++num_vars_;
  }
  return var_nodes_[static_cast<std::size_t>(index)];
}

BddRef BddManager::make(int var, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;
  ++unique_lookups_;
  std::size_t slot = mix3(static_cast<std::uint64_t>(var), lo, hi) &
                     unique_mask_;
  for (;;) {
    const BddRef id = unique_slots_[slot];
    if (id == kInvalid) break;
    const BddNode& n = nodes_[id];
    if (n.lo == lo && n.hi == hi && n.var == var) return id;
    slot = (slot + 1) & unique_mask_;
  }
  if (nodes_.size() >= node_limit_) {
    const Budget* b = Budget::current();
    throw ResourceExhausted(
        "bdd-limit",
        "BDD node limit exceeded: " + std::to_string(nodes_.size()) +
            " nodes (limit " + std::to_string(node_limit_) + ") in phase " +
            (b && !b->label.empty() ? b->label : std::string("<unbudgeted>")));
  }
  const BddRef id = static_cast<BddRef>(nodes_.size());
  nodes_.push_back(BddNode{var, lo, hi});
  unique_slots_[slot] = id;
  // Keep load below ~0.7; every internal node lives in the table, so the
  // fill count is just the node count.
  if ((nodes_.size() - 2) * 10 >= unique_slots_.size() * 7) grow_unique();
  return id;
}

void BddManager::grow_unique() {
  const std::size_t cap = unique_slots_.size() * 2;
  unique_slots_.assign(cap, kInvalid);
  unique_mask_ = cap - 1;
  // Rebuild from the dense node array — cheaper and more cache-friendly
  // than migrating slots, and terminals (ids 0, 1) are never table members.
  for (BddRef id = 2; id < static_cast<BddRef>(nodes_.size()); ++id) {
    const BddNode& n = nodes_[id];
    std::size_t slot = mix3(static_cast<std::uint64_t>(n.var), n.lo, n.hi) &
                       unique_mask_;
    while (unique_slots_[slot] != kInvalid) slot = (slot + 1) & unique_mask_;
    unique_slots_[slot] = id;
  }
}

const BddRef* BddManager::cache_find(std::uint32_t tag, BddRef f, BddRef g,
                                     BddRef h) {
  const CacheEntry& e =
      cache_[mix3(f | (static_cast<std::uint64_t>(tag) << 32), g, h) &
             cache_mask_];
  if (e.tag == tag && e.f == f && e.g == g && e.h == h) return &e.result;
  return nullptr;
}

void BddManager::cache_store(std::uint32_t tag, BddRef f, BddRef g, BddRef h,
                             BddRef r) {
  // Grow geometrically toward the byte budget once inserts outnumber slots;
  // past the budget the table stays fixed and overwrites on collision.
  if (++cache_inserts_ > cache_.size() && cache_.size() < kCacheMaxEntries)
    grow_cache();
  CacheEntry& e =
      cache_[mix3(f | (static_cast<std::uint64_t>(tag) << 32), g, h) &
             cache_mask_];
  e = CacheEntry{tag, f, g, h, r};
}

void BddManager::grow_cache() {
  std::vector<CacheEntry> old = std::move(cache_);
  cache_.assign(old.size() * 2, CacheEntry{});
  cache_mask_ = cache_.size() - 1;
  cache_inserts_ = 0;
  for (const CacheEntry& e : old) {
    if (e.tag == 0) continue;
    cache_[mix3(e.f | (static_cast<std::uint64_t>(e.tag) << 32), e.g, e.h) &
           cache_mask_] = e;
  }
}

void BddManager::clear_op_cache() {
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  cache_inserts_ = 0;
  std::fill(not_memo_.begin(), not_memo_.end(), kInvalid);
}

BddRef BddManager::not_(BddRef f) {
  if (f <= kTrue) return f ^ 1u;
  ++not_calls_;
  if (f < not_memo_.size() && not_memo_[f] != kInvalid) {
    ++not_cache_hits_;
    return not_memo_[f];
  }
  const BddNode n = nodes_[f];  // copy: make() below may reallocate nodes_
  const BddRef lo = not_(n.lo);
  const BddRef hi = not_(n.hi);
  const BddRef r = make(n.var, lo, hi);
  if (not_memo_.size() < nodes_.size()) not_memo_.resize(nodes_.size(), kInvalid);
  // ¬ is an involution: record both directions so ite can recognize
  // complement pairs no matter which side was computed first.
  not_memo_[f] = r;
  not_memo_[r] = f;
  return r;
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  // In the then-branch f is true, in the else-branch false:
  // ite(f,f,h) = ite(f,1,h) and ite(f,g,f) = ite(f,g,0).
  if (g == f) g = kTrue;
  if (h == f) h = kFalse;
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return not_(f);  // cached complement
  // Commutative normalization so equivalent triples share one entry:
  //   ite(f,1,h) = f + h = ite(h,1,f)   and   ite(f,g,0) = f·g = ite(g,f,0).
  if (g == kTrue) {
    if (before(h, f)) std::swap(f, h);
  } else if (h == kFalse) {
    if (before(g, f)) std::swap(f, g);
  } else if (is_not_pair(g, h)) {
    // ite(f,g,¬g) = ¬(f⊕g) = f⊕¬g: route through the canonical XOR op.
    return xor_(f, h);
  }

  ++ite_calls_;
  if (const BddRef* r = cache_find(kOpIte, f, g, h)) {
    ++ite_cache_hits_;
    return *r;
  }

  const int vf = nodes_[f].var;
  const int vg = is_const(g) ? kLeafVar : nodes_[g].var;
  const int vh = is_const(h) ? kLeafVar : nodes_[h].var;
  const int v = std::min({vf, vg, vh});

  const BddRef f0 = (vf == v) ? nodes_[f].lo : f;
  const BddRef f1 = (vf == v) ? nodes_[f].hi : f;
  const BddRef g0 = (vg == v) ? nodes_[g].lo : g;
  const BddRef g1 = (vg == v) ? nodes_[g].hi : g;
  const BddRef h0 = (vh == v) ? nodes_[h].lo : h;
  const BddRef h1 = (vh == v) ? nodes_[h].hi : h;

  const BddRef lo = ite(f0, g0, h0);
  const BddRef hi = ite(f1, g1, h1);
  const BddRef out = make(v, lo, hi);
  cache_store(kOpIte, f, g, h, out);
  return out;
}

BddRef BddManager::xor_(BddRef f, BddRef g) {
  if (f == g) return kFalse;
  if (f == kFalse) return g;
  if (g == kFalse) return f;
  if (f == kTrue) return not_(g);
  if (g == kTrue) return not_(f);
  if (is_not_pair(f, g)) return kTrue;
  if (before(g, f)) std::swap(f, g);  // XOR is commutative

  ++ite_calls_;
  if (const BddRef* r = cache_find(kOpXor, f, g, kFalse)) {
    ++ite_cache_hits_;
    return *r;
  }

  const int vf = nodes_[f].var;
  const int vg = nodes_[g].var;
  const int v = std::min(vf, vg);
  const BddRef f0 = (vf == v) ? nodes_[f].lo : f;
  const BddRef f1 = (vf == v) ? nodes_[f].hi : f;
  const BddRef g0 = (vg == v) ? nodes_[g].lo : g;
  const BddRef g1 = (vg == v) ? nodes_[g].hi : g;

  const BddRef lo = xor_(f0, g0);
  const BddRef hi = xor_(f1, g1);
  const BddRef out = make(v, lo, hi);
  cache_store(kOpXor, f, g, kFalse, out);
  return out;
}

BddRef BddManager::cofactor(BddRef f, int var, bool value) {
  if (is_const(f)) return f;
  const int v = nodes_[f].var;
  if (v > var) return f;
  if (v == var) return value ? nodes_[f].hi : nodes_[f].lo;
  ensure_scratch();
  if (ref_memo_.size() < nodes_.size()) ref_memo_.resize(nodes_.size());
  next_epoch();
  return cofactor_rec(f, var, value);
}

BddRef BddManager::cofactor_rec(BddRef f, int var, bool value) {
  if (is_const(f)) return f;
  const BddNode n = nodes_[f];  // copy: make() below may reallocate nodes_
  if (n.var > var) return f;
  if (n.var == var) return value ? n.hi : n.lo;
  // Memo keyed by f alone: (var, value) are fixed for the whole call. Only
  // nodes that existed at entry are keys, so the scratch sized at entry
  // covers them even though make() appends new nodes.
  if (stamp_[f] == epoch_) return ref_memo_[f];
  const BddRef lo = cofactor_rec(n.lo, var, value);
  const BddRef hi = cofactor_rec(n.hi, var, value);
  const BddRef r = make(n.var, lo, hi);
  stamp_[f] = epoch_;
  ref_memo_[f] = r;
  return r;
}

bool BddManager::eval(BddRef f, const std::vector<bool>& assignment) const {
  while (!is_const(f)) {
    const BddNode& n = nodes_[f];
    MP_CHECK(n.var < static_cast<int>(assignment.size()));
    f = assignment[static_cast<std::size_t>(n.var)] ? n.hi : n.lo;
  }
  return f == kTrue;
}

void BddManager::ensure_scratch() const {
  if (stamp_.size() < nodes_.size()) stamp_.resize(nodes_.size(), 0);
}

void BddManager::next_epoch() const {
  if (++epoch_ == 0) {  // wrapped: every stale stamp must be invalidated
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
}

double BddManager::prob_eval(BddRef f, const std::vector<double>& p1) const {
  if (stamp_[f] == epoch_) return prob_memo_[f];
  // Iterative DFS to avoid deep recursion on path-like BDDs. Post-order:
  // P(node) = p(var)·P(hi) + (1−p(var))·P(lo). Eq. 2.
  std::vector<BddRef>& stack = scratch_stack_;
  stack.clear();
  stack.push_back(f);
  while (!stack.empty()) {
    const BddRef r = stack.back();
    if (stamp_[r] == epoch_) {
      stack.pop_back();
      continue;
    }
    const BddNode& n = nodes_[r];
    const bool lo_ready = n.lo <= kTrue || stamp_[n.lo] == epoch_;
    const bool hi_ready = n.hi <= kTrue || stamp_[n.hi] == epoch_;
    if (lo_ready && hi_ready) {
      const double plo =
          n.lo <= kTrue ? static_cast<double>(n.lo) : prob_memo_[n.lo];
      const double phi =
          n.hi <= kTrue ? static_cast<double>(n.hi) : prob_memo_[n.hi];
      MP_CHECK(n.var < static_cast<int>(p1.size()));
      const double pv = p1[static_cast<std::size_t>(n.var)];
      prob_memo_[r] = pv * phi + (1.0 - pv) * plo;
      stamp_[r] = epoch_;
      stack.pop_back();
    } else {
      if (!lo_ready) stack.push_back(n.lo);
      if (!hi_ready) stack.push_back(n.hi);
    }
  }
  return prob_memo_[f];
}

double BddManager::probability(BddRef f, const std::vector<double>& p1) const {
  if (f == kFalse) return 0.0;
  if (f == kTrue) return 1.0;
  ensure_scratch();
  if (prob_memo_.size() < nodes_.size()) prob_memo_.resize(nodes_.size());
  next_epoch();
  return prob_eval(f, p1);
}

std::vector<double> BddManager::probabilities(
    const std::vector<BddRef>& fs, const std::vector<double>& p1) const {
  ensure_scratch();
  if (prob_memo_.size() < nodes_.size()) prob_memo_.resize(nodes_.size());
  next_epoch();  // one epoch for the whole batch: the memo is shared
  std::vector<double> out;
  out.reserve(fs.size());
  for (const BddRef f : fs) {
    if (f <= kTrue)
      out.push_back(static_cast<double>(f));
    else
      out.push_back(prob_eval(f, p1));
  }
  return out;
}

std::vector<int> BddManager::support(BddRef f) const {
  std::vector<bool> seen_var(static_cast<std::size_t>(num_vars_), false);
  ensure_scratch();
  next_epoch();
  std::vector<BddRef>& stack = scratch_stack_;
  stack.clear();
  if (!is_const(f)) stack.push_back(f);
  while (!stack.empty()) {
    const BddRef r = stack.back();
    stack.pop_back();
    if (stamp_[r] == epoch_) continue;
    stamp_[r] = epoch_;
    const BddNode& n = nodes_[r];
    seen_var[static_cast<std::size_t>(n.var)] = true;
    if (n.lo > kTrue) stack.push_back(n.lo);
    if (n.hi > kTrue) stack.push_back(n.hi);
  }
  std::vector<int> out;
  for (int v = 0; v < num_vars_; ++v)
    if (seen_var[static_cast<std::size_t>(v)]) out.push_back(v);
  return out;
}

std::size_t BddManager::dag_size(BddRef f) const {
  ensure_scratch();
  next_epoch();
  std::vector<BddRef>& stack = scratch_stack_;
  stack.clear();
  if (!is_const(f)) stack.push_back(f);
  std::size_t count = 0;
  while (!stack.empty()) {
    const BddRef r = stack.back();
    stack.pop_back();
    if (stamp_[r] == epoch_) continue;
    stamp_[r] = epoch_;
    ++count;
    const BddNode& n = nodes_[r];
    if (n.lo > kTrue) stack.push_back(n.lo);
    if (n.hi > kTrue) stack.push_back(n.hi);
  }
  return count;
}

}  // namespace minpower
