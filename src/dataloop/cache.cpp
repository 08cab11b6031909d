#include "dataloop/cache.hpp"

#include <charconv>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace netddt::dataloop {
namespace {

// Decimal digits straight into the key (same bytes as std::to_string,
// without its temporary: every run_receive builds a compile_cached key).
void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
  out += ',';
}

// Serialize every structural field that influences compilation.
// Delimiters keep adjacent numeric fields from aliasing (e.g. counts
// 1,12 vs 11,2); kind() alone fixes which fields are meaningful, but we
// always emit all of them so the format needs no per-kind schema.
void append_signature(std::string& out, const ddt::Datatype& t) {
  out += static_cast<char>('A' + static_cast<int>(t.kind()));
  append_i64(out, static_cast<std::int64_t>(t.size()));
  append_i64(out, t.lb());
  append_i64(out, t.ub());
  append_i64(out, t.count());
  append_i64(out, t.blocklen());
  append_i64(out, t.stride_bytes());
  out += 'b';
  for (std::int64_t v : t.blocklens()) append_i64(out, v);
  out += 'd';
  for (std::int64_t v : t.displs_bytes()) append_i64(out, v);
  out += '(';
  for (const auto& child : t.children()) append_signature(out, *child);
  out += ')';
}

struct Entry {
  std::shared_ptr<const CompiledDataloop> loops;
  std::shared_ptr<const FlatProgram> program;
  bool program_compiled = false;  // true once lowering ran (even if it
                                  // bailed on limits: program stays null
                                  // and we never retry)
  std::list<std::string>::iterator lru;  // position in Cache::order
};

struct Cache {
  std::mutex mu;
  std::unordered_map<std::string, Entry> map;
  std::list<std::string> order;  // front = most recently used
  std::uint64_t capacity = kDefaultCacheCapacity;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evicted = 0;

  // Caller holds mu.
  void touch(Entry& e) {
    if (e.lru != order.begin()) order.splice(order.begin(), order, e.lru);
  }
  // A lookup that counts: a hit is marked most recently used. Caller
  // holds mu.
  Entry* lookup(const std::string& key) {
    auto it = map.find(key);
    if (it == map.end()) return nullptr;
    ++hits;
    touch(it->second);
    return &it->second;
  }
  void evict_to_capacity() {
    while (capacity != 0 && map.size() > capacity) {
      map.erase(order.back());
      order.pop_back();
      ++evicted;
    }
  }
  Entry& insert(std::string key, std::shared_ptr<const CompiledDataloop> l) {
    order.push_front(key);
    auto [it, inserted] = map.emplace(
        std::move(key), Entry{std::move(l), nullptr, false, order.begin()});
    if (!inserted) {
      // Lost a compile race: keep the incumbent, drop our LRU node.
      order.pop_front();
      touch(it->second);
    } else {
      ++misses;
      evict_to_capacity();
    }
    return it->second;
  }
};

Cache& cache() {
  static Cache c;
  return c;
}

std::string make_key(const ddt::TypePtr& type, std::uint64_t count) {
  std::string key = type_signature_string(*type);
  key += '#';
  key += std::to_string(count);
  return key;
}

}  // namespace

std::string type_signature_string(const ddt::Datatype& type) {
  std::string out;
  out.reserve(64);
  append_signature(out, type);
  return out;
}

std::shared_ptr<const CompiledDataloop> compile_cached(
    const ddt::TypePtr& type, std::uint64_t count) {
  std::string key = make_key(type, count);

  Cache& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (Entry* e = c.lookup(key)) return e->loops;
  }
  // Compile outside the lock: compilation is the expensive part, and two
  // threads racing on the same key just produce one redundant compile.
  auto compiled = std::make_shared<const CompiledDataloop>(type, count);
  std::lock_guard<std::mutex> lock(c.mu);
  return c.insert(std::move(key), std::move(compiled)).loops;
}

CompiledPlan plan_cached(const ddt::TypePtr& type, std::uint64_t count) {
  std::string key = make_key(type, count);

  Cache& c = cache();
  std::shared_ptr<const CompiledDataloop> loops;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (Entry* e = c.lookup(key)) {
      if (e->program_compiled) return CompiledPlan{e->loops, e->program};
      loops = e->loops;  // dataloop cached, program still pending
    }
  }
  if (!loops) {
    loops = std::make_shared<const CompiledDataloop>(type, count);
  }
  // Lower the program outside the lock too; a racing thread at worst
  // duplicates the work and shares whichever result landed first.
  auto program = compile_program(*loops);

  std::lock_guard<std::mutex> lock(c.mu);
  auto it = c.map.find(key);
  if (it == c.map.end()) {
    Entry& e = c.insert(std::move(key), std::move(loops));
    e.program = std::move(program);
    e.program_compiled = true;
    return CompiledPlan{e.loops, e.program};
  }
  c.touch(it->second);
  if (!it->second.program_compiled) {
    it->second.program = std::move(program);
    it->second.program_compiled = true;
  }
  return CompiledPlan{it->second.loops, it->second.program};
}

DataloopCacheStats dataloop_cache_stats() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  return DataloopCacheStats{c.hits, c.misses,
                            static_cast<std::uint64_t>(c.map.size()),
                            c.evicted, c.capacity};
}

std::uint64_t dataloop_cache_set_capacity(std::uint64_t capacity) {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  const std::uint64_t prev = c.capacity;
  c.capacity = capacity;
  c.evict_to_capacity();
  return prev;
}

void dataloop_cache_clear() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.map.clear();
  c.order.clear();
  c.capacity = kDefaultCacheCapacity;
  c.hits = 0;
  c.misses = 0;
  c.evicted = 0;
}

}  // namespace netddt::dataloop
