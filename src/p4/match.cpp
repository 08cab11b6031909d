#include "p4/match.hpp"

#include <deque>
#include <list>
#include <string>
#include <unordered_map>

#include "sim/check.hpp"

namespace netddt::p4 {
namespace {

std::string entry_detail(const MatchEntry& e) {
  return "handle " + std::to_string(e.id) + " match_bits 0x" +
         [](std::uint64_t v) {
           static const char* digits = "0123456789abcdef";
           std::string out;
           do {
             out.insert(out.begin(), digits[v & 0xF]);
             v >>= 4;
           } while (v != 0);
           return out;
         }(e.match_bits);
}

/// The historical engine: one std::list per Portals list, scanned front
/// to back. O(n) match and unlink; the reference for differential tests.
class LinearMatchEngine final : public MatchEngine {
 public:
  void append(ListKind list, const MatchEntry& entry) override {
    pick(list).push_back(entry);
  }

  std::optional<MatchResult> match(std::uint64_t bits) override {
    if (auto hit = search(priority_, ListKind::kPriority, bits)) return hit;
    return search(overflow_, ListKind::kOverflow, bits);
  }

  bool unlink(std::uint64_t id) override {
    for (auto* list : {&priority_, &overflow_}) {
      for (auto it = list->begin(); it != list->end(); ++it) {
        if (it->id == id) {
          list->erase(it);
          return true;
        }
      }
    }
    return false;
  }

  std::size_t size(ListKind list) const override {
    return (list == ListKind::kPriority ? priority_ : overflow_).size();
  }

 private:
  std::list<MatchEntry>& pick(ListKind list) {
    return list == ListKind::kPriority ? priority_ : overflow_;
  }

  std::optional<MatchResult> search(std::list<MatchEntry>& list,
                                    ListKind kind, std::uint64_t bits) {
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (it->matches(bits)) {
        MatchResult result{*it, kind};
        if (it->use_once) list.erase(it);
        return result;
      }
    }
    return std::nullopt;
  }

  std::list<MatchEntry> priority_;
  std::list<MatchEntry> overflow_;
};

/// Hashed engine. Entries are grouped two levels deep:
///
///   list -> mask class (one per distinct ignore_bits)
///        -> bucket (one per masked key match_bits & ~ignore_bits)
///        -> intrusive FIFO chain of entries
///
/// A lookup visits each mask class of the list once, probes its bucket
/// map with bits & ~class.ignore, and takes the chain head — the oldest
/// entry of that bucket. Across classes the lowest global append
/// sequence wins, which is exactly the entry a front-to-back list scan
/// would return. Typical workloads use one or two ignore masks (exact
/// tags plus a wildcard overflow), so a lookup is a couple of hash
/// probes regardless of how many receives are posted. Adversarial
/// workloads with many distinct masks degrade toward a scan over
/// classes, never worse than the linear engine's scan over entries.
///
/// Nodes live in an unordered_map keyed by handle (node-based, so
/// addresses are stable across rehash); buckets likewise. Mask classes
/// sit in a deque so Bucket::owner back-pointers survive class creation.
class HashedMatchEngine final : public MatchEngine {
 public:
  void append(ListKind list, const MatchEntry& entry) override {
    NETDDT_CHECK(nodes_.find(entry.id) == nodes_.end(),
                 "duplicate append of match entry: " + entry_detail(entry));
    Node& n = nodes_[entry.id];
    n.entry = entry;
    n.seq = next_seq_++;
    n.list = list;
    link_tail(n, bucket_for(list, entry));
    ++sizes_[index(list)];
  }

  std::optional<MatchResult> match(std::uint64_t bits) override {
    for (ListKind list : {ListKind::kPriority, ListKind::kOverflow}) {
      Node* best = nullptr;
      for (auto& mc : classes_[index(list)]) {
        const auto it = mc.buckets.find(bits & ~mc.ignore);
        if (it == mc.buckets.end()) continue;
        Node* head = it->second.head;
        if (head != nullptr && (best == nullptr || head->seq < best->seq)) {
          best = head;
        }
      }
      if (best != nullptr) {
        MatchResult result{best->entry, list};
        NETDDT_CHECK(best->entry.matches(bits),
                     "hashed bucket returned a non-matching entry: " +
                         entry_detail(best->entry));
        if (best->entry.use_once) {
          detach(*best);
          nodes_.erase(result.entry.id);
        }
        return result;
      }
    }
    return std::nullopt;
  }

  bool unlink(std::uint64_t id) override {
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) return false;
    detach(it->second);
    nodes_.erase(it);
    return true;
  }

  std::size_t size(ListKind list) const override {
    return sizes_[index(list)];
  }

 private:
  struct Bucket;
  struct Node {
    MatchEntry entry;
    std::uint64_t seq = 0;
    ListKind list = ListKind::kPriority;
    Bucket* bucket = nullptr;
    Node* prev = nullptr;
    Node* next = nullptr;
  };
  struct MaskClass;
  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
    MaskClass* owner = nullptr;
    std::uint64_t key = 0;
  };
  struct MaskClass {
    std::uint64_t ignore = 0;
    std::unordered_map<std::uint64_t, Bucket> buckets;
  };

  static std::size_t index(ListKind list) {
    return list == ListKind::kPriority ? 0 : 1;
  }

  Bucket& bucket_for(ListKind list, const MatchEntry& entry) {
    auto& classes = classes_[index(list)];
    MaskClass* mc = nullptr;
    for (auto& c : classes) {
      if (c.ignore == entry.ignore_bits) {
        mc = &c;
        break;
      }
    }
    if (mc == nullptr) {
      classes.emplace_back();
      mc = &classes.back();
      mc->ignore = entry.ignore_bits;
    }
    const std::uint64_t key = entry.match_bits & ~entry.ignore_bits;
    Bucket& b = mc->buckets[key];
    if (b.owner == nullptr) {
      b.owner = mc;
      b.key = key;
    }
    return b;
  }

  void link_tail(Node& n, Bucket& b) {
    n.bucket = &b;
    n.prev = b.tail;
    n.next = nullptr;
    (b.tail != nullptr ? b.tail->next : b.head) = &n;
    b.tail = &n;
  }

  void detach(Node& n) {
    NETDDT_CHECK(n.bucket != nullptr,
                 "detach of unlinked match entry: " + entry_detail(n.entry));
    Bucket& b = *n.bucket;
    (n.prev != nullptr ? n.prev->next : b.head) = n.next;
    (n.next != nullptr ? n.next->prev : b.tail) = n.prev;
    n.prev = n.next = nullptr;
    n.bucket = nullptr;
    --sizes_[index(n.list)];
    if (b.head == nullptr) b.owner->buckets.erase(b.key);
  }

  std::deque<MaskClass> classes_[2];
  std::unordered_map<std::uint64_t, Node> nodes_;
  std::uint64_t next_seq_ = 1;
  std::size_t sizes_[2] = {0, 0};
};

}  // namespace

std::unique_ptr<MatchEngine> make_match_engine(MatchEngineKind kind) {
  if (kind == MatchEngineKind::kLinear) {
    return std::make_unique<LinearMatchEngine>();
  }
  return std::make_unique<HashedMatchEngine>();
}

std::uint64_t MatchList::append(ListKind list, MatchEntry entry) {
  NETDDT_CHECK(entry.id == 0,
               "append of an entry with a pre-set handle: " +
                   entry_detail(entry));
  entry.id = next_id_++;
  engine_->append(list, entry);
  return entry.id;
}

}  // namespace netddt::p4
