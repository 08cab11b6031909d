#include <cstdio>
#include <string_view>

#include "bench.hpp"

namespace perfbench {

double Spans::total_s(std::string_view name) const {
  double s = 0.0;
  for (const Span& sp : spans_) {
    if (name == sp.name) s += sp.end_s - sp.start_s;
  }
  return s;
}

double Spans::self_s(std::string_view name) const {
  // Children nest inside their parent on one thread, so the time they
  // cover is the sum of their durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& sp : spans_) {
    if (sp.parent >= 0) child[sp.parent] += sp.end_s - sp.start_s;
  }
  double s = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      s += spans_[i].end_s - spans_[i].start_s - child[i];
    }
  }
  return s;
}

bool Spans::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"run\":%d}%s\n",
                 i, sp.name, sp.start_s, sp.end_s, sp.parent, sp.run,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
