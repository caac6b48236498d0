#include "trace.h"

#include <fstream>

namespace perfbench {

int Tracer::begin(const char* name, long long request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ms = ms_since(origin_);
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ms = ms_since(origin_);
  // Spans close in LIFO order (ScopedSpan); tolerate a missed close by
  // unwinding to the span being ended.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::count(const std::string& name, double value) {
  if (enabled_) counters_[name] += value;
}

std::map<std::string, Tracer::LayerTotals> Tracer::layer_totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = totals[spans_[i].name];
    t.self_ms += (spans_[i].end_ms - spans_[i].start_ms) - child_ms[i];
    ++t.spans;
  }
  return totals;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# index\tname\tstart_ms\tend_ms\tparent\trequest\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start_ms << '\t' << s.end_ms
        << '\t' << s.parent << '\t' << s.request << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
