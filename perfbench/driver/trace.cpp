#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

int Tracer::next_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans_of(int op) const {
  std::lock_guard lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.op == op) out.push_back(span);
  }
  return out;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":" << s.op << ",\"tid\":0"
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op;
    if (!s.backend.empty()) {
      out << ",\"n\":" << s.n << ",\"backend\":\"" << s.backend << "\"";
    }
    out << "}}";
  }
  out << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, int parent, int op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.op = op;
  span_.start_ns = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  tracer_->record(std::move(span_));
}

void ScopedSpan::annotate(std::size_t n, std::string backend) {
  span_.n = n;
  span_.backend = std::move(backend);
}

namespace {

// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [start, end] : iv) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

SelfTimes self_times(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  SelfTimes out;
  for (const Span& s : spans) {
    const auto kids = children.find(s.id);
    const std::int64_t self =
        (s.end_ns - s.start_ns) -
        (kids == children.end()
             ? 0
             : covered_ns(kids->second, s.start_ns, s.end_ns));
    const double self_s = 1e-9 * static_cast<double>(self);
    if (s.parent < 0) {
      out.op_s = s.seconds();
      out.unattributed_s = self_s;
    } else {
      out.layer_s[s.name.substr(0, s.name.find('.'))] += self_s;
    }
  }
  return out;
}

}  // namespace perfbench
