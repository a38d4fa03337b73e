#include "common/fault_injection.hpp"

#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace dasc {

namespace {

constexpr std::string_view kFiredCounter = "fault.injected";

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t site_hash(std::string_view site) {
  // FNV-1a over the site name; mixed again before use.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : site) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Pure function of (seed, site, spec ordinal, call index): does a
/// probability-triggered spec fire on this call?
bool probability_fires(std::uint64_t seed, std::uint64_t site_h,
                       std::uint64_t ordinal, std::uint64_t call_index,
                       double probability) {
  const std::uint64_t mixed = splitmix64(
      splitmix64(seed ^ site_h) ^ splitmix64(ordinal) ^ call_index);
  const double u = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  return u < probability;
}

/// `fault.injected.<site>`: the per-site fire counter.
std::string site_counter(std::string_view site) {
  return std::string(kFiredCounter) + "." + std::string(site);
}

FaultKind parse_kind(const std::string& value) {
  if (value == "error") return FaultKind::kError;
  if (value == "corrupt" || value == "corruption") {
    return FaultKind::kCorruption;
  }
  if (value == "stall") return FaultKind::kStall;
  DASC_EXPECT(false, "FaultPlan: unknown kind '" + value + "'");
  return FaultKind::kError;  // unreachable
}

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kError:
      return "error";
    case FaultKind::kCorruption:
      return "corrupt";
    case FaultKind::kStall:
      return "stall";
  }
  return "error";
}

}  // namespace

void FaultSpec::validate() const {
  DASC_EXPECT(!site.empty(), "FaultSpec: empty site name");
  DASC_EXPECT((probability > 0.0) != (every_nth > 0),
              "FaultSpec: exactly one of prob/nth must be set (site " + site +
                  ")");
  DASC_EXPECT(probability >= 0.0 && probability <= 1.0,
              "FaultSpec: probability must be in [0, 1] (site " + site + ")");
  DASC_EXPECT(kind != FaultKind::kStall || stall_ms > 0,
              "FaultSpec: stall faults need stall_ms > 0 (site " + site + ")");
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(';', start);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;

    if (entry.rfind("seed=", 0) == 0) {
      plan.seed = std::stoull(entry.substr(5));
      continue;
    }

    FaultSpec spec;
    std::size_t field_start = 0;
    bool first = true;
    while (field_start <= entry.size()) {
      std::size_t field_end = entry.find(':', field_start);
      if (field_end == std::string::npos) field_end = entry.size();
      const std::string field =
          entry.substr(field_start, field_end - field_start);
      field_start = field_end + 1;
      if (first) {
        DASC_EXPECT(!field.empty(), "FaultPlan: empty site in '" + entry + "'");
        spec.site = field;
        first = false;
        continue;
      }
      const std::size_t eq = field.find('=');
      DASC_EXPECT(eq != std::string::npos,
                  "FaultPlan: field '" + field + "' is not key=value");
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      try {
        if (key == "prob" || key == "p") {
          spec.probability = std::stod(value);
        } else if (key == "nth" || key == "n") {
          spec.every_nth = std::stoull(value);
        } else if (key == "max") {
          spec.max_faults = std::stoull(value);
        } else if (key == "kind") {
          spec.kind = parse_kind(value);
        } else if (key == "stall_ms" || key == "stall") {
          spec.stall_ms = std::stoull(value);
        } else {
          DASC_EXPECT(false, "FaultPlan: unknown field '" + key + "'");
        }
      } catch (const InvalidArgument&) {
        throw;
      } catch (const std::exception&) {
        DASC_EXPECT(false, "FaultPlan: bad value in '" + field + "'");
      }
    }
    spec.validate();
    plan.faults.push_back(std::move(spec));
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out = "seed=" + std::to_string(seed);
  for (const auto& spec : faults) {
    out += ";" + spec.site;
    if (spec.every_nth > 0) {
      out += ":nth=" + std::to_string(spec.every_nth);
    } else {
      out += ":prob=" + std::to_string(spec.probability);
    }
    if (spec.max_faults > 0) out += ":max=" + std::to_string(spec.max_faults);
    if (spec.kind != FaultKind::kError) {
      out += ":kind=" + std::string(kind_name(spec.kind));
      if (spec.kind == FaultKind::kStall) {
        out += ":stall_ms=" + std::to_string(spec.stall_ms);
      }
    }
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, MetricsRegistry* metrics)
    : plan_(std::move(plan)), metrics_(metrics) {
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    spec.validate();
    auto state = std::make_unique<SpecState>();
    state->spec = spec;
    state->ordinal = i;
    sites_[spec.site].specs.push_back(std::move(state));
  }
}

FaultInjector::Outcome FaultInjector::check(std::string_view site) {
  const auto it = sites_.find(site);
  if (it == sites_.end()) return Outcome::kNone;
  SiteState& state = it->second;
  const std::uint64_t index =
      state.calls.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = site_hash(site);

  for (const auto& spec_state : state.specs) {
    const FaultSpec& spec = spec_state->spec;
    bool fires = false;
    if (spec.every_nth > 0) {
      // Index-pure: call n, 2n, ... fire, and the cap counts fires by
      // index, so nth triggers are deterministic even under races.
      fires = (index + 1) % spec.every_nth == 0 &&
              (spec.max_faults == 0 ||
               (index + 1) / spec.every_nth <= spec.max_faults);
    } else {
      fires = probability_fires(plan_.seed, h, spec_state->ordinal, index,
                                spec.probability);
      if (fires && spec.max_faults > 0) {
        // Arrival-order cap: exactly max_faults fires happen in total, so
        // fire *counts* stay deterministic; which call indices they land
        // on may vary with scheduling.
        const std::uint64_t prior =
            spec_state->fired.fetch_add(1, std::memory_order_relaxed);
        if (prior >= spec.max_faults) fires = false;
      }
    }
    if (!fires) continue;

    if (spec.every_nth > 0 || spec.max_faults == 0) {
      spec_state->fired.fetch_add(1, std::memory_order_relaxed);
    }
    state.fired.fetch_add(1, std::memory_order_relaxed);
    total_fired_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->counter(kFiredCounter).add();
      metrics_->counter(site_counter(site)).add();
    }
    switch (spec.kind) {
      case FaultKind::kError:
        return Outcome::kError;
      case FaultKind::kCorruption:
        return Outcome::kCorruption;
      case FaultKind::kStall:
        std::this_thread::sleep_for(std::chrono::milliseconds(spec.stall_ms));
        return Outcome::kNone;
    }
  }
  return Outcome::kNone;
}

void FaultInjector::maybe_throw(std::string_view site) {
  if (check(site) != Outcome::kNone) {
    throw FaultInjectedError("injected fault at " + std::string(site));
  }
}

std::uint64_t FaultInjector::calls(std::string_view site) const {
  const auto it = sites_.find(site);
  return it == sites_.end()
             ? 0
             : it->second.calls.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::fired(std::string_view site) const {
  const auto it = sites_.find(site);
  return it == sites_.end()
             ? 0
             : it->second.fired.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::total_fired() const {
  return total_fired_.load(std::memory_order_relaxed);
}

void FaultInjector::record_remote_fires(std::string_view site,
                                        std::uint64_t count) {
  if (count == 0) return;
  const auto it = sites_.find(site);
  if (it != sites_.end()) {
    it->second.fired.fetch_add(count, std::memory_order_relaxed);
  }
  total_fired_.fetch_add(count, std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    metrics_->counter(kFiredCounter).add(static_cast<std::int64_t>(count));
    metrics_->counter(site_counter(site))
        .add(static_cast<std::int64_t>(count));
  }
}

void FaultInjector::absorb_remote_fires(MetricsSnapshot& snapshot) {
  const std::string prefix = site_counter("");
  auto& counters = snapshot.counters;
  counters.erase(std::string(kFiredCounter));
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.starts_with(prefix);) {
    record_remote_fires(std::string_view(it->first).substr(prefix.size()),
                        static_cast<std::uint64_t>(it->second));
    it = counters.erase(it);
  }
}

}  // namespace dasc
