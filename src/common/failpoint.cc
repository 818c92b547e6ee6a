#include "common/failpoint.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/metrics.h"
#include "common/str_util.h"

namespace sjos {

namespace {

// FNV-1a over the point name: a stable, platform-independent seed so a
// given (name, spec) pair replays the same prob-mode hit/fail sequence.
uint64_t HashName(std::string_view name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Counter& FiredCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("sjos_failpoints_fired_total");
  return c;
}

}  // namespace

Failpoint::Failpoint(std::string name)
    : name_(std::move(name)), rng_(HashName(name_)) {}

void Failpoint::Configure(FailpointMode mode, uint64_t delay_ms, double prob) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    delay_ms_ = delay_ms;
    prob_ = prob;
    rng_ = Rng(HashName(name_));  // re-arm replays the same sequence
  }
  mode_.store(static_cast<int>(mode), std::memory_order_relaxed);
}

Status Failpoint::Fire() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  switch (static_cast<FailpointMode>(mode_.load(std::memory_order_relaxed))) {
    case FailpointMode::kOff:
      return Status::OK();
    case FailpointMode::kError:
      CountFired();
      return Status::Internal("failpoint '" + name_ + "' fired");
    case FailpointMode::kDelay: {
      uint64_t ms;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ms = delay_ms_;
      }
      if (ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }
      return Status::OK();
    }
    case FailpointMode::kProb: {
      bool fail;
      {
        std::lock_guard<std::mutex> lock(mu_);
        fail = rng_.NextBool(prob_);
      }
      if (fail) {
        CountFired();
        return Status::Internal("failpoint '" + name_ + "' fired");
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

void Failpoint::FireNoFail() { Fire(); }

void Failpoint::CountFired() {
  FiredCounter().Add();
  // Per-point series of the same family, so /metrics names exactly which
  // point fired.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fired_counter_ == nullptr) {
      fired_counter_ = &MetricsRegistry::Global().GetCounter(
          "sjos_failpoints_fired_total", {{"point", name_}});
    }
  }
  fired_counter_->Add();
}

std::string Failpoint::SpecString() const {
  std::lock_guard<std::mutex> lock(mu_);
  switch (static_cast<FailpointMode>(mode_.load(std::memory_order_relaxed))) {
    case FailpointMode::kOff:
      return "off";
    case FailpointMode::kError:
      return "error";
    case FailpointMode::kDelay:
      return "delay:" + std::to_string(delay_ms_);
    case FailpointMode::kProb: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "prob:%g", prob_);
      return buf;
    }
  }
  return "off";
}

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

FailpointRegistry::FailpointRegistry() {
  const char* env = std::getenv("SJOS_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') {
    Status st = EnableFromSpec(env);
    if (!st.ok()) {
      std::fprintf(stderr, "SJOS_FAILPOINTS: %s\n", st.ToString().c_str());
    }
  }
}

Failpoint* FailpointRegistry::Get(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(std::string(name));
  if (it == points_.end()) {
    it = points_
             .emplace(std::string(name),
                      std::make_unique<Failpoint>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Status FailpointRegistry::Enable(std::string_view name, std::string_view spec) {
  if (name.empty()) {
    return Status::InvalidArgument("failpoint name must be non-empty");
  }
  FailpointMode mode;
  uint64_t delay_ms = 0;
  double prob = 0.0;
  if (spec == "error") {
    mode = FailpointMode::kError;
  } else if (spec.rfind("delay:", 0) == 0) {
    mode = FailpointMode::kDelay;
    std::string arg(spec.substr(6));
    char* end = nullptr;
    delay_ms = std::strtoull(arg.c_str(), &end, 10);
    // strtoull silently wraps negatives, so reject any non-digit lead.
    if (arg.empty() || !std::isdigit(static_cast<unsigned char>(arg[0])) ||
        end == nullptr || *end != '\0') {
      return Status::InvalidArgument("bad delay in failpoint spec '" +
                                     std::string(spec) + "'");
    }
  } else if (spec.rfind("prob:", 0) == 0) {
    mode = FailpointMode::kProb;
    std::string arg(spec.substr(5));
    char* end = nullptr;
    prob = std::strtod(arg.c_str(), &end);
    if (arg.empty() || end == nullptr || *end != '\0' || prob < 0.0 ||
        prob > 1.0) {
      return Status::InvalidArgument("bad probability in failpoint spec '" +
                                     std::string(spec) + "'");
    }
  } else {
    return Status::InvalidArgument(
        "bad failpoint spec '" + std::string(spec) +
        "' (want error | delay:<ms> | prob:<p>)");
  }
  Get(name)->Configure(mode, delay_ms, prob);
  return Status::OK();
}

void FailpointRegistry::Disable(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(std::string(name));
  if (it != points_.end()) {
    it->second->mode_.store(static_cast<int>(FailpointMode::kOff),
                            std::memory_order_relaxed);
  }
}

void FailpointRegistry::DisableAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, point] : points_) {
    point->mode_.store(static_cast<int>(FailpointMode::kOff),
                       std::memory_order_relaxed);
  }
}

Status FailpointRegistry::EnableFromSpec(std::string_view spec_list) {
  size_t pos = 0;
  while (pos <= spec_list.size()) {
    size_t sep = spec_list.find_first_of(",;", pos);
    std::string_view entry = spec_list.substr(
        pos, sep == std::string_view::npos ? std::string_view::npos
                                           : sep - pos);
    pos = (sep == std::string_view::npos) ? spec_list.size() + 1 : sep + 1;
    entry = Trim(entry);
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("failpoint entry '" + std::string(entry) +
                                     "' is missing '='");
    }
    SJOS_RETURN_IF_ERROR(Enable(entry.substr(0, eq), entry.substr(eq + 1)));
  }
  return Status::OK();
}

std::vector<std::string> FailpointRegistry::ArmedNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, point] : points_) {
      if (point->armed()) names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace sjos
