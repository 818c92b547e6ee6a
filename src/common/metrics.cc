#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <unordered_set>

#include "common/failpoint.h"
#include "common/str_util.h"

namespace sjos {

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string SeriesName(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(family);
  if (labels.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += EscapeLabelValue(value);
    out += '"';
  }
  out += '}';
  return out;
}

void SplitSeriesName(std::string_view series, std::string_view* family,
                     std::string_view* labels) {
  const size_t brace = series.find('{');
  if (brace == std::string_view::npos) {
    *family = series;
    *labels = std::string_view();
    return;
  }
  *family = series.substr(0, brace);
  // The label block between the braces, without them.
  std::string_view rest = series.substr(brace + 1);
  if (!rest.empty() && rest.back() == '}') rest.remove_suffix(1);
  *labels = rest;
}

void Histogram::Observe(uint64_t value) {
  const size_t bucket =
      value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= kNumBuckets - 1) return std::numeric_limits<uint64_t>::max();
  return (uint64_t{1} << i) - 1;
}

void Histogram::ResetForTest() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::SetHelp(std::string_view family, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  helps_[std::string(family)] = std::string(help);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  SJOS_FAILPOINT_VOID("metrics.flush");  // delay-only: Snapshot cannot fail
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.helps.reserve(helps_.size());
  for (const auto& [family, help] : helps_) {
    snap.helps.emplace_back(family, help);
  }
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.name = name;
    data.count = histogram->Count();
    data.sum = histogram->Sum();
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t c = histogram->BucketCount(i);
      if (c > 0) {
        data.buckets.emplace_back(Histogram::BucketUpperBound(i), c);
      }
    }
    snap.histograms.push_back(std::move(data));
  }
  return snap;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->Value());
  }
  return out;
}

double MetricsSnapshot::HistogramData::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation, 1-based; q = 0 means the first one.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (const auto& [upper, bucket_count] : buckets) {
    if (seen + bucket_count < rank) {
      seen += bucket_count;
      continue;
    }
    if (upper == 0) return 0.0;
    // Log2 bucket [lower, upper]: lower = 2^(i-1) for bucket i >= 1. The
    // +Inf bucket has no usable width — report its lower bound.
    if (upper == std::numeric_limits<uint64_t>::max()) {
      return std::ldexp(1.0, 63);
    }
    const double lower = static_cast<double>((upper + 1) / 2);
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(bucket_count);
    return lower + (static_cast<double>(upper) - lower) * frac;
  }
  return 0.0;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->ResetForTest();
  for (auto& [name, gauge] : gauges_) gauge->ResetForTest();
  for (auto& [name, histogram] : histograms_) histogram->ResetForTest();
}

namespace {

std::string U64(uint64_t v) {
  return StrFormat("%llu", static_cast<unsigned long long>(v));
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  // Labeled series names carry quotes (family{k="v"}), so every name goes
  // through the JSON string writer.
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(counters[i].first, &out);
    out += ':';
    AppendJsonUint(counters[i].second, &out);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(gauges[i].first, &out);
    out += ':' + StrFormat("%lld", static_cast<long long>(gauges[i].second));
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramData& h = histograms[i];
    if (i > 0) out += ',';
    AppendJsonString(h.name, &out);
    out += ":{\"count\":" + U64(h.count) + ",\"sum\":" + U64(h.sum) +
           ",\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ',';
      out += '[';
      out += U64(h.buckets[b].first);
      out += ',';
      out += U64(h.buckets[b].second);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  // Series are registered under their full labeled name; the exposition
  // format wants one contiguous block per family with a single TYPE line,
  // so group first. Registered series of one family sort adjacently except
  // when an unlabeled series and a longer family name interleave — hence
  // an explicit map rather than relying on registry order.
  struct Family {
    const char* type = "untyped";
    std::vector<std::string> lines;
  };
  std::map<std::string, Family> families;
  auto add = [&families](std::string_view series, const char* type,
                         std::string line) {
    std::string_view family, labels;
    SplitSeriesName(series, &family, &labels);
    Family& f = families[std::string(family)];
    f.type = type;
    f.lines.push_back(std::move(line));
  };
  for (const auto& [name, value] : counters) {
    add(name, "counter", name + " " + U64(value) + "\n");
  }
  for (const auto& [name, value] : gauges) {
    add(name, "gauge",
        name + " " + StrFormat("%lld", static_cast<long long>(value)) + "\n");
  }
  for (const HistogramData& h : histograms) {
    std::string_view family_view, labels;
    SplitSeriesName(h.name, &family_view, &labels);
    const std::string family(family_view);
    // _bucket/_sum/_count carry the histogram's own labels, with `le`
    // appended on the bucket series.
    auto sample = [&family, &labels](std::string_view suffix,
                                     std::string_view extra_label) {
      std::string s = family;
      s += suffix;
      if (!labels.empty() || !extra_label.empty()) {
        s += '{';
        s += labels;
        if (!labels.empty() && !extra_label.empty()) s += ',';
        s += extra_label;
        s += '}';
      }
      return s;
    };
    Family& f = families[family];
    f.type = "histogram";
    uint64_t cumulative = 0;
    for (const auto& [bound, count] : h.buckets) {
      cumulative += count;
      f.lines.push_back(sample("_bucket", "le=\"" + U64(bound) + "\"") + " " +
                        U64(cumulative) + "\n");
    }
    f.lines.push_back(sample("_bucket", "le=\"+Inf\"") + " " + U64(h.count) +
                      "\n");
    f.lines.push_back(sample("_sum", "") + " " + U64(h.sum) + "\n");
    f.lines.push_back(sample("_count", "") + " " + U64(h.count) + "\n");
  }

  std::map<std::string, std::string> help_by_family;
  for (const auto& [family, help] : helps) help_by_family[family] = help;

  std::string out;
  for (const auto& [family, f] : families) {
    auto help = help_by_family.find(family);
    if (help != help_by_family.end()) {
      std::string escaped;
      for (char c : help->second) {
        if (c == '\\') escaped += "\\\\";
        else if (c == '\n') escaped += "\\n";
        else escaped += c;
      }
      out += "# HELP " + family + " " + escaped + "\n";
    }
    out += "# TYPE " + family + " " + f.type + "\n";
    for (const std::string& line : f.lines) out += line;
  }
  return out;
}

namespace {

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool IsValidLabelName(std::string_view name) {
  if (name.empty() || name[0] == ':') return false;
  return IsValidMetricName(name);
}

/// Parses `{k="v",...}` starting at text[0] == '{'. On success advances
/// `*text` past the closing brace and appends the normalized (sorted)
/// label set rendering to `*normalized`.
bool ParseLabelBlock(std::string_view* text, std::string* normalized,
                     std::string* le_value) {
  std::string_view t = *text;
  t.remove_prefix(1);  // '{'
  std::set<std::string> labels;
  std::set<std::string> names;
  while (true) {
    if (t.empty()) return false;
    if (t[0] == '}') {
      t.remove_prefix(1);
      break;
    }
    size_t eq = t.find('=');
    if (eq == std::string_view::npos) return false;
    std::string_view name = t.substr(0, eq);
    if (!IsValidLabelName(name)) return false;
    t.remove_prefix(eq + 1);
    if (t.empty() || t[0] != '"') return false;
    t.remove_prefix(1);
    std::string value;
    bool closed = false;
    while (!t.empty()) {
      char c = t[0];
      t.remove_prefix(1);
      if (c == '"') {
        closed = true;
        break;
      }
      if (c == '\n') return false;
      if (c == '\\') {
        if (t.empty()) return false;
        char esc = t[0];
        t.remove_prefix(1);
        if (esc == '\\') value += '\\';
        else if (esc == '"') value += '"';
        else if (esc == 'n') value += '\n';
        else return false;  // only \\, \", \n are legal escapes
      } else {
        value += c;
      }
    }
    if (!closed) return false;
    if (name == "le" && le_value != nullptr) *le_value = value;
    if (!names.insert(std::string(name)).second) {
      return false;  // duplicate label name (regardless of value)
    }
    labels.insert(std::string(name) + "=" + value);
    if (t.empty()) return false;
    if (t[0] == ',') {
      t.remove_prefix(1);
      continue;
    }
    if (t[0] != '}') return false;
  }
  for (const std::string& l : labels) {
    *normalized += l;
    *normalized += '\x1f';  // unambiguous separator for the dedup key
  }
  *text = t;
  return true;
}

bool ParseSampleValue(std::string_view text) {
  // ' ' value [' ' timestamp]; value is a decimal float, NaN, or +/-Inf.
  if (text.empty() || text[0] != ' ') return false;
  text.remove_prefix(1);
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    size_t sp = text.find(' ', start);
    if (sp == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, sp - start));
    start = sp + 1;
  }
  if (parts.empty() || parts.size() > 2) return false;
  const std::string& v = parts[0];
  if (v.empty()) return false;
  if (v == "NaN" || v == "+Inf" || v == "-Inf" || v == "Inf") return true;
  char* end = nullptr;
  std::strtod(v.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == v.c_str()) return false;
  if (parts.size() == 2) {
    const std::string& ts = parts[1];
    if (ts.empty()) return false;
    size_t i = (ts[0] == '-') ? 1 : 0;
    if (i >= ts.size()) return false;
    for (; i < ts.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(ts[i]))) return false;
    }
  }
  return true;
}

}  // namespace

Status ValidatePrometheusText(std::string_view text) {
  struct FamilyState {
    bool saw_type = false;
    bool saw_help = false;
    bool saw_sample = false;
    bool closed = false;  // a different family's line appeared after ours
    std::string type;
    // Histogram bucket tracking, keyed by the sample's non-le label set.
    std::map<std::string, std::pair<double, double>> last_bucket;  // le, value
    std::map<std::string, bool> saw_inf;
  };
  std::map<std::string, FamilyState> families;
  std::unordered_set<std::string> seen_series;
  std::string current_family;  // family of the most recent line

  auto fail = [](size_t line_no, const std::string& why,
                 std::string_view line) {
    return Status::InvalidArgument(
        "prometheus text line " + std::to_string(line_no) + ": " + why +
        " in '" + std::string(line.substr(0, 200)) + "'");
  };

  // Resolves which family a sample belongs to: exact, or a declared
  // histogram family's _bucket/_sum/_count series.
  auto resolve_family = [&families](std::string_view name) -> std::string {
    std::string n(name);
    auto it = families.find(n);
    if (it != families.end() && it->second.saw_type) return n;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t len = std::string_view(suffix).size();
      if (name.size() > len &&
          name.substr(name.size() - len) == suffix) {
        std::string base(name.substr(0, name.size() - len));
        auto base_it = families.find(base);
        if (base_it != families.end() && base_it->second.type == "histogram") {
          return base;
        }
      }
    }
    return n;
  };

  auto switch_family = [&](const std::string& family) {
    if (family == current_family) return true;
    if (!current_family.empty()) {
      families[current_family].closed = true;
    }
    current_family = family;
    return !families[family].closed;  // a family must be one contiguous block
  };

  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = (nl == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, nl - pos);
    pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP name text" | "# TYPE name type" | arbitrary comment.
      if (!StartsWith(line, "# ")) continue;
      std::string_view rest = line.substr(2);
      const bool is_help = StartsWith(rest, "HELP ");
      const bool is_type = StartsWith(rest, "TYPE ");
      if (!is_help && !is_type) continue;  // plain comment
      rest = rest.substr(5);
      size_t sp = rest.find(' ');
      std::string_view name = (sp == std::string_view::npos)
                                  ? rest
                                  : rest.substr(0, sp);
      if (!IsValidMetricName(name)) {
        return fail(line_no, "invalid metric name in comment", line);
      }
      std::string family(name);
      if (!switch_family(family)) {
        return fail(line_no, "family '" + family + "' is not contiguous",
                    line);
      }
      FamilyState& st = families[family];
      if (st.saw_sample) {
        return fail(line_no,
                    (is_help ? std::string("HELP") : std::string("TYPE")) +
                        " after samples of '" + family + "'",
                    line);
      }
      if (is_help) {
        if (st.saw_help) {
          return fail(line_no, "duplicate HELP for '" + family + "'", line);
        }
        st.saw_help = true;
      } else {
        if (st.saw_type) {
          return fail(line_no, "duplicate TYPE for '" + family + "'", line);
        }
        if (sp == std::string_view::npos) {
          return fail(line_no, "TYPE missing a type", line);
        }
        std::string_view type = Trim(rest.substr(sp + 1));
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return fail(line_no, "unknown TYPE '" + std::string(type) + "'",
                      line);
        }
        st.saw_type = true;
        st.type = std::string(type);
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    size_t name_end = 0;
    while (name_end < line.size() && line[name_end] != '{' &&
           line[name_end] != ' ') {
      ++name_end;
    }
    std::string_view name = line.substr(0, name_end);
    if (!IsValidMetricName(name)) {
      return fail(line_no, "invalid metric name", line);
    }
    std::string_view tail = line.substr(name_end);
    std::string normalized_labels;
    std::string le_value;
    if (!tail.empty() && tail[0] == '{') {
      if (!ParseLabelBlock(&tail, &normalized_labels, &le_value)) {
        return fail(line_no, "malformed label block", line);
      }
    }
    if (!ParseSampleValue(tail)) {
      return fail(line_no, "malformed sample value", line);
    }

    const std::string family = resolve_family(name);
    if (!switch_family(family)) {
      return fail(line_no, "family '" + family + "' is not contiguous", line);
    }
    FamilyState& st = families[family];
    st.saw_sample = true;

    std::string series_key = std::string(name) + "\x1e" + normalized_labels;
    if (!seen_series.insert(series_key).second) {
      return fail(line_no, "duplicate series", line);
    }

    if (st.saw_type && st.type == "histogram") {
      const std::string suffix =
          family.size() < name.size() ? std::string(name.substr(family.size()))
                                      : std::string();
      if (suffix != "_bucket" && suffix != "_sum" && suffix != "_count") {
        return fail(line_no,
                    "histogram sample must be _bucket/_sum/_count", line);
      }
      if (suffix == "_bucket") {
        if (le_value.empty()) {
          return fail(line_no, "histogram bucket without an le label", line);
        }
        // Track cumulative monotonicity per non-le label subset. Strip the
        // le entry from the normalized set to key the bucket run.
        std::string run_key;
        size_t start = 0;
        while (start < normalized_labels.size()) {
          size_t end = normalized_labels.find('\x1f', start);
          std::string entry = normalized_labels.substr(start, end - start);
          if (!StartsWith(entry, "le=")) run_key += entry + "\x1f";
          start = end + 1;
        }
        const double le = le_value == "+Inf"
                              ? std::numeric_limits<double>::infinity()
                              : std::strtod(le_value.c_str(), nullptr);
        const double value =
            std::strtod(std::string(tail.substr(1)).c_str(), nullptr);
        auto prev = st.last_bucket.find(run_key);
        if (prev != st.last_bucket.end()) {
          if (le <= prev->second.first) {
            return fail(line_no, "histogram le bounds not ascending", line);
          }
          if (value < prev->second.second) {
            return fail(line_no, "histogram buckets not cumulative", line);
          }
        }
        st.last_bucket[run_key] = {le, value};
        if (le_value == "+Inf") st.saw_inf[run_key] = true;
      }
    }
  }

  for (const auto& [family, st] : families) {
    if (st.type != "histogram") continue;
    for (const auto& [run_key, bucket] : st.last_bucket) {
      (void)bucket;
      auto inf = st.saw_inf.find(run_key);
      if (inf == st.saw_inf.end() || !inf->second) {
        return Status::InvalidArgument("histogram family '" + family +
                                       "' has a bucket run without +Inf");
      }
    }
  }
  return Status::OK();
}

}  // namespace sjos
