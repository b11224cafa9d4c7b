#include "src/obs/export.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "src/common/fnv.h"
#include "src/common/string_util.h"

namespace dbscale::obs {

namespace {

/// Shortest round-trip-exact rendering: try %g precisions until the value
/// parses back identically, so exported numbers are canonical (digest
/// stability) yet readable (3 prints as "3", not "3.0000000000000000").
void AppendNumber(double value, std::string& out) {
  if (std::isnan(value)) {
    out += "0";
    return;
  }
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  out += buf;
}

void AppendJsonString(const char* s, std::string& out) {
  out += '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendSpanLine(int interval_index, SpanId id, const Span& span,
                    std::string& out) {
  out += "{\"interval\":";
  out += StrFormat("%d", interval_index);
  out += ",\"span\":";
  out += StrFormat("%u", id);
  out += ",\"parent\":";
  if (span.parent == kNoSpan) {
    out += "null";
  } else {
    out += StrFormat("%u", span.parent);
  }
  out += ",\"name\":";
  AppendJsonString(span.name, out);
  out += StrFormat(",\"start_us\":%lld,\"end_us\":%lld",
                   static_cast<long long>(span.start.ToMicros()),
                   static_cast<long long>(span.end.ToMicros()));
  out += ",\"attrs\":{";
  for (uint32_t a = 0; a < span.num_attrs; ++a) {
    if (a > 0) out += ',';
    const SpanAttr& attr = span.attrs[a];
    AppendJsonString(attr.key, out);
    out += ':';
    if (attr.str != nullptr) {
      AppendJsonString(attr.str, out);
    } else {
      AppendNumber(attr.num, out);
    }
  }
  out += "}}\n";
}

/// Metric family name: the registered name up to any {label} suffix.
std::string_view BaseName(const std::string& name) {
  const size_t brace = name.find('{');
  return std::string_view(name).substr(
      0, brace == std::string::npos ? name.size() : brace);
}

}  // namespace

void AppendSpansJsonl(const TraceRecorder& recorder, std::string& out) {
  for (size_t i = 0; i < recorder.num_intervals(); ++i) {
    const IntervalTrace& tree = recorder.interval(i);
    for (size_t s = 0; s < tree.spans.size(); ++s) {
      AppendSpanLine(tree.interval_index, static_cast<SpanId>(s),
                     tree.spans[s], out);
    }
  }
}

void AppendPrometheus(const MetricRegistry& registry,
                      const MetricShard& shard, std::string& out) {
  std::string_view prev_base;
  for (size_t i = 0; i < registry.num_instruments(); ++i) {
    const MetricId id = static_cast<MetricId>(i);
    const MetricInfo& info = registry.info(id);
    const std::string_view base = BaseName(info.name);
    if (base != prev_base) {
      // One HELP/TYPE header per family (labeled series share it).
      out += "# HELP ";
      out += base;
      out += ' ';
      out += info.help;
      out += "\n# TYPE ";
      out += base;
      out += ' ';
      out += MetricKindToString(info.kind);
      out += '\n';
      prev_base = base;
    }
    switch (info.kind) {
      case MetricKind::kCounter: {
        out += info.name;
        out += ' ';
        AppendNumber(shard.counter(id), out);
        out += '\n';
        break;
      }
      case MetricKind::kGauge: {
        out += info.name;
        out += ' ';
        AppendNumber(shard.gauge(id), out);
        out += '\n';
        break;
      }
      case MetricKind::kHistogram: {
        // Series suffixes attach to the family name, with any registered
        // labels merged ahead of `le`: name_bucket{queue="cpu",le="0.1"},
        // never name{queue="cpu"}_bucket{...}.
        const size_t open = info.name.find('{');
        std::string_view labels;  // the `k="v",...` payload, braces stripped
        if (open != std::string::npos) {
          labels = std::string_view(info.name)
                       .substr(open + 1, info.name.size() - open - 2);
        }
        auto append_bucket = [&](const char* le_text, double bound,
                                 double value) {
          out += base;
          out += "_bucket{";
          if (!labels.empty()) {
            out += labels;
            out += ',';
          }
          out += "le=\"";
          if (le_text != nullptr) {
            out += le_text;
          } else {
            AppendNumber(bound, out);
          }
          out += "\"} ";
          AppendNumber(value, out);
          out += '\n';
        };
        auto append_series = [&](const char* suffix, double value) {
          out += base;
          out += suffix;
          if (!labels.empty()) {
            out += '{';
            out += labels;
            out += '}';
          }
          out += ' ';
          AppendNumber(value, out);
          out += '\n';
        };
        double cumulative = 0.0;
        for (size_t b = 0; b < info.histogram.num_buckets; ++b) {
          cumulative += shard.hist_bucket(id, b);
          append_bucket(nullptr, info.histogram.upper_bounds[b], cumulative);
        }
        append_bucket("+Inf", 0.0, shard.hist_count(id));
        append_series("_sum", shard.hist_sum(id));
        append_series("_count", shard.hist_count(id));
        break;
      }
    }
  }
}

void AppendMetricsCsv(const MetricRegistry& registry,
                      const MetricShard& shard, std::string& out) {
  out += "metric,kind,le,value\n";
  auto row = [&out](const std::string& name, const char* kind,
                    const std::string& le, double value) {
    CsvEscapeTo(name, out);
    out += ',';
    out += kind;
    out += ',';
    CsvEscapeTo(le, out);
    out += ',';
    AppendNumber(value, out);
    out += '\n';
  };
  for (size_t i = 0; i < registry.num_instruments(); ++i) {
    const MetricId id = static_cast<MetricId>(i);
    const MetricInfo& info = registry.info(id);
    switch (info.kind) {
      case MetricKind::kCounter:
        row(info.name, "counter", "", shard.counter(id));
        break;
      case MetricKind::kGauge: {
        const double v = shard.gauge(id);
        row(info.name, "gauge", "", std::isnan(v) ? 0.0 : v);
        break;
      }
      case MetricKind::kHistogram: {
        double cumulative = 0.0;
        for (size_t b = 0; b < info.histogram.num_buckets; ++b) {
          cumulative += shard.hist_bucket(id, b);
          std::string le;
          AppendNumber(info.histogram.upper_bounds[b], le);
          row(info.name, "histogram", le, cumulative);
        }
        row(info.name, "histogram", "+Inf", shard.hist_count(id));
        row(info.name, "histogram", "sum", shard.hist_sum(id));
        row(info.name, "histogram", "count", shard.hist_count(id));
        break;
      }
    }
  }
}

namespace {

uint64_t TextDigest(const std::string& text) {
  Fnv64Stream hash;
  hash.Bytes(text.data(), text.size());
  return hash.value;
}

}  // namespace

uint64_t MetricsDigest(const MetricRegistry& registry,
                       const MetricShard& shard) {
  std::string text;
  AppendPrometheus(registry, shard, text);
  return TextDigest(text);
}

uint64_t TraceDigest(const TraceRecorder& recorder) {
  std::string text;
  AppendSpansJsonl(recorder, text);
  return TextDigest(text);
}

}  // namespace dbscale::obs
