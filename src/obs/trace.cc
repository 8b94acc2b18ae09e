// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/obs/trace.h"

#include <cinttypes>
#include <cstdio>

#include "src/obs/metrics.h"

namespace sos::obs {

namespace {

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FormatI64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
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
}

// A With() value is emitted bare when it is numeric-shaped -- as the
// numeric helpers' output always is -- and quoted otherwise, so hand-built
// string fields stay quoted.
bool LooksNumeric(std::string_view v) {
  if (v.empty()) {
    return false;
  }
  size_t i = (v[0] == '-') ? 1 : 0;
  if (i == v.size()) {
    return false;
  }
  bool digits = false;
  for (; i < v.size(); ++i) {
    char c = v[i];
    if (c >= '0' && c <= '9') {
      digits = true;
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      continue;
    } else {
      return false;
    }
  }
  return digits;
}

// Appends one rendered `, "key": value` fragment to `fields`.
void AppendField(std::string& fields, std::string_view key, std::string_view value) {
  fields += ", \"";
  AppendEscaped(fields, key);
  fields += "\": ";
  if (LooksNumeric(value)) {
    fields += value;
  } else {
    fields += "\"";
    AppendEscaped(fields, value);
    fields += "\"";
  }
}

}  // namespace

TraceEvent& TraceEvent::With(std::string_view key, std::string_view value) {
  AppendField(fields, key, value);
  return *this;
}

TraceEvent& TraceEvent::WithU64(std::string_view key, uint64_t value) {
  AppendField(fields, key, FormatU64(value));
  return *this;
}

TraceEvent& TraceEvent::WithI64(std::string_view key, int64_t value) {
  AppendField(fields, key, FormatI64(value));
  return *this;
}

TraceEvent& TraceEvent::WithF64(std::string_view key, double value) {
  AppendField(fields, key, FormatJsonDouble(value));
  return *this;
}

TraceSink::TraceSink(size_t capacity) : capacity_(capacity) { events_.reserve(capacity_); }

void TraceSink::ToMetrics(MetricRegistry& registry, const std::string& prefix) const {
  registry.SetCounter(prefix + "trace.events", events_.size());
  registry.SetCounter(prefix + "trace.dropped_events", dropped_);
}

std::string TraceEventToJson(const TraceEvent& event) {
  std::string out = "{\"t_us\": ";
  out += FormatU64(event.t_us);
  out += ", \"type\": \"";
  AppendEscaped(out, event.type);
  out += "\"";
  out += event.fields;
  out += "}";
  return out;
}

std::string TraceToJsonl(const std::vector<TraceEvent>& events, uint64_t dropped) {
  std::string out;
  for (const TraceEvent& event : events) {
    out += TraceEventToJson(event);
    out += "\n";
  }
  if (dropped > 0) {
    out += "{\"type\": \"trace.dropped\", \"count\": ";
    out += FormatU64(dropped);
    out += "}\n";
  }
  return out;
}

Status WriteTraceFile(const std::string& path, const TraceSink& sink) {
  return WriteFile(path, TraceToJsonl(sink.events(), sink.dropped()));
}

}  // namespace sos::obs
