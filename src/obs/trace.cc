// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/obs/trace.h"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "src/obs/metrics.h"

namespace sos::obs {

namespace {

template <typename Int>
void AppendInt(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
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

// True iff `v` is a JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
bool LooksNumeric(std::string_view v) {
  size_t i = 0;
  const auto digits = [&] {
    const size_t start = i;
    while (i < v.size() && v[i] >= '0' && v[i] <= '9') {
      ++i;
    }
    return i > start;
  };
  if (i < v.size() && v[i] == '-') {
    ++i;
  }
  if (i < v.size() && v[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < v.size() && v[i] == '.') {
    ++i;
    if (!digits()) {
      return false;
    }
  }
  if (i < v.size() && (v[i] == 'e' || v[i] == 'E')) {
    ++i;
    if (i < v.size() && (v[i] == '+' || v[i] == '-')) {
      ++i;
    }
    if (!digits()) {
      return false;
    }
  }
  return i == v.size();
}

// A string or double field renders bare when it is a JSON number -- as the
// integer fields' output always is -- and quoted otherwise, so hand-built
// string fields and non-finite doubles stay quoted.
void AppendValue(std::string& out, std::string_view value) {
  if (LooksNumeric(value)) {
    out += value;
  } else {
    out += "\"";
    AppendEscaped(out, value);
    out += "\"";
  }
}

uint64_t Zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t Unzigzag(uint64_t v) { return static_cast<int64_t>((v >> 1) ^ (0 - (v & 1))); }

uint64_t GetVarint(const uint8_t*& p) {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
  }
}

}  // namespace

uint64_t TraceLog::Intern(std::string_view name) {
  for (size_t id = 0; id < names_.size(); ++id) {
    if (names_[id] == name) {
      return id;
    }
  }
  names_.emplace_back(name);
  return names_.size() - 1;
}

void TraceLog::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<uint8_t>(v | 0x80));
    v >>= 7;
  }
  bytes_.push_back(static_cast<uint8_t>(v));
}

void TraceLog::BeginEvent(SimTimeUs t_us, std::string_view type) {
  PutVarint(Zigzag(static_cast<int64_t>(t_us - last_t_us_)));
  last_t_us_ = t_us;
  PutVarint(Intern(type));
}

void TraceLog::PutField(std::string_view key, Kind kind) {
  PutVarint((Intern(key) + 1) << 2 | kind);
}

TraceEvent& TraceEvent::With(std::string_view key, std::string_view value) {
  log_->PutField(key, TraceLog::kString);
  log_->PutVarint(value.size());
  log_->bytes_.insert(log_->bytes_.end(), value.begin(), value.end());
  return *this;
}

TraceEvent& TraceEvent::WithU64(std::string_view key, uint64_t value) {
  log_->PutField(key, TraceLog::kU64);
  log_->PutVarint(value);
  return *this;
}

TraceEvent& TraceEvent::WithI64(std::string_view key, int64_t value) {
  log_->PutField(key, TraceLog::kI64);
  log_->PutVarint(Zigzag(value));
  return *this;
}

TraceEvent& TraceEvent::WithF64(std::string_view key, double value) {
  log_->PutField(key, TraceLog::kF64);
  uint8_t raw[sizeof(value)];
  std::memcpy(raw, &value, sizeof(value));
  log_->bytes_.insert(log_->bytes_.end(), raw, raw + sizeof(raw));
  return *this;
}

TraceSink::TraceSink(size_t capacity) : capacity_(capacity) { trace_.Reserve(capacity_); }

void TraceSink::ToMetrics(MetricRegistry& registry, const std::string& prefix) const {
  registry.SetCounter(prefix + "trace.events", trace_.size());
  registry.SetCounter(prefix + "trace.dropped_events", dropped_);
}

std::string TraceToJsonl(const TraceLog& trace, uint64_t dropped) {
  std::string out;
  const uint8_t* p = trace.bytes_.data();
  SimTimeUs t_us = 0;
  for (size_t i = 0; i < trace.size_; ++i) {
    t_us += static_cast<SimTimeUs>(Unzigzag(GetVarint(p)));
    out += "{\"t_us\": ";
    AppendInt(out, t_us);
    out += ", \"type\": \"";
    AppendEscaped(out, trace.names_[GetVarint(p)]);
    out += "\"";
    for (uint64_t tag = GetVarint(p); tag != 0; tag = GetVarint(p)) {
      out += ", \"";
      AppendEscaped(out, trace.names_[(tag >> 2) - 1]);
      out += "\": ";
      switch (static_cast<TraceLog::Kind>(tag & 3)) {
        case TraceLog::kU64:
          AppendInt(out, GetVarint(p));
          break;
        case TraceLog::kI64:
          AppendInt(out, Unzigzag(GetVarint(p)));
          break;
        case TraceLog::kF64: {
          double value;
          std::memcpy(&value, p, sizeof(value));
          p += sizeof(value);
          AppendValue(out, FormatJsonDouble(value));
          break;
        }
        case TraceLog::kString: {
          const size_t length = GetVarint(p);
          AppendValue(out, std::string_view(reinterpret_cast<const char*>(p), length));
          p += length;
          break;
        }
      }
    }
    out += "}\n";
  }
  if (dropped > 0) {
    out += "{\"type\": \"trace.dropped\", \"count\": ";
    AppendInt(out, dropped);
    out += "}\n";
  }
  return out;
}

Status WriteTraceFile(const std::string& path, const TraceSink& sink) {
  return WriteFile(path, TraceToJsonl(sink.trace(), sink.dropped()));
}

}  // namespace sos::obs
