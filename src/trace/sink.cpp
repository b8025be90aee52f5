#include "trace/sink.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace turq::trace {

namespace {

/// Printable process id: -1 stands in for "none/broadcast".
long long pid_of(ProcessId p) {
  return p == kInvalidProcess ? -1 : static_cast<long long>(p);
}

}  // namespace

// ------------------------------------------------------------------ JSONL --

void JsonlSink::on_event(const TraceEvent& e) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"t\":%lld,\"cat\":\"%s\",\"kind\":\"%s\",\"p\":%lld,"
                "\"phase\":%u,\"v\":%lld,\"frame\":%llu,\"bytes\":%u}\n",
                static_cast<long long>(e.at), to_string(e.category),
                to_string(e.kind), pid_of(e.process), e.phase,
                static_cast<long long>(e.value),
                static_cast<unsigned long long>(e.frame), e.bytes);
  out_ << buf;
}

void JsonlSink::on_metrics(const MetricsRegistry& metrics) {
  char buf[256];
  for (const auto& [name, c] : metrics.counters()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"type\":\"metric\",\"name\":\"%s\",\"value\":%llu}\n",
                  name.c_str(), static_cast<unsigned long long>(c.value()));
    out_ << buf;
  }
  for (const auto& [name, h] : metrics.histograms()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"type\":\"hist\",\"name\":\"%s\",\"count\":%llu,"
                  "\"sum\":%.6f,\"bounds\":[",
                  name.c_str(), static_cast<unsigned long long>(h.count()),
                  h.sum());
    out_ << buf;
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%g", i == 0 ? "" : ",", h.bounds()[i]);
      out_ << buf;
    }
    out_ << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts().size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%llu", i == 0 ? "" : ",",
                    static_cast<unsigned long long>(h.counts()[i]));
      out_ << buf;
    }
    out_ << "]}\n";
  }
}

void JsonlSink::on_end(std::uint64_t emitted, std::uint64_t dropped) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"type\":\"trace_end\",\"events\":%llu,\"dropped\":%llu}\n",
                static_cast<unsigned long long>(emitted),
                static_cast<unsigned long long>(dropped));
  out_ << buf;
}

// ----------------------------------------------------------- Chrome trace --

void ChromeTraceSink::on_event(const TraceEvent& e) {
  if (e.kind == Kind::kRepBegin) rep_ = static_cast<std::uint32_t>(e.value);
  events_.push_back(Held{rep_, e});
}

void ChromeTraceSink::on_end(std::uint64_t, std::uint64_t) {}

void ChromeTraceSink::close() {
  if (closed_) return;
  closed_ = true;

  // Lane scheme: pid = repetition, tid 0 = the shared channel, tid p+1 = the
  // per-process lane. ts/dur are microseconds (Trace Event Format).
  char buf[320];
  bool first = true;
  out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const auto emit_raw = [&](const char* line) {
    out_ << (first ? "" : ",\n") << line;
    first = false;
  };

  // Metadata: name the lanes.
  std::map<std::uint32_t, SimTime> rep_end;               // pid -> max ts
  std::map<std::pair<std::uint32_t, ProcessId>, bool> lanes;
  for (const Held& h : events_) {
    rep_end[h.rep] = std::max(rep_end[h.rep], h.event.at);
    if (h.event.process != kInvalidProcess) {
      lanes[{h.rep, h.event.process}] = true;
    }
  }
  for (const auto& [rep, end] : rep_end) {
    (void)end;
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,"
                  "\"args\":{\"name\":\"rep %u\"}}",
                  rep, rep);
    emit_raw(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%u,"
                  "\"tid\":0,\"args\":{\"name\":\"channel\"}}",
                  rep);
    emit_raw(buf);
  }
  for (const auto& [lane, seen] : lanes) {
    (void)seen;
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%u,"
                  "\"tid\":%u,\"args\":{\"name\":\"p%u\"}}",
                  lane.first, lane.second + 1, lane.second);
    emit_raw(buf);
  }

  const auto us = [](SimTime t) {
    return static_cast<double>(t) / 1000.0;
  };
  const auto instant = [&](const Held& h, const char* name, std::uint32_t tid) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"i\",\"name\":\"%s\",\"pid\":%u,\"tid\":%u,"
                  "\"ts\":%.3f,\"s\":\"t\"}",
                  name, h.rep, tid, us(h.event.at));
    emit_raw(buf);
  };
  const auto span = [&](std::uint32_t rep, std::uint32_t tid, const char* name,
                        SimTime from, SimTime to) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%u,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  name, rep, tid, us(from), us(to - from));
    emit_raw(buf);
  };

  // Open phase/round span per lane; closed by the next enter or rep end.
  struct OpenSpan {
    std::string name;
    SimTime since = 0;
  };
  std::map<std::pair<std::uint32_t, ProcessId>, OpenSpan> open;
  char name[96];

  for (const Held& h : events_) {
    const TraceEvent& e = h.event;
    const std::uint32_t tid =
        e.process == kInvalidProcess ? 0 : e.process + 1;
    switch (e.kind) {
      case Kind::kFrameTxStart:
        std::snprintf(name, sizeof(name), "%s p%lld (%uB)",
                      e.phase != 0 ? "bcast" : "ucast", pid_of(e.process),
                      e.bytes);
        span(h.rep, 0, name, e.at, e.at + e.value);
        break;
      case Kind::kFrameCollided:
        instant(h, "collision", 0);
        break;
      case Kind::kPhaseEnter:
      case Kind::kRoundEnter: {
        const auto key = std::make_pair(h.rep, e.process);
        const auto it = open.find(key);
        if (it != open.end()) {
          span(h.rep, tid, it->second.name.c_str(), it->second.since, e.at);
        }
        if (e.kind == Kind::kPhaseEnter) {
          std::snprintf(name, sizeof(name), "phase %u%s", e.phase,
                        e.value != 0 ? " (jump)" : "");
        } else {
          std::snprintf(name, sizeof(name), "round %u.%lld", e.phase,
                        static_cast<long long>(e.value));
        }
        open[key] = OpenSpan{name, e.at};
        break;
      }
      case Kind::kPropose:
        instant(h, "propose", tid);
        break;
      case Kind::kDecide:
        std::snprintf(name, sizeof(name), "decide %lld",
                      static_cast<long long>(e.value));
        instant(h, name, tid);
        break;
      case Kind::kCoinFlip:
        instant(h, "coin", tid);
        break;
      case Kind::kCrash:
        instant(h, "crash", tid);
        break;
      default:
        break;  // fine-grained kinds stay JSONL-only
    }
  }
  for (const auto& [key, s] : open) {
    const SimTime end = std::max(rep_end[key.first], s.since);
    span(key.first, key.second + 1, s.name.c_str(), s.since, end);
  }

  out_ << "\n]}\n";
  events_.clear();
}

// ------------------------------------------------------------------ Buffer --

void BufferSink::on_event(const TraceEvent& event) {
  ops_.push_back(Op::kEvent);
  events_.push_back(event);
}

void BufferSink::on_metrics(const MetricsRegistry& metrics) {
  ops_.push_back(Op::kMetrics);
  metrics_.push_back(metrics);
}

void BufferSink::on_end(std::uint64_t emitted, std::uint64_t dropped) {
  ops_.push_back(Op::kEnd);
  ends_.push_back(End{emitted, dropped});
}

void BufferSink::replay(Sink& sink) const {
  std::size_t event = 0;
  std::size_t metric = 0;
  std::size_t end = 0;
  for (const Op op : ops_) {
    switch (op) {
      case Op::kEvent: sink.on_event(events_[event++]); break;
      case Op::kMetrics: sink.on_metrics(metrics_[metric++]); break;
      case Op::kEnd: sink.on_end(ends_[end].emitted, ends_[end].dropped);
        ++end;
        break;
    }
  }
}

}  // namespace turq::trace
