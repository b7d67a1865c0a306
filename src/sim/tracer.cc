#include "sim/tracer.h"

#include <cassert>
#include <cstdio>

namespace cm::sim {

void Tracer::record(TraceEvent ev, ProcId track,
                    std::initializer_list<TraceArg> args) {
  assert(args.size() <= kMaxArgs && "raise Tracer::kMaxArgs");
  Record r;
  r.t = engine_->now();
  r.ev = ev;
  r.track = track;
  r.nargs = static_cast<std::uint8_t>(args.size());
  std::size_t i = 0;
  for (const TraceArg& a : args) r.args[i++] = a;
  records_.push_back(r);
  ++counts_[static_cast<unsigned>(ev)];
  if (track > max_track_) max_track_ = track;
}

std::uint64_t Tracer::next_msg_id() {
  const unsigned lane = engine_->current_lane();
  if (lane >= msg_cnt_.size()) [[unlikely]] msg_cnt_.resize(lane + 1, 0);
  return (std::uint64_t{lane} << 40) | ++msg_cnt_[lane];
}

std::string Tracer::chrome_json() const {
  std::string out;
  out.reserve(96 * (records_.size() + max_track_ + 2));
  char buf[256];
  out += "{\"traceEvents\":[\n";
  // Track metadata first: one named thread per simulated processor, all in
  // one process (the machine). Deterministic: tracks 0..max in order.
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":0,\"args\":{\"name\":\"machine\"}}");
  out += buf;
  for (ProcId p = 0; p <= max_track_; ++p) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%u,\"args\":{\"name\":\"proc %u\"}}",
                  p, p);
    out += buf;
  }
  // Instant events, in the order they were recorded.
  for (const Record& r : records_) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"i\","
                  "\"s\":\"t\",\"ts\":%llu,\"pid\":0,\"tid\":%u",
                  static_cast<int>(trace_event_name(r.ev).size()),
                  trace_event_name(r.ev).data(),
                  static_cast<int>(trace_event_category(r.ev).size()),
                  trace_event_category(r.ev).data(),
                  static_cast<unsigned long long>(r.t), r.track);
    out += buf;
    if (r.nargs > 0) {
      out += ",\"args\":{";
      for (std::uint8_t i = 0; i < r.nargs; ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\":%llu", i ? "," : "",
                      r.args[i].key,
                      static_cast<unsigned long long>(r.args[i].value));
        out += buf;
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cm::sim
