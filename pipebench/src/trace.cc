#include "trace.h"

#include <cstdio>

namespace pipebench {

int Tracer::Add(const std::string& name, double start_s, double end_s,
                std::int64_t id, int parent, int tid) {
  spans_.push_back(Span{name, start_s, end_s, parent, id, tid});
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::WriteChromeTrace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"pipebench\"");
  for (const auto& [key, value] : metadata) {
    std::fprintf(f, ",\"%s\":\"%s\"", key.c_str(), value.c_str());
  }
  std::fprintf(f, "}}");
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"span\":%zu,\"parent\":%d}}",
                 s.name.c_str(), s.tid, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6,
                 static_cast<long long>(s.id), k, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::int64_t id,
                       int parent)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_ != nullptr) {
    const double t = tracer_->ToTracerTime(start_);
    index_ = tracer_->Add(name, t, t, id, parent);
  }
}

double ScopedSpan::Stop() {
  end_ = Clock::now();
  if (tracer_ != nullptr) tracer_->SetEnd(index_, tracer_->ToTracerTime(end_));
  return SecondsBetween(start_, end_);
}

}  // namespace pipebench
