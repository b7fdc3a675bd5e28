#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace rfid {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
    case StatusCode::kInternal:
      return "Internal error";
  }
  return "Unknown code";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

namespace internal {
void FatalStatus(const char* file, int line, const Status& st) {
  std::fprintf(stderr, "[%s:%d] fatal status: %s\n", file, line,
               st.ToString().c_str());
  std::abort();
}
}  // namespace internal

}  // namespace rfid
