#include "src/util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace gent {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

namespace {

// Parses an already-trimmed spelling with strtod and reports whether
// the whole of it is one finite number. strtod can only accept a finite
// number that starts with a digit, a sign or a '.', so every other
// first byte is rejected without copying the string.
bool ParseFinite(std::string_view t, double* v) {
  if (t.empty()) return false;
  const char c = t[0];
  if (!std::isdigit(static_cast<unsigned char>(c)) && c != '+' && c != '-' &&
      c != '.') {
    return false;
  }
  char small[64];
  std::string large;
  const char* p = small;
  if (t.size() < sizeof small) {
    std::memcpy(small, t.data(), t.size());
    small[t.size()] = '\0';
  } else {
    large.assign(t);
    p = large.c_str();
  }
  char* end = nullptr;
  *v = std::strtod(p, &end);
  return end == p + t.size() && std::isfinite(*v);
}

}  // namespace

bool IsNumeric(std::string_view s) {
  double v;
  return ParseFinite(Trim(s), &v);
}

std::string_view CanonicalNumeric(std::string_view s, std::string* scratch) {
  double v;
  if (!ParseFinite(Trim(s), &v)) return s;
  // Integers print without a fractional part; everything else uses %.12g,
  // which round-trips the distinct values our generators emit while
  // collapsing trailing-zero spellings ("3.10" == "3.1").
  // std::to_chars with a precision prints exactly what printf's %.12g
  // would, without the format-string parsing.
  char out[40];
  const std::to_chars_result r =
      v == std::floor(v) && std::abs(v) < 1e15
          ? std::to_chars(out, out + sizeof(out), static_cast<long long>(v))
          : std::to_chars(out, out + sizeof(out), v,
                          std::chars_format::general, 12);
  scratch->assign(out, r.ptr);
  return *scratch;
}

std::string NormalizeNumeric(std::string_view s) {
  std::string scratch;
  const std::string_view canonical = CanonicalNumeric(s, &scratch);
  if (canonical.data() == scratch.data()) return scratch;
  return std::string(s);
}

}  // namespace gent
