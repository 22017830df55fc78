// Small string helpers shared across the library.

#ifndef GENT_UTIL_STRING_UTIL_H_
#define GENT_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace gent {

/// Splits `s` on `delim`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `delim`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Canonicalizes a numeric literal so syntactic value matching is robust:
/// "3.10" -> "3.1", "007" -> "7", "+5" -> "5", "1e2" -> "100".
/// Non-numeric inputs are returned unchanged.
std::string NormalizeNumeric(std::string_view s);

/// NormalizeNumeric without the copy of a non-numeric input: returns `s`
/// itself when it is not numeric, else writes the canonical spelling to
/// `*scratch` and returns a view of it. The dictionary's hot path.
std::string_view CanonicalNumeric(std::string_view s, std::string* scratch);

/// True if `s` parses fully as a finite decimal/scientific number.
bool IsNumeric(std::string_view s);

}  // namespace gent

#endif  // GENT_UTIL_STRING_UTIL_H_
