#pragma once
// String helpers shared by the BLIF / genlib parsers and the table printers.

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace minpower {

/// Split `s` on any run of characters from `delims`, skipping empty fields.
inline std::vector<std::string_view> split_ws(std::string_view s,
                                              std::string_view delims = " \t\r\n") {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    const std::size_t start = s.find_first_not_of(delims, i);
    if (start == std::string_view::npos) break;
    const std::size_t end = s.find_first_of(delims, start);
    out.push_back(s.substr(start, (end == std::string_view::npos ? s.size() : end) - start));
    i = (end == std::string_view::npos) ? s.size() : end;
  }
  return out;
}

inline std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return {};
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// The whole of `s` as a T, or nullopt. std::from_chars rules: no leading
/// whitespace, no '+', and no sign at all on unsigned types; values out of
/// T's range are rejected, and so are non-finite floating values.
template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T value{};
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace minpower
